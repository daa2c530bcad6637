import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import chordmean as cm
from chordmean.averaging import star_hits_batch
from chordmean.geometry import (
    _STAR_MAX_RHO,
    _independent,
    _circle_nodes,
    _gauss_product_3d,
    as_point,
    ball_chord_roots,
    measure_rule,
    philox_stream,
    plane_sections,
    uniform_directions,
)
from chordmean.boundary import _cone_cosines
from chordmean.brownian import _disk_exits, exits_plane_batch
from chordmean.poisson import fixed_sum


def test_chord_through_offset_ball():
    # roots of t^2 - t - 0.75 = 0, frozen from the quadratic oracle
    oracle = np.sort(np.roots([1.0, -1.0, -0.75]))
    ball = cm.BallDomain(center=(0.5, 0.0), radius=1.0)
    c = cm.chord_through(ball, (0.0, 0.0), (1.0, 0.0))
    assert_allclose([c.t_neg, c.t_pos], oracle, atol=1e-14)
    assert_allclose(c.q1, [-0.5, 0.0], atol=1e-14)
    assert_allclose(c.q2, [1.5, 0.0], atol=1e-14)
    assert_allclose([c.r1, c.r2], [0.5, 1.5], atol=1e-14)


def test_chord_product_direction_independent():
    ball = cm.BallDomain(center=(0.5, 0.0), radius=1.0)
    c = cm.chord_through(ball, (0.0, 0.0), (0.0, 1.0))
    assert_allclose(c.t_neg, -math.sqrt(0.75), atol=1e-14)
    assert_allclose(c.t_pos, math.sqrt(0.75), atol=1e-14)
    assert_allclose(c.t_neg * c.t_pos, -0.75, atol=1e-13)


def test_chord_through_center():
    ball = cm.BallDomain(center=(1.0, -2.0, 0.5), radius=1.7)
    c = cm.chord_through(ball, ball.center, (0.0, 0.0, 1.0))
    assert_allclose([c.t_neg, c.t_pos], [-1.7, 1.7], atol=1e-14)


def test_root_product_invariance():
    rng = np.random.default_rng(11)
    for _ in range(5):
        dim = rng.choice([2, 3])
        center = rng.uniform(-1.0, 1.0, dim)
        radius = rng.uniform(0.5, 2.0)
        ball = cm.BallDomain(center=center, radius=radius)
        p = center + rng.uniform(0.0, 0.9) * radius * _unit(rng, dim)
        dirs = rng.standard_normal((1000, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        a, b = ball_chord_roots(ball, p, dirs)
        gamma = float((p - center) @ (p - center)) - radius ** 2
        assert np.max(np.abs(a * b - gamma)) <= 1e-12 * abs(gamma)


def _unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def test_chord_involution_swaps_roots_exactly():
    ball = cm.BallDomain(center=(0.3, -0.1), radius=1.2)
    e = np.array([0.6, 0.8])
    fwd = cm.chord_through(ball, (0.2, 0.4), e)
    bwd = cm.chord_through(ball, (0.2, 0.4), -e)
    assert_array_equal(fwd.q1, bwd.q2)
    assert_array_equal(fwd.q2, bwd.q1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_are_rejected(bad):
    ball = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
    dq = cm.build_direction_quadrature(2, "uniform_angle_2d", 64)
    data = cm.harmonic_poly(2, 2, "re").boundary_data()
    with pytest.raises(cm.BadParameter):
        as_point((bad, 0.0))
    with pytest.raises(cm.BadParameter):
        cm.solve_harmonic(ball, data, (0.0, bad), dq)
    with pytest.raises(cm.BadParameter):
        cm.BallDomain(center=(bad, 0.0, 0.0), radius=1.0)
    with pytest.raises(cm.BadParameter):
        cm.Ellipse2D(center=(0.0, 0.0), semi_axes=(1.5, 1.0)).require_interior((bad, 0.0))


def test_chord_preconditions():
    ball = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
    with pytest.raises(cm.PointNotInterior):
        cm.chord_through(ball, (1.0, 0.0), (1.0, 0.0))
    with pytest.raises(cm.PointNotInterior):
        cm.chord_through(ball, (2.0, 0.0), (1.0, 0.0))
    with pytest.raises(cm.DegenerateDirection):
        cm.chord_through(ball, (0.0, 0.0), (1.0, 1.0))


def test_ellipse_chord_matches_quadratic_oracle():
    ell = cm.Ellipse2D(center=(0.2, -0.1), semi_axes=(1.5, 0.8))
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = ell.center + np.array([rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4)])
        e = _unit(rng, 2)
        c = cm.chord_through(ell, p, e)
        # quadratic in t from the scaled coordinates, solved independently
        u = (p - ell.center) / np.asarray(ell.semi_axes)
        v = e / np.asarray(ell.semi_axes)
        roots = np.sort(np.roots([v @ v, 2.0 * (u @ v), u @ u - 1.0]))
        assert_allclose([c.t_neg, c.t_pos], roots, atol=1e-12)
        assert c.t_neg < 0.0 < c.t_pos


def test_ellipse_disk_equals_ball():
    disk_e = cm.Ellipse2D(center=(0.0, 0.0), semi_axes=(1.0, 1.0))
    ball = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
    ce = cm.chord_through(disk_e, (0.3, 0.1), (0.0, 1.0))
    cb = cm.chord_through(ball, (0.3, 0.1), (0.0, 1.0))
    assert_allclose([ce.t_neg, ce.t_pos], [cb.t_neg, cb.t_pos], atol=1e-13)


def test_ray_hit_star_conformal():
    star = cm.StarDomain2D.conformal(0.4)
    hit, dist = cm.ray_hit_star(star, (0.0, 0.0), (1.0, 0.0))
    assert_allclose(hit, [1.8, 0.0], atol=1e-10)   # q(1) = 0.4 + 1 + 0.4
    assert_allclose(dist, 1.8, atol=1e-10)
    hit, dist = cm.ray_hit_star(star, (0.0, 0.0), (0.0, 1.0))
    assert_allclose(hit, [0.0, 1.0], atol=1e-10)   # modulus 1 + 2a cos(pi/2) = 1


def test_ray_hit_star_radial_circle():
    circle = cm.StarDomain2D(lambda t: 1.0 + 0.0 * np.asarray(t))
    hit, dist = cm.ray_hit_star(circle, (0.3, 0.0), (1.0, 0.0))
    assert_allclose(hit, [1.0, 0.0], atol=1e-10)
    assert_allclose(dist, 0.7, atol=1e-10)


def test_ray_hit_star_detects_multiple_crossings():
    # peanut: star-shaped about the origin but not about (0.7, 0)
    peanut = cm.StarDomain2D(lambda t: 1.0 + 0.95 * np.cos(2.0 * np.asarray(t)))
    e = np.array([-1.4, 0.3])
    e /= np.linalg.norm(e)
    with pytest.raises(cm.NotStarShapedFromP):
        cm.ray_hit_star(peanut, (0.7, 0.0), e)
    hit, dist = cm.ray_hit_star(peanut, (0.0, 0.0), (0.0, 1.0))
    assert_allclose(dist, 0.05, atol=1e-10)


def test_star_hits_batch_solves_boundary_equation():
    star = cm.StarDomain2D.conformal(0.35)
    rng = np.random.default_rng(2)
    dirs = rng.standard_normal((40, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    p = np.array([0.3, -0.2])
    batch = star_hits_batch(star, p, dirs)
    hits = p + batch[:, np.newaxis] * dirs
    rho = star.boundary_radius(np.arctan2(hits[:, 1], hits[:, 0]))
    assert np.max(np.abs(np.hypot(hits[:, 0], hits[:, 1]) - rho)) <= 1e-12


def test_star_check_is_per_point():
    # The peanut is not star-shaped from (0.7, 0), so even the ray along +x,
    # which crosses the boundary once, is refused.
    peanut = cm.StarDomain2D(lambda t: 1.0 + 0.95 * np.cos(2.0 * np.asarray(t)))
    with pytest.raises(cm.NotStarShapedFromP):
        cm.ray_hit_star(peanut, (0.7, 0.0), (1.0, 0.0))


def test_radial_circle_hits_equal_the_disk_roots():
    circle = cm.StarDomain2D(lambda t: 1.0 + 0.0 * np.asarray(t))
    disk = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
    rng = np.random.default_rng(4)
    dirs = rng.standard_normal((64, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for point in ((0.0, 0.0), (0.3, -0.4), (-0.7, 0.2), (0.05, 0.9)):
        p = np.array(point)
        assert_allclose(circle.chord_roots(p, dirs), ball_chord_roots(disk, p, dirs),
                        rtol=0.0, atol=1e-13)


def test_point_between_a_table_chord_and_its_arc():
    # 1e-7 inside the unit circle, halfway between two of the 4096 table
    # angles: the chord of the table passes between P and the boundary, so
    # that bracket spans more than pi as seen from P.
    circle = cm.StarDomain2D(lambda t: 1.0 + 0.0 * np.asarray(t))
    disk = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
    half_step = math.pi / 4096
    p = (1.0 - 1e-7) * np.array([math.cos(half_step), math.sin(half_step)])
    dirs = _circle_nodes(256)
    assert_allclose(circle.chord_roots(p, dirs), ball_chord_roots(disk, p, dirs),
                    rtol=0.0, atol=1e-12)


def test_scalar_only_rho_calls_per_chord_set():
    calls = [0]

    def rho(t):
        r = 1.0 + 0.2 * math.cos(3.0 * t)      # math.cos refuses arrays
        calls[0] += 1
        return r

    star = cm.StarDomain2D(rho)
    p = star.require_interior((0.1, -0.2))
    n = 16
    dirs = _circle_nodes(n)
    calls[0] = 0
    a, b = star.chord_roots(p, dirs)
    assert _STAR_MAX_RHO == 53
    assert calls[0] <= 4096 + _STAR_MAX_RHO * 2 * n
    assert np.all(a < 0.0) and np.all(b > 0.0)


def _bisected_star_hits(domain, p, dirs):
    """Hit distances by 53 bisection midpoints on each ray's table bracket:
    the reference for the secant solve of ``star_hits_batch``."""
    table = domain.boundary_radius(np.linspace(0.0, 2.0 * math.pi, 4097)[:-1])
    thetas = np.linspace(0.0, 2.0 * math.pi, 4097)
    bx = np.append(table, table[0]) * np.cos(thetas) - p[0]
    by = np.append(table, table[0]) * np.sin(thetas) - p[1]
    phi = np.arctan2(by, bx)
    phi += 2.0 * math.pi * np.cumsum(np.diff(phi, prepend=phi[0]) < 0.0)
    ex, ey = dirs[:, 0], dirs[:, 1]
    alpha = phi[0] + np.mod(np.arctan2(ey, ex) - phi[0], 2.0 * math.pi)
    k = np.minimum(np.searchsorted(phi, alpha, side="right"), phi.size - 1)
    lo, hi = thetas[k - 1], thetas[k]
    ux, uy = bx[k - 1], by[k - 1]
    e_past_pi = alpha - phi[k - 1] > math.pi
    for _ in range(53):
        theta = 0.5 * (lo + hi)
        r = domain.boundary_radius(theta)
        bx, by = r * np.cos(theta) - p[0], r * np.sin(theta) - p[1]
        short = np.where((ux * by - uy * bx < 0.0) == e_past_pi,
                         bx * ey - by * ex >= 0.0, e_past_pi)
        lo, hi = np.where(short, theta, lo), np.where(short, hi, theta)
    return bx * ex + by * ey


_STAR_CASES = {
    "conformal-0.1": (cm.StarDomain2D.conformal(0.1), 0.4),
    "conformal-0.25": (cm.StarDomain2D.conformal(0.25), 0.25),
    "conformal-0.4": (cm.StarDomain2D.conformal(0.4), 0.1),
    "three-lobes": (cm.StarDomain2D(lambda t: 1.0 + 0.2 * np.cos(3.0 * t)), 0.3),
}


@pytest.mark.parametrize("name", _STAR_CASES)
def test_star_hits_match_a_bisection(name):
    star, reach = _STAR_CASES[name]
    rng = np.random.default_rng(31)
    dirs = np.concatenate([_circle_nodes(1024), uniform_directions(rng, 500, 2)])
    for _ in range(4):
        p = reach * rng.uniform() * uniform_directions(rng, 1, 2)[0]
        ref = _bisected_star_hits(star, p, dirs)
        assert np.max(np.abs(star_hits_batch(star, p, dirs) - ref) / ref) <= 1e-14


def test_star_rays_near_the_boundary_keep_the_budget():
    # 1e-7 inside the unit circle between two table angles, where a bracket
    # spans more than pi, some rays need the safeguard's bisection steps
    calls = [0]

    def rho(t):
        calls[0] += 1
        return 1.0

    circle = cm.StarDomain2D(rho)
    half_step = math.pi / 4096
    p = (1.0 - 1e-7) * np.array([math.cos(half_step), math.sin(half_step)])
    dirs = _circle_nodes(256)
    calls[0] = 0
    t = star_hits_batch(circle, p, dirs)
    assert calls[0] <= _STAR_MAX_RHO * len(dirs)
    disk = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
    assert_allclose(t, ball_chord_roots(disk, p, dirs)[1], rtol=0.0, atol=1e-12)


def _boundary_residual(domain, q):
    """How far the rows of q are from the boundary of ``domain``."""
    if isinstance(domain, cm.BallDomain):
        return np.abs(np.linalg.norm(q - domain.center, axis=1) - domain.radius)
    if isinstance(domain, cm.Ellipse2D):
        return np.abs(np.sum(((q - domain.center) / domain.semi_axes) ** 2, axis=1) - 1.0)
    rho = domain.boundary_radius(np.arctan2(q[:, 1], q[:, 0]))
    return np.abs(np.hypot(q[:, 0], q[:, 1]) - rho)


_PROTOCOL_DOMAINS = {
    "disk": (cm.BallDomain(center=(0.0, 0.0), radius=1.0), (0.3, -0.4)),
    "ball3d": (cm.BallDomain(center=(0.0, 0.0, 0.0), radius=1.0), (0.2, 0.5, -0.3)),
    "offcentre": (cm.BallDomain(center=(0.4, -1.2, 0.7), radius=1.7), (0.9, -0.5, 1.1)),
    "ellipse": (cm.Ellipse2D(center=(0.2, -0.1), semi_axes=(1.5, 0.8)), (0.7, 0.2)),
    "conformal": (cm.StarDomain2D.conformal(0.3), (0.2, -0.1)),
    "radial": (cm.StarDomain2D(lambda t: 1.0 + 0.2 * np.cos(3.0 * t)), (-0.1, 0.15)),
}


@pytest.mark.parametrize("name", sorted(_PROTOCOL_DOMAINS))
def test_domain_protocol_chord_roots(name):
    domain, point = _PROTOCOL_DOMAINS[name]
    p = domain.require_interior(point)
    rng = np.random.default_rng(8)
    dirs = rng.standard_normal((64, domain.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    a, b = domain.chord_roots(p, dirs)
    assert np.all(a < 0.0) and np.all(b > 0.0)
    for t in (a, b):
        assert np.max(_boundary_residual(domain, p + t[:, np.newaxis] * dirs)) <= 1e-12
    for k in (0, 17, 63):
        chord = cm.chord_through(domain, point, dirs[k])
        assert_allclose([chord.t_neg, chord.t_pos], [a[k], b[k]], rtol=0.0, atol=1e-13)


def test_non_domains_are_rejected():
    with pytest.raises(cm.BadParameter):
        cm.chord_through((0.0, 0.0), (0.0, 0.0), (1.0, 0.0))
    dq = cm.build_direction_quadrature(2, "uniform_angle_2d", 64)
    with pytest.raises(cm.BadParameter):
        cm.chord_interpolant_max("disk", cm.constant_data(1.0), (0.0, 0.0), dq)


def test_star_domain_validation():
    with pytest.raises(cm.BadParameter):
        cm.StarDomain2D.conformal(0.5)
    with pytest.raises(cm.BadParameter):
        cm.StarDomain2D(lambda t: np.cos(t))  # not positive


def test_uniform_angle_quadrature():
    dq = cm.build_direction_quadrature(2, "uniform_angle_2d", 4)
    angles = np.arctan2(dq.directions[:, 1], dq.directions[:, 0]) % (2 * math.pi)
    assert_allclose(np.sort(angles), [0.0, math.pi / 2, math.pi, 3 * math.pi / 2],
                    atol=1e-12)
    assert_allclose(dq.weights, 0.25)


@pytest.mark.parametrize("dim,scheme,res", [
    (2, "uniform_angle_2d", 256),
    (3, "gauss_product_3d", 8),
    (3, "gauss_product_3d", 32),
    (2, "monte_carlo", 5000),
    (3, "monte_carlo", 5000),
    (3, "monte_carlo_design", 128),
])
def test_direction_quadrature_invariants(dim, scheme, res):
    seed = 9 if scheme.startswith("monte_carlo") else None
    dq = cm.build_direction_quadrature(dim, scheme, res, seed=seed)
    assert abs(np.sum(dq.weights) - 1.0) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(dq.directions, axis=1) - 1.0)) <= 1e-12
    linear = dq.weights @ dq.directions
    tol = 3.0 / math.sqrt(len(dq)) if scheme.startswith("monte_carlo") else 1e-14
    assert np.max(np.abs(linear)) <= tol


def test_gauss_product_counts_and_exactness():
    dq = cm.build_direction_quadrature(3, "gauss_product_3d", 8)
    assert len(dq) == 128
    for m in range(1, 7):
        for k in cm.basis_indices(3, m):
            vals = cm.harmonic_poly(3, m, k).value(dq.directions)
            assert abs(float(dq.weights @ vals)) <= 1e-12


def test_monte_carlo_quadrature_moment():
    # second moment of a coordinate under the uniform sphere measure is 1/3
    dq = cm.build_direction_quadrature(3, "monte_carlo", 10 ** 4, seed=42)
    moment = float(dq.weights @ dq.directions[:, 0] ** 2)
    assert abs(moment - 1.0 / 3.0) <= 0.01
    again = cm.build_direction_quadrature(3, "monte_carlo", 10 ** 4, seed=42)
    assert_array_equal(dq.directions, again.directions)


def test_direction_quadrature_errors():
    with pytest.raises(cm.BadResolution):
        cm.build_direction_quadrature(2, "uniform_angle_2d", 3)
    with pytest.raises(cm.MissingSeed):
        cm.build_direction_quadrature(3, "monte_carlo", 100)
    with pytest.raises(cm.BadParameter):
        cm.build_direction_quadrature(2, "gauss_product_3d", 8)


@pytest.mark.parametrize("dim, scheme", [(2, "uniform_angle_2d"), (3, "gauss_product_3d")])
def test_deterministic_schemes_refuse_a_seed(dim, scheme):
    # a seed would change nothing, so it is refused rather than ignored
    with pytest.raises(cm.BadParameter, match="takes no seed"):
        cm.build_direction_quadrature(dim, scheme, 16, seed=3)
    assert cm.build_direction_quadrature(dim, scheme, 16).seed is None


@pytest.mark.parametrize("dim, scheme", [(2, "monte_carlo"), (3, "monte_carlo"),
                                         (3, "monte_carlo_design")])
def test_monte_carlo_schemes_take_their_seed(dim, scheme):
    dq = cm.build_direction_quadrature(dim, scheme, 16, seed=3)
    assert dq.seed == 3
    assert dq.directions.shape[1] == dim


GAUSS8 = cm.build_direction_quadrature(3, "gauss_product_3d", 8)


@pytest.mark.parametrize("fields, error", [
    ((GAUSS8.directions, GAUSS8.weights, "gauss_product_3d", 7), cm.BadResolution),
    ((GAUSS8.directions, GAUSS8.weights, "gauss_product_3d", 2.5), cm.BadResolution),
    ((GAUSS8.directions, GAUSS8.weights, "gauss_product_3d", -3), cm.BadResolution),
    ((GAUSS8.directions, GAUSS8.weights, "gauss_product_3d", 10 ** 400), cm.BadResolution),
    ((GAUSS8.directions, GAUSS8.weights, "gauss_product_3d", "x"), cm.BadResolution),
    ((GAUSS8.directions, GAUSS8.weights, "monte_carlo_design", 8, 1), cm.BadResolution),
    ((GAUSS8.directions[:10], GAUSS8.weights[:64], "gauss_product_3d", 8), cm.BadParameter),
    ((GAUSS8.directions[:, 0], GAUSS8.weights, "gauss_product_3d", 8), cm.BadParameter),
    ((GAUSS8.directions, GAUSS8.weights, "gauss_product_3d", 8, 3), cm.BadParameter),
    ((GAUSS8.directions, GAUSS8.weights, "monte_carlo", 128), cm.MissingSeed),
    ((GAUSS8.directions, GAUSS8.weights, "sobol", 8), cm.BadParameter),
    ((GAUSS8.directions, GAUSS8.weights, ["gauss_product_3d"], 8), cm.BadParameter),
])
def test_direction_quadrature_refuses_fields_no_builder_makes(fields, error):
    # a hand-built rule labelled with another resolution would solve with
    # the wrong half rule; shapes that disagree would end in numpy's errors
    with pytest.raises(error):
        cm.DirectionQuadrature(*fields)


@pytest.mark.parametrize("dim, scheme, res, seed", [
    (2, "uniform_angle_2d", 4, None), (2, "uniform_angle_2d", 5, None),
    (2, "uniform_angle_2d", 4097, None), (3, "gauss_product_3d", 4, None),
    (3, "gauss_product_3d", 5, None), (2, "monte_carlo", 4, 1), (3, "monte_carlo", 5, 1),
    (3, "monte_carlo_design", 4, 1), (3, "monte_carlo_design", 5, 1)])
def test_every_built_rule_and_its_halves_pass_the_field_checks(dim, scheme, res, seed):
    rule = cm.build_direction_quadrature(dim, scheme, res, seed)
    for _ in range(3):
        again = cm.DirectionQuadrature(rule.directions, rule.weights, rule.scheme,
                                       rule.resolution, rule.seed)
        assert (again.resolution, again.seed) == (rule.resolution, rule.seed)
        rule = rule.half_resolution()


def test_half_resolution():
    dq = cm.build_direction_quadrature(2, "uniform_angle_2d", 64)
    half = dq.half_resolution()
    assert len(half) == 32
    mc = cm.build_direction_quadrature(2, "monte_carlo", 64, seed=1)
    half_mc = mc.half_resolution()
    assert_array_equal(half_mc.directions, mc.directions[:32])


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _angle_nodes(n, count):
    t = 2.0 * math.pi * np.arange(count) / n
    return np.column_stack([np.cos(t), np.sin(t)])


@pytest.mark.parametrize("n", [512, 4094, 4096, 2 ** 16])
def test_even_circle_nodes_hold_exact_antipodes(n):
    nodes = _circle_nodes(n)
    h = n // 2
    assert_array_equal(_bits(nodes[h:]), _bits(-nodes[:h]))
    assert_array_equal(_bits(nodes[:h]), _bits(_angle_nodes(n, h)))
    dq = cm.build_direction_quadrature(2, "uniform_angle_2d", n)
    assert_array_equal(_bits(dq.half_resolution().directions),
                       _bits(dq.directions[dq.half_nodes]))


@pytest.mark.parametrize("n", [12, 100, 4092, 4094])
def test_every_other_node_holds_an_odd_half_rules_angles(n):
    """Every other node of the n rule is its half rule, bit for bit: the n/2
    rule's angle set, with the angles past pi rounded as negations."""
    dq = cm.build_direction_quadrature(2, "uniform_angle_2d", n)
    half = dq.half_resolution().directions

    def by_angle(nodes):
        k = np.rint(np.arctan2(nodes[:, 1], nodes[:, 0]) * (n / 2) / (2.0 * math.pi))
        return nodes[np.argsort(np.mod(k, n // 2))]

    assert dq.half_nodes == slice(None, None, 2)
    assert_array_equal(_bits(half), _bits(dq.directions[::2]))
    assert np.max(np.abs(by_angle(half) - _angle_nodes(n // 2, n // 2))) <= 1.1e-15


@pytest.mark.parametrize("n", [5, 255, 4095])
def test_odd_circle_nodes_are_the_plain_angles(n):
    assert_array_equal(_bits(_circle_nodes(n)), _bits(_angle_nodes(n, n)))


def _gauss_reference(n):
    """The n-polar Gauss product node by node: ring i (Legendre node x_i),
    azimuth j of m = 2n; nodes (n, m, 3) and weights (n, m)."""
    x, w = np.polynomial.legendre.leggauss(n)
    m = 2 * n
    phi = 2.0 * math.pi * np.arange(m) / m
    s = np.sqrt(1.0 - x * x)[:, np.newaxis]
    nodes = np.stack([s * np.cos(phi), s * np.sin(phi),
                      np.broadcast_to(x[:, np.newaxis], (n, m))], axis=-1)
    return nodes, np.broadcast_to((w / 2.0 / m)[:, np.newaxis], (n, m)), x


def _sphere_moment(a, b, c):
    """Mean of x^a y^b z^c over the unit sphere: 0 unless all are even, else
    Gamma(al) Gamma(be) Gamma(ga) / (2 pi Gamma(al + be + ga)), al = (a+1)/2."""
    if a % 2 or b % 2 or c % 2:
        return 0.0
    al, be, ga = (a + 1) / 2, (b + 1) / 2, (c + 1) / 2
    return math.exp(math.lgamma(al) + math.lgamma(be) + math.lgamma(ga)
                    - math.lgamma(al + be + ga)) / (2.0 * math.pi)


@pytest.mark.parametrize("n", [2, 4, 5, 8, 15, 16, 64, 256])
def test_gauss_product_holds_exact_antipodes(n):
    """The last N/2 rows are the first N/2 negated bit for bit, the weights
    repeat, and the rows are the (ring, azimuth) product as a set: each row's
    z is a Legendre node exactly, its azimuth rounds to one of the 2n, every
    pair occurs once, and the row is that node to rounding of the azimuth."""
    dq = _gauss_product_3d(n)
    dirs, weights = dq.directions, dq.weights
    h = n * n
    assert len(dq) == 2 * h and _independent(dirs)[0].tobytes() == dirs[:h].tobytes()
    assert _independent(dirs)[1]
    assert_array_equal(_bits(weights[h:]), _bits(weights[:h]))
    assert abs(fixed_sum(weights) - 1.0) <= 2 * 2.0 ** -52

    nodes, ref_weights, x = _gauss_reference(n)
    ring = np.searchsorted(x, dirs[:, 2])
    assert_array_equal(x[ring], dirs[:, 2])
    m = 2 * n
    azimuth = np.mod(np.rint(np.arctan2(dirs[:, 1], dirs[:, 0]) * m / (2.0 * math.pi)),
                     m).astype(int)
    assert np.array_equal(np.sort(ring * m + azimuth), np.arange(2 * h))
    assert np.max(np.abs(dirs - nodes[ring, azimuth])) <= 1.5e-15
    assert_array_equal(_bits(weights), _bits(ref_weights[ring, azimuth]))


@pytest.mark.parametrize("n", [2, 4, 5, 8, 15, 16, 64, 256])
def test_gauss_product_integrates_monomials(n):
    """Exact to 1e-14 for x^a y^b z^c of degree <= 2n - 1: every monomial up
    to degree min(2n - 1, 8), and pure and mixed powers of degree 2n - 2 and
    2n - 1."""
    dq = _gauss_product_3d(n)
    top = 2 * n - 1
    powers = [(a, b, d - a - b) for d in range(min(top, 8) + 1)
              for a in range(d + 1) for b in range(d - a + 1)]
    for d in (top - 1, top):
        powers += [(d, 0, 0), (0, d, 0), (0, 0, d), (d // 2, d - d // 2, 0),
                   (0, d // 2, d - d // 2), (d // 3, d // 3, d - 2 * (d // 3))]
    # rows 0..8 of each table are the coordinate's powers by repeated products
    tables = [np.cumprod(np.vstack([np.ones(len(dq))] + [col] * 8), axis=0)
              for col in dq.directions.T]

    def power(i, k):
        return tables[i][k] if k <= 8 else dq.directions[:, i] ** k

    for a, b, c in powers:
        mean = fixed_sum(dq.weights * power(0, a) * power(1, b) * power(2, c))
        assert abs(mean - _sphere_moment(a, b, c)) <= 1e-14, (a, b, c)


@pytest.mark.parametrize("rule", [
    cm.default_direction_quadrature(2), cm.default_direction_quadrature(3),
    measure_rule(2), measure_rule(3)], ids=["default2d", "default3d", "measure2d",
                                           "measure3d"])
def test_default_rules_and_their_halves_are_antipodal(rule):
    """The chord solves pair every default rule and its half rule."""
    for dq in (rule, rule.half_resolution()):
        rows, paired = _independent(dq.directions)
        assert paired and len(rows) == len(dq) // 2


def test_mobius_examples():
    assert_allclose(cm.mobius_involution(0.5, 1.0), -1.0, atol=1e-14)
    w = 0.3 - 0.4j
    assert_allclose(cm.mobius_involution(w, 0.0), w, atol=1e-14)
    assert abs(cm.mobius_involution(w, w)) <= 1e-14
    z = complex(math.cos(0.7), math.sin(0.7))
    assert_allclose(cm.mobius_involution(0.0, z), -z, atol=1e-14)


def test_mobius_is_involution_on_circle():
    rng = np.random.default_rng(8)
    worst_round = 0.0
    worst_mod = 0.0
    for _ in range(100):
        p = complex(*rng.uniform(-0.6, 0.6, 2))
        for theta in rng.uniform(0.0, 2.0 * math.pi, 1000):
            z = complex(math.cos(theta), math.sin(theta))
            jz = cm.mobius_involution(p, z)
            worst_mod = max(worst_mod, abs(abs(jz) - 1.0))
            worst_round = max(worst_round, abs(cm.mobius_involution(p, jz) - z))
    assert worst_mod <= 1e-12
    assert worst_round <= 1e-10


def test_mobius_requires_interior_point():
    with pytest.raises(cm.PointNotInterior):
        cm.mobius_involution(1.0, 1.0)


def test_plane_section_examples():
    ball = cm.BallDomain(center=(0.0, 0.0, 0.0), radius=1.0)
    sec = cm.plane_section(ball, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    assert_allclose(sec.center3d[0], [0.0, 0.0, 0.0], atol=1e-14)
    assert_allclose(sec.radius[0], 1.0, atol=1e-14)
    assert_allclose(sec.base2d[0], [0.0, 0.0], atol=1e-14)

    sec = cm.plane_section(ball, (0.0, 0.0, 0.6), (0.0, 0.0, 1.0))
    assert_allclose(sec.radius[0], 0.8, atol=1e-12)      # sqrt(1 - 0.36)
    assert_allclose(sec.base2d[0], [0.0, 0.0], atol=1e-12)

    sec = cm.plane_section(ball, (0.3, 0.0, 0.0), (0.0, 0.0, 1.0))
    assert_allclose(sec.radius[0], 1.0, atol=1e-12)
    assert_allclose(np.linalg.norm(sec.base2d[0]), 0.3, atol=1e-12)


def test_plane_section_properties():
    ball = cm.BallDomain(center=(0.2, -0.1, 0.4), radius=1.3)
    rng = np.random.default_rng(4)
    for _ in range(1000):
        p = ball.center + rng.uniform(0.0, 0.95) * ball.radius * _unit(rng, 3)
        nu = _unit(rng, 3)
        sec = cm.plane_section(ball, p, nu)
        d = abs(float((ball.center - p) @ nu))
        assert abs(sec.radius[0] ** 2 + d * d - ball.radius ** 2) <= 1e-10
        frame = np.vstack([sec.u, sec.v])
        gram = frame @ frame.T
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-12
        assert np.max(np.abs(frame @ nu)) <= 1e-12
        assert np.linalg.norm(sec.base2d[0]) < sec.radius[0]
        # the section boundary lies on the sphere
        phis = np.linspace(0.0, 2.0 * math.pi, 7)
        pts = sec.to_3d(np.column_stack([np.cos(phis), np.sin(phis)])[np.newaxis])[0]
        assert np.max(np.abs(np.linalg.norm(pts - ball.center, axis=1)
                             - ball.radius)) <= 1e-10


def test_plane_sections_rows_match_plane_section():
    ball = cm.BallDomain(center=(0.2, -0.1, 0.4), radius=1.3)
    p = np.array([0.5, 0.3, 0.1])
    normals = cm.build_direction_quadrature(3, "monte_carlo_design", 20, seed=5).directions
    secs = plane_sections(ball, p, normals)
    for k, nu in enumerate(normals):
        one = cm.plane_section(ball, p, nu)
        for batch, single in ((secs.center3d[k], one.center3d[0]),
                              (secs.radius[k], one.radius[0]),
                              (secs.u[k], one.u[0]), (secs.v[k], one.v[0]),
                              (secs.base2d[k], one.base2d[0])):
            assert_allclose(batch, single, rtol=0.0, atol=1e-15)


def _rowwise_plane_sections(ball, p, normals):
    """Plane sections built row by row on (K, 3) arrays: the reference for
    the coordinate-block build of ``plane_sections``."""
    d_signed = (ball.center - p) @ normals.T
    center3d = ball.center - d_signed[:, np.newaxis] * normals
    radius = np.sqrt(ball.radius ** 2 - d_signed ** 2)
    idx = np.argmin(np.abs(normals), axis=1)
    rows = np.arange(normals.shape[0])
    u = -normals[rows, idx][:, np.newaxis] * normals
    u[rows, idx] += 1.0
    u /= np.linalg.norm(u, axis=1)[:, np.newaxis]
    v = np.cross(normals, u)
    base = p - center3d
    base2d = np.column_stack([np.sum(base * u, axis=1), np.sum(base * v, axis=1)])
    return center3d, radius, u, v, base2d


def test_plane_sections_equal_the_rowwise_frame_bit_for_bit():
    rng = np.random.default_rng(8)
    normals = uniform_directions(rng, 400, 3)
    s = 1.0 / math.sqrt(3.0)
    special = [(1, 0, 0), (0, -1, 0), (0, 0, 1), (s, s, s), (-s, s, -s),
               (0.5, 0.5, math.sqrt(0.5)), (math.sqrt(0.5), -0.5, 0.5),
               (0.6, 0.6, math.sqrt(0.28)), (0.6, -0.8, 0.0)]      # ties in |n_j|
    normals = np.concatenate([np.array(special, dtype=float), normals])
    for ball, p in ((_OFF_BALL, _OFF_P),
                    (cm.BallDomain((0.0, 0.0, 0.0), 1.0), np.array([0.0, 0.0, 0.5]))):
        secs = plane_sections(ball, p, normals)
        for got, ref in zip((secs.center3d, secs.radius, secs.u, secs.v, secs.base2d),
                            _rowwise_plane_sections(ball, p, normals)):
            assert got.shape == ref.shape
            assert np.ascontiguousarray(got).tobytes() == ref.tobytes()
        assert all(secs.u[:, j].flags.c_contiguous for j in range(3))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_uniform_directions_norms_equal_linalg_norm(dim):
    # row_dot's row norms are np.linalg.norm's bit for bit up to four
    # columns, the quaternions of the monte_carlo_design rotations included
    g = philox_stream(9, 0).standard_normal((5000, dim))
    ref = g / np.linalg.norm(g, axis=1, keepdims=True)
    assert uniform_directions(philox_stream(9, 0), 5000, dim).tobytes() == ref.tobytes()


def _broadcast_to_3d(secs, xi):
    """center + r * (xi_0 u + xi_1 v), broadcast over a trailing axis of 3."""
    rows = (slice(None),) + (np.newaxis,) * (xi.ndim - 2)
    return secs.center3d[rows] + secs.radius[rows + (np.newaxis,)] * (
        xi[..., 0:1] * secs.u[rows] + xi[..., 1:2] * secs.v[rows])


_OFF_BALL = cm.BallDomain(center=(0.25, -0.5, 1.0), radius=1.5)
_OFF_P = np.array([0.5, -0.25, 1.75])


@pytest.mark.parametrize("shape", ["inner-circle", "chord-ends", "exits"])
def test_to_3d_is_the_broadcast_formula_bit_for_bit(shape):
    # the three shapes it is given: one circle for every section (1, m, 2),
    # chord ends per section (K, h, 2), one exit per section (K, 2)
    rng = np.random.default_rng(12)
    normals = rng.standard_normal((37, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, np.newaxis]
    secs = plane_sections(_OFF_BALL, _OFF_P, normals)
    xi = {"inner-circle": _circle_nodes(64)[np.newaxis],
          "chord-ends": rng.uniform(-1.0, 1.0, (37, 20, 2)),
          "exits": rng.uniform(-1.0, 1.0, (37, 2))}[shape]
    pts, ref = secs.to_3d(xi), _broadcast_to_3d(secs, xi)
    assert pts.shape == ref.shape
    assert pts.tobytes() == ref.tobytes()
    flat = pts.reshape(-1, 3)                       # a view, column-major
    assert np.shares_memory(flat, pts)
    assert all(flat[:, j].flags.c_contiguous for j in range(3))


def test_plane_traveler_keeps_its_bytes():
    # exits_plane_batch against its draws mapped by the broadcast formula,
    # and the cap cosines of its column-major points against a row-major copy
    n = 1000
    pts, normals = exits_plane_batch(_OFF_BALL, _OFF_P, philox_stream(7, 11), n)
    rng = philox_stream(7, 11)
    again = uniform_directions(rng, n, 3)
    secs = plane_sections(_OFF_BALL, _OFF_P, again)
    t = _disk_exits((secs.base2d[:, 0] + 1j * secs.base2d[:, 1]) / secs.radius,
                    rng.uniform(0.0, 2.0 * math.pi, n))
    ref = _broadcast_to_3d(secs, np.column_stack([t.real, t.imag]))
    assert normals.tobytes() == again.tobytes()
    assert pts.tobytes() == ref.tobytes()
    axis = np.array([0.0, 0.6, 0.8])
    assert (_cone_cosines(_OFF_P, axis, pts).tobytes()
            == _cone_cosines(_OFF_P, axis, np.ascontiguousarray(pts)).tobytes())


def test_plane_section_requires_interior():
    ball = cm.BallDomain(center=(0.0, 0.0, 0.0), radius=1.0)
    with pytest.raises(cm.PointNotInterior):
        cm.plane_section(ball, (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))


def test_philox_streams_are_reproducible_and_distinct():
    a = philox_stream(123, 0).standard_normal(5)
    b = philox_stream(123, 0).standard_normal(5)
    c = philox_stream(123, 1).standard_normal(5)
    assert_array_equal(a, b)
    assert not np.array_equal(a, c)
