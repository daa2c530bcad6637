"""Shared read-only quadrature rules, the nested full-plus-half estimate and
the antipodal chord pairing."""

import numpy as np
import pytest

import chordmean as cm
from chordmean import averaging, biharmonic
from chordmean.averaging import _antipodal_half, _interpolant_values
from chordmean.boundary import cap_indicator
from chordmean.geometry import RULE_CACHE_SIZE, DirectionQuadrature, _build
from chordmean.poisson import build_boundary_quadrature


def test_rules_are_shared_and_read_only():
    dq = cm.build_direction_quadrature(2, "uniform_angle_2d", 256)
    assert cm.build_direction_quadrature(2, "uniform_angle_2d", 256) is dq
    mc = cm.build_direction_quadrature(3, "monte_carlo", 64, seed=3)
    assert cm.build_direction_quadrature(3, "monte_carlo", 64, seed=3) is mc
    assert cm.build_direction_quadrature(3, "monte_carlo", 64, seed=4) is not mc
    bq = build_boundary_quadrature(cm.BallDomain(center=(0.5, 0.0, 0.0), radius=2.0),
                                   resolution=16)
    assert bq.rule is cm.build_direction_quadrature(3, "gauss_product_3d", 16)
    assert bq.half_resolution().rule is bq.rule.half_resolution()
    for arr in (dq.directions, dq.weights, mc.half_resolution().weights,
                bq.rule.directions, bq.rule.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_boundary_rules_follow_ball_geometry():
    base = build_boundary_quadrature(cm.BallDomain(center=(0.0, 0.0), radius=1.0),
                                     resolution=64)
    moved = build_boundary_quadrature(cm.BallDomain(center=(0.5, 0.0), radius=1.0),
                                      resolution=64)
    scaled = build_boundary_quadrature(cm.BallDomain(center=(0.0, 0.0), radius=2.0),
                                       resolution=64)
    assert moved is not base and scaled is not base
    np.testing.assert_array_equal(moved.points, base.points + [0.5, 0.0])
    np.testing.assert_array_equal(scaled.weights, 2.0 * base.weights)


def test_rule_cache_is_bounded():
    for n in range(4, 4 + 2 * RULE_CACHE_SIZE):
        cm.build_direction_quadrature(2, "uniform_angle_2d", n)
    assert _build.cache_info().currsize <= RULE_CACHE_SIZE


def test_nested_half_nodes_are_the_half_rule():
    disk = cm.BallDomain(center=(0.2, -0.1), radius=1.5)
    for n in (4, 64, 4094, 4096):
        bq = build_boundary_quadrature(disk, resolution=n)
        assert np.array_equal(bq.points[bq.rule.half_nodes], bq.half_resolution().points)
        dq = cm.build_direction_quadrature(2, "uniform_angle_2d", n)
        assert np.array_equal(dq.directions[dq.half_nodes],
                              dq.half_resolution().directions)
    assert build_boundary_quadrature(disk, resolution=255).rule.half_nodes is None
    assert cm.build_direction_quadrature(3, "gauss_product_3d", 8).half_nodes is None


@pytest.fixture
def separate_halves(monkeypatch):
    """Make every rule evaluate its half rule on its own nodes, as a rule
    whose half is not nested does."""
    def disable():
        monkeypatch.setattr(DirectionQuadrature, "half_nodes", property(lambda self: None))
    return disable


def _disk_case():
    disk = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
    data = cm.harmonic_poly(2, 5, "im").boundary_data()
    return disk, data, np.array([0.31, -0.42])


def _almansi_case():
    """Biharmonic data h1 + (|x|^2 - 1) h2 for the disk case."""
    u = cm.almansi_assemble(cm.harmonic_poly(2, 3, "re"), cm.harmonic_poly(2, 2, "im"))
    return u.boundary_data()


def _solves():
    disk, data, p = _disk_case()
    ball = cm.BallDomain(center=(0.0, 0.0, 0.0), radius=1.0)
    hp3 = cm.harmonic_poly(3, 3, 1).boundary_data()
    p3 = np.array([0.2, -0.1, 0.3])
    uniform = cm.build_direction_quadrature(2, "uniform_angle_2d", 4096)
    return {
        "harmonic": lambda: cm.solve_harmonic(disk, data, p, uniform).report,
        "harmonic_mc": lambda: cm.solve_harmonic(
            ball, hp3, p3, cm.build_direction_quadrature(3, "monte_carlo", 1001,
                                                         seed=8)).report,
        "biharmonic": lambda: cm.solve_biharmonic(disk, _almansi_case(), p,
                                                  uniform).report,
        "poisson_even": lambda: cm.poisson_solve(
            disk, data, p, build_boundary_quadrature(disk, resolution=4096)),
        "poisson_odd": lambda: cm.poisson_solve(
            disk, data, p, build_boundary_quadrature(disk, resolution=4095)),
        "star": lambda: cm.solve_on_domain(
            cm.StarDomain2D.conformal(0.25), data, np.array([0.1, 0.2]),
            cm.build_direction_quadrature(2, "uniform_angle_2d", 1024)).report,
        "cross_section": lambda: cm.cross_section_solve(
            ball, hp3, p3,
            cm.build_direction_quadrature(3, "monte_carlo_design", 11, seed=2),
            inner_resolution=64).report,
    }


@pytest.mark.parametrize("name", sorted(_solves()))
def test_nested_half_is_bit_identical(name, separate_halves):
    nested = _solves()[name]()
    separate_halves()
    separate = _solves()[name]()
    assert nested.value.hex() == separate.value.hex()
    assert nested.error_estimate.hex() == separate.error_estimate.hex()
    assert nested.nodes_used == separate.nodes_used


def test_nested_half_evaluates_the_data_once():
    disk, data, p = _disk_case()
    seen = []

    def value(pts):
        seen.append(len(pts))
        return data.value(pts)

    counted = cm.BoundaryData(value, data.gradient)
    cm.poisson_solve(disk, counted, p, build_boundary_quadrature(disk, resolution=4096))
    assert seen == [4096]
    seen.clear()
    cm.poisson_solve(disk, counted, p, build_boundary_quadrature(disk, resolution=4095))
    assert seen == [4095, 2047]
    seen.clear()
    cm.poisson_solve(disk, counted, p, build_boundary_quadrature(disk, resolution=4094))
    assert seen == [4094]              # the odd half rule is the first half
    seen.clear()
    dq = cm.build_direction_quadrature(2, "uniform_angle_2d", 512)
    cm.solve_harmonic(disk, counted, p, dq)
    assert seen == [256, 256]          # both chord endpoints, one per antipodal pair
    seen.clear()
    slopes = []
    bi = _almansi_case()

    def value_bi(pts):
        seen.append(len(pts))
        return bi.value(pts)

    def gradient(pts):
        slopes.append(len(pts))
        return bi.gradient(pts)

    cm.solve_biharmonic(disk, cm.BoundaryData(value_bi, gradient), p, dq)
    assert (seen, slopes) == ([256, 256], [256, 256])


def _linear(data, q1, q2, r1, r2, e):
    f1 = np.asarray(data.value(q1), dtype=float)
    f2 = np.asarray(data.value(q2), dtype=float)
    return (r1 * f2 + r2 * f1) / (r1 + r2)


def _hermite_reference(data, q1, q2, r1, r2, e):
    """Hermite cubic at the chord base in the Hermite basis, L = r1 + r2."""
    f1 = np.asarray(data.value(q1), dtype=float)
    f2 = np.asarray(data.value(q2), dtype=float)
    d1 = np.sum(np.asarray(data.gradient(q1), dtype=float) * e, axis=-1)
    d2 = np.sum(np.asarray(data.gradient(q2), dtype=float) * e, axis=-1)
    length = r1 + r2
    return (((r2 + 3.0 * r1) * (r2 * r2) * f1 + (r1 + 3.0 * r2) * (r1 * r1) * f2)
            / length ** 3
            + r1 * r2 * (r2 * d1 - r1 * d2) / (length * length))


def _shifted_reference(data, q1, q2, r1, r2, e):
    """The same cubic from its coefficients in s = t - (a + b)/2."""
    a, b = -r1, r2
    fa = np.asarray(data.value(q1), dtype=float)
    fb = np.asarray(data.value(q2), dtype=float)
    dfa = np.sum(np.asarray(data.gradient(q1), dtype=float) * e, axis=-1)
    dfb = np.sum(np.asarray(data.gradient(q2), dtype=float) * e, axis=-1)
    h = 0.5 * (b - a)
    alpha = (dfa + dfb) / (4.0 * h * h) - (fb - fa) / (4.0 * h ** 3)
    beta = (dfb - dfa) / (4.0 * h)
    gamma = (fb - fa) / (2.0 * h) - alpha * h * h
    delta = 0.5 * (fa + fb) - beta * h * h
    s0 = -0.5 * (a + b)
    return ((alpha * s0 + beta) * s0 + gamma) * s0 + delta


def _unpaired(domain, data, p, dirs, term=_linear):
    """The chord term solved and evaluated on every row of ``dirs``."""
    a, b = domain.chord_roots(p, dirs)
    base = p[..., np.newaxis, :]
    return term(data, base + a[..., np.newaxis] * dirs, base + b[..., np.newaxis] * dirs,
                -a, b, dirs)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _chord_cases():
    data = cm.harmonic_poly(2, 5, "im").boundary_data()
    disk = cm.BallDomain(center=(0.2, -0.1), radius=1.5)
    cap = cm.CapSpec(vertex=(0.3, 0.2), axis=(0.6, 0.8), half_angle=0.7, nappe="both")
    data3 = cm.harmonic_poly(3, 5, -2).boundary_data()
    ball = cm.BallDomain(center=(0.2, -0.1, 0.3), radius=1.5)
    cap3 = cm.CapSpec(vertex=(0.3, 0.2, 0.1), axis=(0.0, 0.6, 0.8), half_angle=0.7,
                      nappe="both")
    return {
        "ball3d": (ball, data3, np.array([0.31, -0.42, 0.5])),
        "cap_indicator3d": (ball, cap_indicator(cap3, ball), np.array([0.3, 0.2, 0.1])),
        "base_points3d": (cm.BallDomain(center=(0.0, 0.0, 0.0), radius=1.0), data3,
                          np.array([[0.0, 0.0, 0.0], [0.5, -0.25, 0.1],
                                    [-0.1, 0.2, 0.7]])),
        "ball": (disk, data, np.array([0.31, -0.42])),
        "ellipse": (cm.Ellipse2D(center=(0.0, 0.0), semi_axes=(1.5, 1.0)), data,
                    np.array([0.4, -0.3])),
        "conformal_star": (cm.StarDomain2D.conformal(0.25), data, np.array([0.1, 0.2])),
        "radial_star": (cm.StarDomain2D(lambda t: 1.0 + 0.2 * np.cos(3 * t)), data,
                        np.array([-0.2, 0.1])),
        "cap_indicator": (disk, cap_indicator(cap, disk), np.array([0.3, 0.2])),
        "base_points": (cm.BallDomain(center=(0.0, 0.0), radius=1.0), data,
                        np.array([[0.0, 0.0], [0.5, -0.25], [-0.1, 0.7]])),
    }


@pytest.mark.parametrize("name", sorted(_chord_cases()))
def test_paired_interpolant_equals_unpaired(name):
    """Uniform 4096 angles in 2-D, the Gauss 64 x 128 product in 3-D."""
    domain, data, p = _chord_cases()[name]
    if p.shape[-1] == 2:
        dirs = cm.build_direction_quadrature(2, "uniform_angle_2d", 4096).directions
    else:
        dirs = cm.build_direction_quadrature(3, "gauss_product_3d", 64).directions
    n = len(dirs)
    assert _antipodal_half(dirs) == n // 2
    paired = _interpolant_values(domain, data, p, dirs)
    assert paired.shape == p.shape[:-1] + (n,)
    assert np.array_equal(_bits(paired), _bits(_unpaired(domain, data, p, dirs)))


def test_paired_solves_equal_unpaired(monkeypatch):
    disk, data, p = _disk_case()
    ball = cm.BallDomain(center=(0.1, 0.0, -0.2), radius=1.2)
    hp3 = cm.harmonic_poly(3, 3, 2).boundary_data()
    dq = cm.build_direction_quadrature(2, "uniform_angle_2d", 4096)
    gauss = cm.build_direction_quadrature(3, "gauss_product_3d", 64)
    almansi3 = cm.almansi_assemble(cm.harmonic_poly(3, 3, 1),
                                   cm.harmonic_poly(3, 2, -1)).boundary_data()

    def results():
        reports = [cm.solve_harmonic(disk, data, p, dq).report,
                   cm.solve_biharmonic(disk, _almansi_case(), p, dq).report,
                   cm.solve_harmonic(ball, hp3, (0.2, -0.1, 0.3), gauss).report,
                   cm.solve_biharmonic(ball, almansi3, (0.2, -0.1, 0.3), gauss).report,
                   cm.solve_on_domain(cm.StarDomain2D.conformal(0.3), data, (0.2, 0.1),
                                      dq).report,
                   cm.cross_section_solve(ball, hp3, (0.2, -0.1, 0.3),
                                          cm.build_direction_quadrature(3, "gauss_product_3d",
                                                                        8),
                                          inner_resolution=512,
                                          inner_solver="chords").report]
        return ([(r.value.hex(), r.error_estimate.hex()) for r in reports]
                + [cm.chord_interpolant_max(disk, data, p, dq).hex()])

    paired = results()
    monkeypatch.setattr(averaging, "_interpolant_values", _unpaired)
    monkeypatch.setattr(biharmonic, "_hermite_term", _hermite_reference)
    assert results() == paired


def test_hermite_term_matches_the_shifted_form():
    """The solver's closed form at 0 and the cubic's midpoint-shifted
    coefficients agree to rounding, not bit for bit."""
    disk, _, p = _disk_case()
    dirs = cm.build_direction_quadrature(2, "uniform_angle_2d", 4096).directions
    closed = _interpolant_values(disk, _almansi_case(), p, dirs, biharmonic._hermite_term)
    shifted = _unpaired(disk, _almansi_case(), p, dirs, _shifted_reference)
    assert np.max(np.abs(closed - shifted)) <= 1e-15


@pytest.mark.parametrize("dq,counts", [
    (cm.build_direction_quadrature(2, "uniform_angle_2d", 512), [256, 256]),
    (cm.build_direction_quadrature(2, "uniform_angle_2d", 4094), [2047, 2047]),
    (cm.build_direction_quadrature(2, "uniform_angle_2d", 4095), [4095, 4095, 2047, 2047]),
    (cm.build_direction_quadrature(2, "monte_carlo", 1000, seed=5), [1000, 1000]),
    (cm.build_direction_quadrature(3, "gauss_product_3d", 8), [64, 64, 16, 16]),
    (cm.build_direction_quadrature(3, "gauss_product_3d", 5), [25, 25, 4, 4]),
], ids=["even", "half_odd", "odd", "monte_carlo", "gauss_product", "gauss_product_odd"])
def test_only_antipodal_rules_are_paired(dq, counts):
    """Data evaluations of a chord solve: one per antipodal pair and chord end
    on the even uniform rules and the Gauss products (an odd product's
    equatorial ring pairs with itself), one per node and end otherwise; a
    half rule that does not nest (odd, Gauss) is evaluated on its own."""
    ball = cm.BallDomain(center=np.zeros(dq.dim), radius=1.0)
    data = cm.harmonic_poly(dq.dim, 2, "re" if dq.dim == 2 else 0).boundary_data()
    seen = []

    def value(pts):
        seen.append(len(pts))
        return data.value(pts)

    counted = cm.BoundaryData(value, data.gradient)
    cm.solve_harmonic(ball, counted, np.full(dq.dim, 0.2), dq)
    assert seen == counts
