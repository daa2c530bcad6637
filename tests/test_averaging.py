import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import chordmean as cm
from chordmean import averaging, geometry
from chordmean.boundary import MAX_DEGREE, basis_indices
from chordmean.geometry import _circle_nodes
from chordmean.poisson import fixed_sum


DISK = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
BALL = cm.BallDomain(center=(0.0, 0.0, 0.0), radius=1.0)
DQ2 = cm.build_direction_quadrature(2, "uniform_angle_2d", 4096)
DQ3 = cm.build_direction_quadrature(3, "gauss_product_3d", 64)


def test_solve_constant_is_exact():
    res = cm.solve_harmonic(DISK, cm.constant_data(1.0), (0.3, -0.4), DQ2)
    assert res.value == 1.0
    res = cm.solve_harmonic(BALL, cm.constant_data(1.0), (0.1, 0.2, 0.3), DQ3)
    assert abs(res.value - 1.0) <= 1e-13


def test_solve_linear_data():
    res = cm.solve_harmonic(DISK, cm.harmonic_poly(2, 1, "re").boundary_data(),
                            (0.31, -0.27), DQ2)
    assert abs(res.value - 0.31) <= 1e-12


def test_solve_quadratic_example():
    data = cm.harmonic_poly(2, 2, "re").boundary_data()
    res = cm.solve_harmonic(DISK, data, (0.3, 0.2), DQ2)
    assert abs(res.value - 0.05) <= 1e-8
    assert res.oracle_value is not None
    assert res.residual <= 1e-8
    assert res.report.nodes_used == 4096


def test_linearity():
    p = (0.4, -0.2)
    a = cm.harmonic_poly(2, 3, "re")
    b = cm.harmonic_poly(2, 2, "im")
    combo = (2.5 * a) + (-1.5 * b)
    lhs = cm.solve_harmonic(DISK, combo.boundary_data(), p, DQ2).value
    rhs = 2.5 * cm.solve_harmonic(DISK, a.boundary_data(), p, DQ2).value \
        - 1.5 * cm.solve_harmonic(DISK, b.boundary_data(), p, DQ2).value
    assert abs(lhs - rhs) <= 1e-12


def test_homogeneous_annihilation():
    for dim, dq in ((2, DQ2), (3, DQ3)):
        offset_dir = np.zeros(dim)
        offset_dir[0] = 0.6
        offset_dir[-1] = 0.8
        for offset in (0.0, 0.3, 0.7):
            ball = cm.BallDomain(center=offset * offset_dir, radius=1.0)
            for m in (2, 4, 6):
                data = cm.harmonic_poly(dim, m, basis_indices(dim, m)[0]).boundary_data()
                res = cm.solve_harmonic(ball, data, np.zeros(dim), dq)
                assert abs(res.value) <= 1e-8


def test_value_below_chord_interpolant_max():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(0, 7))
        k = rng.choice(basis_indices(2, m))
        data = cm.harmonic_poly(2, m, k).boundary_data()
        p = rng.uniform(-0.6, 0.6, 2)
        value = cm.solve_harmonic(DISK, data, p, DQ2).value
        assert value <= cm.chord_interpolant_max(DISK, data, p, DQ2) + 1e-12


def test_chord_interpolant_max_examples():
    assert_allclose(cm.chord_interpolant_max(DISK, cm.constant_data(1.0), (0.2, 0.1), DQ2), 1.0)
    data = cm.harmonic_poly(2, 2, "re").boundary_data()
    # antipodal endpoints share the value cos(2 theta); the max over theta is 1
    assert_allclose(cm.chord_interpolant_max(DISK, data, (0.0, 0.0), DQ2), 1.0, atol=1e-10)
    lin = cm.harmonic_poly(2, 1, "re").boundary_data()
    assert cm.chord_interpolant_max(DISK, lin, (0.3, 0.0), DQ2) >= 0.3


def test_boundary_continuity():
    data = cm.harmonic_poly(2, 2, "re").boundary_data()
    q0 = np.array([1.0, 0.0])
    errors = []
    for dist in (1e-2, 1e-3):
        p = (1.0 - dist) * q0
        value = cm.solve_harmonic(DISK, data, p, DQ2).value
        errors.append(abs(value - float(data.value(q0))))
    assert errors[1] < errors[0]


def test_solve_on_disk_as_ellipse_matches_oracle():
    circle = cm.Ellipse2D(center=(0.0, 0.0), semi_axes=(1.0, 1.0))
    data = cm.harmonic_poly(2, 2, "re").boundary_data()
    res = cm.solve_on_domain(circle, data, (0.5, 0.0), DQ2)
    assert res.residual <= 1e-9


def test_ellipse_breaks_chord_averaging():
    # recorded residual of the first oracle run; the exact value at P is 0.25
    ellipse = cm.Ellipse2D(center=(0.0, 0.0), semi_axes=(1.5, 1.0))
    data = cm.harmonic_poly(2, 2, "re").boundary_data()
    res = cm.solve_on_domain(ellipse, data, (0.5, 0.0), DQ2)
    assert_allclose(res.oracle_value, 0.25, atol=1e-14)
    assert res.residual > 1e-3
    assert abs(res.residual - 0.2666666666666666) <= 1e-9


def test_linear_data_exact_on_any_domain():
    lin = cm.HarmonicPolynomial(2, [(1, "re", 0.7), (1, "im", -0.2),
                                    (0, "re", 0.1)]).boundary_data()
    ellipse = cm.Ellipse2D(center=(0.0, 0.0), semi_axes=(1.5, 1.0))
    res = cm.solve_on_domain(ellipse, lin, (0.4, 0.3), DQ2)
    assert res.residual <= 1e-12
    star = cm.StarDomain2D.conformal(0.4)
    res = cm.solve_on_domain(star, lin, (0.3, 0.1), DQ2)
    assert res.residual <= 1e-9


def test_star_domain_chord_average_misses_oracle():
    star = cm.StarDomain2D.conformal(0.4)
    data = cm.harmonic_poly(2, 2, "re").boundary_data()
    res = cm.solve_on_domain(star, data, (0.3, 0.1),
                             cm.build_direction_quadrature(2, "uniform_angle_2d", 1024))
    assert res.residual > 1e-3


def test_solver_preconditions():
    data = cm.constant_data(1.0)
    with pytest.raises(cm.PointNotInterior):
        cm.solve_harmonic(DISK, data, (1.0, 0.0), DQ2)
    with pytest.raises(cm.DimMismatch):
        cm.solve_harmonic(DISK, data, (0.0, 0.0), DQ3)
    with pytest.raises(cm.BadParameter):
        cm.solve_on_domain(DISK, data, (0.0, 0.0), DQ2)


def test_cross_section_constant_and_linear():
    ndq = cm.build_direction_quadrature(3, "gauss_product_3d", 8)
    res = cm.cross_section_solve(BALL, cm.constant_data(1.0), (0.1, 0.2, 0.3), ndq, 128)
    assert abs(res.value - 1.0) <= 1e-12
    lin = cm.harmonic_poly(3, 1, 1).boundary_data()
    res = cm.cross_section_solve(BALL, lin, (0.25, -0.1, 0.3), ndq, 128)
    assert abs(res.value - 0.25) <= 1e-10


def test_cross_section_matches_direct_solve():
    data = cm.harmonic_poly(3, 2, 2).boundary_data()
    ndq = cm.build_direction_quadrature(3, "gauss_product_3d", 16)
    p = (0.3, 0.2, 0.1)
    cs = cm.cross_section_solve(BALL, data, p, ndq, 512)
    direct = cm.solve_harmonic(BALL, data, p, DQ3)
    assert abs(cs.value - direct.value) <= 1e-6
    assert cs.residual <= 1e-8


def test_cross_section_inner_chord_solver_agrees():
    data = cm.harmonic_poly(3, 3, -1).boundary_data()
    ndq = cm.build_direction_quadrature(3, "gauss_product_3d", 8)
    p = (0.2, 0.1, -0.3)
    a = cm.cross_section_solve(BALL, data, p, ndq, 256, inner_solver="poisson")
    b = cm.cross_section_solve(BALL, data, p, ndq, 256, inner_solver="chords")
    assert abs(a.value - b.value) <= 1e-8


def test_cross_section_matches_per_section_loop():
    # reference: one plane_section and one Poisson sum per normal
    data = cm.harmonic_poly(3, 4, 1).boundary_data()
    ndq = cm.build_direction_quadrature(3, "monte_carlo_design", 4, seed=9)
    p, m = (0.1, -0.3, 0.2), 128
    phis = 2.0 * math.pi * np.arange(m) / m
    circle = np.column_stack([np.cos(phis), np.sin(phis)])[np.newaxis]
    values = []
    for nu in ndq.directions:
        sec = cm.plane_section(BALL, p, nu)
        z0 = complex(sec.base2d[0, 0], sec.base2d[0, 1]) / sec.radius[0]
        density = (1.0 - abs(z0) ** 2) / np.abs(z0 - np.exp(1j * phis)) ** 2
        values.append(math.fsum(data.value(sec.to_3d(circle)[0]) * density) / m)
    res = cm.cross_section_solve(BALL, data, p, ndq, m)
    ref = math.fsum(ndq.weights * np.array(values))
    assert abs(res.value - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("normals,planes", [
    (cm.build_direction_quadrature(3, "gauss_product_3d", 16), [256 + 64]),
    (cm.build_direction_quadrature(3, "monte_carlo_design", 11, seed=2), [66]),
], ids=["gauss", "design"])
def test_cross_section_solves_each_plane_once(monkeypatch, normals, planes):
    """Normals nu and -nu give one plane: antipodal (Gauss) normals solve
    their first half, for the full and the half rule in one pass, and design
    normals, which hold no antipodes, solve every row of their nested rule
    once.  On one CPU the pass is one chunk (``test_parallel`` covers the
    chunks)."""
    monkeypatch.setattr(geometry, "_usable_cpus", lambda: 1)
    seen, evaluated = [], []
    sections = averaging.plane_sections

    def counted_sections(ball, p, rows):
        seen.append(len(rows))
        return sections(ball, p, rows)

    def value(pts):
        evaluated.append(len(pts))
        return cm.constant_data(1.0).value(pts)

    monkeypatch.setattr(averaging, "plane_sections", counted_sections)
    cm.cross_section_solve(BALL, cm.BoundaryData(value), (0.1, 0.2, 0.3),
                           normals, 64)
    assert seen == planes
    assert evaluated == [64 * k for k in planes]


@pytest.mark.parametrize("inner_solver", ["poisson", "chords"])
def test_paired_cross_section_equals_per_normal_solves(inner_solver):
    """The paired Gauss-16 cross section against one unpaired section solve
    per normal, full and half rule: equal to 1e-14 relative.  The data is not
    harmonic, so the section values vary from ring to ring of normals."""
    data = cm.BoundaryData(lambda x: np.exp(x[:, 0]) * np.cos(2.0 * x[:, 1]) + x[:, 2] ** 3)
    ndq = cm.build_direction_quadrature(3, "gauss_product_3d", 16)
    p, circle = np.array([0.3, -0.2, 0.25]), _circle_nodes(256)

    def reference(dq):
        values = [averaging._section_values(BALL, data, p, dq.directions[k:k + 1], circle,
                                            inner_solver)[0] for k in range(len(dq))]
        return math.fsum(dq.weights * np.array(values))

    full, half = reference(ndq), reference(ndq.half_resolution())
    res = cm.cross_section_solve(BALL, data, p, ndq, 256, inner_solver)
    assert abs(res.value - full) <= 1e-14 * abs(full)
    assert abs(res.report.error_estimate - abs(full - half)) <= 1e-14 * abs(full)


@pytest.mark.parametrize("m", [1024, 2048])
@pytest.mark.parametrize("normals", [
    cm.build_direction_quadrature(3, "gauss_product_3d", 8),
    cm.build_direction_quadrature(3, "monte_carlo_design", 5, seed=3),
], ids=["gauss", "design"])
@pytest.mark.parametrize("inner_solver", ["poisson", "chords"])
def test_cross_section_row_sums_equal_the_fixed_sum_loop(monkeypatch, inner_solver,
                                                         normals, m):
    """The section values summed as whole rows have the bits of one
    fixed_sum per section row, full and half rule."""
    data = cm.BoundaryData(lambda x: np.exp(x[:, 0]) * np.cos(2.0 * x[:, 1]) + x[:, 2] ** 3)
    p = (0.3, -0.2, 0.25)
    rows = cm.cross_section_solve(BALL, data, p, normals, m, inner_solver)
    monkeypatch.setattr(averaging, "fixed_row_sums",
                        lambda terms: np.array([fixed_sum(row) for row in terms]))
    loop = cm.cross_section_solve(BALL, data, p, normals, m, inner_solver)
    assert ((rows.value.hex(), rows.report.error_estimate.hex())
            == (loop.value.hex(), loop.report.error_estimate.hex()))


@pytest.mark.parametrize("inner_solver", ["poisson", "chords"])
def test_cross_section_scalar_callable_data(inner_solver):
    hp = cm.harmonic_poly(3, 3, 2)
    scalar = cm.from_callable(lambda x: float(hp.value(x)))
    ndq = cm.build_direction_quadrature(3, "gauss_product_3d", 6)
    p = (0.3, -0.2, 0.25)
    a = cm.cross_section_solve(BALL, hp.boundary_data(), p, ndq, 64, inner_solver)
    b = cm.cross_section_solve(BALL, scalar, p, ndq, 64, inner_solver)
    assert abs(a.value - b.value) <= 1e-12
    assert abs(a.report.error_estimate - b.report.error_estimate) <= 1e-12


@pytest.mark.parametrize("inner_solver", ["poisson", "chords"])
def test_cross_section_non_finite_data_raises_numerical_error(inner_solver):
    # +inf and -inf on the same section circle: math.fsum alone would raise
    # a bare ValueError there
    def value(x):
        return np.where(x[:, 0] > 0.5, np.inf, np.where(x[:, 0] < -0.5, -np.inf, 0.0))

    ndq = cm.build_direction_quadrature(3, "gauss_product_3d", 8)
    with pytest.raises(cm.NumericalError, match="not finite"), \
            np.errstate(invalid="ignore"):
        cm.cross_section_solve(BALL, cm.BoundaryData(value), (0.1, 0.2, 0.0),
                               ndq, 64, inner_solver)


def test_scalar_only_radial_star_solves():
    star = cm.StarDomain2D(lambda t: 1.0 + 0.2 * math.cos(2.0 * t))
    thetas = np.linspace(0.0, 6.0, 7)
    assert_allclose(star.boundary_radius(thetas), 1.0 + 0.2 * np.cos(2.0 * thetas),
                    rtol=0.0, atol=1e-15)
    dq = cm.build_direction_quadrature(2, "uniform_angle_2d", 256)
    lin = cm.HarmonicPolynomial(2, [(1, "re", 0.5), (1, "im", -1.5), (0, "re", 0.25)])
    res = cm.solve_on_domain(star, lin.boundary_data(), (0.2, 0.1), dq)
    assert abs(res.value - (0.1 - 0.15 + 0.25)) <= 1e-12


def test_cross_section_rejects_bad_inner_rule():
    ndq = cm.build_direction_quadrature(3, "gauss_product_3d", 4)
    data = cm.constant_data(1.0)
    with pytest.raises(cm.BadParameter):
        cm.cross_section_solve(BALL, data, (0.1, 0.0, 0.0), ndq, 64, inner_solver="fft")
    with pytest.raises(cm.BadResolution):
        cm.cross_section_solve(BALL, data, (0.1, 0.0, 0.0), ndq, 0)


def test_cross_section_requires_3d():
    with pytest.raises(cm.DimMismatch):
        cm.cross_section_solve(DISK, cm.constant_data(1.0), (0.0, 0.0), DQ2)


@pytest.mark.parametrize("dim, n", [(2, 2048), (3, 4096)])
def test_chord_ends_equal_the_broadcast_form_byte_for_byte(dim, n):
    # column by column, p + t e has the bits of p[..., None, :] + t[..., None]
    # * dirs, for one point and for rows of them; the ends of both roots share
    # one coordinate-major block, so every coordinate column is contiguous
    rng = np.random.default_rng(dim)
    dirs = geometry.uniform_directions(rng, n, dim)
    for p in (rng.uniform(-0.5, 0.5, dim), rng.uniform(-0.5, 0.5, (4, dim))):
        a, b = (rng.uniform(-2.0, 2.0, p.shape[:-1] + (n,)) for _ in range(2))
        block = np.empty((dim,) + p.shape[:-1] + (2, n))
        got = averaging._chord_ends(block, p, a, b, dirs.T.copy())
        assert got.shape == p.shape[:-1] + (2, n, dim) and np.shares_memory(got, block)
        for end, t in enumerate((a, b)):
            want = p[..., np.newaxis, :] + t[..., np.newaxis] * dirs
            assert np.ascontiguousarray(got[..., end, :, :]).tobytes() == want.tobytes()
            assert all(got[..., end, :, j].strides[-1] == 8 for j in range(dim))


# The degree count of Malmheden's formula.  Along e, f(P + t e) is a
# polynomial of degree m whose t^k coefficient is homogeneous of degree k in
# e.  The chord's roots a < 0 < b have a + b = -2 P.e and ab = |P|^2 - 1, and
# its linear interpolant at t = 0 takes t^k to -ab h_{k-2}(a, b), symmetric
# of degree k - 2 in the roots.  So the integrand has degree at most 2m - 2
# in e, and a rule exact through that degree reproduces degree-m data to
# rounding: N >= 2m - 1 uniform angles in 2-D, n >= m Gauss polar rings in
# 3-D (exact through 2n - 1).  The rule just below misses.

def _points(rng, dim, count=5, rho=0.8):
    d = rng.standard_normal((count, dim))
    return rng.uniform(0.0, rho, (count, 1)) * d / np.linalg.norm(d, axis=1, keepdims=True)


def _worst_defect(ball, poly, rule, points):
    data = poly.boundary_data()
    return max(abs(cm.solve_harmonic(ball, data, p, rule).value - float(poly.value(p)))
               for p in points)


@pytest.mark.parametrize("m", range(MAX_DEGREE + 1))
def test_2d_chord_average_is_exact_from_2m_minus_1_angles(m):
    rng = np.random.default_rng([21, m])
    exact = cm.build_direction_quadrature(2, "uniform_angle_2d", max(2 * m - 1, 4))
    for k in basis_indices(2, m):
        poly, points = cm.harmonic_poly(2, m, k), _points(rng, 2)
        assert _worst_defect(DISK, poly, exact, points) <= 1e-15
        if 2 * m - 2 >= 4:              # the smallest rule built is 4 angles
            below = cm.build_direction_quadrature(2, "uniform_angle_2d", 2 * m - 2)
            assert _worst_defect(DISK, poly, below, points) > 1e-3


@pytest.mark.parametrize("m", range(MAX_DEGREE + 1))
def test_3d_chord_average_is_exact_from_m_polar_rings(m):
    rng = np.random.default_rng([22, m])
    exact = cm.build_direction_quadrature(3, "gauss_product_3d", max(m, 4))
    below = cm.build_direction_quadrature(3, "gauss_product_3d", m - 1) if m - 1 >= 4 else None
    misses = []
    for k in basis_indices(3, m):
        poly, points = cm.harmonic_poly(3, m, k), _points(rng, 3)
        assert _worst_defect(BALL, poly, exact, points) <= 1e-15
        if below is not None:
            misses.append(_worst_defect(BALL, poly, below, points))
    # the rule below misses the degree, though not every element of it: its
    # equal azimuths integrate most of the integrand's azimuthal orders
    assert below is None or max(misses) > 1e-3
