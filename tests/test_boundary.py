import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import chordmean as cm
from chordmean.boundary import _basis, basis_indices


def _fd_laplacian(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    total = 0.0
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        total += float(f(x + e)) - 2.0 * float(f(x)) + float(f(x - e))
    return total / (h * h)


def test_harmonic_poly_2d_examples():
    p = cm.harmonic_poly(2, 2, "re")
    x = np.array([0.3, 0.2])
    assert_allclose(p.value(x), 0.3 ** 2 - 0.2 ** 2, atol=1e-15)
    assert_allclose(p.gradient(x), [0.6, -0.4], atol=1e-15)

    q = cm.harmonic_poly(2, 1, "im")
    assert_allclose(q.value(np.array([0.7, -0.4])), -0.4, atol=1e-15)


def test_solid_harmonic_2_0_proportional_to_quadrupole():
    p = cm.harmonic_poly(3, 2, 0)
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((20, 3))
    ref = 2.0 * pts[:, 2] ** 2 - pts[:, 0] ** 2 - pts[:, 1] ** 2
    ratio = p.value(pts) / ref
    assert_allclose(ratio, ratio[0], atol=1e-12)
    # finite-difference Laplacian oracle
    for x in pts[:5]:
        assert abs(_fd_laplacian(p.value, x)) <= 1e-5 * max(1.0, abs(p.value(x)))


def test_all_bases_are_harmonic_to_rounding():
    # coefficients are floats of exact rationals, so the symbolic Laplacian
    # cancels to a few ulps rather than to literal zero
    for dim in (2, 3):
        for m in range(7):
            for k in basis_indices(dim, m):
                residual = _basis(dim, m, k).laplacian().terms
                assert all(abs(c) <= 1e-12 for c in residual.values())


def test_fd_laplacian_vanishes_at_random_points():
    rng = np.random.default_rng(1)
    for dim in (2, 3):
        for m, k in [(3, basis_indices(dim, 3)[0]), (6, basis_indices(dim, 6)[-1])]:
            p = cm.harmonic_poly(dim, m, k)
            for _ in range(10):
                x = rng.uniform(-1.0, 1.0, dim)
                scale = max(1.0, abs(float(p.value(x))))
                assert abs(_fd_laplacian(p.value, x)) <= 1e-5 * scale


def test_homogeneity():
    rng = np.random.default_rng(2)
    for dim in (2, 3):
        for m in range(7):
            for k in basis_indices(dim, m):
                p = cm.harmonic_poly(dim, m, k)
                x = rng.standard_normal(dim)
                for t in (0.5, 2.0):
                    expected = t ** m * float(p.value(x))
                    assert abs(float(p.value(t * x)) - expected) \
                        <= 1e-12 * max(1.0, abs(expected))


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    h = 1e-5
    for dim in (2, 3):
        data = cm.harmonic_poly(dim, 4, basis_indices(dim, 4)[1]).boundary_data()
        for _ in range(100):
            q = rng.standard_normal(dim)
            q /= np.linalg.norm(q)
            grad = np.asarray(data.gradient(q))
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = h
                fd = (float(data.value(q + e)) - float(data.value(q - e))) / (2 * h)
                assert abs(grad[j] - fd) <= 1e-6 * max(1.0, abs(fd))


# The Almansi pairs (h1, h2) of the benchmark's sweep workload.
SWEEP_ALMANSI_PAIRS = {
    2: [((5, "re"), (3, "im")), ((4, "im"), (2, "re")), ((3, "re"), (1, "re")),
        ((2, "re"), (0, "re")), ((1, "im"), (3, "re")), ((0, "re"), (2, "im"))],
    3: [((5, 2), (3, -2)), ((4, -1), (2, 1)), ((3, 0), (1, 0)),
        ((2, 2), (0, 0)), ((1, 1), (3, 1)), ((0, 0), (2, 0))],
}


def _exact_value_and_gradient(terms, x):
    """Exact rational value and gradient of the monomial table {e: c} at the
    float point x, each with the sum of the absolute values of its terms."""
    x = [Fraction(v) for v in x]
    value = scale = Fraction(0)
    grad = [Fraction(0)] * len(x)
    grad_scale = [Fraction(0)] * len(x)
    for exps, c in terms.items():
        t = Fraction(c)
        for xj, e in zip(x, exps):
            t *= xj ** e
        value += t
        scale += abs(t)
        for j, e in enumerate(exps):
            if e:
                d = Fraction(c) * e * x[j] ** (e - 1)
                for i, (xi, ei) in enumerate(zip(x, exps)):
                    if i != j:
                        d *= xi ** ei
                grad[j] += d
                grad_scale[j] += abs(d)
    return value, scale, grad, grad_scale


def _polynomials():
    for dim in (2, 3):
        yield cm.HarmonicPolynomial.zero(dim)
        yield 2.5 * cm.harmonic_poly(dim, 0, basis_indices(dim, 0)[0])
        for m in range(7):
            for k in basis_indices(dim, m):
                yield cm.harmonic_poly(dim, m, k)
        for (m1, k1), (m2, k2) in SWEEP_ALMANSI_PAIRS[dim]:
            yield cm.almansi_assemble(cm.harmonic_poly(dim, m1, k1),
                                      cm.harmonic_poly(dim, m2, k2))


def test_polynomial_values_and_gradients_match_exact_rationals():
    # Within a few ulps of the sum of |c x^e| over the terms, at every input
    # shape: (dim,), (N, dim), (K, N, dim) and the empty (0, dim).
    ulps = 4 * np.finfo(float).eps
    rng = np.random.default_rng(5)
    for poly in _polynomials():
        dim = poly.dim
        pts = rng.standard_normal((2, 3, dim))
        pts *= rng.uniform(0.5, 1.5, (2, 3, 1)) / np.linalg.norm(pts, axis=-1, keepdims=True)
        pts[0, 0] /= np.linalg.norm(pts[0, 0])      # one point on the unit sphere
        flat = pts.reshape(-1, dim)
        for shape_pts in (flat[0], flat, pts, np.zeros((0, dim))):
            value = poly.value(shape_pts)
            grad = poly.gradient(shape_pts)
            assert np.shape(value) == shape_pts.shape[:-1]
            assert grad.shape == shape_pts.shape
            for x, v, g in zip(shape_pts.reshape(-1, dim), np.ravel(value),
                               grad.reshape(-1, dim)):
                exact, scale, exact_grad, grad_scale = _exact_value_and_gradient(
                    poly._poly.terms, x)
                assert abs(Fraction(float(v)) - exact) <= ulps * scale, (poly, x)
                for j in range(dim):
                    assert abs(Fraction(float(g[j])) - exact_grad[j]) \
                        <= ulps * grad_scale[j], (poly, x, j)


def test_degree_and_index_validation():
    with pytest.raises(cm.UnsupportedDegree):
        cm.harmonic_poly(2, 7, "re")
    with pytest.raises(cm.BadIndex):
        cm.harmonic_poly(2, 0, "im")
    with pytest.raises(cm.BadIndex):
        cm.harmonic_poly(2, 2, "rE")
    with pytest.raises(cm.BadIndex):
        cm.harmonic_poly(3, 2, 5)
    with pytest.raises(cm.DimMismatch):
        cm.harmonic_poly(4, 2, 0)


def test_almansi_examples():
    # h1 = 0, h2 = x: u = (|x|^2 - 1) x
    u = cm.almansi_assemble(cm.HarmonicPolynomial.zero(2), cm.harmonic_poly(2, 1, "re"))
    data = u.boundary_data()
    theta = np.linspace(0.0, 2.0 * math.pi, 17)
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    assert np.max(np.abs(data.value(circle))) <= 1e-12
    assert_allclose(data.gradient(np.array([1.0, 0.0])), [2.0, 0.0], atol=1e-12)

    # h2 = 0 reduces to the harmonic case
    h1 = cm.harmonic_poly(2, 3, "im")
    u = cm.almansi_assemble(h1, cm.HarmonicPolynomial.zero(2))
    x = np.array([0.4, -0.3])
    assert_allclose(u.value(x), h1.value(x), atol=1e-14)
    assert_allclose(u.gradient(x), h1.gradient(x), atol=1e-14)

    # h1 = 1, h2 = 1: u = |x|^2, gradient 2Q on the sphere
    one = cm.harmonic_poly(3, 0, 0)
    u = cm.almansi_assemble(one, one)
    q = np.array([0.6, 0.64, 0.48])
    assert_allclose(u.value(q), 1.0, atol=1e-12)
    assert_allclose(u.gradient(q), 2.0 * q, atol=1e-12)


def test_almansi_boundary_identity_and_radial_derivative():
    rng = np.random.default_rng(4)
    for dim in (2, 3):
        h1 = cm.harmonic_poly(dim, 4, basis_indices(dim, 4)[0])
        h2 = cm.harmonic_poly(dim, 2, basis_indices(dim, 2)[-1])
        u = cm.almansi_assemble(h1, h2)
        data = u.boundary_data()
        qs = rng.standard_normal((1000, dim))
        qs /= np.linalg.norm(qs, axis=1, keepdims=True)
        assert np.max(np.abs(data.value(qs) - h1.value(qs))) <= 1e-12
        # radial derivative of (u - h1) on the sphere equals 2 h2
        radial = np.sum(np.asarray(data.gradient(qs)) * qs, axis=-1) \
            - np.sum(np.asarray(h1.gradient(qs)) * qs, axis=-1)
        assert np.max(np.abs(radial - 2.0 * h2.value(qs))) <= 1e-10


def test_bilaplacian_vanishes():
    for dim in (2, 3):
        h1 = cm.harmonic_poly(dim, 5, basis_indices(dim, 5)[1])
        h2 = cm.harmonic_poly(dim, 3, basis_indices(dim, 3)[0])
        u = cm.almansi_assemble(h1, h2)
        bilap = u._poly.laplacian().laplacian().terms
        assert all(abs(c) <= 1e-11 for c in bilap.values())
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.uniform(-0.8, 0.8, dim)
            fd = _fd_laplacian(lambda y: _fd_laplacian(u.value, y, h=0.02), x, h=0.02)
            assert abs(fd) <= 1e-4 * max(1.0, abs(float(u.value(x))))


def test_homogeneous_biharmonic_identity():
    h1 = cm.harmonic_poly(2, 4, "re")
    h2 = cm.harmonic_poly(2, 2, "im")
    u = cm.homogeneous_biharmonic(h1, h2)
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((50, 2))
    r2 = np.sum(pts * pts, axis=1)
    expected = h1.value(pts) + r2 * h2.value(pts)
    assert_allclose(u.value(pts), expected, atol=1e-12)


def test_cap_indicator_examples():
    disk = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
    # aperture pi double cone covers everything
    cap = cm.CapSpec(vertex=(0.0, 0.0), axis=(1.0, 0.0),
                     half_angle=math.pi / 2, nappe="both")
    ind = cm.cap_indicator(cap, disk)
    theta = np.linspace(0.1, 2.0 * math.pi, 37)
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    assert_allclose(ind.value(circle), 1.0)

    # central vertex, plus nappe: exactly the arc (-pi/4, pi/4)
    cap = cm.CapSpec(vertex=(0.0, 0.0), axis=(1.0, 0.0),
                     half_angle=math.pi / 4, nappe="plus")
    ind = cm.cap_indicator(cap, disk)
    inside = np.column_stack([np.cos([0.0, 0.7]), np.sin([0.0, 0.7])])
    outside = np.column_stack([np.cos([0.8, math.pi]), np.sin([0.8, math.pi])])
    assert_allclose(ind.value(inside), 1.0)
    assert_allclose(ind.value(outside), 0.0)
    assert ind.smoothness == "indicator"
    assert ind.gradient is None


def test_cap_area_matches_mc_oracle():
    # normalized area of a polar cap of half-angle pi/3 is (1 - cos(pi/3))/2 = 0.25
    ball = cm.BallDomain(center=(0.0, 0.0, 0.0), radius=1.0)
    cap = cm.CapSpec(vertex=(0.0, 0.0, 0.0), axis=(0.0, 0.0, 1.0),
                     half_angle=math.pi / 3, nappe="plus")
    ind = cm.cap_indicator(cap, ball)
    rng = np.random.default_rng(7)
    n = 200000
    pts = rng.standard_normal((n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    freq = float(np.mean(ind.value(pts)))
    sigma = math.sqrt(0.25 * 0.75 / n)
    assert abs(freq - 0.25) <= 3.0 * sigma


def test_cap_indicator_requires_interior_vertex():
    disk = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
    cap = cm.CapSpec(vertex=(2.0, 0.0), axis=(1.0, 0.0), half_angle=0.5)
    with pytest.raises(cm.PointNotInterior):
        cm.cap_indicator(cap, disk)


@pytest.mark.parametrize("axis", [(math.nan, math.nan), (math.nan, 1.0), (0.0, 0.0)])
def test_cap_axis_must_be_unit(axis):
    with pytest.raises(cm.DegenerateDirection):
        cm.CapSpec(vertex=(0.0, 0.0), axis=axis, half_angle=0.5)


def test_arc_cap_roundtrip():
    disk = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = rng.uniform(-0.5, 0.5, 2)
        t1 = rng.uniform(0.0, 2.0 * math.pi)
        t2 = t1 + rng.uniform(0.2, 2.0 * math.pi - 0.4)
        cap = cm.arc_cap(disk, p, t1, t2)
        ind = cm.cap_indicator(cap, disk)
        margin = 1e-6
        inside_angles = np.linspace(t1 + margin, t2 - margin, 9)
        pts = np.column_stack([np.cos(inside_angles), np.sin(inside_angles)])
        assert_allclose(ind.value(pts), 1.0)
        outside_angles = np.linspace(t2 + margin, t1 + 2.0 * math.pi - margin, 9)
        pts = np.column_stack([np.cos(outside_angles), np.sin(outside_angles)])
        assert_allclose(ind.value(pts), 0.0)


def test_boundary_data_validation():
    with pytest.raises(cm.BadParameter):
        cm.BoundaryData(lambda p: 0.0, None, "c1")
    with pytest.raises(cm.BadParameter):
        cm.BoundaryData(lambda p: 0.0, None, "smoothish")


def test_from_callable_wraps_scalar_functions():
    data = cm.from_callable(lambda p: p[0] + 2.0 * p[1],
                            gradient=lambda p: np.array([1.0, 2.0]))
    pts = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert_allclose(data.value(pts), [1.0, 2.0])
    assert_allclose(data.gradient(pts), [[1.0, 2.0], [1.0, 2.0]])
    assert data.smoothness == "c1"


def test_linear_and_constant_data():
    lin = cm.linear_data([2.0, -1.0], const=0.5)
    assert_allclose(lin(np.array([1.0, 1.0])), 1.5)
    const = cm.constant_data(3.0)
    assert_allclose(const.value(np.zeros((4, 2))), 3.0)
    assert_allclose(const.gradient(np.zeros((4, 2))), 0.0)
