import numpy as np
import pytest
from numpy.testing import assert_allclose

import chordmean as cm
from chordmean.biharmonic import _monomial_remainder_at_zero
from chordmean.boundary import basis_indices


DISK = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
BALL = cm.BallDomain(center=(0.0, 0.0, 0.0), radius=1.0)
DQ2 = cm.build_direction_quadrature(2, "uniform_angle_2d", 4096)
DQ3 = cm.build_direction_quadrature(3, "gauss_product_3d", 64)


def _cramer_c0(m, a, b):
    """Independent oracle: solve the raw 4x4 interpolation system for t^m."""
    mat = np.array([[a ** 3, a * a, a, 1.0],
                    [3 * a * a, 2 * a, 1.0, 0.0],
                    [b ** 3, b * b, b, 1.0],
                    [3 * b * b, 2 * b, 1.0, 0.0]])
    rhs = np.array([a ** m, m * a ** (m - 1), b ** m, m * b ** (m - 1)])
    return float(np.linalg.solve(mat, rhs)[3])


def test_monomial_remainder_examples():
    c0, q = cm.hermite_monomial_at_zero(4, -0.5, 1.5)
    assert_allclose([c0, q], [-0.5625, -1.0], atol=1e-14)
    c0, q = cm.hermite_monomial_at_zero(5, -0.5, 1.5)
    assert_allclose([c0, q], [-1.125, -2.0], atol=1e-14)
    c0, q = cm.hermite_monomial_at_zero(4, -1.0, 1.0)
    assert_allclose([c0, q], [-1.0, -1.0], atol=1e-14)


def test_monomial_closed_forms_random_brackets():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = -rng.uniform(0.05, 2.0)
        b = rng.uniform(0.05, 2.0)
        prod = a * b
        c4, _ = cm.hermite_monomial_at_zero(4, a, b)
        c5, _ = cm.hermite_monomial_at_zero(5, a, b)
        assert abs(c4 + prod * prod) <= 1e-12
        assert abs(c5 + 2.0 * prod * prod * (a + b)) <= 1e-12


def test_monomial_matches_cramer_oracle():
    rng = np.random.default_rng(2)
    for m in (4, 5, 6):
        for _ in range(20):
            a = -rng.uniform(0.2, 1.5)
            b = rng.uniform(0.2, 1.5)
            c0, _ = cm.hermite_monomial_at_zero(m, a, b)
            assert abs(c0 - _cramer_c0(m, a, b)) <= 1e-9


def test_q_symmetry_and_homogeneity():
    rng = np.random.default_rng(3)
    for m in range(4, 13):
        for _ in range(10):
            a = -rng.uniform(0.05, 2.0)
            b = rng.uniform(0.05, 2.0)
            _, q = cm.hermite_monomial_at_zero(m, a, b)
            _, q_swapped = _monomial_remainder_at_zero(m, b, a)
            assert abs(q - q_swapped) <= 1e-10 * max(1.0, abs(q))
            for lam in (0.5, 2.0):
                _, q_scaled = cm.hermite_monomial_at_zero(m, lam * a, lam * b)
                target = lam ** (m - 4) * q
                assert abs(q_scaled - target) <= 1e-10 * max(1.0, abs(target))


def test_q_bounded_and_convergent_as_a_vanishes():
    for m in (4, 6, 9, 12):
        qs = [cm.hermite_monomial_at_zero(m, -1.3 * 2.0 ** (-j), 1.3)[1]
              for j in range(40)]
        assert np.all(np.isfinite(qs))
        assert abs(qs[-1] - qs[-2]) <= 1e-6 * max(abs(qs[-1]), 1e-30)
        # the limit is q evaluated at a = 0: C_m(0) vanishes to second order
        assert max(np.abs(qs)) <= 10.0 * max(abs(qs[0]), abs(qs[-1]))


def test_monomial_bracket_validation():
    with pytest.raises(cm.BadDegree):
        cm.hermite_monomial_at_zero(3, -1.0, 1.0)
    with pytest.raises(cm.BadDegree):
        cm.hermite_monomial_at_zero(13, -1.0, 1.0)
    with pytest.raises(cm.BadBracket):
        cm.hermite_monomial_at_zero(4, 0.5, 1.0)


def test_solve_biharmonic_cubic_data():
    def value(pts):
        return np.asarray(pts, dtype=float)[..., 0] ** 3

    def gradient(pts):
        pts = np.asarray(pts, dtype=float)
        g = np.zeros(pts.shape)
        g[..., 0] = 3.0 * pts[..., 0] ** 2
        return g

    data = cm.BoundaryData(value, gradient, exact_solution=value)
    res = cm.solve_biharmonic(DISK, data, (0.2, 0.0), DQ2)
    assert abs(res.value - 0.008) <= 1e-10
    res3 = cm.solve_biharmonic(BALL, data, (0.2, 0.1, -0.3), DQ3)
    assert res3.residual <= 1e-10


def test_solve_biharmonic_almansi_example():
    u = cm.almansi_assemble(cm.HarmonicPolynomial.zero(2),
                            cm.harmonic_poly(2, 1, "re"))
    res = cm.solve_biharmonic(DISK, u.boundary_data(), (0.3, 0.0), DQ2)
    assert abs(res.value - (-0.273)) <= 1e-6


def test_solve_biharmonic_reduces_to_harmonic():
    data = cm.harmonic_poly(2, 4, "im").boundary_data()
    p = (0.25, -0.4)
    bi = cm.solve_biharmonic(DISK, data, p, DQ2)
    harm = cm.solve_harmonic(DISK, data, p, DQ2)
    assert abs(bi.value - harm.value) <= 1e-10


def test_biharmonic_annihilation():
    for dim, dq in ((2, DQ2), (3, DQ3)):
        offset_dir = np.zeros(dim)
        offset_dir[0] = 0.8
        offset_dir[-1] = 0.6
        for offset in (0.0, 0.4, 0.7):
            ball = cm.BallDomain(center=offset * offset_dir, radius=1.0)
            for m in (4, 5, 6):
                h1 = cm.harmonic_poly(dim, m, basis_indices(dim, m)[0])
                h2 = cm.harmonic_poly(dim, m - 2, basis_indices(dim, m - 2)[-1])
                data = cm.almansi_assemble(h1 + h2, h2).boundary_data()
                res = cm.solve_biharmonic(ball, data, np.zeros(dim), dq)
                assert abs(res.value) <= 1e-8


def test_chord_slopes_match_finite_differences():
    u = cm.almansi_assemble(cm.harmonic_poly(2, 3, "re"),
                            cm.harmonic_poly(2, 1, "im"))
    data = u.boundary_data()
    rng = np.random.default_rng(4)
    h = 1e-5
    for _ in range(20):
        e = rng.standard_normal(2)
        e /= np.linalg.norm(e)
        chord = cm.chord_through(DISK, rng.uniform(-0.4, 0.4, 2), e)
        for q in (chord.q1, chord.q2):
            slope = float(np.asarray(data.gradient(q)) @ e)
            fd = (float(data.value(q + h * e)) - float(data.value(q - h * e))) / (2 * h)
            assert abs(slope - fd) <= 1e-6 * max(1.0, abs(fd))


def test_biharmonic_requires_gradient():
    cap = cm.CapSpec(vertex=(0.0, 0.0), axis=(1.0, 0.0), half_angle=0.5)
    ind = cm.cap_indicator(cap, DISK)
    with pytest.raises(cm.GradientRequired):
        cm.solve_biharmonic(DISK, ind, (0.0, 0.0), DQ2)
