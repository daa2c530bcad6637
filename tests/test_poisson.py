import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import chordmean as cm
from chordmean.boundary import basis_indices
from chordmean.poisson import build_boundary_quadrature


def test_kernel_closed_forms():
    disk = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
    assert_allclose(cm.poisson_kernel(disk, (0.0, 0.0), (1.0, 0.0)),
                    1.0 / (2.0 * math.pi), atol=1e-15)
    assert_allclose(cm.poisson_kernel(disk, (0.5, 0.0), (1.0, 0.0)),
                    3.0 / (2.0 * math.pi), atol=1e-15)
    ball = cm.BallDomain(center=(0.0, 0.0, 0.0), radius=1.0)
    assert_allclose(cm.poisson_kernel(ball, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
                    1.0 / (4.0 * math.pi), atol=1e-16)


def test_kernel_preconditions():
    disk = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
    with pytest.raises(cm.PointNotInterior):
        cm.poisson_kernel(disk, (1.0, 0.0), (1.0, 0.0))
    with pytest.raises(cm.PointNotOnBoundary):
        cm.poisson_kernel(disk, (0.0, 0.0), (0.5, 0.0))


def test_kernel_positive_and_normalized():
    from chordmean.poisson import kernel_values
    rng = np.random.default_rng(0)
    ones = cm.constant_data(1.0)
    for ball in (cm.BallDomain(center=(0.3, -0.2), radius=1.7),
                 cm.BallDomain(center=(0.0, 0.5, 1.0), radius=0.6)):
        bq = build_boundary_quadrature(ball)
        for _ in range(5):
            d = rng.standard_normal(ball.dim)
            x = ball.center + rng.uniform(0.0, 0.7) * ball.radius * d / np.linalg.norm(d)
            assert np.all(kernel_values(ball, x, bq.rule.directions) > 0.0)
            assert abs(cm.poisson_solve(ball, ones, x, bq).value - 1.0) <= 1e-12
    # near the rim the 64-polar product rule resolves the 3-D kernel to ~1e-5
    ball = cm.BallDomain(center=(0.0, 0.5, 1.0), radius=0.6)
    x = ball.center + np.array([0.0, 0.0, 0.88 * ball.radius])
    got = cm.poisson_solve(ball, ones, x, build_boundary_quadrature(ball)).value
    assert abs(got - 1.0) <= 1e-5


def test_kernel_values_rows_match_single_points():
    from chordmean.poisson import kernel_values
    rng = np.random.default_rng(5)
    for ball in (cm.BallDomain(center=(0.3, -0.2), radius=1.7),
                 cm.BallDomain(center=(0.0, 0.5, 1.0), radius=0.6)):
        dirs = cm.default_direction_quadrature(ball.dim, 64 if ball.dim == 2 else 8).directions
        xs = ball.center + ball.radius * rng.uniform(-0.5, 0.5, (7, ball.dim))
        rows = kernel_values(ball, xs, dirs)
        assert rows.shape == (7, len(dirs))
        for k, x in enumerate(xs):
            np.testing.assert_array_equal(rows[k], kernel_values(ball, x, dirs))


def test_kernel_times_rule_weights_integrates_to_one_off_centre():
    from chordmean.poisson import fixed_sum, kernel_values
    for ball, x in ((cm.BallDomain(center=(1.0, -2.0), radius=0.8), (1.3, -1.8)),
                    (cm.BallDomain(center=(0.5, 0.0, -1.0), radius=2.0), (1.2, 0.6, -0.4))):
        rule = build_boundary_quadrature(ball).rule
        total = fixed_sum(rule.weights * kernel_values(ball, np.array(x), rule.directions))
        assert abs(total - 1.0) <= 1e-12


def test_boundary_rules_need_a_sphere_of_dimension_2_or_3():
    for dim in (1, 4):
        with pytest.raises(cm.DimMismatch):
            cm.default_direction_quadrature(dim)
    line = cm.BallDomain(center=(0.0,), radius=1.0)
    cap = cm.CapSpec(vertex=(0.1,), axis=(1.0,), half_angle=0.5)
    with pytest.raises(cm.DimMismatch):
        cm.poisson_solve(line, cm.constant_data(1.0), (0.1,))
    with pytest.raises(cm.DimMismatch):
        cm.cap_measure_poisson(line, (0.1,), cap)
    with pytest.raises(cm.DimMismatch):
        cm.center_of_mass_check(line, (0.1,), (1.0,), 0.5)


def test_boundary_quadrature_weight_sums():
    disk = cm.BallDomain(center=(1.0, 2.0), radius=1.4)
    bq = build_boundary_quadrature(disk, resolution=1000)
    target = 2.0 * math.pi * disk.radius
    assert abs(np.sum(bq.weights) - target) <= 1e-10 * target
    ball = cm.BallDomain(center=(0.0, 0.0, 0.0), radius=0.7)
    bq = build_boundary_quadrature(ball, resolution=32)
    target = 4.0 * math.pi * ball.radius ** 2
    assert abs(np.sum(bq.weights) - target) <= 1e-10 * target


def test_poisson_solve_examples():
    disk = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
    data = cm.harmonic_poly(2, 2, "re").boundary_data()
    bq = build_boundary_quadrature(disk, resolution=1024)
    report = cm.poisson_solve(disk, data, (0.3, 0.2), bq)
    assert abs(report.value - 0.05) <= 1e-10
    assert report.error_estimate >= 0.0
    assert report.nodes_used == 1024

    ball = cm.BallDomain(center=(0.0, 0.0, 0.0), radius=1.0)
    lin = cm.harmonic_poly(3, 1, 1).boundary_data()   # x1
    report = cm.poisson_solve(ball, lin, (0.2, 0.1, 0.4))
    assert abs(report.value - 0.2) <= 1e-10


def test_poisson_reproduces_harmonic_polynomials_2d():
    disk = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
    bq = build_boundary_quadrature(disk, resolution=4096)
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((100, 2))
    pts *= (rng.uniform(0.0, 0.9, 100) / np.linalg.norm(pts, axis=1))[:, None]
    worst = 0.0
    for m in range(7):
        for k in basis_indices(2, m):
            hp = cm.harmonic_poly(2, m, k)
            data = hp.boundary_data()
            for x in pts:
                got = cm.poisson_solve(disk, data, x, bq).value
                worst = max(worst, abs(got - float(hp.value(x))))
    assert worst <= 1e-8


def test_poisson_reproduces_harmonic_polynomials_3d():
    ball = cm.BallDomain(center=(0.0, 0.0, 0.0), radius=1.0)
    bq = build_boundary_quadrature(ball, resolution=64)
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((100, 3))
    radii = rng.uniform(0.0, 0.9, 100)
    pts *= (radii / np.linalg.norm(pts, axis=1))[:, None]
    worst_inner = 0.0
    worst_rim = 0.0
    for m in range(7):
        for k in basis_indices(3, m):
            hp = cm.harmonic_poly(3, m, k)
            data = hp.boundary_data()
            for x, rho in zip(pts, radii):
                err = abs(cm.poisson_solve(ball, data, x, bq).value
                          - float(hp.value(x)))
                if rho <= 0.85:
                    worst_inner = max(worst_inner, err)
                else:
                    worst_rim = max(worst_rim, err)
    assert worst_inner <= 1e-6
    # the 64-polar rule's spherical-harmonic truncation grows to ~1.2e-6 for
    # degree-6 data as rho approaches 0.9
    assert worst_rim <= 2e-6


def test_cap_measure_at_center_is_normalized_size():
    # indicator data: deterministic rules carry O(1/N) edge error
    disk = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
    cap = cm.CapSpec(vertex=(0.0, 0.0), axis=(1.0, 0.0), half_angle=0.9)
    got = cm.cap_measure_poisson(disk, (0.0, 0.0), cap).value
    assert abs(got - 0.9 / math.pi) <= 2e-4

    # polar-axis-aligned cap edge is the worst case for the product rule
    ball = cm.BallDomain(center=(0.0, 0.0, 0.0), radius=1.0)
    cap = cm.CapSpec(vertex=(0.0, 0.0, 0.0), axis=(0.0, 0.0, 1.0),
                     half_angle=math.pi / 3)
    got = cm.cap_measure_poisson(ball, (0.0, 0.0, 0.0), cap).value
    assert abs(got - 0.25) <= 2e-3
    # a tilted axis spreads the edge across polar bands
    axis = np.array([0.6, 0.64, 0.48])
    cap = cm.CapSpec(vertex=(0.0, 0.0, 0.0), axis=axis, half_angle=math.pi / 3)
    got = cm.cap_measure_poisson(ball, (0.0, 0.0, 0.0), cap).value
    assert abs(got - 0.25) <= 2e-4


def test_cap_measure_offcenter_closed_form():
    # w at (0.5, 0) of the arc through (1, 0): 1 - arctan(0.75)/pi
    disk = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
    cap = cm.arc_cap(disk, (0.5, 0.0), -math.pi / 2, math.pi / 2)
    report = cm.cap_measure_poisson(disk, (0.5, 0.0), cap)
    assert abs(report.value - 0.7951672353008665) <= 1e-6
    assert 0.0 <= report.value <= 1.0


def test_cap_measure_full_boundary():
    disk = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
    cap = cm.CapSpec(vertex=(0.3, 0.1), axis=(0.0, 1.0),
                     half_angle=math.pi / 2, nappe="both")
    assert abs(cm.cap_measure_poisson(disk, (0.3, 0.1), cap).value - 1.0) <= 1e-6


def test_nested_cap_measures_are_monotone():
    rng = np.random.default_rng(3)
    for dim in (2, 3):
        ball = cm.BallDomain(center=np.zeros(dim), radius=1.0)
        for _ in range(50):
            d = rng.standard_normal(dim)
            p = rng.uniform(0.0, 0.7) * d / np.linalg.norm(d)
            axis = rng.standard_normal(dim)
            axis /= np.linalg.norm(axis)
            inner = rng.uniform(0.2, 1.0)
            outer = inner + rng.uniform(0.1, 1.2)
            w_inner = cm.cap_measure_poisson(
                ball, p, cm.CapSpec(vertex=p, axis=axis, half_angle=inner)).value
            w_outer = cm.cap_measure_poisson(
                ball, p, cm.CapSpec(vertex=p, axis=axis, half_angle=outer)).value
            assert w_outer >= w_inner - 1e-12


def test_cap_measure_requires_matching_vertex():
    disk = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
    cap = cm.CapSpec(vertex=(0.2, 0.0), axis=(1.0, 0.0), half_angle=0.5)
    with pytest.raises(cm.BadParameter):
        cm.cap_measure_poisson(disk, (0.0, 0.0), cap)


@pytest.mark.parametrize("p", [(0.3, -0.2), (0.0, 0.5), (0.3, -0.2, 0.1), (0.0, 0.0, 0.0)])
def test_cap_vertex_may_differ_from_the_point_by_the_allclose_tolerances(p):
    # a vertex within 1e-8 + 1e-5 |p| of P in every coordinate is P, as
    # np.allclose(vertex, p) has it; 0.1% past that bound it is refused
    p = np.array(p)
    ball = cm.BallDomain(center=np.zeros(p.size), radius=1.0)
    bound = 1e-8 + 1e-5 * np.abs(p)
    for k in range(p.size):
        for sign in (1.0, -1.0):
            for factor, accepted in ((0.999, True), (1.001, False)):
                vertex = p.copy()
                vertex[k] += sign * factor * bound[k]
                assert np.allclose(vertex, p) == accepted
                cap = cm.CapSpec(vertex=vertex, axis=np.eye(p.size)[0], half_angle=0.5)
                if accepted:
                    assert cm.cap_measure_ratio(ball, p, cap) > 0.0
                else:
                    with pytest.raises(cm.BadParameter):
                        cm.cap_measure_ratio(ball, p, cap)


def _spoiled(marks):
    """Harmonic data with the given non-finite values put, per evaluation, at
    the point of largest x and, for a second mark, of largest y."""
    data = cm.harmonic_poly(2, 3, "re").boundary_data()

    def value(pts):
        out = np.array(data.value(pts), dtype=float)
        for axis, mark in enumerate(marks):
            out[np.argmax(pts[:, axis])] = mark
        return out

    return cm.BoundaryData(value)


@pytest.mark.parametrize("marks", [(math.nan,), (math.inf, -math.inf)],
                         ids=["nan", "inf_pair"])
@pytest.mark.parametrize("solver", ["chords", "poisson"])
def test_non_finite_integrands_raise_numerical_error(solver, marks):
    disk = cm.BallDomain(center=(0.1, 0.0), radius=1.0)
    p = (0.3, -0.2)
    data = _spoiled(marks)
    with pytest.raises(cm.NumericalError, match="not finite"):
        if solver == "chords":
            cm.solve_harmonic(disk, data, p,
                              cm.build_direction_quadrature(2, "uniform_angle_2d", 4096))
        else:
            cm.poisson_solve(disk, data, p)
