"""Properties of the chord average that hold for every input: antipodal
symmetry (harmonic and biharmonic, 2-D and 3-D), and in 2-D linearity in
the data, rotation, translation and scale covariance and the constant root
product along chords.  Derandomised, with few examples, so the suite stays
deterministic and quick."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

import chordmean as cm
from chordmean.geometry import DirectionQuadrature, ball_chord_roots, uniform_directions

PROPERTY = settings(derandomize=True, max_examples=20, deadline=None)
DISK = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
DQ = cm.build_direction_quadrature(2, "uniform_angle_2d", 4096)

radii = st.floats(0.0, 0.9)
angles = st.floats(0.0, 2.0 * math.pi)
coeffs = st.floats(-3.0, 3.0)
degrees = st.integers(1, 6)
parts = st.sampled_from(["re", "im"])


def _point(r, t):
    return np.array([r * math.cos(t), r * math.sin(t)])


def _rotation(t):
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s], [s, c]])


@PROPERTY
@given(radii, angles, degrees, parts, st.sampled_from([255, 256, 4096]))
def test_negated_direction_set_gives_the_same_solve(r, t, m, k, n):
    dq = cm.build_direction_quadrature(2, "uniform_angle_2d", n)
    negated = DirectionQuadrature(-dq.directions, dq.weights, dq.scheme, dq.resolution)
    data = cm.harmonic_poly(2, m, k).boundary_data()
    almansi = cm.almansi_assemble(cm.harmonic_poly(2, m, k), cm.harmonic_poly(2, m - 1, "re"))
    for solve, d in ((cm.solve_harmonic, data),
                     (cm.solve_biharmonic, almansi.boundary_data())):
        a = solve(DISK, d, _point(r, t), dq).report
        b = solve(DISK, d, _point(r, t), negated).report
        assert (a.value.hex(), a.error_estimate.hex()) == (b.value.hex(),
                                                           b.error_estimate.hex())


BALL = cm.BallDomain(center=(0.0, 0.0, 0.0), radius=1.0)


@PROPERTY
@given(radii, angles, angles, st.integers(2, 5), st.integers(0, 4),
       st.sampled_from([("gauss_product_3d", 5, None), ("gauss_product_3d", 16, None),
                        ("gauss_product_3d", 64, None), ("monte_carlo", 1001, 3)]))
def test_negated_3d_direction_set_gives_the_same_solve(r, t, s, m, k, rule):
    dq = cm.build_direction_quadrature(3, *rule)
    negated = DirectionQuadrature(-dq.directions, dq.weights, dq.scheme, dq.resolution,
                                  dq.seed)
    p = r * np.array([math.sin(s) * math.cos(t), math.sin(s) * math.sin(t), math.cos(s)])
    data = cm.harmonic_poly(3, m, k - 2).boundary_data()
    almansi = cm.almansi_assemble(cm.harmonic_poly(3, m, k - 2),
                                  cm.harmonic_poly(3, m - 1, 0))
    for solve, d in ((cm.solve_harmonic, data),
                     (cm.solve_biharmonic, almansi.boundary_data())):
        a = solve(BALL, d, p, dq).report
        b = solve(BALL, d, p, negated).report
        assert (a.value.hex(), a.error_estimate.hex()) == (b.value.hex(),
                                                           b.error_estimate.hex())


@PROPERTY
@given(radii, angles, coeffs, coeffs, st.floats(0.5, 4.0))
def test_solve_is_linear_in_the_data(r, t, alpha, beta, freq):
    # Neither term is harmonic, so the rule does not reproduce them exactly.
    def f(x):
        return np.cos(freq * x[:, 0]) * x[:, 1]

    def g(x):
        return np.exp(x[:, 0] - x[:, 1] ** 2)

    def solve(value):
        return cm.solve_harmonic(DISK, cm.BoundaryData(value),
                                 _point(r, t), DQ).value

    combined = solve(lambda x: alpha * f(x) + beta * g(x))
    assert abs(combined - (alpha * solve(f) + beta * solve(g))) <= 1e-12


@PROPERTY
@given(radii, angles, angles, st.integers(1, 5), parts)
def test_solve_is_rotation_covariant(r, t, rot, m, k):
    poly = cm.harmonic_poly(2, m, k)
    rotation = _rotation(rot)
    rotated = cm.BoundaryData(lambda x: poly.value(x @ rotation))
    p = _point(r, t)
    value = cm.solve_harmonic(DISK, poly.boundary_data(), p, DQ).value
    moved = cm.solve_harmonic(DISK, rotated, rotation @ p, DQ).value
    assert abs(moved - value) <= 1e-12


@PROPERTY
@given(radii, angles, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), degrees, parts)
def test_solve_is_translation_covariant(r, t, cx, cy, m, k):
    poly = cm.harmonic_poly(2, m, k)
    shift = np.array([cx, cy])
    moved = cm.BoundaryData(lambda x: poly.value(x - shift))
    p = _point(r, t)
    value = cm.solve_harmonic(DISK, poly.boundary_data(), p, DQ).value
    shifted = cm.solve_harmonic(cm.BallDomain(center=shift, radius=1.0), moved,
                                p + shift, DQ).value
    assert abs(shifted - value) <= 1e-12


@PROPERTY
@given(radii, angles, st.floats(0.1, 10.0), degrees, parts)
def test_solve_is_scale_covariant(r, t, scale, m, k):
    poly = cm.harmonic_poly(2, m, k)
    scaled = cm.BoundaryData(lambda x: poly.value(x / scale))
    p = _point(r, t)
    value = cm.solve_harmonic(DISK, poly.boundary_data(), p, DQ).value
    grown = cm.solve_harmonic(cm.BallDomain(center=(0.0, 0.0), radius=scale), scaled,
                              scale * p, DQ).value
    assert abs(grown - value) <= 1e-12


@PROPERTY
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.1, 3.0), radii, angles,
       st.integers(0, 2 ** 16))
def test_root_product_is_constant_along_chords(cx, cy, radius, r, t, seed):
    ball = cm.BallDomain(center=(cx, cy), radius=radius)
    p = ball.center + radius * _point(r, t)
    dirs = uniform_directions(np.random.default_rng(seed), 64, 2)
    a, b = ball_chord_roots(ball, p, dirs)
    power = float(np.sum((p - ball.center) ** 2)) - radius ** 2
    assert np.all(a < 0.0) and np.all(b > 0.0)
    assert np.max(np.abs(a * b - power)) <= 1e-12 * radius ** 2
