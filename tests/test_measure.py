import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import chordmean as cm
from chordmean import measure as measure_module
from chordmean import selftest
from chordmean.geometry import philox_stream
from chordmean.measure import nappe_fraction
from chordmean.poisson import (
    build_boundary_quadrature,
    fixed_sum,
    kernel_values,
    measure_quadrature,
)


DISK = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
BALL = cm.BallDomain(center=(0.0, 0.0, 0.0), radius=1.0)


def test_metric_ratio_examples():
    # the metric ratio r2 / (r1 + r2) from the chord's backward endpoint
    for theta in (0.0, 0.7, 2.1):
        e = np.array([math.cos(theta), math.sin(theta)])
        chord = cm.chord_through(DISK, (0.0, 0.0), e)
        assert_allclose([chord.r1, chord.r2], [1.0, 1.0], atol=1e-14)
    ball = cm.BallDomain(center=(0.5, 0.0), radius=1.0)
    fwd = cm.chord_through(ball, (0.0, 0.0), (1.0, 0.0))   # a=-0.5, b=1.5
    assert_allclose([fwd.r1, fwd.r2], [0.5, 1.5], atol=1e-14)
    assert_allclose(fwd.r2 / (fwd.r1 + fwd.r2), 0.75, atol=1e-14)
    # reversing the direction swaps the ends and complements the ratio to 1
    bwd = cm.chord_through(ball, (0.0, 0.0), (-1.0, 0.0))
    assert_allclose([bwd.r1, bwd.r2], [fwd.r2, fwd.r1], atol=1e-15)


def test_nappe_fraction_quadrature_oracle():
    # one nappe's normalized solid angle by direct quadrature of the sphere
    # measure over the cone: (1/2) integral_0^alpha sin(t) dt in 3-D,
    # alpha/pi in 2-D (two intervals of length 2*alpha over 2*pi... one nappe
    # is a single interval of length 2*alpha on the circle)
    x, w = np.polynomial.legendre.leggauss(60)
    for alpha in (0.3, 0.9, 1.4):
        t = 0.5 * alpha * (x + 1.0)
        quad = 0.5 * (0.5 * alpha) * float(w @ np.sin(t))
        assert abs(nappe_fraction(3, alpha) - quad) <= 1e-10
        assert abs(nappe_fraction(2, alpha) - (2.0 * alpha) / (2.0 * math.pi)) <= 1e-14


def test_cone_caps_construction():
    plus = cm.CapSpec(vertex=(0.2, 0.1), axis=(0.0, 1.0), half_angle=0.8, nappe="plus")
    minus = cm.CapSpec(vertex=(0.2, 0.1), axis=(0.0, 1.0), half_angle=0.8, nappe="minus")
    assert (plus.nappe, minus.nappe) == ("plus", "minus")
    assert 0.0 < nappe_fraction(2, plus.half_angle) < 0.5


def test_cap_measure_ratio_examples():
    cap = cm.CapSpec(vertex=(0.0, 0.0), axis=(1.0, 0.0), half_angle=0.9)
    got = cm.cap_measure_ratio(DISK, (0.0, 0.0), cap)
    assert abs(got - 0.9 / math.pi) <= 1e-4

    cap = cm.arc_cap(DISK, (0.5, 0.0), -math.pi / 2, math.pi / 2)
    got = cm.cap_measure_ratio(DISK, (0.5, 0.0), cap)
    assert abs(got - 0.7951672353008665) <= 2e-4

    cap = cm.CapSpec(vertex=(0.3, 0.1), axis=(0.0, 1.0),
                     half_angle=math.pi / 2, nappe="both")
    assert abs(cm.cap_measure_ratio(DISK, (0.3, 0.1), cap) - 1.0) <= 1e-12


def test_density_matches_poisson():
    rng = np.random.default_rng(0)
    for dim, (ball, bq_res) in {2: (DISK, 8192), 3: (BALL, 96)}.items():
        from chordmean.poisson import build_boundary_quadrature
        bq = build_boundary_quadrature(ball, resolution=bq_res)
        for _ in range(5):
            d = rng.standard_normal(dim)
            p = rng.uniform(0.0, 0.7) * d / np.linalg.norm(d)
            axis = rng.standard_normal(dim)
            axis /= np.linalg.norm(axis)
            cap = cm.CapSpec(vertex=p, axis=axis, half_angle=rng.uniform(0.3, 1.3))
            w_ratio = cm.cap_measure_ratio(ball, p, cap)
            w_poisson = cm.cap_measure_poisson(ball, p, cap, bq=bq).value
            assert abs(w_ratio - w_poisson) <= 2e-3


def _random_cap(rng, dim, rho_max, half_range):
    d = rng.standard_normal(dim)
    p = rng.uniform(0.0, rho_max) * d / np.linalg.norm(d)
    axis = rng.standard_normal(dim)
    return p, axis / np.linalg.norm(axis), rng.uniform(*half_range)


def test_cone_rule_nappes_sum_to_twice_the_nappe_fraction():
    # in cone coordinates w(U) + w(V) integrates r1/L + r2/L = 1 over the
    # cone, so the two nappes of the ratio measure sum to the cone's mass
    # to rounding
    rng = np.random.default_rng(1)
    for dim, ball in ((2, DISK), (3, BALL)):
        for _ in range(10):
            p, axis, half = _random_cap(rng, dim, 0.9, (0.05, 1.5))
            plus = cm.cap_measure_ratio(ball, p, cm.CapSpec(p, axis, half, "plus"))
            minus = cm.cap_measure_ratio(ball, p, cm.CapSpec(p, axis, half, "minus"))
            both = cm.cap_measure_ratio(ball, p, cm.CapSpec(p, axis, half, "both"))
            target = 2.0 * nappe_fraction(dim, half)
            assert abs(plus + minus - target) <= 1e-14
            assert abs(both - target) <= 1e-14


def test_cone_rule_matches_the_involution_closed_form():
    rng = np.random.default_rng(4)
    wide = 0
    for _ in range(60):
        p = rng.uniform(-0.7, 0.7, 2)
        t1 = rng.uniform(0.0, 2.0 * math.pi)
        t2 = t1 + rng.uniform(0.1, 2.0 * math.pi - 0.2)
        cap = cm.arc_cap(DISK, p, t1, t2)
        wide += cap.half_angle >= 0.5 * math.pi
        w_exact = cm.involution_image_measure(complex(p[0], p[1]), (t1, t2))
        assert abs(cm.cap_measure_ratio(DISK, p, cap) - w_exact) <= 1e-13
    assert wide >= 10


def test_cone_rule_complement():
    # the plus nappe about -axis with half-angle pi - alpha is every direction
    # outside the plus nappe about axis
    rng = np.random.default_rng(5)
    for dim, ball in ((2, DISK), (3, BALL)):
        for _ in range(10):
            p, axis, half = _random_cap(rng, dim, 0.8, (0.05, math.pi - 0.05))
            inside = cm.cap_measure_ratio(ball, p, cm.CapSpec(p, axis, half))
            outside = cm.cap_measure_ratio(ball, p, cm.CapSpec(p, -axis, math.pi - half))
            assert abs(inside + outside - 1.0) <= 1e-14


def test_cone_rule_both_nappes_cover_the_sphere_past_a_right_angle():
    rng = np.random.default_rng(6)
    for dim, ball in ((2, DISK), (3, BALL)):
        for half in (0.5 * math.pi, 1.6, 3.0):
            p, axis, _ = _random_cap(rng, dim, 0.9, (0.1, 0.2))
            assert cm.cap_measure_ratio(ball, p, cm.CapSpec(p, axis, half, "both")) == 1.0


def test_cone_rule_is_translation_and_scale_covariant():
    rng = np.random.default_rng(7)
    for dim, ball in ((2, DISK), (3, BALL)):
        moved = cm.BallDomain(center=rng.uniform(-3.0, 3.0, dim), radius=2.5)
        for nappe in ("plus", "minus", "both"):
            xs, axis, half = _random_cap(rng, dim, 0.8, (0.1, 1.5))
            p = moved.center + moved.radius * xs
            unit = cm.cap_measure_ratio(ball, xs, cm.CapSpec(xs, axis, half, nappe))
            got = cm.cap_measure_ratio(moved, p, cm.CapSpec(p, axis, half, nappe))
            assert abs(got - unit) <= 1e-14
            poisson = cm.cap_measure_poisson(moved, p, cm.CapSpec(p, axis, half, nappe))
            assert abs(got - poisson.value) <= 2e-3


def test_cone_rule_agrees_with_poisson_on_criterion_8_grid():
    # criterion 8's configurations: both sides at once, each cap once
    rng = philox_stream(selftest._SEED_GRID, 8)
    worst = 0.0
    for dim, ball in ((2, DISK), (3, BALL)):
        pts, caps = selftest._measure_grid(rng, dim, 10, 20, 0.8)
        for p in pts:
            for axis, half in caps:
                cap = cm.CapSpec(vertex=p, axis=axis, half_angle=half)
                worst = max(worst, abs(cm.cap_measure_ratio(ball, p, cap)
                                       - cm.cap_measure_poisson(ball, p, cap).value))
    assert worst <= 2e-3


def test_cone_identity_accepts_only_the_poisson_integral():
    with pytest.raises(cm.BadParameter):
        cm.cone_identity_check(DISK, (0.5, 0.0), (0.0, 1.0), 0.7, backend="ratio")


def test_cone_identity_poisson_backend():
    w_sum, target, defect = cm.cone_identity_check(
        DISK, (0.5, 0.0), (0.0, 1.0), math.pi / 4, backend="poisson")
    assert_allclose(target, 0.5, atol=1e-15)
    assert defect <= 2e-3

    w_sum, target, defect = cm.cone_identity_check(
        BALL, (0.2, -0.3, 0.1), (0.6, 0.64, 0.48), math.pi / 3, backend="poisson")
    assert_allclose(target, 0.5, atol=1e-15)   # 2 * (1 - cos(pi/3))/2
    assert defect <= 2e-3


def test_cone_identity_at_center():
    w_sum, target, defect = cm.cone_identity_check(DISK, (0.0, 0.0), (1.0, 0.0), 0.7)
    assert defect <= 1e-3


def test_center_of_mass_checks():
    # half-angle chosen so the cone edges fall between grid nodes; the
    # symmetric inclusion then cancels the first moments exactly
    com, offset = cm.center_of_mass_check(DISK, (0.0, 0.0), (0.0, 1.0), 0.8)
    assert offset <= 1e-10   # symmetric double cone about the center

    com, offset = cm.center_of_mass_check(DISK, (0.5, 0.0), (0.0, 1.0), math.pi / 6)
    assert offset <= 1e-3

    com, offset = cm.center_of_mass_check(BALL, (0.0, 0.0, 0.4), (1.0, 0.0, 0.0),
                                          math.pi / 4)
    assert offset <= 2e-3


def test_center_of_mass_empty_cap():
    axis = np.array([2.0, 1.0]) / math.sqrt(5.0)   # misses every grid node
    with pytest.raises(cm.EmptyCap):
        cm.center_of_mass_check(DISK, (0.0, 0.0), axis, 1e-9)
    # in 3-D a 1e-9 rad double cone about a generic axis misses all 131072
    # nodes of the default rule and all of its half rule: empty sums, no
    # numpy warnings, a zero measure with a zero error estimate
    axis = np.array([0.3, 0.5, math.sqrt(1.0 - 0.34)])
    cap = cm.CapSpec((0.0, 0.0, 0.0), axis, 1e-9, "both")
    bq = measure_quadrature(BALL)
    for rule in (bq, bq.half_resolution()):
        assert not cm.cap_indicator(cap, BALL).value(rule.points).any()
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        report = cm.cap_measure_poisson(BALL, (0.0, 0.0, 0.0), cap)
        with pytest.raises(cm.EmptyCap):
            cm.center_of_mass_check(BALL, (0.0, 0.0, 0.0), axis, 1e-9)
    assert (report.value, report.error_estimate, report.clamp_applied) == (0.0, 0.0, 0.0)


# The cap paths sum w * indicator * kernel over the nodes inside the cap
# only.  The references below take the same integrals over every node of the
# sphere rule; the terms they add are exactly 0 and fixed_sum is exactly
# rounded, so both must agree bit for bit.

_MOVED = {2: cm.BallDomain(center=(0.4, -1.3), radius=2.5),
          3: cm.BallDomain(center=(-0.7, 0.2, 1.1), radius=0.6)}


def _balls_and_rules(dim):
    """The unit and a moved ball, each with its default measure rule (2-D:
    nested half rule; 3-D: Gauss, half rule built apart) and with a supplied
    odd rule (half rule built apart; in 3-D an equatorial ring)."""
    for ball in ((DISK if dim == 2 else BALL), _MOVED[dim]):
        yield ball, None
        yield ball, build_boundary_quadrature(ball, 1001 if dim == 2 else 15)


def _points_and_axes(ball, rng):
    """A point on the first axis with the last coordinate axis as cone axis,
    so that nodes with e_last = 0 lie on the plane through the point normal
    to the axis (edge ties when the cone cosine is 0), and a random pair."""
    dim = ball.dim
    tie_axis = np.zeros(dim)
    tie_axis[-1] = 1.0
    random_xs, random_axis, _ = _random_cap(rng, dim, 0.8, (0.1, 0.2))
    for xs, axis in ((0.3 * np.eye(dim)[0], tie_axis), (random_xs, random_axis)):
        yield ball.center + ball.radius * xs, axis


def _whole_sphere_cap(ball, p, cap, bq):
    report = cm.poisson_solve(ball, cm.cap_indicator(cap, ball), p,
                              measure_quadrature(ball) if bq is None else bq)
    clamped = min(max(report.value, 0.0), 1.0)
    return clamped, report.error_estimate, abs(report.value - clamped)


def _has_ties(ball, cap, bq):
    points = (measure_quadrature(ball) if bq is None else bq).points
    return bool(np.any(cm.cap_indicator(cap, ball).value(points) == 0.5))


def test_cap_measure_poisson_keeps_the_bits_of_the_whole_sphere_integral():
    rng = np.random.default_rng(15)
    ties = 0
    # cone cosine c > 0, c = 0 (pi/2 - 1e-16 is pi/2 in floating point and
    # its cosine, 6e-17, rounds to 0), c < 0
    for half in (0.7, math.pi / 2 - 1e-16, 2.2):
        for dim in (2, 3):
            for ball, bq in _balls_and_rules(dim):
                for p, axis in _points_and_axes(ball, rng):
                    for nappe in ("plus", "minus", "both"):
                        cap = cm.CapSpec(p, axis, half, nappe)
                        got = cm.cap_measure_poisson(ball, p, cap, bq)
                        assert (got.value, got.error_estimate, got.clamp_applied) == \
                            _whole_sphere_cap(ball, p, cap, bq)
                        ties += _has_ties(ball, cap, bq)
    assert ties >= 12          # edge ties in 2-D and in 3-D were summed


def test_cone_identity_sums_the_two_nappe_measures_bit_for_bit(monkeypatch):
    # one indicator pass for both nappes: each nappe's sum must be the
    # whole-sphere integral of its own indicator, edge ties split 1/2 : 1/2
    sums = []

    def recorded(values):
        sums.append(fixed_sum(values))
        return sums[-1]

    monkeypatch.setattr(measure_module, "fixed_sum", recorded)
    rng = np.random.default_rng(16)
    shared_edge = float(np.nextafter(0.5 * math.pi, 0.0))   # cosine rounds to 0
    ties = 0
    for dim in (2, 3):
        for ball, bq in _balls_and_rules(dim):
            rule = measure_quadrature(ball) if bq is None else bq
            for p, axis in _points_and_axes(ball, rng):
                for half in (0.7, 1.3, shared_edge):
                    sums.clear()
                    w_sum, _, _ = cm.cone_identity_check(ball, p, axis, half, bq=bq)
                    caps = [cm.CapSpec(p, axis, half, n) for n in ("plus", "minus")]
                    assert sums == [cm.poisson_solve(ball, cm.cap_indicator(cap, ball),
                                                     p, rule).value for cap in caps]
                    assert w_sum == sum(cm.cap_measure_poisson(ball, p, cap, bq).value
                                        for cap in caps)
                    ties += half == shared_edge and _has_ties(ball, caps[0], bq)
    assert ties >= 4
    with pytest.raises(cm.BadParameter):     # pi/2 - 1e-16 == pi/2
        cm.cone_identity_check(DISK, (0.3, 0.0), (0.0, 1.0), math.pi / 2 - 1e-16)


def test_center_of_mass_keeps_the_bits_of_the_whole_sphere_sums():
    rng = np.random.default_rng(17)
    for dim in (2, 3):
        for ball, bq in _balls_and_rules(dim):
            rule = (measure_quadrature(ball) if bq is None else bq).rule
            points = cm.BoundaryQuadrature(ball, rule).points
            for p, axis in _points_and_axes(ball, rng):
                for half in (0.4, 1.2):
                    cap = cm.CapSpec(p, axis, half, "both")
                    density = (rule.weights * cm.cap_indicator(cap, ball).value(points)
                               * kernel_values(ball, p, rule.directions))
                    mean_dir = np.array([fixed_sum(density * rule.directions[:, j])
                                         for j in range(dim)]) / fixed_sum(density)
                    com = ball.center + ball.radius * mean_dir
                    got, offset = cm.center_of_mass_check(ball, p, axis, half, bq=bq)
                    assert got.tolist() == com.tolist()
                    assert offset == float(np.linalg.norm(com - p))


def test_subtended_moments():
    assert_allclose(cm.subtended_moment(0.3 + 0.2j, 0), 1.0 + 0.0j, atol=1e-12)
    assert_allclose(cm.subtended_moment(0.4, 1), 0.2 + 0.0j, atol=1e-10)
    assert_allclose(cm.subtended_moment(0.4, 2), 0.08 + 0.0j, atol=1e-10)
    rng = np.random.default_rng(2)
    for _ in range(10):
        w = complex(*rng.uniform(-0.55, 0.55, 2))
        for d in range(9):
            expected = 0.5 * ((0.0 if d else 1.0) + w ** d)
            assert abs(cm.subtended_moment(w, d) - expected) <= 1e-8


def test_subtended_moment_validation():
    with pytest.raises(cm.PointNotInterior):
        cm.subtended_moment(1.2, 1)
    with pytest.raises(cm.BadParameter):
        cm.subtended_moment(0.4, 9)


def test_involution_image_measure():
    # J_0 preserves arc length
    assert_allclose(cm.involution_image_measure(0.0, (0.3, 1.1)),
                    0.8 / (2.0 * math.pi), atol=1e-12)
    # the image of the right half-circle under J_{0.5} is the long arc
    # through -1: endpoints 0.8 -+ 0.6i, length 2 pi - 2 arctan(0.75)
    got = cm.involution_image_measure(0.5, (-math.pi / 2, math.pi / 2))
    assert_allclose(got, 0.7951672353008665, atol=1e-12)
    complement = cm.involution_image_measure(0.5, (math.pi / 2, 3 * math.pi / 2))
    assert_allclose(got + complement, 1.0, atol=1e-12)
    with pytest.raises(cm.PointNotInterior):
        cm.involution_image_measure(1.0, (0.0, 1.0))


def test_poisson_matches_involution_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = rng.uniform(-0.55, 0.55, 2)
        t1 = rng.uniform(0.0, 2.0 * math.pi)
        t2 = t1 + rng.uniform(0.2, 2.0 * math.pi - 0.4)
        cap = cm.arc_cap(DISK, p, t1, t2)
        w_poisson = cm.cap_measure_poisson(DISK, p, cap).value
        w_exact = cm.involution_image_measure(complex(p[0], p[1]), (t1, t2))
        assert abs(w_poisson - w_exact) <= 1e-4


def test_star_angle_examples():
    lhs, rhs, defect = cm.star_angle_measure_check(0.4, (0.0, math.pi / 2))
    assert_allclose(rhs, math.pi / 2, atol=1e-15)
    assert defect <= 1e-10
    lhs, rhs, defect = cm.star_angle_measure_check(0.1, (math.pi, 2.0 * math.pi))
    assert_allclose(rhs, math.pi, atol=1e-15)
    assert defect <= 1e-10
    # a -> 0 limit: the domain degenerates to the unit disk
    lhs, rhs, defect = cm.star_angle_measure_check(1e-6, (0.3, 2.2))
    assert defect <= 1e-10


def test_star_angle_validation(monkeypatch):
    with pytest.raises(cm.BadParameter):
        cm.star_angle_measure_check(0.5, (0.0, 1.0))
    with pytest.raises(cm.BadParameter):
        cm.star_angle_measure_check(0.3, (2.0, 1.0))
    # a grid too coarse to unwrap the image arguments raises a diagnostic
    monkeypatch.setattr(measure_module, "_PROP81_GRID", 2)
    with pytest.raises(cm.NumericalError):
        cm.star_angle_measure_check(0.3, (0.0, 2.0 * math.pi))


def test_measure_requires_interior():
    cap = cm.CapSpec(vertex=(2.0, 0.0), axis=(1.0, 0.0), half_angle=0.5)
    with pytest.raises(cm.PointNotInterior):
        cm.cap_measure_ratio(DISK, (2.0, 0.0), cap)
