"""Shared read-only quadrature rules and their plans, the one-pass
full-plus-half estimate and the antipodal chord pairing."""

import collections
import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chordmean as cm
from chordmean import averaging, biharmonic, geometry
from chordmean.averaging import _chord_values, _linear_term
from chordmean.boundary import cap_indicator
from chordmean.geometry import DirectionQuadrature, _independent
from chordmean.poisson import (BoundaryQuadrature, _boundary_points, build_boundary_quadrature,
                              fixed_sum, kernel_values)


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


def test_rule_cache_is_bounded_by_bytes(monkeypatch):
    """Past the byte budget the least recently used rule goes first; a rule
    still cached is the same object, a plan counts in its rule's bytes from
    the rule's next build on, and the newest rule stays even when it alone is
    over the budget."""
    def build(seed):
        return cm.build_direction_quadrature(2, "monte_carlo", 1024, seed=seed)

    def cached():
        assert geometry._RULES_BYTES == sum(size for _, size in geometry._RULES.values())
        return [rule for rule, _ in geometry._RULES.values()]

    monkeypatch.setattr(geometry, "_RULES", collections.OrderedDict())
    monkeypatch.setattr(geometry, "_RULES_BYTES", 0)
    monkeypatch.setattr(geometry, "RULE_CACHE_BYTES", 3 * 1024 * 24)   # three such rules
    rules = [build(seed) for seed in range(3)]
    assert build(0) is rules[0]                     # now the most recently used
    rules.append(build(3))
    assert cached() == [rules[2], rules[0], rules[3]]       # 1 went
    assert build(2) is rules[2]
    plan = geometry.rule_plan(rules[3])
    assert cached() == [rules[0], rules[3], rules[2]]
    assert build(3) is rules[3]                     # 0 and 2 go for its plan's bytes
    assert cached() == [rules[3]] and geometry._RULES_BYTES == 1024 * 24 + plan.nbytes
    assert build(1) is not rules[1]
    big = cm.build_direction_quadrature(2, "monte_carlo", 4096, seed=0)
    assert cached() == [big]
    assert cm.build_direction_quadrature(2, "monte_carlo", 4096, seed=0) is big


@pytest.mark.parametrize("dim, scheme, res, seed", [
    (2, "uniform_angle_2d", 64, None), (2, "uniform_angle_2d", 63, None),
    (3, "gauss_product_3d", 8, None), (3, "gauss_product_3d", 5, None),
    (2, "monte_carlo", 100, 4), (3, "monte_carlo", 101, 4),
    (3, "monte_carlo_design", 7, 4)])
def test_half_rule_and_plan_are_kept_on_the_rule(dim, scheme, res, seed):
    rule = cm.build_direction_quadrature(dim, scheme, res, seed)
    half = rule.half_resolution()
    assert half is rule.half_resolution() and half.half_resolution() is half.half_resolution()
    plan = geometry.rule_plan(rule)
    assert plan is geometry.rule_plan(rule) and plan.half is half
    for arr in (half.directions, half.weights, plan.dirs, plan.cols, plan.nodes):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_writeable_rules_get_a_new_plan_every_call():
    built = cm.build_direction_quadrature(2, "uniform_angle_2d", 64)
    mine = DirectionQuadrature(built.directions.copy(), built.weights.copy(), built.scheme,
                               built.resolution)
    assert geometry.rule_plan(mine) is not geometry.rule_plan(mine)
    assert mine.half_resolution() is not mine.half_resolution()
    assert "_plan" not in mine.__dict__ and "_half" not in mine.__dict__


def test_plans_built_by_threads_at_once_are_one():
    rules = [cm.build_direction_quadrature(3, "monte_carlo", 2000 + k, seed=1) for k in range(8)]
    got = geometry._in_parallel([lambda r=r: (geometry.rule_plan(r), r.half_resolution())
                                 for r in rules for _ in range(4)])
    for k, rule in enumerate(rules):
        plans, halves = zip(*got[4 * k:4 * k + 4])
        assert all(plan is geometry.rule_plan(rule) for plan in plans)
        assert all(half is rule.half_resolution() for half in halves)


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
    whose half is not nested does: with an empty rule cache, the rules are
    built again and keep no plan from before."""
    def disable():
        monkeypatch.setattr(DirectionQuadrature, "half_nodes", property(lambda self: None))
        monkeypatch.setattr(geometry, "_RULES", collections.OrderedDict())
        monkeypatch.setattr(geometry, "_RULES_BYTES", 0)
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
    assert seen == [4095 + 2047]       # one call: the rule's nodes, then its half rule's
    seen.clear()
    cm.poisson_solve(disk, counted, p, build_boundary_quadrature(disk, resolution=4094))
    assert seen == [4094]              # the odd half rule is the first half
    seen.clear()
    dq = cm.build_direction_quadrature(2, "uniform_angle_2d", 512)
    cm.solve_harmonic(disk, counted, p, dq)
    assert seen == [2 * 256]           # both chord ends, one chord per antipodal pair
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
    assert (seen, slopes) == ([2 * 256], [2 * 256])


def _linear(data, q1, q2, r1, r2, e):
    f1 = np.asarray(data.value(q1), dtype=float)
    f2 = np.asarray(data.value(q2), dtype=float)
    return (r1 * f2 + r2 * f1) / (r1 + r2)


def _paired(domain, data, p, dirs, term=_linear_term):
    """The solver's chord kernel on ``dirs``: each antipodal pair's chord
    solved once and its value counted for both directions."""
    rows, paired = _independent(dirs)
    values = _chord_values(domain, data, p, rows, rows.T.copy(), term)
    return np.concatenate([values, values], axis=-1) if paired else values


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
    assert _independent(dirs)[1] and len(_independent(dirs)[0]) == n // 2
    paired = _paired(domain, data, p, dirs)
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
    # every direction its own chord, with the reference cubic: the chord rules
    # get new plans, the normals keep their paired one (an unpaired plane is
    # solved on mirrored circle nodes, equal only to rounding)
    for module in (geometry, averaging):
        monkeypatch.setattr(module, "_independent", lambda dirs: (dirs, False))
    for rule in (dq, gauss):
        monkeypatch.delitem(rule.__dict__, "_plan")
    monkeypatch.setattr(biharmonic, "_hermite_term", lambda data, ends, r1, r2, e:
                        _hermite_reference(data, ends[0], ends[1], r1, r2, e))
    assert results() == paired


def test_hermite_term_matches_the_shifted_form():
    """The solver's closed form at 0 and the cubic's midpoint-shifted
    coefficients agree to rounding, not bit for bit."""
    disk, _, p = _disk_case()
    dirs = cm.build_direction_quadrature(2, "uniform_angle_2d", 4096).directions
    closed = _paired(disk, _almansi_case(), p, dirs, biharmonic._hermite_term)
    shifted = _unpaired(disk, _almansi_case(), p, dirs, _shifted_reference)
    assert np.max(np.abs(closed - shifted)) <= 1e-15


@pytest.mark.parametrize("dq,counts", [
    (cm.build_direction_quadrature(2, "uniform_angle_2d", 512), [2 * 256]),
    (cm.build_direction_quadrature(2, "uniform_angle_2d", 4094), [2 * 2047]),
    (cm.build_direction_quadrature(2, "uniform_angle_2d", 4095), [2 * (4095 + 2047)]),
    (cm.build_direction_quadrature(2, "monte_carlo", 1000, seed=5), [2 * 1000]),
    (cm.build_direction_quadrature(3, "gauss_product_3d", 8), [2 * (64 + 16)]),
    (cm.build_direction_quadrature(3, "gauss_product_3d", 5), [2 * (25 + 4)]),
], ids=["even", "half_odd", "odd", "monte_carlo", "gauss_product", "gauss_product_odd"])
def test_only_antipodal_rules_are_paired(dq, counts):
    """One data evaluation per chord solve, at both ends of every chord: one
    chord per antipodal pair on the even uniform rules and the Gauss products
    (an odd product's equatorial ring pairs with itself), one per node
    otherwise; a half rule that does not nest (odd, Gauss) adds its own
    chords, reduced the same way."""
    ball = cm.BallDomain(center=np.zeros(dq.dim), radius=1.0)
    data = cm.harmonic_poly(dq.dim, 2, "re" if dq.dim == 2 else 0).boundary_data()
    seen = []

    def value(pts):
        seen.append(len(pts))
        return data.value(pts)

    counted = cm.BoundaryData(value, data.gradient)
    cm.solve_harmonic(ball, counted, np.full(dq.dim, 0.2), dq)
    assert seen == counts


# ---------------------------------------------------------------------------
# The one-pass solves against the two-pass reference
# ---------------------------------------------------------------------------

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)
RULES = [(2, "uniform_angle_2d", 64, None), (2, "uniform_angle_2d", 4096, None),
         (2, "uniform_angle_2d", 4094, None), (2, "uniform_angle_2d", 63, None),
         (2, "uniform_angle_2d", 255, None), (3, "gauss_product_3d", 8, None),
         (3, "gauss_product_3d", 16, None), (3, "gauss_product_3d", 5, None),
         (3, "gauss_product_3d", 7, None), (2, "monte_carlo", 301, 5),
         (3, "monte_carlo", 300, 6), (3, "monte_carlo_design", 9, 7)]
rules = st.sampled_from(RULES).map(lambda spec: cm.build_direction_quadrature(*spec))
rules_2d = st.sampled_from([spec for spec in RULES if spec[0] == 2]).map(
    lambda spec: cm.build_direction_quadrature(*spec))
unit = st.floats(-1.0, 1.0)


def _two_pass(rule, factors):
    """The estimate as two passes make it: the integrand on every node of the
    rule, then on every node of its half rule, each weighted and summed on its
    own; (value, error estimate) as hex strings."""
    half = rule.half_resolution()
    value, half_value = (fixed_sum(functools.reduce(operator.mul, factors(q), q.weights))
                         for q in (rule, half))
    return value.hex(), abs(value - half_value).hex()


def _chord_reference(domain, data, p, rule, term=_linear):
    return _two_pass(rule, lambda q: (_unpaired(domain, data, p, q.directions, term),))


def _hex(result):
    report = getattr(result, "report", result)
    return report.value.hex(), report.error_estimate.hex()


def _inside(center, scale, xyz):
    """A point of the ball about ``center`` of radius 0.85 ``scale``."""
    v = np.asarray(xyz[:len(center)], dtype=float)
    return np.asarray(center) + 0.85 * scale * v / max(1.0, float(np.linalg.norm(v)))


def _polynomial(dim, m, pick):
    ks = cm.basis_indices(dim, m)
    return cm.harmonic_poly(dim, m, ks[pick % len(ks)])


@PROPERTY
@given(rules, st.tuples(unit, unit, unit), st.integers(0, 6), st.integers(0, 12),
       st.booleans())
def test_one_pass_chord_solves_equal_two_passes(rule, xyz, m, pick, bi):
    ball = cm.BallDomain(center=(0.1, -0.2, 0.05)[:rule.dim], radius=1.3)
    p = _inside(ball.center, ball.radius, xyz)
    if bi:
        data = cm.almansi_assemble(_polynomial(rule.dim, m, pick),
                                   _polynomial(rule.dim, 6 - m, pick)).boundary_data()
        got = cm.solve_biharmonic(ball, data, p, rule)
        want = _chord_reference(ball, data, p, rule, _hermite_reference)
    else:
        data = _polynomial(rule.dim, m, pick).boundary_data()
        got = cm.solve_harmonic(ball, data, p, rule)
        want = _chord_reference(ball, data, p, rule)
    assert _hex(got) == want


@PROPERTY
@given(rules_2d, st.tuples(unit, unit), st.integers(0, 6), st.integers(0, 1),
       st.booleans())
def test_one_pass_domain_solves_equal_two_passes(rule, xy, m, pick, star):
    if star:                    # r = 1 + 0.4 cos(t): convex, so star-shaped from p
        domain, t = cm.StarDomain2D.conformal(0.2), math.atan2(xy[1], xy[0])
        p = 0.85 * min(1.0, math.hypot(*xy)) * (1.0 + 0.4 * math.cos(t)) * np.array(
            [math.cos(t), math.sin(t)])
    else:
        domain = cm.Ellipse2D(center=(0.2, -0.1), semi_axes=(1.5, 0.8))
        p = domain.center + 0.85 * np.asarray(xy) / max(1.0, math.hypot(*xy)) * (1.5, 0.8)
    data = _polynomial(2, m, pick).boundary_data()
    got = cm.solve_on_domain(domain, data, p, rule)
    assert _hex(got) == _chord_reference(domain, data, p, rule)


@PROPERTY
@given(rules, st.tuples(unit, unit, unit), st.tuples(unit, unit, unit),
       st.floats(0.5, 2.0), st.integers(0, 6), st.integers(0, 12))
def test_one_pass_poisson_solves_equal_two_passes(rule, centre, xyz, radius, m, pick):
    ball = cm.BallDomain(center=np.asarray(centre[:rule.dim]), radius=radius)
    p = _inside(ball.center, radius, xyz)
    data = _polynomial(rule.dim, m, pick).boundary_data()
    got = cm.poisson_solve(ball, data, p, BoundaryQuadrature(ball, rule))
    want = _two_pass(rule, lambda q: (
        np.asarray(data.value(_boundary_points(ball, q.directions)), dtype=float),
        kernel_values(ball, p, q.directions)))
    assert _hex(got) == want
