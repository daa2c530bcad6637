import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import chordmean as cm
from chordmean import measure as measure_module
from chordmean import poisson as poisson_module
from chordmean import selftest
from chordmean.boundary import _cone_cosines
from chordmean.geometry import _row_blocks, philox_stream
from chordmean.measure import nappe_fraction
from chordmean.poisson import build_boundary_quadrature


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
    for dim, ball in ((2, DISK), (3, BALL)):
        for _ in range(5):
            d = rng.standard_normal(dim)
            p = rng.uniform(0.0, 0.7) * d / np.linalg.norm(d)
            axis = rng.standard_normal(dim)
            axis /= np.linalg.norm(axis)
            cap = cm.CapSpec(vertex=p, axis=axis, half_angle=rng.uniform(0.3, 1.3))
            w_ratio = cm.cap_measure_ratio(ball, p, cap)
            w_poisson = cm.cap_measure_poisson(ball, p, cap).value
            assert abs(w_ratio - w_poisson) <= 1e-14


def _random_cap(rng, dim, rho_max, half_range):
    d = rng.standard_normal(dim)
    p = rng.uniform(0.0, rho_max) * d / np.linalg.norm(d)
    axis = rng.standard_normal(dim)
    return p, axis / np.linalg.norm(axis), rng.uniform(*half_range)


def test_cap_measure_ratio_nappes_sum_to_twice_the_nappe_fraction():
    # w(U) + w(V) integrates r1/L + r2/L = 1 over the cone, so the two
    # nappes of the ratio measure sum to the cone's mass to rounding
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


def test_cap_measure_ratio_matches_the_involution_closed_form():
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


def test_cap_measure_ratio_complement():
    # the plus nappe about -axis with half-angle pi - alpha is every direction
    # outside the plus nappe about axis
    rng = np.random.default_rng(5)
    for dim, ball in ((2, DISK), (3, BALL)):
        for _ in range(10):
            p, axis, half = _random_cap(rng, dim, 0.8, (0.05, math.pi - 0.05))
            inside = cm.cap_measure_ratio(ball, p, cm.CapSpec(p, axis, half))
            outside = cm.cap_measure_ratio(ball, p, cm.CapSpec(p, -axis, math.pi - half))
            assert abs(inside + outside - 1.0) <= 1e-14


def test_cap_measure_ratio_both_nappes_cover_the_sphere_past_a_right_angle():
    rng = np.random.default_rng(6)
    for dim, ball in ((2, DISK), (3, BALL)):
        for half in (0.5 * math.pi, 1.6, 3.0):
            p, axis, _ = _random_cap(rng, dim, 0.9, (0.1, 0.2))
            assert cm.cap_measure_ratio(ball, p, cm.CapSpec(p, axis, half, "both")) == 1.0


def test_cap_measure_ratio_is_translation_and_scale_covariant():
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
            assert abs(got - poisson.value) <= 1e-14


def test_cap_measure_ratio_agrees_with_poisson_on_criterion_8_grid():
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
    assert worst <= 1e-14


def _cone_gauss_measure(p, axis, half):
    """A cap's measure by a product rule on its cone, independent of the
    edge formula: 2 r1 / L = 1 + beta / s, beta = e . p, s = sqrt(beta^2 +
    1 - |p|^2), over the directions e within ``half`` of ``axis``, with
    Gauss-Legendre in the polar angle about the axis times equal azimuths
    (in 2-D the two sides of the axis): 64 x 128 nodes."""
    x, w = np.polynomial.legendre.leggauss(64)
    azimuths = 128
    phi = 0.5 * half * (x + 1.0)
    w_phi = 0.5 * half * w
    if p.size == 2:
        side = np.sin(phi)[:, None] * np.array([-axis[1], axis[0]])
        along = np.cos(phi)[:, None] * axis
        dirs = np.concatenate([along + side, along - side])
        weights = np.concatenate([w_phi, w_phi]) / (2.0 * math.pi)
    else:
        u = np.cross(axis, np.eye(3)[int(np.argmin(np.abs(axis)))])
        u /= np.linalg.norm(u)
        psi = 2.0 * math.pi * np.arange(azimuths) / azimuths
        ring = np.cos(psi)[:, None] * u + np.sin(psi)[:, None] * np.cross(axis, u)
        dirs = (np.cos(phi)[:, None, None] * axis
                + np.sin(phi)[:, None, None] * ring[None, :, :]).reshape(-1, 3)
        weights = np.repeat(w_phi * np.sin(phi), azimuths) / (2.0 * azimuths)
    beta = dirs @ p
    s = np.sqrt(beta * beta + 1.0 - float(p @ p))
    return math.fsum((weights * (beta + s) / s).tolist())


@pytest.mark.parametrize("dim", [2, 3])
def test_cap_measure_ratio_matches_a_gauss_product_on_the_cone(dim):
    rng = np.random.default_rng(12)
    ball = DISK if dim == 2 else BALL
    for _ in range(100):
        p, axis, half = _random_cap(rng, dim, 0.8, (0.05, 1.5))
        got = cm.cap_measure_ratio(ball, p, cm.CapSpec(p, axis, half))
        assert abs(got - _cone_gauss_measure(p, axis, half)) <= 1e-15


@pytest.mark.parametrize("rho", [0.999, 0.9999])
def test_cap_measure_ratio_edge_sum_has_converged(monkeypatch, rho):
    # n against 2n edge nodes near the rim, where a product rule on the cone
    # needs thousands of nodes per nappe
    rng = np.random.default_rng(13)
    caps = []
    for _ in range(20):
        p, axis, half = _random_cap(rng, 3, 1.0, (0.05, 3.0))
        p = rho * p / np.linalg.norm(p)
        caps.append(cm.CapSpec(p, axis, half))
    default = [cm.cap_measure_ratio(BALL, cap.vertex, cap) for cap in caps]
    monkeypatch.setattr(poisson_module, "_EDGE_SCALE", 2.0 * poisson_module._EDGE_SCALE)
    doubled = [cm.cap_measure_ratio(BALL, cap.vertex, cap) for cap in caps]
    assert max(abs(a - b) for a, b in zip(default, doubled)) <= 1e-15


def test_cap_measure_ratio_degenerate_caps():
    rng = np.random.default_rng(14)
    for dim, ball in ((2, DISK), (3, BALL)):
        for _ in range(5):
            _, axis, half = _random_cap(rng, dim, 0.8, (0.05, 1.5))
            perp = _random_cap(rng, dim, 0.8, (0.0, 1.0))[1]
            perp -= (perp @ axis) * axis
            perp /= np.linalg.norm(perp)
            rho = rng.uniform(0.1, 0.8)
            for p in (rho * axis, -rho * axis,              # xs along the axis: B = 0
                      np.zeros(dim),                        # P at the center
                      rho * (math.cos(half) * axis + math.sin(half) * perp)):   # xs on the edge
                got = cm.cap_measure_ratio(ball, p, cm.CapSpec(p, axis, half))
                assert abs(got - _cone_gauss_measure(p, axis, half)) <= 1e-15
            centre = np.zeros(dim)
            got = cm.cap_measure_ratio(ball, centre, cm.CapSpec(centre, axis, half))
            assert abs(got - nappe_fraction(dim, half)) <= 1e-16
            # past pi / 2 the product rule itself is about 1e-15 off (a
            # 30-digit evaluation agrees with the edge formula); it is exact
            # on the complement's cone
            p, wide = rho * perp, rng.uniform(1.6, 3.0)
            got = cm.cap_measure_ratio(ball, p, cm.CapSpec(p, axis, wide))
            assert abs(got - (1.0 - _cone_gauss_measure(p, -axis, math.pi - wide))) <= 1e-15


@pytest.mark.parametrize("p, arc", [
    ((0.5, 0.0), (0.0, math.pi)),                       # P on the chord through the ends
    ((0.0, -0.3), (-0.5 * math.pi, 0.5 * math.pi)),     # ... through the center
    ((0.5, 0.0), (0.0, 3.0 * math.pi)),                 # past a full turn
    ((0.3, -0.4), (0.0, 2.0 * math.pi)),                # a full turn
    ((0.0, 0.0), (0.0, 2.0 * math.pi - 1e-9)),          # nearly a full turn
    ((0.2, 0.5), (1.0, 1.0 + 1e-9)),                    # nearly nothing
])
def test_arc_cap_measures_the_arc(p, arc):
    cap = cm.arc_cap(DISK, p, *arc)
    exact = cm.involution_image_measure(complex(*p), arc)
    assert abs(cm.cap_measure_ratio(DISK, p, cap) - exact) <= 1e-12
    assert abs(cm.cap_measure_poisson(DISK, p, cap).value - exact) <= 1e-4


def test_arc_cap_on_random_arcs_of_every_length():
    rng = np.random.default_rng(15)
    for _ in range(300):
        p = _random_cap(rng, 2, 0.99, (0.0, 1.0))[0]
        t1 = rng.uniform(-10.0, 10.0)
        t2 = t1 + rng.choice([rng.uniform(0.0, 1e-3), rng.uniform(1e-3, 2.0 * math.pi),
                              rng.uniform(2.0 * math.pi - 1e-3, 2.0 * math.pi)])
        cap = cm.arc_cap(DISK, p, t1, t2)
        exact = cm.involution_image_measure(complex(*p), (t1, t2))
        assert abs(cm.cap_measure_ratio(DISK, p, cap) - exact) <= 2e-15


def test_cap_error_estimate_is_the_true_error():
    # criterion 8's 50 closed-form arcs, drawn after its grid from the same
    # stream, and 3-D caps seen from the centre, where a nappe's measure is
    # its solid angle
    rng = philox_stream(selftest._SEED_GRID, 8)
    for dim in (2, 3):
        selftest._measure_grid(rng, dim, 10, 20, 0.8)
    for _ in range(50):
        p = selftest._interior_points(rng, 2, 1, 0.8)[0]
        t1 = rng.uniform(0.0, 2.0 * math.pi)
        t2 = t1 + rng.uniform(0.1, 2.0 * math.pi - 0.2)
        report = cm.cap_measure_poisson(DISK, p, cm.arc_cap(DISK, p, t1, t2))
        exact = cm.involution_image_measure(complex(p[0], p[1]), (t1, t2))
        assert abs(report.error_estimate - abs(report.value - exact)) <= 1e-14
    centre = np.zeros(3)
    for _ in range(20):
        axis, half = selftest._unit(rng, 3), rng.uniform(0.25, 1.35)
        for nappe, nappes in (("plus", 1), ("both", 2)):
            report = cm.cap_measure_poisson(BALL, centre, cm.CapSpec(centre, axis, half, nappe))
            exact = nappes * nappe_fraction(3, half)
            assert abs(report.error_estimate - abs(report.value - exact)) <= 1e-14


def test_cone_identity_accepts_only_the_poisson_integral():
    with pytest.raises(cm.BadParameter):
        cm.cone_identity_check(DISK, (0.5, 0.0), (0.0, 1.0), 0.7, backend="ratio")


def test_cone_identity_poisson_backend():
    w_sum, target, defect = cm.cone_identity_check(
        DISK, (0.5, 0.0), (0.0, 1.0), math.pi / 4, backend="poisson")
    assert_allclose(target, 0.5, atol=1e-15)
    assert defect <= 1e-14

    w_sum, target, defect = cm.cone_identity_check(
        BALL, (0.2, -0.3, 0.1), (0.6, 0.64, 0.48), math.pi / 3, backend="poisson")
    assert_allclose(target, 0.5, atol=1e-15)   # 2 * (1 - cos(pi/3))/2
    assert defect <= 1e-14


def test_cone_identity_at_center():
    w_sum, target, defect = cm.cone_identity_check(DISK, (0.0, 0.0), (1.0, 0.0), 0.7)
    assert defect <= 1e-15


def test_center_of_mass_checks():
    com, offset = cm.center_of_mass_check(DISK, (0.0, 0.0), (0.0, 1.0), 0.8)
    assert offset <= 1e-15   # symmetric double cone about the center

    com, offset = cm.center_of_mass_check(DISK, (0.5, 0.0), (0.0, 1.0), math.pi / 6)
    assert offset <= 1e-14

    com, offset = cm.center_of_mass_check(BALL, (0.0, 0.0, 0.4), (1.0, 0.0, 0.0),
                                          math.pi / 4)
    assert offset <= 1e-14


def test_center_of_mass_empty_cap():
    # caps whose measure is below 1e-12 carry no mass: in 2-D 2 a / pi
    axis = np.array([2.0, 1.0]) / math.sqrt(5.0)
    with pytest.raises(cm.EmptyCap):
        cm.center_of_mass_check(DISK, (0.0, 0.0), axis, 1e-13)
    # in 3-D a 1e-9 rad double cone, of measure 1 - cos(1e-9) = 5e-19: no
    # numpy warnings, and since cos(1e-9) rounds to 1 the indicator reads
    # at most 1 (not 1) on its nodes, so the error is below the cap's measure
    axis = np.array([0.3, 0.5, math.sqrt(1.0 - 0.34)])
    cap = cm.CapSpec((0.0, 0.0, 0.0), axis, 1e-9, "both")
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        report = cm.cap_measure_poisson(BALL, (0.0, 0.0, 0.0), cap)
        with pytest.raises(cm.EmptyCap):
            cm.center_of_mass_check(BALL, (0.0, 0.0, 0.0), axis, 1e-9)
    assert report.clamp_applied == 0.0
    assert report.error_estimate <= cm.cap_measure_ratio(BALL, (0.0, 0.0, 0.0), cap)


_MOVED = {2: cm.BallDomain(center=(0.4, -1.3), radius=2.5),
          3: cm.BallDomain(center=(-0.7, 0.2, 1.1), radius=0.6)}

# The Brownian hit counts (``brownian._hits``) take the cap indicator on
# blocks of poisson._BLOCK_ROWS exits; the check below also runs with 64-row
# blocks, so that the odd rules span many blocks and end in a merged tail.
SMALL_BLOCKS = 64


@pytest.mark.parametrize("dim, resolution", [(2, 65537), (3, 511)])
@pytest.mark.parametrize("rows", [SMALL_BLOCKS, poisson_module._BLOCK_ROWS])
def test_cone_cosines_in_merged_tail_blocks_equal_the_whole_array_call(dim, resolution, rows):
    # v @ axis rounds a lone short tail of rows unlike the call on the whole
    # array; blocks with the tail merged into the last one round like it
    rng = np.random.default_rng(18)
    for ball in ((DISK if dim == 2 else BALL), _MOVED[dim]):
        bq = build_boundary_quadrature(ball, resolution)
        assert len(bq) % rows != 0
        points = bq.points
        for _ in range(3):
            xs, axis, _ = _random_cap(rng, dim, 0.9, (0.1, 0.2))
            p = ball.center + ball.radius * xs
            blocked = np.concatenate([_cone_cosines(p, axis, points[block])
                                      for block in _row_blocks(len(bq), rows)])
            assert blocked.tobytes() == _cone_cosines(p, axis, points).tobytes()


@pytest.mark.parametrize("check", [
    lambda p: cm.cap_measure_poisson(BALL, p, cm.CapSpec(p, (0.0, 0.6, 0.8), 1.1, "both")),
    lambda p: cm.cone_identity_check(BALL, p, (0.0, 0.6, 0.8), 1.1),
    lambda p: cm.center_of_mass_check(BALL, p, (0.0, 0.6, 0.8), 1.1,
                                      bq=build_boundary_quadrature(BALL, 512)),
], ids=["cap_measure_poisson", "cone_identity_check", "center_of_mass_check_512"])
def test_cap_paths_allocate_only_their_cap_rules(check):
    # at |P| = 0.37 each nappe's rule has 21 x 52 nodes, 26 kB of directions
    # (0.12-0.2 MB peak in all); a sphere rule's (N, 3) directions alone are
    # 3 MB at the default 131,072 nodes and 12 MB on the 512-polar rule that
    # center_of_mass_check is handed but does not read
    p = (0.2, -0.1, 0.3)
    check(p)                            # caches the Gauss-Legendre rules
    tracemalloc.start()
    try:
        check(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2 ** 20


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
