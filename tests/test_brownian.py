import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import chordmean as cm
from chordmean.brownian import (
    _exit_cosines,
    exits_disk_exact_batch,
    exits_full_batch,
    exits_line_batch,
    exits_plane_batch,
)
from chordmean.geometry import STREAM_TRAVELER_FULL, philox_stream


DISK = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
BALL = cm.BallDomain(center=(0.0, 0.0, 0.0), radius=1.0)

# 0.999 quantile of the chi-square distribution with 63 degrees of freedom
CHI2_63_Q999 = 103.44237731987324


def _freq(ind, pts):
    return float(np.mean(np.asarray(ind.value(pts)) == 1.0))


def test_exit_points_lie_on_boundary():
    rng = philox_stream(1, 1)
    p = np.array([0.4, -0.2])
    for pts in (exits_full_batch(DISK, p, rng, 500)[0],
                exits_line_batch(DISK, p, rng, 500)[0],
                exits_disk_exact_batch(DISK, p, rng, 500)):
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-9
    p3 = np.array([0.1, 0.2, -0.3])
    for pts in (exits_full_batch(BALL, p3, rng, 500)[0],
                exits_plane_batch(BALL, p3, rng, 500)[0],
                exits_line_batch(BALL, p3, rng, 500)[0]):
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-9


def test_full_sampler_from_center_is_uniform():
    rng = philox_stream(2, 1)
    pts, _ = exits_full_batch(DISK, np.zeros(2), rng, 50000)
    cap = cm.arc_cap(DISK, (0.0, 0.0), 0.2, 1.7)
    ind = cm.cap_indicator(cap, DISK)
    target = 1.5 / (2.0 * math.pi)
    sigma = math.sqrt(target * (1.0 - target) / 50000)
    assert abs(_freq(ind, pts) - target) <= 3.0 * sigma


def test_full_sampler_matches_exit_density():
    rng = philox_stream(3, 1)
    p = np.array([0.5, 0.0])
    pts, rate = exits_full_batch(DISK, p, rng, 10 ** 5)
    cap = cm.arc_cap(DISK, p, -math.pi / 2, math.pi / 2)
    ind = cm.cap_indicator(cap, DISK)
    target = 0.7951672353008665
    sigma = math.sqrt(target * (1.0 - target) / 10 ** 5)
    assert abs(_freq(ind, pts) - target) <= 3.0 * sigma


def test_full_sampler_chi_square_against_bin_integrals():
    rng = philox_stream(5, 1)
    p = np.array([0.5, 0.0])
    n = 10 ** 5
    pts, _ = exits_full_batch(DISK, p, rng, n)
    angles = np.arctan2(pts[:, 1], pts[:, 0]) % (2.0 * math.pi)
    counts = np.histogram(angles, bins=64, range=(0.0, 2.0 * math.pi))[0]
    edges = np.linspace(0.0, 2.0 * math.pi, 65)
    probs = np.array([cm.involution_image_measure(0.5, (a, b))
                      for a, b in zip(edges[:-1], edges[1:])])
    chi2 = float(np.sum((counts - n * probs) ** 2 / (n * probs)))
    assert chi2 <= CHI2_63_Q999


def _exit_cosine_cdf(rho, one_minus_t):
    """F(t) = (1 - rho^2)/(2 rho) ((1 - 2 rho t + rho^2)^(-1/2) - 1/(1 + rho)),
    the law of the 3-D exit's cosine about P, written in 1 - t with
    1 - rho^2 = (1 - rho)(1 + rho) and 1 - 2 rho t + rho^2 = (1 - rho)^2
    + 2 rho (1 - t), so that evaluating it cancels nothing near the rim."""
    d = (1.0 - rho) ** 2 + 2.0 * rho * one_minus_t
    return (1.0 - rho) * (1.0 + rho) / (2.0 * rho) * (d ** -0.5 - 1.0 / (1.0 + rho))


@pytest.mark.parametrize("rho", [0.0, 0.3, 0.8, 0.95, 0.999])
def test_exit_cosines_invert_the_cdf(rho):
    u = np.concatenate([np.linspace(0.0, 1.0, 1025)[:-1],
                        np.logspace(-17.0, -1.0, 65), 1.0 - np.logspace(-16.0, -1.0, 65)])
    t, one_minus_t, r = _exit_cosines(rho, u)
    assert np.all((-1.0 <= t) & (t <= 1.0))
    assert np.max(np.abs((1.0 - t) - one_minus_t)) <= 2e-15
    assert np.max(np.abs(t * t + r * r - 1.0)) <= 2e-15
    if rho == 0.0:
        assert np.array_equal(t, 2.0 * u - 1.0)
    else:
        assert np.max(np.abs(_exit_cosine_cdf(rho, one_minus_t) - u)) <= 2e-14


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_full_sampler_3d_chi_square_against_the_cosine_cdf(rho):
    e = np.array([2.0, -1.0, 2.0]) / 3.0
    n = 10 ** 5
    pts, _ = exits_full_batch(BALL, rho * e, philox_stream(6, 1), n)
    t = pts @ e
    counts = np.histogram(t, bins=64, range=(-1.0, 1.0))[0]
    edges = np.linspace(-1.0, 1.0, 65)
    probs = np.diff(_exit_cosine_cdf(rho, 1.0 - edges))
    assert abs(probs.sum() - 1.0) <= 1e-14
    chi2 = float(np.sum((counts - n * probs) ** 2 / (n * probs)))
    assert chi2 <= CHI2_63_Q999


def test_full_sampler_3d_on_a_moved_ball():
    center = np.array([0.3, -0.2, 0.1])
    ball = cm.BallDomain(center=tuple(center), radius=2.5)
    p = center + 2.5 * np.array([0.2, 0.5, -0.4])
    n = 2 * 10 ** 5
    pts, _ = exits_full_batch(ball, p, philox_stream(14, 1), n)
    assert np.max(np.abs(np.linalg.norm(pts - center, axis=1) / 2.5 - 1.0)) <= 1e-15
    for axis, half, nappe in (((1.0, 0.0, 0.0), 0.7, "plus"),
                              ((0.0, 0.6, -0.8), 1.2, "plus"),
                              ((0.0, 0.0, 1.0), 0.4, "both")):
        cap = cm.CapSpec(vertex=p, axis=axis, half_angle=half, nappe=nappe)
        oracle = cm.cap_measure_ratio(ball, p, cap)
        sigma = math.sqrt(oracle * (1.0 - oracle) / n)
        assert abs(_freq(cm.cap_indicator(cap, ball), pts) - oracle) <= 4.0 * sigma


def test_exact_disk_sampler_matches_rejection_law():
    p = np.array([0.5, 0.0])
    pts = exits_disk_exact_batch(DISK, p, philox_stream(7, 1), 10 ** 5)
    cap = cm.arc_cap(DISK, p, -math.pi / 2, math.pi / 2)
    ind = cm.cap_indicator(cap, DISK)
    target = 0.7951672353008665
    sigma = math.sqrt(target * (1.0 - target) / 10 ** 5)
    assert abs(_freq(ind, pts) - target) <= 3.0 * sigma


def test_plane_sampler_center_symmetry():
    pts, normals = exits_plane_batch(BALL, np.zeros(3), philox_stream(8, 1), 10 ** 5)
    upper = float(np.mean(pts[:, 2] > 0.0))
    assert abs(upper - 0.5) <= 3.0 * math.sqrt(0.25 / 10 ** 5)
    # the chosen plane contains the start point: exits are orthogonal to nu
    assert np.max(np.abs(np.sum(pts * normals, axis=1))) <= 1e-9


def test_plane_sampler_matches_poisson_oracle():
    p = np.array([0.0, 0.0, 0.5])
    half = math.acos(-0.5 / math.sqrt(1.25))
    cap = cm.CapSpec(vertex=p, axis=(0.0, 0.0, 1.0), half_angle=half)
    oracle = cm.cap_measure_ratio(BALL, p, cap)
    pts, _ = exits_plane_batch(BALL, p, philox_stream(9, 1), 10 ** 5)
    ind = cm.cap_indicator(cap, BALL)
    sigma = math.sqrt(oracle * (1.0 - oracle) / 10 ** 5)
    assert abs(_freq(ind, pts) - oracle) <= 3.0 * sigma


def test_line_sampler_center():
    pts, _ = exits_line_batch(DISK, np.zeros(2), philox_stream(10, 1), 10 ** 5)
    right = float(np.mean(pts[:, 0] > 0.0))
    assert abs(right - 0.5) <= 3.0 * math.sqrt(0.25 / 10 ** 5)


def test_line_sampler_expectation_matches_chord_average():
    # E[f(exit)] under the line law equals the chord-average solve (4 sigma)
    rng = np.random.default_rng(11)
    dq = cm.build_direction_quadrature(2, "uniform_angle_2d", 2 ** 14)
    n = 20000
    for i in range(10):
        p = rng.uniform(-0.6, 0.6, 2)
        t1 = rng.uniform(0.0, 2.0 * math.pi)
        cap = cm.arc_cap(DISK, p, t1, t1 + rng.uniform(0.4, 4.0))
        ind = cm.cap_indicator(cap, DISK)
        quad = cm.solve_harmonic(DISK, ind, p, dq).value
        pts, _ = exits_line_batch(DISK, p, philox_stream(12, i), n)
        freq = _freq(ind, pts)
        sigma = math.sqrt(max(quad * (1.0 - quad), 1e-12) / n)
        assert abs(freq - quad) <= 4.0 * sigma


def test_line_sampler_exit_probability():
    # chord a=-0.5, b=1.5: forward exit has probability r1/(r1+r2) = 0.25
    ball = cm.BallDomain(center=(0.5, 0.0), radius=1.0)
    rng = philox_stream(13, 1)
    pts, dirs = exits_line_batch(ball, np.zeros(2), rng, 10 ** 5)
    along_x = np.abs(dirs[:, 0]) > 0.999
    far = pts[along_x, 0] > 0.5   # exit near (1.5, 0) rather than (-0.5, 0)
    freq = float(np.mean(far))
    # conditioned on near-axis chords the far endpoint wins with probability
    # r1/(r1+r2) ~ 0.25
    assert abs(freq - 0.25) <= 0.05


def test_compare_exit_distributions():
    p = (0.0, 0.0, 0.5)
    half = math.acos(-0.5 / math.sqrt(1.25))
    cap = cm.CapSpec(vertex=p, axis=(0.0, 0.0, 1.0), half_angle=half)
    report = cm.compare_exit_distributions(BALL, p, cap, 20000, seed=17)
    assert {t.name for t in report.travelers} == {"full", "plane", "line"}
    for t in report.travelers:
        assert 0.0 <= t.frequency <= 1.0
        assert_allclose(t.std_error,
                        math.sqrt(t.frequency * (1.0 - t.frequency) / 20000))
        assert t.sigma_vs_oracle <= 4.0
    rerun = cm.compare_exit_distributions(BALL, p, cap, 20000, seed=17)
    assert rerun == report

    arc = cm.arc_cap(DISK, (0.5, 0.0), -math.pi / 2, math.pi / 2)
    report2d = cm.compare_exit_distributions(DISK, (0.5, 0.0), arc, 20000, seed=17)
    assert {t.name for t in report2d.travelers} == {"full", "line"}
    assert report2d.max_deviation_in_sigmas <= 4.0


# Hit counts (full, [plane,] line) at 20,000 samples for seeds 3, 17 and
# 2024, computed with row-major sampler arrays: every sampler keeps its
# bits whatever the layout of its arrays.
_FROZEN_HITS = {
    "arc2d": (DISK, (0.5, 0.0), lambda: cm.arc_cap(DISK, (0.5, 0.0), -math.pi / 2,
                                                   math.pi / 2),
              [(15961, 15944), (15861, 15862), (15885, 15931)]),
    "cap3d-pole": (BALL, (0.0, 0.0, 0.5),
                   lambda: cm.CapSpec((0.0, 0.0, 0.5), (0.0, 0.0, 1.0),
                                      math.acos(-0.5 / math.sqrt(1.25))),
                   [(16527, 16559, 16563), (16533, 16597, 16518), (16611, 16527, 16608)]),
    "cap3d-side": (BALL, (0.3, 0.0, 0.0),
                   lambda: cm.CapSpec((0.3, 0.0, 0.0), (1.0, 0.0, 0.0), 0.25 * math.pi),
                   [(3658, 3605, 3644), (3715, 3684, 3693), (3686, 3570, 3725)]),
    "offcentre": (cm.BallDomain((0.25, -0.5, 1.0), 1.5), (0.5, -0.25, 1.75),
                  lambda: cm.CapSpec((0.5, -0.25, 1.75), (0.0, 0.6, 0.8), 0.9),
                  [(5418, 5365, 5441), (5437, 5474, 5325), (5433, 5445, 5381)]),
}


@pytest.mark.parametrize("name", _FROZEN_HITS)
def test_traveler_hit_counts_are_frozen(name):
    ball, p, cap, frozen = _FROZEN_HITS[name]
    for seed, hits in zip((3, 17, 2024), frozen):
        report = cm.compare_exit_distributions(ball, p, cap(), 20000, seed)
        assert tuple(t.hits for t in report.travelers) == hits


def test_oracle_is_the_exact_cap_measure():
    # 3-D: the hemisphere z > 0 seen from (0, 0, z), whose cone passes
    # through the equator; 2-D: the right half circle from (0.5, 0)
    z = 0.5
    p = (0.0, 0.0, z)
    cap = cm.CapSpec(vertex=p, axis=(0.0, 0.0, 1.0), half_angle=math.acos(-z / math.hypot(1.0, z)))
    report = cm.compare_exit_distributions(BALL, p, cap, 1000, seed=1)
    exact = (1.0 - z * z) / (2.0 * z) * (1.0 / (1.0 - z) - 1.0 / math.sqrt(1.0 + z * z))
    assert abs(report.oracle_measure - exact) <= 1e-14
    arc = cm.arc_cap(DISK, (0.5, 0.0), -0.5 * math.pi, 0.5 * math.pi)
    report = cm.compare_exit_distributions(DISK, (0.5, 0.0), arc, 1000, seed=1)
    exact = cm.involution_image_measure(0.5, (-0.5 * math.pi, 0.5 * math.pi))
    assert abs(report.oracle_measure - exact) <= 1e-14


@pytest.mark.parametrize("p", [(0.5, 0.0), (0.85, 0.0)])
def test_full_traveler_2d_is_the_disk_automorphism(p):
    arc = cm.arc_cap(DISK, p, 0.0, 1.0)
    report = cm.compare_exit_distributions(DISK, p, arc, 2000, seed=7)
    pts = exits_disk_exact_batch(DISK, np.asarray(p), philox_stream(7, STREAM_TRAVELER_FULL), 2000)
    hits = int(np.count_nonzero(np.asarray(cm.cap_indicator(arc, DISK).value(pts)) == 1.0))
    assert report.travelers[0].hits == hits


def test_compare_exit_distributions_validation():
    arc = cm.arc_cap(DISK, (0.5, 0.0), 0.0, 1.0)
    with pytest.raises(cm.BadParameter):
        cm.compare_exit_distributions(DISK, (0.5, 0.0), arc, 100, seed=1)
