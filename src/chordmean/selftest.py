"""Acceptance suite: every shipped accuracy claim as a timed pass/fail check.

Each check pins its tolerance, its node counts, and its seeds, so reruns are
deterministic.  The CLI exposes the quick subset (purely deterministic checks)
and the full list; the pytest acceptance module runs the same functions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .geometry import (
    BallDomain,
    Ellipse2D,
    ball_chord_roots,
    build_direction_quadrature,
    default_direction_quadrature,
    philox_stream,
)
from .boundary import (
    BoundaryData,
    CapSpec,
    almansi_assemble,
    arc_cap,
    basis_indices,
    harmonic_poly,
)
from .poisson import cap_measure_poisson
from .averaging import cross_section_solve, solve_harmonic, solve_on_domain, chord_interpolant_max
from .biharmonic import _monomial_remainder_at_zero, hermite_monomial_at_zero, solve_biharmonic
from .measure import (
    center_of_mass_check,
    cone_identity_check,
    involution_image_measure,
    star_angle_measure_check,
    subtended_moment,
)
from .brownian import compare_exit_distributions

# Chord average of x^2 - y^2 on Ellipse2D(1.5, 1) at P = (0.5, 0), N = 4096,
# recorded from the first oracle run (exact solution value there is 0.25).
ELLIPSE_RESIDUAL_REGRESSION = 0.2666666666666666

_SEED_POINTS = 20260801
_SEED_GRID = 480112
_SEED_CS_MC = 55
_SEED_BROWNIAN = 42


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    defect: float
    tolerance: float
    seconds: float
    detail: str = ""


def _interior_points(rng, dim, n, rho_max, rho_min=0.0):
    pts = rng.standard_normal((n, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts * rng.uniform(rho_min, rho_max, n)[:, np.newaxis]


def _unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _all_polys(dim, degrees):
    return [harmonic_poly(dim, m, k) for m in degrees for k in basis_indices(dim, m)]


# ---------------------------------------------------------------------------
# Criteria 1-3: chord-average reproduction and annihilation
# ---------------------------------------------------------------------------

def check_1_harmonic_2d() -> CheckResult:
    t0 = time.perf_counter()
    disk = BallDomain(center=(0.0, 0.0), radius=1.0)
    dq = build_direction_quadrature(2, "uniform_angle_2d", 4096)
    rng = philox_stream(_SEED_POINTS, 1)
    pts = _interior_points(rng, 2, 100, 0.9)
    worst = 0.0
    for hp in _all_polys(2, range(7)):
        data = hp.boundary_data()
        for p in pts:
            worst = max(worst, solve_harmonic(disk, data, p, dq).residual)
    dt = time.perf_counter() - t0
    return CheckResult(1, "harmonic reproduction, 2-D", worst <= 1e-8 and dt <= 10.0,
                       worst, 1e-8, dt,
                       "13 basis polynomials (deg <= 6) x 100 points, N=4096; limit 10 s")


def check_2_harmonic_3d() -> CheckResult:
    t0 = time.perf_counter()
    ball = BallDomain(center=(0.0, 0.0, 0.0), radius=1.0)
    dq = build_direction_quadrature(3, "gauss_product_3d", 64)
    rng = philox_stream(_SEED_POINTS, 2)
    pts = _interior_points(rng, 3, 50, 0.9)
    worst = 0.0
    for hp in _all_polys(3, range(5)):
        data = hp.boundary_data()
        for p in pts:
            worst = max(worst, solve_harmonic(ball, data, p, dq).residual)
    dt = time.perf_counter() - t0
    return CheckResult(2, "harmonic reproduction, 3-D", worst <= 1e-6 and dt <= 30.0,
                       worst, 1e-6, dt,
                       "25 solid harmonics (deg <= 4) x 50 points, Gauss 64x128; limit 30 s")


def check_3_annihilation() -> CheckResult:
    t0 = time.perf_counter()
    axes = {2: np.array([0.6, 0.8]), 3: np.array([0.6, 0.64, 0.48])}
    worst = 0.0
    for dim in (2, 3):
        dq = default_direction_quadrature(dim)
        origin = np.zeros(dim)
        for offset in (0.0, 0.3, 0.7):
            ball = BallDomain(center=offset * axes[dim], radius=1.0)
            for hp in _all_polys(dim, range(2, 7)):
                res = solve_harmonic(ball, hp.boundary_data(), origin, dq)
                worst = max(worst, abs(res.value))
    dt = time.perf_counter() - t0
    return CheckResult(3, "homogeneous annihilation", worst <= 1e-8, worst, 1e-8, dt,
                       "degrees 2..6, ball centers |c| in {0, 0.3, 0.7}, P at origin")


def check_4_root_product() -> CheckResult:
    t0 = time.perf_counter()
    rng = philox_stream(_SEED_POINTS, 4)
    worst = 0.0
    for _ in range(20):
        dim = 2 if rng.random() < 0.5 else 3
        center = rng.uniform(-2.0, 2.0, dim)
        radius = rng.uniform(0.5, 2.0)
        ball = BallDomain(center=center, radius=radius)
        p = center + _unit(rng, dim) * rng.uniform(0.0, 0.95) * radius
        dirs = rng.standard_normal((1000, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        a, b = ball_chord_roots(ball, p, dirs)
        prod = a * b
        gamma = float((p - center) @ (p - center)) - radius ** 2
        worst = max(worst, float(np.max(np.abs(prod - gamma))) / abs(gamma))
        worst = max(worst, float(prod.max() - prod.min()) / abs(gamma))
    dt = time.perf_counter() - t0
    return CheckResult(4, "root-product invariance", worst <= 1e-12, worst, 1e-12, dt,
                       "a*b constant and equal to |P-c|^2 - R^2 over 1000 directions x 20 balls")


# ---------------------------------------------------------------------------
# Criterion 5: cross-section consistency
# ---------------------------------------------------------------------------

_CS_POLYS = [(0, 0), (1, 1), (1, -1), (2, 0), (2, 2),
             (3, 1), (3, -2), (4, 0), (4, 3), (4, -4)]


def check_5_cross_section() -> CheckResult:
    t0 = time.perf_counter()
    ball = BallDomain(center=(0.0, 0.0, 0.0), radius=1.0)
    p = np.array([0.3, 0.2, 0.1])
    dq_ref = build_direction_quadrature(3, "gauss_product_3d", 64)
    dq_det = build_direction_quadrature(3, "gauss_product_3d", 16)
    dq_mc = build_direction_quadrature(3, "monte_carlo_design", 333, seed=_SEED_CS_MC)
    worst_det = 0.0
    worst_mc = 0.0
    for m, k in _CS_POLYS:
        data = harmonic_poly(3, m, k).boundary_data()
        ref = solve_harmonic(ball, data, p, dq_ref).value
        worst_det = max(worst_det, abs(
            cross_section_solve(ball, data, p, dq_det, 512).value - ref))
        worst_mc = max(worst_mc, abs(
            cross_section_solve(ball, data, p, dq_mc, 512).value - ref))
    dt = time.perf_counter() - t0
    passed = worst_det <= 1e-6 and worst_mc <= 1e-3
    return CheckResult(5, "cross-section consistency", passed, worst_mc, 1e-3, dt,
                       f"10 polys deg <= 4; deterministic 16x32/inner 512 worst "
                       f"{worst_det:.2e} (tol 1e-06); MC 1998 rotated-design normals")


# ---------------------------------------------------------------------------
# Criterion 6: biharmonic reproduction
# ---------------------------------------------------------------------------

def _cubic_data(dim: int) -> BoundaryData:
    def value(pts):
        return np.asarray(pts, dtype=float)[..., 0] ** 3

    def gradient(pts):
        pts = np.asarray(pts, dtype=float)
        g = np.zeros(pts.shape)
        g[..., 0] = 3.0 * pts[..., 0] ** 2
        return g

    return BoundaryData(value, gradient, exact_solution=value)


_ALMANSI_PAIRS = {
    2: [((5, "re"), (3, "im")), ((4, "im"), (2, "re")), ((3, "re"), (1, "re")),
        ((2, "re"), (0, "re")), ((1, "im"), (3, "re")), ((0, "re"), (2, "im"))],
    3: [((5, 2), (3, -2)), ((4, -1), (2, 1)), ((3, 0), (1, 0)),
        ((2, 2), (0, 0)), ((1, 1), (3, 1)), ((0, 0), (2, 0))],
}


def check_6_biharmonic() -> CheckResult:
    t0 = time.perf_counter()
    rng = philox_stream(_SEED_POINTS, 6)
    worst = 0.0
    worst_cubic = 0.0
    for dim in (2, 3):
        ball = BallDomain(center=np.zeros(dim), radius=1.0)
        dq = default_direction_quadrature(dim)
        pts = _interior_points(rng, dim, 50, 0.9)
        for (m1, k1), (m2, k2) in _ALMANSI_PAIRS[dim]:
            u = almansi_assemble(harmonic_poly(dim, m1, k1), harmonic_poly(dim, m2, k2))
            data = u.boundary_data()
            for p in pts:
                worst = max(worst, solve_biharmonic(ball, data, p, dq).residual)
        cubic = _cubic_data(dim)
        for p in pts[:10]:
            worst_cubic = max(worst_cubic,
                              solve_biharmonic(ball, cubic, p, dq).residual)
    dt = time.perf_counter() - t0
    passed = worst <= 1e-6 and worst_cubic <= 1e-10
    return CheckResult(6, "biharmonic reproduction", passed, worst, 1e-6, dt,
                       f"6 two-harmonic pairs (deg h1 <= 5, deg h2 <= 3) x 50 points per "
                       f"dim; cubic data worst {worst_cubic:.2e} (tol 1e-10)")


# ---------------------------------------------------------------------------
# Criterion 7: Hermite interpolation structure
# ---------------------------------------------------------------------------

def check_7_hermite() -> CheckResult:
    t0 = time.perf_counter()
    rng = philox_stream(_SEED_POINTS, 7)
    worst_closed = 0.0
    worst_sym = 0.0
    worst_homog = 0.0
    for _ in range(100):
        a = -rng.uniform(0.05, 2.0)
        b = rng.uniform(0.05, 2.0)
        prod = a * b
        c4, _ = hermite_monomial_at_zero(4, a, b)
        c5, _ = hermite_monomial_at_zero(5, a, b)
        worst_closed = max(worst_closed, abs(c4 + prod * prod),
                           abs(c5 + 2.0 * prod * prod * (a + b)))
    for m in range(4, 13):
        for _ in range(20):
            a = -rng.uniform(0.05, 2.0)
            b = rng.uniform(0.05, 2.0)
            _, q = hermite_monomial_at_zero(m, a, b)
            _, q_swapped = _monomial_remainder_at_zero(m, b, a)
            worst_sym = max(worst_sym, abs(q - q_swapped))
            for lam in (0.5, 2.0):
                _, q_scaled = hermite_monomial_at_zero(m, lam * a, lam * b)
                target = lam ** (m - 4) * q
                worst_homog = max(worst_homog,
                                  abs(q_scaled - target) / max(1.0, abs(target)))
    # second-order vanishing: q stays bounded and converges as a -> 0-
    worst_conv = 0.0
    for m in (4, 6, 9, 12):
        b = 1.3
        qs = [hermite_monomial_at_zero(m, -0.6 * 2.0 ** (-j), b)[1]
              for j in range(31)]
        worst_conv = max(worst_conv, abs(qs[-1] - qs[-2]) / max(abs(qs[-1]), 1e-30))
        if not np.all(np.isfinite(qs)):
            worst_conv = math.inf
    dt = time.perf_counter() - t0
    passed = (worst_closed <= 1e-12 and worst_sym <= 1e-10
              and worst_homog <= 1e-10 and worst_conv <= 1e-6)
    return CheckResult(7, "Hermite cubic structure", passed, worst_closed, 1e-12, dt,
                       f"C4, C5 closed forms over 100 brackets; q symmetry "
                       f"{worst_sym:.1e}, homogeneity {worst_homog:.1e}, "
                       f"a->0 convergence {worst_conv:.1e}")


# ---------------------------------------------------------------------------
# Criteria 8-10: harmonic-measure identities
# ---------------------------------------------------------------------------

def _measure_grid(rng, dim, n_points, n_caps, rho_max):
    pts = _interior_points(rng, dim, n_points, rho_max)
    caps = [(_unit(rng, dim), rng.uniform(0.25, 1.35)) for _ in range(n_caps)]
    return pts, caps


def check_8_density() -> CheckResult:
    t0 = time.perf_counter()
    rng = philox_stream(_SEED_GRID, 8)
    worst = 0.0
    for dim in (2, 3):
        ball = BallDomain(center=np.zeros(dim), radius=1.0)
        pts, caps = _measure_grid(rng, dim, 10, 20, 0.8)
        for p in pts:
            for axis, half in caps:
                cap = CapSpec(vertex=p, axis=axis, half_angle=half, nappe="plus")
                worst = max(worst, cap_measure_poisson(ball, p, cap).error_estimate)
    # 2-D closed form: Poisson vs involution image arc length
    disk = BallDomain(center=(0.0, 0.0), radius=1.0)
    worst_closed = 0.0
    for _ in range(50):
        p = _interior_points(rng, 2, 1, 0.8)[0]
        t1 = rng.uniform(0.0, 2.0 * math.pi)
        t2 = t1 + rng.uniform(0.1, 2.0 * math.pi - 0.2)
        cap = arc_cap(disk, p, t1, t2)
        w_poisson = cap_measure_poisson(disk, p, cap).value
        w_exact = involution_image_measure(complex(p[0], p[1]), (t1, t2))
        worst_closed = max(worst_closed, abs(w_poisson - w_exact))
    dt = time.perf_counter() - t0
    passed = worst <= 2e-3 and worst_closed <= 1e-4
    return CheckResult(8, "metric-ratio density vs Poisson", passed, worst, 2e-3, dt,
                       f"20 caps x 10 points per dim; 2-D closed form worst "
                       f"{worst_closed:.2e} (tol 1e-04)")


def check_9_cone_identity() -> CheckResult:
    t0 = time.perf_counter()
    rng = philox_stream(_SEED_GRID, 9)
    worst = 0.0
    for dim in (2, 3):
        ball = BallDomain(center=np.zeros(dim), radius=1.0)
        for _ in range(20):
            p = _interior_points(rng, dim, 1, 0.7)[0]
            axis = _unit(rng, dim)
            half = rng.uniform(0.25, 1.35)
            _, _, defect = cone_identity_check(ball, p, axis, half)
            worst = max(worst, defect)
    dt = time.perf_counter() - t0
    return CheckResult(9, "double-cone cap identity", worst <= 2e-3, worst, 2e-3, dt,
                       "w(U) + w(V) vs twice the nappe solid angle, Poisson integral "
                       "on each nappe's cap, 20 random configurations per dim")


def check_10_center_of_mass() -> CheckResult:
    t0 = time.perf_counter()
    rng = philox_stream(_SEED_GRID, 10)
    worst = 0.0
    for dim in (2, 3):
        ball = BallDomain(center=np.zeros(dim), radius=1.0)
        for _ in range(20):
            p = _interior_points(rng, dim, 1, 0.7)[0]
            axis = _unit(rng, dim)
            half = rng.uniform(0.25, 1.35)
            _, offset = center_of_mass_check(ball, p, axis, half)
            worst = max(worst, offset)
    dt = time.perf_counter() - t0
    return CheckResult(10, "cap center of mass at P", worst <= 2e-3, worst, 2e-3, dt,
                       "harmonic-measure center of mass of double-cone caps, "
                       "20 random configurations per dim")


# ---------------------------------------------------------------------------
# Criteria 11-12: subtended-angle identities
# ---------------------------------------------------------------------------

def check_11_moments() -> CheckResult:
    t0 = time.perf_counter()
    ws = [0.4, -0.8, 0.55j, -0.3 + 0.2j, 0.5 - 0.5j, 0.7 + 0.3j]
    worst = 0.0
    for w in ws:
        for d in range(9):
            got = subtended_moment(w, d)
            expected = 0.5 * ((0.0 if d else 1.0) + w ** d)
            worst = max(worst, abs(got - expected))
    dt = time.perf_counter() - t0
    return CheckResult(11, "subtended-angle moments", worst <= 1e-8, worst, 1e-8, dt,
                       "averaged boundary-hit powers vs (P(0)+P(w))/2, degrees <= 8, "
                       "|w| <= 0.8, N=4096")


def check_12_star_counterexample() -> CheckResult:
    t0 = time.perf_counter()
    rng = philox_stream(_SEED_GRID, 12)
    worst = 0.0
    for a in (0.1, 0.25, 0.4):
        for _ in range(20):
            t1 = rng.uniform(0.0, 2.0 * math.pi - 0.1)
            t2 = t1 + rng.uniform(0.05, 2.0 * math.pi - t1)
            _, _, defect = star_angle_measure_check(a, (t1, t2))
            worst = max(worst, defect)
    dt = time.perf_counter() - t0
    return CheckResult(12, "star-domain angle/measure identity", worst <= 1e-8,
                       worst, 1e-8, dt,
                       "subtended angle vs 2 pi x harmonic measure under "
                       "q(z) = a z^2 + z + a, 3 coefficients x 20 arcs")


# ---------------------------------------------------------------------------
# Criterion 13: converse diagnostics
# ---------------------------------------------------------------------------

def check_13_converse() -> CheckResult:
    t0 = time.perf_counter()
    dq = build_direction_quadrature(2, "uniform_angle_2d", 4096)
    data = harmonic_poly(2, 2, "re").boundary_data()
    circle = Ellipse2D(center=(0.0, 0.0), semi_axes=(1.0, 1.0))
    res_circle = solve_on_domain(circle, data, (0.5, 0.0), dq).residual
    ellipse = Ellipse2D(center=(0.0, 0.0), semi_axes=(1.5, 1.0))
    res_ellipse = solve_on_domain(ellipse, data, (0.5, 0.0), dq).residual
    regression_drift = abs(res_ellipse - ELLIPSE_RESIDUAL_REGRESSION)
    # max-interpolant bound on disk runs with the shared node set
    rng = philox_stream(_SEED_GRID, 13)
    disk = BallDomain(center=(0.0, 0.0), radius=1.0)
    worst_bound = -math.inf
    for _ in range(20):
        m = int(rng.integers(0, 7))
        k = "re" if rng.random() < 0.5 else ("im" if m > 0 else "re")
        d = harmonic_poly(2, m, k).boundary_data()
        p = _interior_points(rng, 2, 1, 0.9)[0]
        value = solve_harmonic(disk, d, p, dq).value
        worst_bound = max(worst_bound, value - chord_interpolant_max(disk, d, p, dq))
    dt = time.perf_counter() - t0
    passed = (res_circle <= 1e-9 and res_ellipse > 1e-3
              and regression_drift <= 1e-9 and worst_bound <= 1e-12)
    return CheckResult(13, "ball-only converse diagnostics", passed, res_ellipse, 1e-3, dt,
                       f"circle residual {res_circle:.1e} (tol 1e-09); ellipse residual "
                       f"must exceed 1e-03 and match the recorded "
                       f"{ELLIPSE_RESIDUAL_REGRESSION} (drift {regression_drift:.1e}); "
                       f"max(value - max interpolant) = {worst_bound:.1e}")


# ---------------------------------------------------------------------------
# Criterion 14: Brownian travelers
# ---------------------------------------------------------------------------

def _traveler_configs():
    disk = BallDomain(center=(0.0, 0.0), radius=1.0)
    ball = BallDomain(center=(0.0, 0.0, 0.0), radius=1.0)
    equator_half = math.acos(-0.5 / math.sqrt(1.25))
    return [
        (ball, (0.0, 0.0, 0.0),
         CapSpec(vertex=(0.0, 0.0, 0.0), axis=(0.0, 0.0, 1.0),
                 half_angle=0.5 * math.pi, nappe="plus")),
        (ball, (0.0, 0.0, 0.5),
         CapSpec(vertex=(0.0, 0.0, 0.5), axis=(0.0, 0.0, 1.0),
                 half_angle=equator_half, nappe="plus")),
        (ball, (0.3, 0.0, 0.0),
         CapSpec(vertex=(0.3, 0.0, 0.0), axis=(1.0, 0.0, 0.0),
                 half_angle=0.25 * math.pi, nappe="plus")),
        (disk, (0.5, 0.0), arc_cap(disk, (0.5, 0.0), -0.5 * math.pi, 0.5 * math.pi)),
        (disk, (0.0, 0.0), arc_cap(disk, (0.0, 0.0), 0.0, 0.5 * math.pi)),
    ]


def check_14_travelers() -> CheckResult:
    t0 = time.perf_counter()
    n = 10 ** 5
    worst_sigma = 0.0
    reports = []
    for ball, p, cap in _traveler_configs():
        report = compare_exit_distributions(ball, p, cap, n, seed=_SEED_BROWNIAN)
        reports.append(report)
        worst_sigma = max(worst_sigma, max(t.sigma_vs_oracle for t in report.travelers))
    ball, p, cap = _traveler_configs()[1]
    rerun = compare_exit_distributions(ball, p, cap, n, seed=_SEED_BROWNIAN)
    identical = rerun == reports[1]
    dt = time.perf_counter() - t0
    passed = worst_sigma <= 3.0 and identical and dt <= 60.0
    return CheckResult(14, "Brownian traveler exit laws", passed, worst_sigma, 3.0, dt,
                       f"5 configurations x 1e5 samples per traveler, sigma units vs "
                       f"the exact cap measure; identical rerun: {identical}; limit 60 s")


# ---------------------------------------------------------------------------
# Registry and runners
# ---------------------------------------------------------------------------

CHECKS = {
    1: check_1_harmonic_2d,
    2: check_2_harmonic_3d,
    3: check_3_annihilation,
    4: check_4_root_product,
    5: check_5_cross_section,
    6: check_6_biharmonic,
    7: check_7_hermite,
    8: check_8_density,
    9: check_9_cone_identity,
    10: check_10_center_of_mass,
    11: check_11_moments,
    12: check_12_star_counterexample,
    13: check_13_converse,
    14: check_14_travelers,
}

QUICK_IDS = (1, 3, 4, 7, 11, 12)
FULL_IDS = tuple(sorted(CHECKS))


def run_checks(ids, verbose: bool = False) -> list[CheckResult]:
    results = []
    for i in ids:
        result = CHECKS[i]()
        results.append(result)
        if verbose:
            status = "PASS" if result.passed else "FAIL"
            print(f"[{status}] criterion {result.criterion:2d} {result.name}: "
                  f"defect {result.defect:.3e} (tol {result.tolerance:.0e}, "
                  f"{result.seconds:.1f}s)")
    return results


def check_15_selftest_contract() -> CheckResult:
    """The quick subset is deterministic and fast; the full list covers 1-14."""
    t0 = time.perf_counter()
    results = run_checks(QUICK_IDS)
    dt = time.perf_counter() - t0
    covered = tuple(r.criterion for r in results) == QUICK_IDS
    passed = all(r.passed for r in results) and dt < 60.0 and covered \
        and FULL_IDS == tuple(range(1, 15))
    return CheckResult(15, "selftest coverage and runtime", passed, dt, 60.0, dt,
                       f"quick subset {QUICK_IDS} in {dt:.1f}s; "
                       f"full list covers criteria 1-14")
