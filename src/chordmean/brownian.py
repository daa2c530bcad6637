"""Exit-distribution samplers for three kinds of Brownian traveler in a ball.

All three exit laws are sampled exactly (no path discretization, no loop):
  full  -- in 2-D the disk automorphism pushforward of a uniform angle; in
           3-D the inverse CDF of the exit's cosine about P, with a uniform
           azimuth;
  plane -- random plane through P, then the in-plane exit via the disk
           automorphism pushforward of a uniform angle;
  line  -- random chord through P, then the 1-D gambler's-ruin endpoint.

Each traveler draws from its own counter-based stream of the given seed, so
reports are bit-identical across reruns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter
from .boundary import CapSpec, cap_indicator
from .geometry import (
    STREAM_TRAVELER_FULL,
    STREAM_TRAVELER_LINE,
    STREAM_TRAVELER_PLANE,
    BallDomain,
    ball_chord_roots,
    interior_point,
    philox_stream,
    plane_sections,
    uniform_directions,
)
from .poisson import cap_measure_ratio


@dataclass(frozen=True)
class TravelerStats:
    name: str
    hits: int
    frequency: float
    std_error: float
    sigma_vs_oracle: float


@dataclass(frozen=True)
class ExperimentReport:
    travelers: tuple[TravelerStats, ...]
    oracle_measure: float
    max_deviation_in_sigmas: float
    n_samples: int
    seed: int


def _disk_exits(z0, rng: np.random.Generator, n: int) -> np.ndarray:
    """n exact exits, as complex numbers, from z0 in the unit disk: the
    pushforward of a uniform angle under the disk automorphism sending 0 to z0."""
    zeta = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    return (zeta + z0) / (1.0 + np.conj(z0) * zeta)


# ---------------------------------------------------------------------------
# Batch samplers
# ---------------------------------------------------------------------------

def _exit_cosines(rho: float, u: np.ndarray):
    """The exit cosine t = F^{-1}(u) about P in the unit 3-ball, |P| = rho, as
    (t, 1 - t, sqrt(1 - t^2)), where F(t) = (1 - rho^2)/(2 rho) ((1 - 2 rho t
    + rho^2)^(-1/2) - 1/(1 + rho)).  With q = 1 - rho + 2 rho u and
    s = (1 - rho^2)/q = |exit - P|, 1 + t and 1 - t are each a product, so
    neither cancels and nothing divides by rho; t = 2u - 1 at rho = 0."""
    q = 1.0 - rho + 2.0 * rho * u
    s = (1.0 - rho) * (1.0 + rho) / q
    above = u * (1.0 + rho) * (1.0 + rho + s) / q             # 1 + t
    below = (1.0 - rho) * (1.0 - u) * (1.0 - rho + s) / q     # 1 - t
    t = np.where(above < below, above - 1.0, 1.0 - below)
    return t, below, np.sqrt(above * below)


def exits_full_batch(ball: BallDomain, p: np.ndarray, rng: np.random.Generator,
                     n: int):
    """n exact samples of the full traveler's exit law; returns (points, 1.0).

    2-D: the disk automorphism pushforward of a uniform angle (``_disk_exits``).
    3-D: by inversion, the exit cosine about e = (p - c)/|p - c| is
    ``_exit_cosines`` of a uniform draw and the azimuth about e is uniform, in
    the frame of the plane section normal to e (any e at the center).  The
    second value, the share of draws used, is 1.0 since nothing is rejected;
    it stays so that callers that unpack (points, rate), such as
    ``bench/tracer.py``, keep working.
    """
    x = (p - ball.center) / ball.radius
    if ball.dim == 2:
        z = _disk_exits(complex(*x), rng, n)
        out = np.stack([z.real, z.imag])        # one contiguous column per coordinate
        out *= ball.radius
        out += ball.center[:, np.newaxis]
        return out.T, 1.0
    rho = float(np.linalg.norm(x))
    e = x / rho if rho > 0.0 else np.array([0.0, 0.0, 1.0])
    t, _, r = _exit_cosines(rho, rng.random(n))
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    r_cos, r_sin = r * np.cos(phi), r * np.sin(phi)
    frame = plane_sections(ball, p, e[np.newaxis, :])
    out = np.empty((3, n))              # one contiguous column per coordinate
    for k, col in enumerate(out):
        np.multiply(t, e[k], out=col)
        col += r_cos * frame.u[0, k]
        col += r_sin * frame.v[0, k]
        col *= ball.radius
        col += ball.center[k]
    return out.T, 1.0


def exits_disk_exact_batch(ball: BallDomain, p: np.ndarray,
                           rng: np.random.Generator, n: int) -> np.ndarray:
    """Exact 2-D exit sampler, the same draw as ``exits_full_batch`` in 2-D:
    pushforward of a uniform angle under the disk automorphism sending 0 to
    the (normalized) start point."""
    if ball.dim != 2:
        raise BadParameter("the exact disk sampler is 2-D only")
    t = _disk_exits(complex(*((p - ball.center) / ball.radius)), rng, n)
    return ball.center + ball.radius * np.column_stack([t.real, t.imag])


def exits_plane_batch(ball: BallDomain, p: np.ndarray,
                      rng: np.random.Generator, n: int):
    """n samples of the plane traveler: uniform normal, then the exact in-plane
    disk exit, mapped back through the section frame.  Returns (points, normals)."""
    normals = uniform_directions(rng, n, 3)
    secs = plane_sections(ball, p, normals)
    t = _disk_exits((secs.base2d[:, 0] + 1j * secs.base2d[:, 1]) / secs.radius, rng, n)
    return secs.to_3d(np.column_stack([t.real, t.imag])), normals


def exits_line_batch(ball: BallDomain, p: np.ndarray,
                     rng: np.random.Generator, n: int):
    """n samples of the line traveler: uniform direction, then the forward
    endpoint with probability r1/(r1+r2) (the 1-D exit law).  Returns
    (points, directions)."""
    dirs = uniform_directions(rng, n, ball.dim)
    a, b = ball_chord_roots(ball, p, dirs)
    forward = rng.random(n) < (-a) / (b - a)
    t = np.where(forward, b, a)
    out = np.empty((ball.dim, n))           # one contiguous column per coordinate
    for k, col in enumerate(out):
        np.multiply(t, dirs[:, k], out=col)
        col += p[k]
    return out.T, dirs


# ---------------------------------------------------------------------------
# Comparison harness
# ---------------------------------------------------------------------------

def _sigma(freq: float, se: float, target: float) -> float:
    if se == 0.0:
        return 0.0 if freq == target else math.inf
    return abs(freq - target) / se


def compare_exit_distributions(ball: BallDomain, P, cap: CapSpec, N: int,
                               seed: int) -> ExperimentReport:
    """Cap-hit frequencies of all applicable travelers against the exact
    ``cap_measure_ratio`` and against each other, in binomial standard-error units.

    Every traveler's sampler is exact at every interior start.  Past
    |P - c|/R of about 0.95 in 3-D the oracle, not the samplers, sets the
    accuracy (the cone rule is good to 1e-12 at 0.99 and 1e-7 at 0.999).
    """
    p = interior_point(ball, BallDomain, P)
    if N < 10 ** 3:
        raise BadParameter("need at least 1000 samples per traveler")
    ind = cap_indicator(cap, ball)
    oracle = cap_measure_ratio(ball, p, cap)

    samplers = [("full", STREAM_TRAVELER_FULL,
                 lambda rng: exits_full_batch(ball, p, rng, N)[0])]
    if ball.dim == 3:
        samplers.append(("plane", STREAM_TRAVELER_PLANE,
                         lambda rng: exits_plane_batch(ball, p, rng, N)[0]))
    samplers.append(("line", STREAM_TRAVELER_LINE,
                     lambda rng: exits_line_batch(ball, p, rng, N)[0]))

    stats = []
    for name, stream, draw in samplers:
        pts = draw(philox_stream(seed, stream))
        hits = int(np.count_nonzero(np.asarray(ind.value(pts)) == 1.0))
        freq = hits / N
        se = math.sqrt(freq * (1.0 - freq) / N)
        stats.append(TravelerStats(name=name, hits=hits, frequency=freq,
                                   std_error=se,
                                   sigma_vs_oracle=_sigma(freq, se, oracle)))

    deviations = [t.sigma_vs_oracle for t in stats]
    for i in range(len(stats)):
        for j in range(i + 1, len(stats)):
            pooled = math.hypot(stats[i].std_error, stats[j].std_error)
            deviations.append(_sigma(stats[i].frequency, pooled, stats[j].frequency))
    return ExperimentReport(travelers=tuple(stats), oracle_measure=oracle,
                            max_deviation_in_sigmas=max(deviations),
                            n_samples=N, seed=seed)
