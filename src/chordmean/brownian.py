"""Exit-distribution samplers for three kinds of Brownian traveler in a ball.

All three exit laws are sampled exactly (no path discretization, no loop):
  full  -- in 2-D the disk automorphism pushforward of a uniform angle; in
           3-D the inverse CDF of the exit's cosine about P, with a uniform
           azimuth;
  plane -- random plane through P, then the in-plane exit via the disk
           automorphism pushforward of a uniform angle;
  line  -- random chord through P, then the 1-D gambler's-ruin endpoint.

Each traveler draws from its own counter-based stream of the given seed, so
reports are bit-identical across reruns, and the travelers of one comparison
run at once on the usable CPUs (``geometry._in_parallel``).
"""

from __future__ import annotations

import functools
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
    _count,
    _in_parallel,
    _row_blocks,
    ball_chord_roots,
    interior_point,
    philox_stream,
    plane_sections,
    uniform_directions,
)
from .poisson import cap_measure_ratio

# Samples per traveler at most: a 3-D comparison at the ceiling peaks at
# about 120 MB of arrays, as the largest direction rules do.
MAX_SAMPLES = 2 ** 20
# The samplers and hit counts take their draws _BLOCK_ROWS rows at a time, so
# that their temporaries stay small enough to be reused rather than mapped afresh.
_BLOCK_ROWS = 16384


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


def _uniform_angles(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(0.0, 2.0 * math.pi, n)


def _disk_exits(z0, angles: np.ndarray) -> np.ndarray:
    """Exact exits, as complex numbers, from z0 in the unit disk: the
    pushforward of uniform angles under the disk automorphism sending 0 to z0."""
    zeta = np.exp(1j * angles)
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
    the frame of the plane section normal to e (any e at the center), taken
    ``_BLOCK_ROWS`` draws at a time, each as in one call on all.  The
    second value, the share of draws used, is 1.0 since nothing is rejected;
    it stays so that callers that unpack (points, rate), such as
    ``bench/tracer.py``, keep working.
    """
    x = (p - ball.center) / ball.radius
    if ball.dim == 2:
        z = _disk_exits(complex(*x), _uniform_angles(rng, n))
        out = np.stack([z.real, z.imag])        # one contiguous column per coordinate
        out *= ball.radius
        out += ball.center[:, np.newaxis]
        return out.T, 1.0
    rho = float(np.linalg.norm(x))
    e = x / rho if rho > 0.0 else np.array([0.0, 0.0, 1.0])
    u = rng.random(n)
    phi = _uniform_angles(rng, n)
    frame = plane_sections(ball, p, e[np.newaxis, :])
    out = np.empty((3, n))              # one contiguous column per coordinate
    for rows in _row_blocks(n, _BLOCK_ROWS):
        t, _, r = _exit_cosines(rho, u[rows])
        r_cos, r_sin = r * np.cos(phi[rows]), r * np.sin(phi[rows])
        for k, col in enumerate(out[:, rows]):
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
    t = _disk_exits(complex(*((p - ball.center) / ball.radius)), _uniform_angles(rng, n))
    return ball.center + ball.radius * np.column_stack([t.real, t.imag])


def exits_plane_batch(ball: BallDomain, p: np.ndarray,
                      rng: np.random.Generator, n: int):
    """n samples of the plane traveler: uniform normals, then uniform angles
    for the exact in-plane disk exits, mapped back through each section's
    frame.  The frames are built ``_BLOCK_ROWS`` rows at a time, each
    row as in one call on all of them.  Returns (points, normals)."""
    normals = uniform_directions(rng, n, 3)
    angles = _uniform_angles(rng, n)
    out = np.empty((3, n))                  # one contiguous column per coordinate
    for rows in _row_blocks(n, _BLOCK_ROWS):
        secs = plane_sections(ball, p, normals[rows])
        t = _disk_exits((secs.base2d[:, 0] + 1j * secs.base2d[:, 1]) / secs.radius,
                        angles[rows])
        out[:, rows] = secs.to_3d(np.column_stack([t.real, t.imag])).T
    return out.T, normals


def exits_line_batch(ball: BallDomain, p: np.ndarray,
                     rng: np.random.Generator, n: int):
    """n samples of the line traveler: uniform direction, then the forward
    endpoint with probability r1/(r1+r2) (the 1-D exit law).  Returns
    (points, directions).  The chords are taken ``_BLOCK_ROWS``
    rows at a time, each row as in one call on all of them."""
    dirs = uniform_directions(rng, n, ball.dim)
    u = rng.random(n)
    out = np.empty((ball.dim, n))           # one contiguous column per coordinate
    for rows in _row_blocks(n, _BLOCK_ROWS):
        a, b = ball_chord_roots(ball, p, dirs[rows])
        t = np.where(u[rows] < (-a) / (b - a), b, a)
        for k, col in enumerate(out[:, rows]):
            np.multiply(t, dirs[rows, k], out=col)
            col += p[k]
    return out.T, dirs


# ---------------------------------------------------------------------------
# Comparison harness
# ---------------------------------------------------------------------------

def _sigma(freq: float, se: float, target: float) -> float:
    if se == 0.0:
        return 0.0 if freq == target else math.inf
    return abs(freq - target) / se


def _hits(sample, ball: BallDomain, p: np.ndarray, rng: np.random.Generator,
          n: int, indicator) -> int:
    """Cap hits among the n exits that ``sample`` draws from rng, counted
    ``_BLOCK_ROWS`` exits at a time."""
    pts = sample(ball, p, rng, n)[0]
    return sum(int(np.count_nonzero(np.asarray(indicator(pts[rows])) == 1.0))
               for rows in _row_blocks(n, _BLOCK_ROWS))


def compare_exit_distributions(ball: BallDomain, P, cap: CapSpec, N: int,
                               seed: int) -> ExperimentReport:
    """Cap-hit frequencies of all applicable travelers against the exact
    ``cap_measure_ratio`` and against each other, in binomial standard-error units.

    N is an integer from 1000 to MAX_SAMPLES (2**20) samples per traveler,
    and the seed one from 0 to 2**64 - 1.  The travelers run at once on the
    usable CPUs, each on its own stream, so the report is that of running
    them one after another, bit for bit.

    Every traveler's sampler is exact at every interior start, and so is
    the oracle, to rounding, up to |P - c|/R = 1 - 1e-7.
    """
    p = interior_point(ball, BallDomain, P)
    N = _count(N, "the sample count", 0, MAX_SAMPLES)
    if N < 10 ** 3:
        raise BadParameter("need at least 1000 samples per traveler")
    ind = cap_indicator(cap, ball)
    oracle = cap_measure_ratio(ball, p, cap)

    # the longest traveler first, for the calling thread
    samplers = {"full": (STREAM_TRAVELER_FULL, exits_full_batch),
                "line": (STREAM_TRAVELER_LINE, exits_line_batch)}
    if ball.dim == 3:
        samplers = {"plane": (STREAM_TRAVELER_PLANE, exits_plane_batch), **samplers}
    tasks = [functools.partial(_hits, sample, ball, p, philox_stream(seed, stream), N,
                               ind.value)
             for stream, sample in samplers.values()]
    hits = dict(zip(samplers, _in_parallel(tasks)))

    stats = []
    for name in ("full", "plane", "line"):
        if name not in hits:
            continue
        freq = hits[name] / N
        se = math.sqrt(freq * (1.0 - freq) / N)
        stats.append(TravelerStats(name=name, hits=hits[name], frequency=freq,
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
