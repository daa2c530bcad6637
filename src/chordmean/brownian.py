"""Exit-distribution samplers for three kinds of Brownian traveler in a ball.

All three exit laws are sampled exactly (no path discretization):
  full  -- rejection against the ball's exit density on the boundary;
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

from .errors import BadParameter, RejectionBudgetExceeded
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
from .poisson import cap_measure_ratio, kernel_values

REJECTION_BUDGET_PER_SAMPLE = 10 ** 6
RHO_SOFT_LIMIT = 0.8


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

def exits_full_batch(ball: BallDomain, p: np.ndarray, rng: np.random.Generator,
                     n: int):
    """n exact samples of the full traveler's exit law; returns (points, acceptance rate).

    Rejection sampling: uniform boundary proposals accepted in proportion to
    the exit density (``kernel_values``), whose maximum over the boundary is
    (1 + rho) / (1 - rho)^(dim-1) at rho = |p - c|/R (relative to uniform).
    """
    dim = ball.dim
    rho = start_rho(ball, p)
    max_density = (1.0 + rho) / (1.0 - rho) ** (dim - 1)
    budget = REJECTION_BUDGET_PER_SAMPLE * max(n, 1)
    out = np.empty((n, dim))
    filled = 0
    proposals = 0
    accepted_total = 0
    while filled < n:
        chunk = min(int((n - filled) * max_density * 1.2) + 64, 4_000_000)
        dirs = uniform_directions(rng, chunk, dim)
        u = rng.random(chunk)
        accepted = dirs[u * max_density <= kernel_values(ball, p, dirs)]
        take = min(len(accepted), n - filled)
        out[filled:filled + take] = accepted[:take]
        filled += take
        proposals += chunk
        accepted_total += len(accepted)
        if proposals > budget:
            raise RejectionBudgetExceeded(
                f"{proposals} proposals for {n} samples: point too close to the boundary")
    rate = accepted_total / proposals
    return ball.center + ball.radius * out, rate


def exits_disk_exact_batch(ball: BallDomain, p: np.ndarray,
                           rng: np.random.Generator, n: int) -> np.ndarray:
    """Exact 2-D exit sampler: pushforward of a uniform angle under the disk
    automorphism sending 0 to the (normalized) start point."""
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
    return p + t[:, np.newaxis] * dirs, dirs


# ---------------------------------------------------------------------------
# Comparison harness
# ---------------------------------------------------------------------------

def _sigma(freq: float, se: float, target: float) -> float:
    if se == 0.0:
        return 0.0 if freq == target else math.inf
    return abs(freq - target) / se


def start_rho(ball: BallDomain, p: np.ndarray) -> float:
    """Relative distance |p - c| / R of a start point from the center."""
    return float(np.linalg.norm((p - ball.center) / ball.radius))


def compare_exit_distributions(ball: BallDomain, P, cap: CapSpec, N: int,
                               seed: int) -> ExperimentReport:
    """Cap-hit frequencies of all applicable travelers against the exact
    ``cap_measure_ratio`` and against each other, in binomial standard-error units.

    The full traveler is drawn by rejection, except from a 2-D start with
    rho > RHO_SOFT_LIMIT, where rejection slows and the exact disk sampler
    draws it instead.
    """
    p = interior_point(ball, BallDomain, P)
    if N < 10 ** 3:
        raise BadParameter("need at least 1000 samples per traveler")
    ind = cap_indicator(cap, ball)
    oracle = cap_measure_ratio(ball, p, cap)

    if ball.dim == 2 and start_rho(ball, p) > RHO_SOFT_LIMIT:
        full_draw = lambda rng: exits_disk_exact_batch(ball, p, rng, N)
    else:
        full_draw = lambda rng: exits_full_batch(ball, p, rng, N)[0]
    samplers = [("full", STREAM_TRAVELER_FULL, full_draw)]
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
