"""Poisson-kernel reference solvers: the ground truth the chord solvers are
checked against, and cap harmonic measures.

All reductions go through ``fixed_sum``: the exactly rounded sum, equal to
``math.fsum`` bit for bit and independent of the order of the values, so runs
are bit-reproducible.  It splits the values exactly into parts that numpy
adds without rounding and rounds once at the end; small arrays and the
special cases go to ``math.fsum`` itself.

Every solve reports |full - half| as its error estimate through
``half_rule_report``; rules whose half rule is a subset of their own nodes
evaluate the integrand once.

A boundary quadrature is a direction rule from ``geometry`` placed on a
ball, and every integral over the boundary is one over the rule's directions
e against ``kernel_values``, the density of harmonic measure relative to the
normalized sphere measure: sum_e w_e f(c + R e) (1 - |xs|^2) / |e - xs|^n.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, NumericalError, PointNotOnBoundary
from .boundary import BoundaryData, CapSpec, cap_indicator
from .geometry import (
    BallDomain,
    DirectionQuadrature,
    as_point,
    default_direction_quadrature,
    interior_point,
    measure_rule,
    row_dot,
)


# fixed_sum: below _FSUM_CUTOFF values math.fsum is as fast.  _CHUNK values
# are reduced at a time, so the temporaries stay in cache; each fold takes
# 52 - log2(_CHUNK) = 39 bits of every value, and what _MAX_FOLDS folds leave
# goes to math.fsum value by value.
_FSUM_CUTOFF = 1024
_CHUNK = 8192
_MAX_FOLDS = 4
_MIN_SPLIT_EXP = -1022          # 1.5 * 2^k must be a normal float
# All |values| below 2^1020 / size: no partial sum of fsum or of the folds
# can overflow, and 1.5 * 2^k stays below 2^1023.
_OVERFLOW_EXP = 1020


def _fold(chunk: np.ndarray, top: int, parts: list) -> None:
    """Append to ``parts`` floats whose exact sum is the chunk's exact sum.

    With |x| < 2^top for every x and the chunk at most 2^span values long,
    sigma = 1.5 * 2^k for k = top + span + 1 splits each x exactly into
    q = (x + sigma) - sigma, a multiple of 2^(k-52) with |q| <= 2^top, and
    the remainder x - q.  Every partial sum of the q's is a multiple of
    2^(k-52) below 2^(k-1), so np.sum adds them exactly in any order; the
    remainders, below 2^(k-53), are split again with k lowered by 52 - span.
    """
    span = (chunk.size - 1).bit_length()
    k = top + span + 1
    rest = chunk
    for _ in range(_MAX_FOLDS):
        if k < _MIN_SPLIT_EXP:
            break
        sigma = math.ldexp(1.5, k)
        q = rest + sigma
        q -= sigma
        parts.append(float(np.sum(q)))
        rest = rest - q
        if not rest.any():
            return
        k -= 52 - span
    parts.extend(rest[rest != 0.0].tolist())


def fixed_sum(values: np.ndarray) -> float:
    """Exactly rounded sum of all the values: ``math.fsum`` bit for bit.

    The values are summed by exact pre-rounding (Demmel & Nguyen, "Fast
    Reproducible Floating-Point Summation", ARITH 2013): in chunks of 8192,
    adding and subtracting a power-of-two multiple splits every value into a
    high part on a common grid, which ``np.sum`` adds without rounding, and
    an exact remainder, which is split again.  ``math.fsum`` then rounds the
    few exact partial sums once.  The result is therefore independent of the
    order of the values.

    ``math.fsum`` itself is used, with its results and exceptions, for fewer
    than 1024 values, for non-finite input, for an exactly zero total (the
    sign of zero) and where a partial sum could overflow.
    """
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.size < _FSUM_CUTOFF:
        return math.fsum(arr.tolist())
    parts: list[float] = []
    for start in range(0, arr.size, _CHUNK):
        chunk = arr[start:start + _CHUNK]
        largest = max(float(chunk.max()), -float(chunk.min()))
        if not math.isfinite(largest):                  # inf or nan
            return math.fsum(arr.tolist())
        if largest == 0.0:
            continue
        top = math.frexp(largest)[1]                    # largest < 2^top
        if top + arr.size.bit_length() >= _OVERFLOW_EXP:
            return math.fsum(arr.tolist())
        _fold(chunk, top, parts)
    total = math.fsum(parts)
    if total == 0.0:
        return math.fsum(arr.tolist())
    return total


@dataclass(frozen=True)
class SolveReport:
    """Value of a quadrature solve with an a-posteriori error indicator.

    ``error_estimate`` is |full - half resolution|: an indicator, not a bound.
    ``clamp_applied`` records how far a measure was clamped into [0, 1].
    """

    value: float
    error_estimate: float
    nodes_used: int
    clamp_applied: float = 0.0


def half_rule_report(rule, factors, nodes_used: int | None = None) -> SolveReport:
    """The integral over ``rule`` with |full - half rule| as its error estimate.

    ``factors(q)`` returns the integrand on the nodes of rule ``q`` as a tuple
    of per-node arrays, and each integral is fixed_sum(q.weights * f1 * f2 ...)
    multiplied in that order.  When the half rule's nodes are some of the
    rule's own (``rule.half_nodes``), its values are taken from the full
    evaluation instead of being computed again.  A non-finite term (data
    returning nan or inf) raises NumericalError before anything is summed.
    """
    values = factors(rule)
    value = _weighted_sum(rule.weights, values)
    half = rule.half_resolution()
    nested = rule.half_nodes
    if nested is None:
        half_values = factors(half)
    else:
        half_values = tuple(v if np.ndim(v) == 0 else v[nested] for v in values)
    error = abs(value - _weighted_sum(half.weights, half_values))
    return SolveReport(value=value, error_estimate=error,
                       nodes_used=len(rule) if nodes_used is None else nodes_used)


def _weighted_sum(weights: np.ndarray, factors) -> float:
    return fixed_sum(require_finite(functools.reduce(operator.mul, factors, weights)))


def require_finite(terms: np.ndarray) -> np.ndarray:
    """The terms of a sum, checked to be finite: NumericalError names how
    many are not (data returning nan or inf), before anything is summed."""
    bad = np.size(terms) - np.count_nonzero(np.isfinite(terms))
    if bad:
        raise NumericalError(f"{bad} of {np.size(terms)} integrand values are not finite")
    return terms


def _surface_area(ball: BallDomain) -> float:
    """|dB|: 2 pi R for a disk, 4 pi R^2 for a 3-ball."""
    return (2.0 * math.pi if ball.dim == 2 else 4.0 * math.pi) * ball.radius ** (ball.dim - 1)


@dataclass(frozen=True)
class BoundaryQuadrature:
    """A direction rule placed on a ball: nodes c + R e for the rule's unit
    directions e, weights w.r.t. surface measure (the rule's weights times
    |dB|, so they sum to 2*pi*R or 4*pi*R^2).

    The rule is the shared, read-only one from ``geometry``; solvers
    integrate over its directions against ``kernel_values``.
    """

    ball: BallDomain
    rule: DirectionQuadrature

    @property
    def points(self) -> np.ndarray:
        return _boundary_points(self.ball, self.rule.directions)

    @property
    def weights(self) -> np.ndarray:
        return self.rule.weights * _surface_area(self.ball)

    def __len__(self) -> int:
        return len(self.rule)

    def half_resolution(self) -> "BoundaryQuadrature":
        return BoundaryQuadrature(self.ball, self.rule.half_resolution())


def _boundary_points(ball: BallDomain, dirs: np.ndarray) -> np.ndarray:
    """The boundary points c + R e of the unit rows e of ``dirs``: ``dirs``
    itself, not a copy, when the ball is the unit ball about the origin."""
    if ball.radius == 1.0 and not ball.center.any():
        return dirs
    return ball.center + ball.radius * dirs


def build_boundary_quadrature(ball: BallDomain, resolution: int | None = None
                              ) -> BoundaryQuadrature:
    """The default direction rule of the ball's dimension, placed on its
    boundary: ``resolution`` equally spaced points in 2-D, ``resolution``
    Gauss-Legendre polar nodes times 2*resolution azimuths in 3-D."""
    return BoundaryQuadrature(ball, default_direction_quadrature(ball.dim, resolution))


def measure_quadrature(ball: BallDomain) -> BoundaryQuadrature:
    """Default high-resolution rule for indicator (harmonic measure) work."""
    return BoundaryQuadrature(ball, measure_rule(ball.dim))


def _placed_rule(ball: BallDomain, bq: BoundaryQuadrature | None, default
                ) -> DirectionQuadrature:
    """The direction rule of ``bq``, which must be placed on ``ball``; that of
    ``default(ball)`` when ``bq`` is None."""
    if bq is None:
        return default(ball).rule
    if bq.ball is not ball and (bq.ball.dim != ball.dim
                                or bq.ball.radius != ball.radius
                                or not np.array_equal(bq.ball.center, ball.center)):
        raise BadParameter("boundary quadrature was built for a different ball")
    return bq.rule


def kernel_values(ball: BallDomain, x: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Poisson kernel of the ball at interior x against the boundary points
    c + R e, e a unit row of ``dirs``: the density of harmonic measure at x
    w.r.t. the normalized measure on the sphere,
    (1 - |xs|^2) / |e - xs|^n with xs = (x - c) / R.

    Vectorized core without precondition checks.  A (K, dim) ``x`` holds one
    point per row and gives (K, N) values.
    """
    xs = (x - ball.center) / ball.radius
    # Column by column as in row_dot, without a (K, N, dim) difference array.
    dist2 = sum((dirs[:, j] - xs[..., j, np.newaxis]) ** 2 for j in range(ball.dim))
    num = 1.0 - row_dot(xs, xs)[..., np.newaxis]
    return num / dist2 ** (ball.dim / 2.0)


def poisson_kernel(ball: BallDomain, x, y) -> float:
    """Poisson kernel value; for the unit ball (1/omega_n)(1-|x|^2)/|x-y|^n."""
    p = interior_point(ball, BallDomain, x)
    q = as_point(y, ball.dim)
    if not ball.on_boundary(q):
        raise PointNotOnBoundary(f"{q} is not on the ball boundary")
    e = (q - ball.center) / ball.radius
    return float(kernel_values(ball, p, e[np.newaxis, :])[0]) / _surface_area(ball)


def poisson_solve(ball: BallDomain, data: BoundaryData, x,
                  bq: BoundaryQuadrature | None = None) -> SolveReport:
    """Poisson integral of the boundary data at interior x."""
    p = interior_point(ball, BallDomain, x)
    return half_rule_report(
        _placed_rule(ball, bq, build_boundary_quadrature), lambda q: (
            np.asarray(data.value(_boundary_points(ball, q.directions)), dtype=float),
            kernel_values(ball, p, q.directions)))


def cap_measure_poisson(ball: BallDomain, P, cap: CapSpec,
                        bq: BoundaryQuadrature | None = None) -> SolveReport:
    """Harmonic measure of the cap(s) at P via the Poisson integral.

    The result is clamped into [0, 1]; the clamp magnitude is recorded on the
    report rather than silently discarded.
    """
    p = interior_point(ball, BallDomain, P)
    data = cap_indicator(cap, ball)
    if not np.allclose(cap.vertex, p):
        raise BadParameter("cap vertex must coincide with the evaluation point")
    if bq is None:
        bq = measure_quadrature(ball)
    report = poisson_solve(ball, data, p, bq)
    clamped = min(max(report.value, 0.0), 1.0)
    return SolveReport(value=clamped, error_estimate=report.error_estimate,
                       nodes_used=report.nodes_used,
                       clamp_applied=abs(report.value - clamped))
