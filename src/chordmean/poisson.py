"""Poisson-kernel reference solvers: the ground truth the chord solvers are
checked against, and cap harmonic measures.

All reductions go through ``fixed_sum``, ``fixed_row_sums`` for each row
of a 2-D array at once, or ``_cap_sums`` for sums taken a block at a time:
the exactly rounded sum, equal to ``math.fsum`` bit for bit and independent
of the order of the values, so runs are bit-reproducible.  All three split
the values exactly into parts that numpy adds without rounding (one shared
``_fold``) and round once at the end; small arrays and the special cases go
to ``math.fsum`` itself.

Solves report |full - half| as their error estimate (``half_rule_report``;
a half rule made of the rule's own nodes reuses their values), cap measures
their distance from ``cap_measure_ratio``.  Cap measures sum w * indicator
* kernel over the nodes inside the cap only, the other terms being exactly 0,
gathered from the rule a block of rows at a time; each block leaves only the
exact parts of its sums, rounded once over all the blocks (``_cap_sums``).

A boundary quadrature is a direction rule from ``geometry`` placed on a
ball, and every integral over the boundary is one over the rule's directions
e against ``kernel_values``, the density of harmonic measure relative to the
normalized sphere measure: sum_e w_e f(c + R e) (1 - |xs|^2) / |e - xs|^n.

The measure of a cone cap is also taken in cone coordinates.  Pairing each
direction e with its antipode, Malmheden's formula gives w_P(cap) =
2 * integral over the cone C of r1 / (r1 + r2) d sigma(e), with r1, r2 the
backward and forward chord lengths from P and sigma the normalized sphere
measure.  By Green's theorem that is C's solid angle plus an integral over
C's edge: closed form in 2-D, a geometrically convergent trapezoid sum in
3-D, exact to rounding where a rule on the whole sphere sees the cap's edge
only to the node spacing.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, DimMismatch, NumericalError, PointNotOnBoundary
from .boundary import BoundaryData, CapSpec, cap_indicator, require_data
from .geometry import (
    BallDomain,
    DirectionQuadrature,
    _row_blocks,
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
# All |values| below 2^1020 / size: no partial sum of fsum or of the folds
# can overflow, and 1.5 * 2^k stays below 2^1023.
_OVERFLOW_EXP = 1020


def _fold(block: np.ndarray, top):
    """Exact partial sums along the last axis of ``block``: one chunk with
    an int ``top``, or (K, m) rows with a (K, 1) array of them.

    With |x| < 2^top for every x of a row and rows at most 2^span values
    long, sigma = 1.5 * 2^k for k = top + span + 1 splits each x exactly into
    q = (x + sigma) - sigma, a multiple of 2^(k-52) with |q| <= 2^top, and
    the remainder x - q.  Every partial sum of a row's q's is a multiple of
    2^(k-52) below 2^(k-1), so np.sum adds them exactly in any order; the
    remainders, below 2^(k-53), are split again with k lowered by 52 - span.
    Once k is below -1022 the values are below 2^(-1024-span) and sigma is
    subnormal or 0: x + sigma and every partial sum are then multiples of
    2^-1074 below 2^-1021, so q = x and its sum are exact too.

    Returns the sums of each fold, one per row, and the remainders the folds
    leave (None when they leave none): a row's exact sum is that of its fold
    sums and its remainders.
    """
    span = (block.shape[-1] - 1).bit_length()
    k = top + (span + 1)
    sums = []
    rest = block
    for _ in range(_MAX_FOLDS):
        sigma = np.ldexp(1.5, k)
        q = rest + sigma
        q -= sigma
        sums.append(q.sum(axis=-1))
        rest = np.subtract(rest, q, out=q)              # q is summed: reuse it
        if not rest.any():
            return sums, None
        k = k - (52 - span)
    return sums, rest


def fixed_sum(values: np.ndarray) -> float:
    """Exactly rounded sum of all the values: ``math.fsum`` bit for bit.

    The values are summed by exact pre-rounding (Demmel & Nguyen, "Fast
    Reproducible Floating-Point Summation", ARITH 2013): in chunks of 8192,
    adding and subtracting a power-of-two multiple splits every value into a
    high part on a common grid, which ``np.sum`` adds without rounding, and
    an exact remainder, which is split again.  ``math.fsum`` then rounds the
    few exact partial sums (``_exact_parts``) once.  The result is therefore
    independent of the order of the values.

    ``math.fsum`` itself is used, with its results and exceptions, for fewer
    than 1024 values, for non-finite input, for an exactly zero total (the
    sign of zero) and where a partial sum could overflow.
    """
    arr = np.asarray(values, dtype=float).reshape(-1)
    total = math.fsum(_exact_parts(arr))
    if total == 0.0:
        return math.fsum(arr.tolist())
    return total


def _exact_parts(arr: np.ndarray) -> list[float]:
    """Floats with the exact sum of the 1-D array ``arr``: each chunk's fold
    sums and remainders, or, where ``fixed_sum`` falls back to ``math.fsum``,
    the values themselves.  That sum does not depend on how the values are
    cut, so ``math.fsum`` of the parts of the pieces is the whole's sum."""
    if arr.size < _FSUM_CUTOFF:
        return arr.tolist()
    parts: list[float] = []
    for start in range(0, arr.size, _CHUNK):
        chunk = arr[start:start + _CHUNK]
        largest = max(float(chunk.max()), -float(chunk.min()))
        if not math.isfinite(largest):                  # inf or nan
            return arr.tolist()
        if largest == 0.0:
            continue
        top = math.frexp(largest)[1]                    # largest < 2^top
        if top + arr.size.bit_length() >= _OVERFLOW_EXP:
            return arr.tolist()
        sums, rest = _fold(chunk, top)
        parts += sums
        if rest is not None:
            parts += rest[rest != 0.0].tolist()
    return parts


def fixed_row_sums(terms: np.ndarray) -> np.ndarray:
    """``fixed_sum`` of each row of a 2-D array, bit for bit, from one pass of
    whole-array folds over all the rows.

    Each row is split with its own top and sigma, and ``math.fsum`` rounds
    only each row's few exact parts.  Fewer than 1024 values in all, and
    every row that is not finite, could overflow or sums to exactly zero,
    go to ``math.fsum`` row by row, with its results and exceptions.
    """
    block = np.asarray(terms, dtype=float)
    if block.size < _FSUM_CUTOFF:
        return np.array([math.fsum(row) for row in block.tolist()], dtype=float)
    largest = np.maximum(block.max(axis=1), -block.min(axis=1))
    top = np.frexp(largest)[1]                          # largest < 2^top
    split = (np.isfinite(largest) & (largest != 0.0)
             & (top + block.shape[1].bit_length() < _OVERFLOW_EXP))
    totals = np.zeros(block.shape[0])
    if split.any():
        rows = block if split.all() else block[split]
        sums, rest = _fold(rows, top[split, np.newaxis])
        parts = np.column_stack(sums).tolist()
        if rest is not None:
            for row_parts, row_rest in zip(parts, rest):
                row_parts += row_rest[row_rest != 0.0].tolist()
        totals[split] = [math.fsum(p) for p in parts]
    for i in np.flatnonzero(totals == 0.0):             # unsplit or a zero total
        totals[i] = math.fsum(block[i].tolist())
    return totals


@dataclass(frozen=True)
class SolveReport:
    """Value of a quadrature solve with an a-posteriori error indicator.

    ``error_estimate`` is |full - half resolution|, an indicator, not a bound;
    for a cap measure, |value - cap_measure_ratio|, the error to rounding.
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
    value = _weighted_sum(rule, values)
    half = rule.half_resolution()
    nested = rule.half_nodes
    if nested is None:
        half_values = factors(half)
    else:
        half_values = tuple(v if np.ndim(v) == 0 else v[nested] for v in values)
    error = abs(value - _weighted_sum(half, half_values))
    return SolveReport(value=value, error_estimate=error,
                       nodes_used=len(rule) if nodes_used is None else nodes_used)


def _weighted_sum(rule, factors) -> float:
    return fixed_sum(require_finite(functools.reduce(operator.mul, factors, rule.weights)))


def require_finite(terms: np.ndarray) -> np.ndarray:
    """The terms of a sum, checked to be finite: NumericalError names how
    many are not (data returning nan or inf), before anything is summed."""
    require_finite_count(np.size(terms) - np.count_nonzero(np.isfinite(terms)),
                         np.size(terms))
    return terms


def require_finite_count(bad: int, size: int) -> None:
    """``require_finite``'s NumericalError for ``bad`` of ``size`` terms, if
    any is not finite: for terms checked in pieces."""
    if bad:
        raise NumericalError(f"{bad} of {size} integrand values are not finite")


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
    if not isinstance(bq, BoundaryQuadrature):
        raise BadParameter(f"expected a BoundaryQuadrature, got {type(bq).__name__}")
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
    return _kernel_of_dist2(ball, xs, dist2)


def _kernel_of_dist2(ball: BallDomain, xs: np.ndarray, dist2: np.ndarray) -> np.ndarray:
    """The kernel (1 - |xs|^2) / dist2^(n/2) from the squared distances
    dist2 = |e - xs|^2, xs broadcast against dist2 as in ``kernel_values``."""
    num = 1.0 - row_dot(xs, xs)[..., np.newaxis]
    power = dist2 ** (ball.dim / 2.0)
    return np.divide(num, power, out=power)


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
    require_data(data)
    return half_rule_report(
        _placed_rule(ball, bq, build_boundary_quadrature), lambda q: (
            np.asarray(data.value(_boundary_points(ball, q.directions)), dtype=float),
            kernel_values(ball, p, q.directions)))


def _indicator_terms(ball: BallDomain, xs: np.ndarray, dirs: np.ndarray,
                     weights: np.ndarray, ind: np.ndarray
                     ) -> tuple[list[np.ndarray], np.ndarray]:
    """The direction columns of the rows of ``dirs`` where the indicator
    values ``ind`` are not 0, and the terms weights * ind * kernel at
    xs = (x - c) / R on those rows.

    The kernel is evaluated on the selected rows alone, gathered a column at
    a time.  Every term left out is exactly 0, and the sums are exactly
    rounded, so the sum of these terms has the bits of the sum over all the
    rows.
    """
    inside = ind != 0.0
    cols = [dirs[:, j][inside] for j in range(ball.dim)]
    dist2 = None
    for e, x in zip(cols, xs):         # in the order of kernel_values
        d = e - x
        d *= d
        dist2 = d if dist2 is None else np.add(dist2, d, out=dist2)
    terms = weights[inside]
    terms *= ind[inside]
    terms *= _kernel_of_dist2(ball, xs, dist2)
    return cols, require_finite(terms)


# Cap measures take the rule _BLOCK_ROWS rows at a time, and the plane
# traveler (``brownian.exits_plane_batch``) its section frames, so that their
# temporaries stay small enough to be reused rather than mapped afresh.
_BLOCK_ROWS = 16384


def _cap_sums(ball: BallDomain, rule: DirectionQuadrature, terms) -> list[float]:
    """The ``fixed_sum`` over all the blocks of the rule's rows of each
    quantity that ``terms(dirs, weights, points)`` returns for a block (its
    directions, weights and boundary points): each block leaves only its
    ``_exact_parts``, and each quantity is rounded once.  An exact zero
    takes the blocks again for its sign, as ``fixed_sum`` does.

    No block is shorter than _BLOCK_ROWS rows unless it is the whole rule:
    ``v @ axis`` in a cone cosine rounds a lone short tail of rows unlike
    the call on the whole array, and merged tails round like it.
    """
    def blocks():
        for rows in _row_blocks(len(rule), _BLOCK_ROWS):
            dirs = rule.directions[rows]
            yield terms(dirs, rule.weights[rows], _boundary_points(ball, dirs))

    parts = [[_exact_parts(values) for values in block] for block in blocks()]
    sums = [math.fsum(itertools.chain.from_iterable(q)) for q in zip(*parts)]
    if 0.0 in sums:
        sums = [s or math.fsum(np.concatenate(q).tolist()) for s, q in zip(sums, zip(*blocks()))]
    return sums


def _clamp_unit(value: float) -> float:
    """A measure clamped into [0, 1]."""
    return min(max(value, 0.0), 1.0)


def cap_measure_poisson(ball: BallDomain, P, cap: CapSpec,
                        bq: BoundaryQuadrature | None = None) -> SolveReport:
    """Harmonic measure of the cap(s) at P via the Poisson integral over one
    rule: block by block, the indicator on every node, the kernel on the
    nodes inside the cap only, and one exactly rounded sum of all the blocks'
    terms.  The sum is clamped into [0, 1] (``clamp_applied`` records by how
    much); the error estimate is the clamped value's distance from the exact
    ``cap_measure_ratio``.
    """
    exact = cap_measure_ratio(ball, P, cap)         # checks P, the vertex and dim
    p = interior_point(ball, BallDomain, P)
    rule = _placed_rule(ball, bq, measure_quadrature)
    xs = (p - ball.center) / ball.radius
    indicator = cap_indicator(cap, ball).value
    total, = _cap_sums(ball, rule, lambda dirs, weights, pts: (
        _indicator_terms(ball, xs, dirs, weights, indicator(pts))[1],))
    value = _clamp_unit(total)
    return SolveReport(value=value, error_estimate=abs(value - exact), nodes_used=len(rule),
                       clamp_applied=abs(total - value))


# The 3-D edge integrand is periodic and analytic in the azimuth, with
# singularities about d = sqrt(1 - |xs|^2) off the real line, so its trapezoid
# sum on n angles is at rounding once n d >= 20 or so (Trefethen & Weideman,
# SIAM Review 56, 2014); n >= _EDGE_SCALE / d leaves a factor of two.
_EDGE_SCALE = 40.0


@functools.cache
def _edge_ring(n: int) -> np.ndarray:
    """cos(2 pi k / n) for k < n, the trapezoid rule's azimuths: shared, never written."""
    return np.cos(2.0 * math.pi * np.arange(n) / n)


def _nappe_terms(xs: np.ndarray, axis: np.ndarray, half_angle: float) -> np.ndarray:
    """Terms summing to the harmonic measure, seen from xs in the unit ball,
    of the cap of the directions within ``half_angle`` = a of ``axis``.

    The density is 2 r1 / L = 1 + beta / s, with beta = e . xs and
    s = sqrt(beta^2 + 1 - |xs|^2).  The 1 gives the nappe's solid angle;
    beta / s is the t-derivative of (s - 1) / |xs|, t = beta / |xs|, which is
    0 at t = +-1, so by Green's theorem it integrates to a term on the cone's
    edge.  With A = axis . xs that term is closed form in 2-D, N = axis x xs;
    in 3-D it is sin(a) / (4 pi) times the integral over the azimuth psi of
    (A sin a - B cos a cos psi) / (1 + s), where B = |xs - A axis| and
    beta = A cos a + B sin a cos psi.
    """
    along = float(axis @ xs)
    sin_a, cos_a = math.sin(half_angle), math.cos(half_angle)
    if xs.size == 2:
        normal = float(axis[0] * xs[1] - axis[1] * xs[0])
        return np.array([half_angle / math.pi,
                         math.asin(along * sin_a + normal * cos_a) / (2.0 * math.pi),
                         math.asin(along * sin_a - normal * cos_a) / (2.0 * math.pi)])
    gap = 1.0 - float(xs @ xs)
    off = math.hypot(*(xs - along * axis))
    n = min(1 << math.ceil(math.log2(max(64.0, _EDGE_SCALE / math.sqrt(gap)))), 2 ** 16)
    ring = _edge_ring(n)
    s = np.sqrt((along * cos_a + off * sin_a * ring) ** 2 + gap)
    edge = (along * sin_a - off * cos_a * ring) / (1.0 + s)
    return np.append(sin_a / (2.0 * n) * edge, math.sin(0.5 * half_angle) ** 2)


def cap_measure_ratio(ball: BallDomain, P, cap: CapSpec) -> float:
    """Harmonic measure of the cap: the metric-ratio density 2 r1 / L over
    the cone of ``cap`` (about -axis for the minus nappe, both for "both"),
    as each nappe's solid angle plus a term on its edge (``_nappe_terms``).
    Within 3.3e-16 of 30-digit evaluations on random caps for |P - c| / R
    up to 1 - 1e-7; in 3-D 8.6e-15 at 1 - 1e-8, where the edge nodes stop at 2^16.

    The measure does not change under translation and scaling, so the
    integral is taken in the unit ball at xs = (P - c) / R.
    """
    p = interior_point(ball, BallDomain, P)
    vertex = interior_point(ball, BallDomain, cap.vertex)
    if not np.allclose(vertex, p):
        raise BadParameter("cap vertex must coincide with the evaluation point")
    if ball.dim not in (2, 3):
        raise DimMismatch(f"cap measures exist in dimension 2 and 3, not {ball.dim}")
    if cap.nappe == "both" and cap.half_angle >= 0.5 * math.pi:
        return 1.0                      # the two nappes cover every direction
    axes = {"plus": (cap.axis,), "minus": (-cap.axis,),
            "both": (cap.axis, -cap.axis)}[cap.nappe]
    xs = (p - ball.center) / ball.radius
    return fixed_sum(np.concatenate([_nappe_terms(xs, a, cap.half_angle) for a in axes]))
