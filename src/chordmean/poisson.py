"""Poisson-kernel reference solvers: the ground truth the chord solvers are
checked against, and cap harmonic measures.

All reductions go through ``fixed_sum``, or ``fixed_row_sums`` for each row
of a 2-D array at once: the exactly rounded sum, equal to ``math.fsum`` bit
for bit and independent of the order of the values, so runs are
bit-reproducible.  Both split the values exactly into parts that numpy adds
without rounding (one shared ``_fold``) and round once at the end; small
arrays and the special cases go to ``math.fsum`` itself.

Solves report |full - half| as their error estimate (``half_rule_report``;
a half rule made of the rule's own nodes reuses their values), cap measures
their distance from ``cap_measure_ratio``.  Cap measures sum w * indicator
* kernel over the nodes inside the cap only, the other terms being exactly 0,
gathered from the rule a block of rows at a time (``_cap_blocks``).

A boundary quadrature is a direction rule from ``geometry`` placed on a
ball, and every integral over the boundary is one over the rule's directions
e against ``kernel_values``, the density of harmonic measure relative to the
normalized sphere measure: sum_e w_e f(c + R e) (1 - |xs|^2) / |e - xs|^n.

The measure of a cone cap is also taken in cone coordinates.  Pairing each
direction e with its antipode, Malmheden's formula gives w_P(cap) =
2 * integral over the cone C of r1 / (r1 + r2) d sigma(e), with r1, r2 the
backward and forward chord lengths from P and sigma the normalized sphere
measure.  The integrand is smooth on C, so a Gauss rule on the cone alone is
exact to rounding, where a rule on the whole sphere sees the cap's edge.
"""

from __future__ import annotations

import functools
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
        rest = rest - q
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
        sums, rest = _fold(chunk, top)
        parts += sums
        if rest is not None:
            parts += rest[rest != 0.0].tolist()
    total = math.fsum(parts)
    if total == 0.0:
        return math.fsum(arr.tolist())
    return total


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
                     weights: np.ndarray, ind: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mask of the rows of ``dirs`` where the indicator values ``ind`` are
    not 0, and the terms weights * ind * kernel at xs = (x - c) / R on those
    rows.

    The kernel is evaluated on the selected rows alone, gathered a column at
    a time.  Every term left out is exactly 0, and fixed_sum is exactly
    rounded, so the sum of these terms has the bits of the sum over all the
    rows.
    """
    inside = ind != 0.0
    dist2 = None
    for j in range(ball.dim):          # in place, in the order of kernel_values
        d = dirs[:, j][inside]
        d -= xs[j]
        d *= d
        dist2 = d if dist2 is None else np.add(dist2, d, out=dist2)
    terms = weights[inside]
    terms *= ind[inside]
    terms *= _kernel_of_dist2(ball, xs, dist2)
    return inside, require_finite(terms)


# Cap measures take the rule _BLOCK_ROWS rows at a time, and the plane
# traveler (``brownian.exits_plane_batch``) its section frames, so that their
# temporaries stay small enough to be reused rather than mapped afresh.
_BLOCK_ROWS = 16384


def _cap_blocks(ball: BallDomain, rule: DirectionQuadrature, terms) -> list[np.ndarray]:
    """Each quantity that ``terms(dirs, weights, points)`` returns for a block
    of the rule's rows (their directions, weights and boundary points),
    concatenated over the blocks in the order of the rule.

    No block is shorter than _BLOCK_ROWS rows unless it is the whole rule:
    ``v @ axis`` in a cone cosine rounds a lone short tail of rows unlike
    the call on the whole array, and merged tails round like it.
    """
    blocks = []
    for rows in _row_blocks(len(rule), _BLOCK_ROWS):
        dirs = rule.directions[rows]
        blocks.append(terms(dirs, rule.weights[rows], _boundary_points(ball, dirs)))
    return [np.concatenate(q) for q in zip(*blocks)]


def _clamp_unit(value: float) -> float:
    """A measure clamped into [0, 1]."""
    return min(max(value, 0.0), 1.0)


def cap_measure_poisson(ball: BallDomain, P, cap: CapSpec,
                        bq: BoundaryQuadrature | None = None) -> SolveReport:
    """Harmonic measure of the cap(s) at P via the Poisson integral over one
    rule: block by block, the indicator on every node, the kernel on the
    nodes inside the cap only, and one sum of all the blocks' terms.  The sum
    is clamped into [0, 1] (``clamp_applied`` records by how much); the
    error estimate is the clamped value's distance from the exact
    ``cap_measure_ratio``.
    """
    exact = cap_measure_ratio(ball, P, cap)         # checks P, the vertex and dim
    p = interior_point(ball, BallDomain, P)
    rule = _placed_rule(ball, bq, measure_quadrature)
    xs = (p - ball.center) / ball.radius
    indicator = cap_indicator(cap, ball).value
    terms, = _cap_blocks(ball, rule, lambda dirs, weights, pts: (
        _indicator_terms(ball, xs, dirs, weights, indicator(pts))[1],))
    total = fixed_sum(terms)
    value = _clamp_unit(total)
    return SolveReport(value=value, error_estimate=abs(value - exact), nodes_used=len(rule),
                       clamp_applied=abs(total - value))


# The cone rules: Gauss-Legendre of order _CONE_ORDER on each of k equal
# panels, in the angle on [-alpha, alpha] in 2-D and in cos(theta) on
# [cos(alpha), 1] times 2 k _CONE_ORDER equal azimuths in 3-D.  2 r1 / L is
# analytic in the direction, but its complex singularities approach the real
# directions as |xs| -> 1, so k, a power of two up to _MAX_PANELS, grows
# towards the rim (see _panel_count).
_CONE_ORDER = {2: 32, 3: 16}
_MAX_PANELS = {2: 64, 3: 16}


@functools.cache
def _cone_gauss(dim: int):
    """Gauss-Legendre nodes and weights on [-1, 1] of the dimension's order,
    built on first use (importing numpy.polynomial costs every process)."""
    return np.polynomial.legendre.leggauss(_CONE_ORDER[dim])


def _panel_count(dim: int, r2: float, half_angle: float) -> int:
    """Panels of the cone rule at |xs|^2 = r2.  In 2-D the singularities lie
    w = asinh(sqrt(1 - r2) / r) off the real angles, and each panel is at
    most 1.5 w long in half-angle; in 3-D k >= 0.7 / (1 - r2).  Both hold
    the rule to rounding up to the cap (2-D |xs| <= 0.999; 3-D |xs| <= 0.95,
    with about 1e-12 at 0.99 and 1e-7 at 0.999)."""
    if dim == 2:
        need = 0.0 if r2 == 0.0 else half_angle / (1.5 * math.asinh(math.sqrt((1.0 - r2) / r2)))
    else:
        need = 0.7 / (1.0 - r2)
    k = 1
    while k < need and k < _MAX_PANELS[dim]:
        k *= 2
    return k


def _cone_terms(xs: np.ndarray, axis: np.ndarray, half_angle: float) -> np.ndarray:
    """Weighted values of 2 r1 / L on the cone rule of the directions within
    ``half_angle`` of ``axis``, seen from xs in the unit ball; they sum to
    the harmonic measure of that nappe's cap.

    Along e, beta = e . xs and s = sqrt(beta^2 + 1 - |xs|^2) give r1 = beta + s
    and L = 2 s.  Only e . xs enters, so the azimuths of the 3-D rule start
    at the component of xs normal to the axis.
    """
    dim = xs.size
    r2 = float(xs @ xs)
    k = _panel_count(dim, r2, half_angle)
    x, w = _cone_gauss(dim)
    nodes = ((2 * np.arange(k)[:, np.newaxis] + 1 + x) / k - 1.0).reshape(-1)
    weights = np.tile(w, k) / k
    along = float(axis @ xs)
    if dim == 2:
        theta = half_angle * nodes
        beta = along * np.cos(theta) + float(axis[0] * xs[1] - axis[1] * xs[0]) * np.sin(theta)
        weights = half_angle / (2.0 * math.pi) * weights
    else:
        normal = xs - along * axis
        depth = 2.0 * math.sin(0.5 * half_angle) ** 2       # 1 - cos(half_angle)
        cos_t = 1.0 - 0.5 * depth * (1.0 - nodes)
        sin_t = np.sqrt((1.0 - cos_t) * (1.0 + cos_t))
        m = 2 * k * x.size
        ring = np.cos(2.0 * math.pi * np.arange(m) / m)
        beta = (along * cos_t[:, np.newaxis]
                + math.sqrt(float(normal @ normal)) * sin_t[:, np.newaxis] * ring)
        weights = (depth / (4.0 * m) * weights)[:, np.newaxis]
    s = np.sqrt(beta * beta + (1.0 - r2))
    return weights * (beta + s) / s


def cap_measure_ratio(ball: BallDomain, P, cap: CapSpec) -> float:
    """Harmonic measure of the cap via the metric-ratio density, in cone
    coordinates: 2 r1 / L integrated over the cone of ``cap`` (about -axis
    for the minus nappe, both for "both"), exact to rounding.

    The measure does not change under translation and scaling, so the
    integral is taken in the unit ball at xs = (P - c) / R.
    """
    p = interior_point(ball, BallDomain, P)
    vertex = interior_point(ball, BallDomain, cap.vertex)
    if not np.allclose(vertex, p):
        raise BadParameter("cap vertex must coincide with the evaluation point")
    if ball.dim not in _CONE_ORDER:
        raise DimMismatch(f"cone rules exist in dimension 2 and 3, not {ball.dim}")
    if cap.nappe == "both" and cap.half_angle >= 0.5 * math.pi:
        return 1.0                      # the two nappes cover every direction
    axes = {"plus": (cap.axis,), "minus": (-cap.axis,),
            "both": (cap.axis, -cap.axis)}[cap.nappe]
    xs = (p - ball.center) / ball.radius
    return fixed_sum(np.concatenate([_cone_terms(xs, a, cap.half_angle).reshape(-1)
                                     for a in axes]))
