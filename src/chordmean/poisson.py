"""Poisson-kernel reference solvers: the ground truth the chord solvers are
checked against, and cap harmonic measures.

All reductions go through ``fixed_sum``, or ``fixed_row_sums`` for each
row of a 2-D array at once: the exactly rounded sum, equal to ``math.fsum``
bit for bit and independent of the order of the values, so runs are
bit-reproducible.  Both split the values exactly into parts that numpy adds
without rounding (one shared ``_fold``) and round once at the end; small
arrays and the special cases go to ``math.fsum`` itself.

Solves report |full - half| as their error estimate (``half_rule_report``;
a half rule made of the rule's own nodes reuses their values), cap measures
their distance from ``cap_measure_ratio``.  Cap measures integrate the cap
indicator times the kernel on a rule fitted to each nappe's cap, whose edge
is the cap's edge, so they are exact to rounding with a few thousand nodes
where a rule on the whole sphere sees the edge only to its node spacing.

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
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, DimMismatch, NumericalError, PointNotOnBoundary
from .boundary import BoundaryData, CapSpec, cap_indicator, require_data
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
    """The sphere rule at indicator resolution (``geometry.measure_rule``)
    placed on the ball: for Poisson solves of cap data over the whole sphere."""
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


# The Brownian samplers and hit counts (``brownian``) take their draws
# _BLOCK_ROWS rows at a time, so that their temporaries stay small enough to
# be reused rather than mapped afresh.
_BLOCK_ROWS = 16384


def _clamp_unit(value: float) -> float:
    """A measure clamped into [0, 1]."""
    return min(max(value, 0.0), 1.0)


def cap_measure_poisson(ball: BallDomain, P, cap: CapSpec) -> SolveReport:
    """Harmonic measure of the cap(s) at P via the Poisson integral on nodes
    that fill each nappe's cap (``_cap_integrals``): the cap indicator times
    the kernel, one exactly rounded sum.  The sum is clamped into [0, 1]
    (``clamp_applied`` records by how much); the error estimate is the
    clamped value's distance from the exact ``cap_measure_ratio``.
    """
    exact = cap_measure_ratio(ball, P, cap)         # checks P, the vertex and dim
    p = interior_point(ball, BallDomain, P)
    (total,), nodes = _cap_integrals(ball, p, cap)
    value = _clamp_unit(total)
    return SolveReport(value=value, error_estimate=abs(value - exact), nodes_used=nodes,
                       clamp_applied=abs(total - value))


def _cap_integrals(ball: BallDomain, p: np.ndarray, cap: CapSpec, moments: bool = False
                   ) -> tuple[list[float], int]:
    """The harmonic measure at p of the cap(s) of ``cap``, whose vertex is p,
    and with ``moments`` the integrals against it of each coordinate of the
    boundary direction e; each is one ``fixed_sum``.  Also the node count.

    Each nappe is integrated on its own rule (``_cap_nodes``): the data is
    the nappe's ``cap_indicator``, which reads 1 on every node, times
    ``kernel_values``.  A nappe wider than pi / 2 is 1 minus its complement,
    the nappe about the opposite axis with half-angle pi - a, and its moments
    are xs minus the complement's, since the Poisson integral of e is xs =
    (p - c) / R; both nappes past pi / 2 cover the sphere.
    """
    _require_cap_dim(ball)
    xs = (p - ball.center) / ball.radius
    whole = [1.0, *xs.tolist()][:1 + ball.dim * moments]    # over the whole sphere
    if cap.nappe == "both" and cap.half_angle >= 0.5 * math.pi:
        return whole, 0
    axes = {"plus": (cap.axis,), "minus": (-cap.axis,),
            "both": (cap.axis, -cap.axis)}[cap.nappe]
    half, sign = cap.half_angle, 1.0
    if half > 0.5 * math.pi:
        axes, half, sign = tuple(-a for a in axes), math.pi - half, -1.0
    sums = [[w] if sign < 0.0 else [] for w in whole]
    nodes = 0
    for axis in axes:
        dirs, weights = _cap_nodes(xs, axis, half)
        data = cap_indicator(CapSpec(p, axis, half), ball).value(_boundary_points(ball, dirs))
        terms = sign * weights * data * kernel_values(ball, p, dirs)
        sums[0].append(terms)
        for q, e in zip(sums[1:], dirs.T):
            q.append(terms * e)
        nodes += len(weights)
    return [fixed_sum(np.hstack(q)) for q in sums], nodes


def _require_cap_dim(ball: BallDomain) -> None:
    """Cap measures are defined for disks and 3-balls only."""
    if ball.dim not in (2, 3):
        raise DimMismatch(f"cap measures exist in dimension 2 and 3, not {ball.dim}")


# Nodes of a cap's rule: in 2-D _ARC_ORDER Gauss-Legendre nodes per panel,
# in 3-D Gauss-Legendre in the polar angle times equal azimuths.  The kernel
# of a point at |xs| = rho has its singularities about 1 - rho off the real
# line; panels no longer than _ARC_SCALE (1 - rho), and _AZIMUTH_SCALE /
# (1 - rho) azimuths and _POLAR_SCALE / sqrt(1 - rho) polar nodes, keep every
# sum at rounding, up to the node counts of the indicator-resolution sphere
# rules (_MAX_CAP_NODES; ``measure_quadrature``).
_ARC_ORDER = 32
_ARC_SCALE = 2.0
_POLAR_SCALE = 16.0
_AZIMUTH_SCALE = 32.0
_MAX_CAP_NODES = {2: 2 ** 16, 3: 2 ** 17}
_MAX_POLAR = 128
# The 3-D edge angle: a scan of _EDGE_SCAN polar angles brackets it on every
# meridian, and safeguarded Newton steps refine it until they move it by
# less than _EDGE_STEP (the next step is then below rounding).
_EDGE_SCAN = 16
_EDGE_STEP = 1e-11
_MAX_EDGE_STEPS = 60


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]: shared, never written."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _cap_nodes(xs: np.ndarray, axis: np.ndarray, half_angle: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions e and weights (w.r.t. the normalized sphere measure)
    of a rule on the cap of the nappe about ``axis`` with half-angle at most
    pi / 2 seen from xs in the unit ball: every node lies inside the cap, and
    the rule's edge is the cap's edge.

    2-D: the arc's ends are the boundary hits of the edge directions at
    angles psi -+ a; a direction at angle psi from xs hits the circle at
    psi + asin(e x xs).  Gauss-Legendre panels in the boundary angle fill it.

    3-D: about the pole q0, the boundary hit of the axis from xs, each of the
    equal azimuths phi gives a meridian q0 cos(theta) + m(phi) sin(theta),
    which leaves the cap once, at the edge angle theta_b (``_edge_angles``);
    Gauss-Legendre in theta on [0, theta_b] with weight sin(theta), and the
    trapezoid rule in phi.
    """
    near = max(1.0 - math.sqrt(float(xs @ xs)), 1e-12)
    if xs.size == 2:
        psi = math.atan2(axis[1], axis[0])
        ends = [g + math.asin(math.cos(g) * xs[1] - math.sin(g) * xs[0])
                for g in (psi - half_angle, psi + half_angle)]
        arc = ends[1] - ends[0]
        panels = min(max(math.ceil(arc / (_ARC_SCALE * near)), 1),
                     _MAX_CAP_NODES[2] // _ARC_ORDER)
        x, w = _gauss_legendre(_ARC_ORDER)
        angles = ends[0] + arc / panels * (np.arange(panels)[:, np.newaxis] + 0.5 * (x + 1.0))
        weights = np.tile(arc / (4.0 * math.pi * panels) * w, panels)
        return np.column_stack([np.cos(angles.ravel()), np.sin(angles.ravel())]), weights
    polar = min(math.ceil(_POLAR_SCALE / math.sqrt(near)), _MAX_POLAR)
    azimuths = min(math.ceil(_AZIMUTH_SCALE / near), _MAX_CAP_NODES[3] // polar)
    pole, meridians, edge = _edge_angles(xs, axis, half_angle, azimuths)
    x, w = _gauss_legendre(polar)
    theta = 0.5 * edge[:, np.newaxis] * (x + 1.0)
    sin_t = np.sin(theta)
    dirs = np.cos(theta)[..., np.newaxis] * pole + sin_t[..., np.newaxis] * meridians[:, np.newaxis]
    weights = (0.25 / azimuths) * edge[:, np.newaxis] * w * sin_t
    return dirs.reshape(-1, 3), weights.ravel()


def _perpendicular(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors b = v x e / |v x e| and v x b for the unit 3-vector v,
    with e the third coordinate axis, or the first where v is near it."""
    x, y, z = v.tolist()
    if abs(z) < 0.9:
        h = math.hypot(x, y)
        return np.array([y / h, -x / h, 0.0]), np.array([x * z / h, y * z / h, -h])
    g = math.hypot(y, z)
    return np.array([0.0, z / g, -y / g]), np.array([-g, x * y / g, x * z / g])


def _edge_angles(xs: np.ndarray, axis: np.ndarray, half_angle: float, azimuths: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pole q0 = xs + t axis on the unit sphere, the unit meridian
    directions m(phi) normal to q0 at ``azimuths`` equal angles phi, and on
    each meridian the edge angle theta_b of the cap of directions within
    a = ``half_angle`` <= pi / 2 of ``axis`` seen from xs.

    On the meridian, y = q0 cos(theta) + m sin(theta) and d = y - xs, the
    cone test is F = (d . axis) sin(a) - |d - (d . axis) axis| cos(a) =
    |d| sin(a - angle(d, axis)), positive inside the cap and negative past
    its edge: t sin(a) at theta = 0, and below 0 at theta = pi.  Since
    q0 - xs lies along the axis, d's parts across the axis are those of
    (cos(theta) - 1) xs + sin(theta) m, computed without cancellation near
    the pole.  The first sign change on a grid of _EDGE_SCAN angles brackets
    theta_b, which safeguarded Newton steps then refine.
    """
    along = float(axis @ xs)
    t = math.sqrt(along * along + 1.0 - float(xs @ xs)) - along
    pole = xs + t * axis
    u, v = _perpendicular(pole / np.linalg.norm(pole))
    phi = 2.0 * math.pi / azimuths * np.arange(azimuths)
    meridians = np.cos(phi)[:, np.newaxis] * u + np.sin(phi)[:, np.newaxis] * v
    b1, b2 = _perpendicular(axis)
    pole_along, m_along = float(pole @ axis), meridians @ axis
    x1, x2, m1, m2 = float(xs @ b1), float(xs @ b2), meridians @ b1, meridians @ b2
    sin_a, cos_a = math.sin(half_angle), math.cos(half_angle)

    def cone_test(theta, slope=False):
        c, s = -2.0 * np.sin(0.5 * theta) ** 2, np.sin(theta)      # cos - 1, sin
        p1, p2 = c * x1 + s * m1, c * x2 + s * m2
        across = np.hypot(p1, p2)
        f = (t + c * pole_along + s * m_along) * sin_a - across * cos_a
        if not slope:
            return f
        c, s = -s, np.cos(theta)                                 # their derivatives
        d_across = (p1 * (c * x1 + s * m1) + p2 * (c * x2 + s * m2)) / across
        return f, (c * pole_along + s * m_along) * sin_a - d_across * cos_a

    grid = math.pi / _EDGE_SCAN * np.arange(1, _EDGE_SCAN + 1)[:, np.newaxis]
    scan = cone_test(grid)
    first = np.argmax(scan <= 0.0, axis=0)                       # F(pi) < 0
    cols = np.arange(azimuths)
    hi, f_hi = grid[first, 0], scan[first, cols]
    lo = np.where(first > 0, grid[first - 1, 0], 0.0)
    f_lo = np.where(first > 0, scan[first - 1, cols], t * sin_a)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
        for _ in range(_MAX_EDGE_STEPS):
            f, df = cone_test(theta, slope=True)
            inside = f > 0.0
            lo, hi = np.where(inside, theta, lo), np.where(inside, hi, theta)
            step = theta - f / df
            step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
            moved = float(np.max(np.abs(step - theta)))
            theta = step
            if moved <= _EDGE_STEP:
                break
    return pole, meridians, theta


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
    if not np.all(np.abs(vertex - p) <= 1e-8 + 1e-5 * np.abs(p)):   # np.allclose's test
        raise BadParameter("cap vertex must coincide with the evaluation point")
    _require_cap_dim(ball)
    if cap.nappe == "both" and cap.half_angle >= 0.5 * math.pi:
        return 1.0                      # the two nappes cover every direction
    axes = {"plus": (cap.axis,), "minus": (-cap.axis,),
            "both": (cap.axis, -cap.axis)}[cap.nappe]
    xs = (p - ball.center) / ball.radius
    return fixed_sum(np.concatenate([_nappe_terms(xs, a, cap.half_angle) for a in axes]))
