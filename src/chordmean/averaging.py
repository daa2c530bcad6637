"""Chord-averaging Dirichlet solvers.

The harmonic solver averages, over a weighted set of directions through an
interior point P, the value at P of the linear interpolant of the boundary
data at the two chord endpoints.  On balls this reproduces the harmonic
extension; on ellipses and star domains the residual against the exact
solution is the converse diagnostic.  A cross-section variant averages exact
2-D solves over planes through P in a 3-ball.

Even uniform-angle rules and Gauss products hold exact antipodal pairs, and
a chord average over them solves and evaluates each chord once
(``_interpolant_values``): the values equal those of evaluating every
direction, bit for bit.  The biharmonic solver runs through the same kernel
with its Hermite term.  A cross section over paired normals solves each
plane once, since normals nu and -nu give the same plane, and splits the
planes into contiguous chunks that ``geometry._in_parallel`` solves on the
usable CPUs, with the bits of one serial solve.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, BadResolution, DimMismatch
from .boundary import BoundaryData, require_data
from .geometry import (
    BallDomain,
    DirectionQuadrature,
    Ellipse2D,
    StarDomain2D,
    _circle_nodes,
    _in_parallel,
    _parallel_blocks,
    interior_point,
    plane_sections,
    star_hits_batch,  # noqa: F401  (also looked up as averaging.star_hits_batch)
)
from .poisson import (
    SolveReport,
    fixed_row_sums,
    half_rule_report,
    kernel_values,
    require_finite_count,
)


@dataclass(frozen=True)
class ChordAverageResult:
    """Solver output; ``oracle_value`` is filled when the data knows its own
    exact extension (polynomial families), and residual = |value - oracle|."""

    report: SolveReport
    oracle_value: float | None = None

    @property
    def value(self) -> float:
        return self.report.value

    @property
    def residual(self) -> float | None:
        if self.oracle_value is None:
            return None
        return abs(self.report.value - self.oracle_value)


def _antipodal_half(dirs: np.ndarray) -> int | None:
    """N/2 when the last N/2 rows of ``dirs`` are the first N/2 negated bit
    for bit (even uniform-angle rules, Gauss products), else None."""
    n = dirs.shape[0]
    h = n // 2
    if n % 2 or not np.array_equal(dirs[h], -dirs[0]):     # cheap reject first
        return None
    return h if dirs[h:].tobytes() == (-dirs[:h]).tobytes() else None


def _linear_term(data: BoundaryData, q1, q2, r1, r2, e) -> np.ndarray:
    """Linear interpolant at the chord base: (r1 f2 + r2 f1) / (r1 + r2)."""
    f1 = np.asarray(data.value(q1), dtype=float)
    f2 = np.asarray(data.value(q2), dtype=float)
    return (r1 * f2 + r2 * f1) / (r1 + r2)


def _interpolant_values(domain, data: BoundaryData, p: np.ndarray,
                        dirs: np.ndarray, term=_linear_term) -> np.ndarray:
    """``term(data, q1, q2, r1, r2, e)`` at p along each row e of ``dirs``,
    for the chord with ends q1 = p - r1 e and q2 = p + r2 e: (N,) values for
    a point p, (K, N) for one base point per row of a (K, dim) p.

    On an antipodal direction set each chord is solved and evaluated once:
    the chord along -e is the one along e with its ends swapped, and both
    terms (linear, Hermite) are the same bit for bit under that swap.
    """
    h = _antipodal_half(dirs)
    half = dirs if h is None else dirs[:h]
    a, b = domain.chord_roots(p, half)
    values = term(data, _chord_ends(p, a, half), _chord_ends(p, b, half), -a, b, half)
    return values if h is None else np.concatenate([values, values], axis=-1)


def _chord_ends(p: np.ndarray, t: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """p[..., None, :] + t[..., None] * dirs bit for bit, in C order, filled
    a column at a time: arithmetic over rows of 2 or 3 values is slow."""
    out = np.empty(t.shape + dirs.shape[-1:])
    for j in range(dirs.shape[-1]):
        col = np.multiply(t, dirs[:, j], out=out[..., j])
        col += p[..., j, np.newaxis]
    return out


def _oracle(data: BoundaryData, p: np.ndarray) -> float | None:
    if data.exact_solution is None:
        return None
    return float(data.exact_solution(p))


def _average(domain, data, p, dq: DirectionQuadrature,
             term=_linear_term) -> ChordAverageResult:
    report = half_rule_report(
        dq, lambda q: (_interpolant_values(domain, data, p, q.directions, term),))
    return ChordAverageResult(report=report, oracle_value=_oracle(data, p))


def solve_harmonic(ball: BallDomain, data: BoundaryData, P,
                   dq: DirectionQuadrature) -> ChordAverageResult:
    """Average of chord interpolants over the direction set: the harmonic
    extension of the data evaluated at P (exact on balls)."""
    p = interior_point(ball, BallDomain, P, dq)
    require_data(data)
    return _average(ball, data, p, dq)


def solve_on_domain(domain, data: BoundaryData, P,
                    dq: DirectionQuadrature) -> ChordAverageResult:
    """The same chord average on an ellipse or 2-D star domain.

    For harmonic-polynomial data the oracle is the polynomial itself, so the
    residual measures how far the domain is from being a ball.
    """
    p = interior_point(domain, (Ellipse2D, StarDomain2D), P, dq)
    require_data(data)
    return _average(domain, data, p, dq)


def chord_interpolant_max(domain, data: BoundaryData, P,
                   dq: DirectionQuadrature) -> float:
    """Maximum of the chord interpolant over the quadrature's directions.

    A discrete stand-in (lower bound) for the sup over all chords; dominates
    the chord average computed with the same node set."""
    p = interior_point(domain, (BallDomain, Ellipse2D, StarDomain2D), P, dq)
    require_data(data)
    return float(np.max(_interpolant_values(domain, data, p, dq.directions)))


# ---------------------------------------------------------------------------
# Cross-section solver (planes through P in a 3-ball)
# ---------------------------------------------------------------------------

_UNIT_DISK = BallDomain(center=np.zeros(2), radius=1.0)
# Inner circle nodes per section at most: 32 times the usual 512.  On 512
# paired normals the (256, m) term arrays then take up to 32 MB each.
MAX_INNER_RESOLUTION = 2 ** 14


def _section_values(ball: BallDomain, data: BoundaryData, p: np.ndarray,
                    normals: np.ndarray, circle: np.ndarray,
                    inner_solver: str) -> np.ndarray:
    """Exact 2-D solve at p in the section of the ball by each plane through p
    with a normal row, using the inner circle's nodes in every section.

    On antipodal normals each plane is solved once, for the first half: the
    section for -nu has the same centre, radius and u with v negated, so its
    solve differs only by mirrored circle nodes (by rounding).  The planes
    are solved in contiguous chunks of at least _SECTION_ROWS rows, one per
    usable CPU, each row as in one call on all of them.
    """
    h = _antipodal_half(normals)
    if h is not None:
        half = _section_values(ball, data, p, normals[:h], circle, inner_solver)
        return np.concatenate([half, half])
    chunks = _in_parallel(
        functools.partial(_section_sums, ball, data, p, normals[rows], circle, inner_solver)
        for rows in _parallel_blocks(len(normals), _SECTION_ROWS))
    require_finite_count(sum(bad for _, bad in chunks), len(normals) * len(circle))
    return np.concatenate([sums for sums, _ in chunks]) / len(circle)


# Planes per chunk at least: small solves and Gauss half rules stay in one
# chunk, and no chunk is a lone row, whose BLAS products round unlike those
# of a longer block.
_SECTION_ROWS = 64


def _section_sums(ball: BallDomain, data: BoundaryData, p: np.ndarray,
                  normals: np.ndarray, circle: np.ndarray, inner_solver: str):
    """(row sums of the inner solve's terms, number of terms not finite) on
    the planes with the normal rows; the sums are None if any term is not."""
    secs = plane_sections(ball, p, normals)
    # p in each unit section, row-major as the chord roots' matmul expects
    z = np.divide(secs.base2d, secs.radius[:, np.newaxis], order="C")

    def values(xi):             # data at unit-section points xi (K or 1, m, 2)
        pts = secs.to_3d(xi)
        f = np.asarray(data.value(pts.reshape(-1, 3)), dtype=float)
        return f.reshape(pts.shape[:-1])

    if inner_solver == "poisson":
        terms = values(circle[np.newaxis]) * kernel_values(_UNIT_DISK, z, circle)
    else:
        terms = _interpolant_values(_UNIT_DISK, BoundaryData(values), z, circle)
    bad = np.size(terms) - np.count_nonzero(np.isfinite(terms))
    return (None if bad else fixed_row_sums(terms)), bad


def cross_section_solve(ball: BallDomain, data: BoundaryData, P,
                        normal_dq: DirectionQuadrature,
                        inner_resolution: int = 512,
                        inner_solver: str = "poisson") -> ChordAverageResult:
    """Average, over plane normals, of the exact 2-D Dirichlet solve at P
    inside each plane section of the ball.

    Planes through P are parametrized by unit normals carrying the normalized
    sphere measure.  Each plane appears under both nu and -nu; on a normal
    rule with exact antipodal pairs (a Gauss product) it is solved once and
    counted for both.  The error estimate halves the normal quadrature only;
    the inner resolution is held fixed.  ``inner_resolution`` is an integer
    from 1 to MAX_INNER_RESOLUTION (16384); anything else raises BadResolution.
    """
    p = interior_point(ball, BallDomain, P, normal_dq)
    require_data(data)
    if ball.dim != 3:
        raise DimMismatch("cross_section_solve requires a 3-dimensional ball")
    if inner_solver not in ("poisson", "chords"):
        raise BadParameter("inner_solver must be 'poisson' or 'chords'")
    try:
        inner_resolution = operator.index(inner_resolution)
    except TypeError:
        raise BadResolution(f"inner_resolution must be an integer, "
                            f"got {inner_resolution!r}") from None
    if not 1 <= inner_resolution <= MAX_INNER_RESOLUTION:
        raise BadResolution(f"inner_resolution must be between 1 and "
                            f"{MAX_INNER_RESOLUTION}, got {inner_resolution}")
    circle = _circle_nodes(inner_resolution)

    report = half_rule_report(
        normal_dq, lambda dq: (_section_values(ball, data, p, dq.directions, circle,
                                               inner_solver),),
        nodes_used=len(normal_dq) * inner_resolution)
    return ChordAverageResult(report=report, oracle_value=_oracle(data, p))
