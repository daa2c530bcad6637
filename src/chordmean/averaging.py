"""Chord-averaging Dirichlet solvers.

The harmonic solver averages, over a weighted set of directions through an
interior point P, the value at P of the linear interpolant of the boundary
data at the two chord endpoints.  On balls this reproduces the harmonic
extension; on ellipses and star domains the residual against the exact
solution is the converse diagnostic.  A cross-section variant averages exact
2-D solves over planes through P in a 3-ball.

A solve is one pass over its rule's plan (``geometry.rule_plan``): the chords
of the rule and of its half rule, one per antipodal pair on even uniform-angle
rules and Gauss products, all solved by one ``chord_roots`` call, with both
ends of every chord in one block of the thread's scratch and one data call.
The values equal those of two passes over every direction, bit for bit.  The
biharmonic solver runs through the same kernel with its Hermite term.  A cross
section solves each plane once (nu and -nu give the same plane), in contiguous
chunks that ``geometry._in_parallel`` solves with the bits of one serial solve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, DimMismatch
from .boundary import BoundaryData, require_data
from .geometry import (
    BallDomain,
    DirectionQuadrature,
    Ellipse2D,
    StarDomain2D,
    _circle_nodes,
    _count,
    _in_parallel,
    _independent,
    _parallel_blocks,
    borrow,
    interior_point,
    park,
    plane_sections,
    rule_plan,
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


def _at_ends(fn, ends: np.ndarray):
    """``fn`` at the q1 and q2 chord ends: one call on a base point's
    (2, M, dim) ends, as (2, M) values or (2, M, dim) gradients; a call per
    end on the (K, 2, M, dim) ends of K cross sections, as two (K, M) arrays."""
    if ends.ndim > 3:
        return tuple(np.asarray(fn(ends[:, end]), dtype=float) for end in (0, 1))
    f = np.asarray(fn(ends.reshape(-1, ends.shape[-1])), dtype=float)
    return f.reshape(ends.shape[:-1] + f.shape[1:])


def _linear_term(data: BoundaryData, ends, r1, r2, e) -> np.ndarray:
    """Linear interpolant at the chord base: (r1 f2 + r2 f1) / (r1 + r2)."""
    f1, f2 = _at_ends(data.value, ends)
    return (r1 * f2 + r2 * f1) / (r1 + r2)


def _chord_values(domain, data: BoundaryData, p: np.ndarray, dirs: np.ndarray,
                  cols: np.ndarray, term=_linear_term) -> np.ndarray:
    """``term(data, ends, r1, r2, e)`` at p along each row e of ``dirs``, whose
    columns are ``cols``, for the chords q1 = p - r1 e to q2 = p + r2 e, all
    solved by one ``chord_roots`` call with their ends in one scratch block:
    (M,) values for a point p, (K, M) for one base point per row of a (K, dim) p.
    """
    a, b = domain.chord_roots(p, dirs)
    block = borrow("ends", cols.shape[:1] + a.shape[:-1] + (2, a.shape[-1]))
    values = term(data, _chord_ends(block, p, a, b, cols), -a, b, dirs)
    park("ends", block)
    return values


def _chord_ends(block: np.ndarray, p: np.ndarray, a: np.ndarray, b: np.ndarray,
                cols: np.ndarray) -> np.ndarray:
    """The chord ends p + a e (index 0) and p + b e (index 1) as the
    (..., 2, M, dim) view of ``block`` (dim, ..., 2, M), filled a coordinate
    at a time with the bits of p[..., None, :] + t[..., None] * e."""
    for j, col in enumerate(cols):
        for end, t in enumerate((a, b)):
            coord = np.multiply(t, col, out=block[j, ..., end, :])
            coord += p[..., j, np.newaxis]
    return block.transpose(*range(1, block.ndim), 0)


def _oracle(data: BoundaryData, p: np.ndarray) -> float | None:
    if data.exact_solution is None:
        return None
    return float(data.exact_solution(p))


def _average(domain, data, p, dq: DirectionQuadrature,
             term=_linear_term) -> ChordAverageResult:
    plan = rule_plan(dq)
    report = half_rule_report(dq, (_chord_values(domain, data, p, plan.dirs, plan.cols, term),),
                              plan.chord_parts)
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
    plan = rule_plan(dq)
    n = plan.chord_parts[0][0]        # the rule's own chords; a pair's value counts twice
    return float(np.max(_chord_values(domain, data, p, plan.dirs[:n], plan.cols[:, :n])))


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

    The planes are solved in contiguous chunks of at least _SECTION_ROWS
    rows, one per usable CPU, each row as in one call on all of them.
    """
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
        rows, paired = _independent(circle)
        terms = _chord_values(_UNIT_DISK, BoundaryData(values), z, rows, rows.T.copy())
        if paired:
            terms = np.concatenate([terms, terms], axis=-1)
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
    inner_resolution = _count(inner_resolution, "inner_resolution", 1, MAX_INNER_RESOLUTION)
    circle = _circle_nodes(inner_resolution)

    plan = rule_plan(normal_dq)
    report = half_rule_report(
        normal_dq, (_section_values(ball, data, p, plan.dirs, circle, inner_solver),),
        plan.chord_parts, nodes_used=len(normal_dq) * inner_resolution)
    return ChordAverageResult(report=report, oracle_value=_oracle(data, p))
