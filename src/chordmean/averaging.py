"""Chord-averaging Dirichlet solvers.

The harmonic solver averages, over a weighted set of directions through an
interior point P, the value at P of the linear interpolant of the boundary
data at the two chord endpoints.  On balls this reproduces the harmonic
extension; on ellipses and star domains the residual against the exact
solution is the converse diagnostic.  A cross-section variant averages exact
2-D solves over planes through P in a 3-ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, DimMismatch, NotStarShapedFromP
from .boundary import BoundaryData
from .geometry import (
    BallDomain,
    Chord,
    DirectionQuadrature,
    Ellipse2D,
    StarDomain2D,
    ball_chord_roots,
    ellipse_chord_roots,
    plane_section,
)
from .poisson import SolveReport, fixed_sum, half_rule_report


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


def chord_interpolant(chord: Chord, data: BoundaryData) -> float:
    """Value at the chord base of the linear interpolant of the endpoint data:
    (r1 f2 + r2 f1) / (r1 + r2)."""
    f1 = float(data.value(chord.q1))
    f2 = float(data.value(chord.q2))
    return (chord.r1 * f2 + chord.r2 * f1) / (chord.r1 + chord.r2)


# ---------------------------------------------------------------------------
# Vectorized chord machinery
# ---------------------------------------------------------------------------

_STAR_SCAN = 512
_STAR_BISECT = 64
_STAR_POLISH = 4


def _rho_values(domain: StarDomain2D, thetas: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(domain.boundary_radius(thetas), dtype=float)
        if vals.shape == thetas.shape:
            return vals
    except Exception:
        pass
    flat = np.array([float(domain.boundary_radius(t)) for t in thetas.ravel()])
    return flat.reshape(thetas.shape)


def star_hits_batch(domain: StarDomain2D, p: np.ndarray, dirs: np.ndarray
                    ) -> np.ndarray:
    """Forward ray/boundary hit distances for each direction row.

    Bracketing scan followed by vectorized bisection and secant polish.
    Raises NotStarShapedFromP when any ray sees zero or multiple crossings.
    """
    n = dirs.shape[0]
    t_upper = 1.2 * (float(np.linalg.norm(p)) + domain._rho_max)
    ts = np.linspace(0.0, t_upper, _STAR_SCAN + 1)

    def g(t):
        # t: (..., n) distances per direction
        pts = p + t[..., np.newaxis] * dirs
        r = np.hypot(pts[..., 0], pts[..., 1])
        theta = np.arctan2(pts[..., 1], pts[..., 0])
        return r - _rho_values(domain, theta)

    gs = g(ts[:, np.newaxis] * np.ones(n))
    signs = np.where(gs >= 0.0, 1.0, -1.0)
    crossings = np.sum(np.abs(np.diff(signs, axis=0)) > 0, axis=0)
    if np.any(crossings != 1):
        bad = int(np.argmax(crossings != 1))
        raise NotStarShapedFromP(
            f"ray along {dirs[bad]} crosses the boundary {int(crossings[bad])} times")
    first = np.argmax(np.diff(signs, axis=0) != 0, axis=0)
    lo = ts[first]
    hi = ts[first + 1]
    glo = gs[first, np.arange(n)]
    ghi = gs[first + 1, np.arange(n)]

    for _ in range(_STAR_BISECT):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        neg = (gm < 0.0)
        lo = np.where(neg, mid, lo)
        glo = np.where(neg, gm, glo)
        hi = np.where(neg, hi, mid)
        ghi = np.where(neg, ghi, gm)
    t = 0.5 * (lo + hi)
    for _ in range(_STAR_POLISH):
        denom = ghi - glo
        sec = np.where(denom != 0.0, lo - glo * (hi - lo) / np.where(denom == 0, 1, denom),
                       t)
        t = np.clip(sec, lo, hi)
    return t


def _chord_roots(domain, p: np.ndarray, dirs: np.ndarray):
    """Per-direction chord parameters (a < 0 < b) for any supported domain."""
    if isinstance(domain, BallDomain):
        return ball_chord_roots(domain, p, dirs)
    if isinstance(domain, Ellipse2D):
        return ellipse_chord_roots(domain, p, dirs)
    if isinstance(domain, StarDomain2D):
        b = star_hits_batch(domain, p, dirs)
        a = -star_hits_batch(domain, p, -dirs)
        return a, b
    raise BadParameter(f"unsupported domain type {type(domain).__name__}")


def _interpolant_values(domain, data: BoundaryData, p: np.ndarray,
                        dirs: np.ndarray) -> np.ndarray:
    a, b = _chord_roots(domain, p, dirs)
    f1 = np.asarray(data.value(p + a[:, np.newaxis] * dirs), dtype=float)
    f2 = np.asarray(data.value(p + b[:, np.newaxis] * dirs), dtype=float)
    r1 = -a
    r2 = b
    return (r1 * f2 + r2 * f1) / (r1 + r2)


def _oracle(data: BoundaryData, p: np.ndarray) -> float | None:
    if data.exact_solution is None:
        return None
    return float(data.exact_solution(p))


def _average(domain, data, p, dq: DirectionQuadrature) -> ChordAverageResult:
    report = half_rule_report(
        dq, lambda q: (_interpolant_values(domain, data, p, q.directions),))
    return ChordAverageResult(report=report, oracle_value=_oracle(data, p))


def solve_harmonic(ball: BallDomain, data: BoundaryData, P,
                   dq: DirectionQuadrature) -> ChordAverageResult:
    """Average of chord interpolants over the direction set: the harmonic
    extension of the data evaluated at P (exact on balls)."""
    p = ball.require_interior(P)
    if dq.dim != ball.dim:
        raise DimMismatch("direction quadrature dimension does not match the ball")
    return _average(ball, data, p, dq)


def solve_on_domain(domain, data: BoundaryData, P,
                    dq: DirectionQuadrature) -> ChordAverageResult:
    """The same chord average on an ellipse or 2-D star domain.

    For harmonic-polynomial data the oracle is the polynomial itself, so the
    residual measures how far the domain is from being a ball.
    """
    if not isinstance(domain, (Ellipse2D, StarDomain2D)):
        raise BadParameter("solve_on_domain expects an Ellipse2D or StarDomain2D")
    p = domain.require_interior(P)
    if dq.dim != 2:
        raise DimMismatch("2-D direction quadrature required")
    return _average(domain, data, p, dq)


def chord_interpolant_max(domain, data: BoundaryData, P,
                   dq: DirectionQuadrature) -> float:
    """Maximum of the chord interpolant over the quadrature's directions.

    A discrete stand-in (lower bound) for the sup over all chords; dominates
    the chord average computed with the same node set."""
    if isinstance(domain, BallDomain):
        p = domain.require_interior(P)
    elif isinstance(domain, (Ellipse2D, StarDomain2D)):
        p = domain.require_interior(P)
    else:
        raise BadParameter(f"unsupported domain type {type(domain).__name__}")
    return float(np.max(_interpolant_values(domain, data, p, dq.directions)))


# ---------------------------------------------------------------------------
# Cross-section solver (planes through P in a 3-ball)
# ---------------------------------------------------------------------------

def _section_value(ball: BallDomain, data: BoundaryData, p: np.ndarray,
                   nu: np.ndarray, inner_resolution: int,
                   inner_solver: str) -> float:
    sec = plane_section(ball, p, nu)
    m = inner_resolution
    phis = 2.0 * math.pi * np.arange(m) / m
    if inner_solver == "poisson":
        pts3 = sec.boundary_points(phis)
        f = np.asarray(data.value(pts3), dtype=float)
        z0 = complex(sec.base2d[0], sec.base2d[1]) / sec.radius
        zs = np.exp(1j * phis)
        density = (1.0 - abs(z0) ** 2) / np.abs(z0 - zs) ** 2
        return fixed_sum(f * density) / m
    if inner_solver == "chords":
        dirs2 = np.column_stack([np.cos(phis), np.sin(phis)])
        disk = sec.as_disk2d()
        a, b = ball_chord_roots(disk, sec.base2d, dirs2)
        q1 = sec.to_3d(sec.base2d + a[:, np.newaxis] * dirs2)
        q2 = sec.to_3d(sec.base2d + b[:, np.newaxis] * dirs2)
        f1 = np.asarray(data.value(q1), dtype=float)
        f2 = np.asarray(data.value(q2), dtype=float)
        ell = ((-a) * f2 + b * f1) / (b - a)
        return fixed_sum(ell) / m
    raise BadParameter("inner_solver must be 'poisson' or 'chords'")


def cross_section_solve(ball: BallDomain, data: BoundaryData, P,
                        normal_dq: DirectionQuadrature,
                        inner_resolution: int = 512,
                        inner_solver: str = "poisson") -> ChordAverageResult:
    """Average, over plane normals, of the exact 2-D Dirichlet solve at P
    inside each plane section of the ball.

    Planes through P are parametrized by unit normals carrying the normalized
    sphere measure (each plane appears under both nu and -nu, which the
    averaging cancels).  The error estimate halves the normal quadrature only;
    the inner resolution is held fixed.
    """
    if ball.dim != 3:
        raise DimMismatch("cross_section_solve requires a 3-dimensional ball")
    p = ball.require_interior(P)
    if normal_dq.dim != 3:
        raise DimMismatch("normal quadrature must be 3-dimensional")

    def section_values(dq):
        return (np.array([_section_value(ball, data, p, nu, inner_resolution,
                                         inner_solver)
                          for nu in dq.directions]),)

    report = half_rule_report(normal_dq, section_values,
                              nodes_used=len(normal_dq) * inner_resolution)
    return ChordAverageResult(report=report, oracle_value=_oracle(data, p))
