"""Biharmonic chord solver: cubic Hermite interpolation of boundary values and
directional derivatives along each chord, averaged over directions.

The solver takes each chord's cubic at P in the symmetric closed form of the
Hermite basis, a term of the harmonic solver's chord kernel.
C_m(0), the cubic interpolant of t^m evaluated at 0, is obtained as the
remainder of t^m modulo (t-a)^2 (t-b)^2, which exposes the (ab)^2 factor
exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import BadBracket, BadDegree, GradientRequired, NumericalError
from .boundary import BoundaryData, require_data
from .geometry import BallDomain, DirectionQuadrature, _count, _real, interior_point, row_dot
from .averaging import ChordAverageResult, _average

MAX_MONOMIAL_DEGREE = 12


def _monomial_remainder_at_zero(m: int, a: float, b: float) -> tuple[float, float]:
    """(C_m(0), C_m(0)/(ab)^2) via synthetic division of t^m by (t-a)^2 (t-b)^2.

    The constant slot of the remainder is -(last quotient coefficient) * (ab)^2,
    so the quotient q_{m-4} = C_m(0)/(ab)^2 carries full relative precision
    even as a -> 0.
    """
    s = a + b
    prod = a * b
    w = (-2.0 * s, s * s + 2.0 * prod, -2.0 * prod * s, prod * prod)
    cur = np.zeros(m + 1)
    cur[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):      # c0 and q are checked
        for i in range(m - 3):
            f = cur[i]
            if f != 0.0:
                cur[i + 1] -= f * w[0]
                cur[i + 2] -= f * w[1]
                cur[i + 3] -= f * w[2]
                cur[i + 4] -= f * w[3]
    c0 = float(cur[m])
    q = c0 / w[3] if w[3] > 0.0 else np.nan             # w[3] = (ab)^2
    if not (np.isfinite(c0) and np.isfinite(q)):
        raise NumericalError(f"C_{m}(0)/(ab)^2 is not a finite float at a={a!r}, b={b!r}")
    return c0, q


def hermite_monomial_at_zero(m: int, a: float, b: float) -> tuple[float, float]:
    """C_m(0) for data t^m on the bracket a < 0 < b, and q = C_m(0)/(ab)^2.

    q is finite, symmetric in (a, b), and homogeneous of degree m - 4.
    NumericalError when C_m(0) or q is not a finite float, as when (ab)^2 = 0.
    """
    m = _count(m, "degree", 4, MAX_MONOMIAL_DEGREE, BadDegree)
    a, b = _real(a, "a"), _real(b, "b")
    if not (a < 0.0 < b):
        raise BadBracket(f"need a < 0 < b, got a={a}, b={b}")
    return _monomial_remainder_at_zero(m, a, b)


def _hermite_term(data: BoundaryData, q1, q2, r1, r2, e) -> np.ndarray:
    """Hermite cubic of values and slopes d = <grad f, e> at the chord base,
    L = r1 + r2: [(r2 + 3 r1) r2^2 f1 + (r1 + 3 r2) r1^2 f2] / L^3
    + r1 r2 (r2 d1 - r1 d2) / L^2, the same bit for bit under e -> -e."""
    f1 = np.asarray(data.value(q1), dtype=float)
    f2 = np.asarray(data.value(q2), dtype=float)
    d1 = row_dot(np.asarray(data.gradient(q1), dtype=float), e)
    d2 = row_dot(np.asarray(data.gradient(q2), dtype=float), e)
    length = r1 + r2
    return (((r2 + 3.0 * r1) * (r2 * r2) * f1 + (r1 + 3.0 * r2) * (r1 * r1) * f2)
            / length ** 3
            + r1 * r2 * (r2 * d1 - r1 * d2) / (length * length))


def solve_biharmonic(ball: BallDomain, data: BoundaryData, P,
                     dq: DirectionQuadrature) -> ChordAverageResult:
    """Average over directions of the chord Hermite cubic evaluated at P.

    Endpoint slopes are the directional derivatives <grad f, e> of the data;
    data without a gradient is rejected (no finite-difference fallback here).
    """
    p = interior_point(ball, BallDomain, P, dq)
    require_data(data)
    if data.gradient is None:
        raise GradientRequired("biharmonic solver needs data with a gradient")
    return _average(ball, data, p, dq, _hermite_term)
