"""Biharmonic chord solver: cubic Hermite interpolation of boundary values and
directional derivatives along each chord, averaged over directions.

The solver takes each chord's cubic at P in the symmetric closed form of the
Hermite basis, a term of the harmonic solver's chord kernel; ``hermite_cubic``
builds the whole cubic in the midpoint-shifted variable for conditioning.
C_m(0), the cubic interpolant of t^m evaluated at 0, is obtained as the
remainder of t^m modulo (t-a)^2 (t-b)^2, which exposes the (ab)^2 factor
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadBracket, BadDegree, DegenerateInterval, DimMismatch, GradientRequired
from .boundary import BoundaryData
from .geometry import BallDomain, DirectionQuadrature, row_dot
from .averaging import ChordAverageResult, _average

MAX_MONOMIAL_DEGREE = 12


@dataclass(frozen=True)
class HermiteCubic:
    """The unique cubic matching values and first derivatives at a and b."""

    coefficients: tuple[float, float, float, float]   # A t^3 + B t^2 + C t + D
    a: float
    b: float
    _shifted: tuple[float, float, float, float, float]  # (alpha..delta, mid)

    def __call__(self, t: float) -> float:
        alpha, beta, gamma, delta, mid = self._shifted
        s = t - mid
        return ((alpha * s + beta) * s + gamma) * s + delta

    def derivative(self, t: float) -> float:
        alpha, beta, gamma, _, mid = self._shifted
        s = t - mid
        return (3.0 * alpha * s + 2.0 * beta) * s + gamma


def hermite_cubic(a: float, b: float, fa: float, fb: float,
                  dfa: float, dfb: float) -> HermiteCubic:
    """Hermite cubic through (a, fa, dfa) and (b, fb, dfb)."""
    if b - a < 1e-12 * max(abs(a), abs(b), 1.0):
        raise DegenerateInterval(f"nodes {a}, {b} are too close")
    h = 0.5 * (b - a)           # coefficients alpha..delta in s = t - mid
    alpha = (dfa + dfb) / (4.0 * h * h) - (fb - fa) / (4.0 * h ** 3)
    beta = (dfb - dfa) / (4.0 * h)
    gamma = (fb - fa) / (2.0 * h) - alpha * h * h
    delta = 0.5 * (fa + fb) - beta * h * h
    mid = 0.5 * (a + b)
    coeff_a = alpha
    coeff_b = beta - 3.0 * alpha * mid
    coeff_c = gamma - 2.0 * beta * mid + 3.0 * alpha * mid * mid
    coeff_d = delta - gamma * mid + beta * mid * mid - alpha * mid ** 3
    return HermiteCubic(coefficients=(coeff_a, coeff_b, coeff_c, coeff_d),
                        a=float(a), b=float(b),
                        _shifted=(alpha, beta, gamma, delta, mid))


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
    for i in range(m - 3):
        f = cur[i]
        if f != 0.0:
            cur[i + 1] -= f * w[0]
            cur[i + 2] -= f * w[1]
            cur[i + 3] -= f * w[2]
            cur[i + 4] -= f * w[3]
    c0 = float(cur[m])
    return c0, c0 / (prod * prod)


def hermite_monomial_at_zero(m: int, a: float, b: float) -> tuple[float, float]:
    """C_m(0) for data t^m on the bracket a < 0 < b, and q = C_m(0)/(ab)^2.

    q is finite, symmetric in (a, b), and homogeneous of degree m - 4.
    """
    if not 4 <= m <= MAX_MONOMIAL_DEGREE:
        raise BadDegree(f"degree must lie in 4..{MAX_MONOMIAL_DEGREE}, got {m}")
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
    indicator or c0 data is rejected (no finite-difference fallback here).
    """
    if data.smoothness != "c1" or data.gradient is None:
        raise GradientRequired("biharmonic solver needs c1 data with a gradient")
    p = ball.require_interior(P)
    if dq.dim != ball.dim:
        raise DimMismatch("direction quadrature dimension does not match the ball")

    return _average(ball, data, p, dq, _hermite_term)
