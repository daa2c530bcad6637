"""Harmonic-measure geometry in balls: the metric-ratio density, double-cone
cap identities, the center-of-mass identity, subtended-angle moments, and the
star-domain counterexample built from q(z) = a z^2 + z + a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, EmptyCap, NumericalError, PointNotInterior
from .boundary import CapSpec, cap_indicator
from .geometry import (
    BallDomain,
    Chord,
    DirectionQuadrature,
    _as_complex,
    ball_chord_roots,
    default_direction_quadrature,
    interior_point,
    measure_rule,
    mobius_involution,
)
from .averaging import _interpolant_values
from .poisson import (
    BoundaryQuadrature,
    _placed_rule,
    cap_measure_poisson,
    fixed_sum,
    kernel_values,
    measure_quadrature,
)


def metric_ratio(chord: Chord) -> float:
    """R_P at the chord's backward endpoint: r2 / (r1 + r2).

    Reversing the chord direction complements the ratio to 1.
    """
    return chord.r2 / (chord.r1 + chord.r2)


def nappe_fraction(dim: int, half_angle: float) -> float:
    """Normalized solid angle of one nappe: half_angle/pi in 2-D,
    (1 - cos half_angle)/2 in 3-D."""
    if dim == 2:
        return half_angle / math.pi
    if dim == 3:
        return 0.5 * (1.0 - math.cos(half_angle))
    raise BadParameter("nappe fractions are defined for dim 2 and 3")


@dataclass(frozen=True)
class ConeCaps:
    """The two caps cut by a double cone, with one nappe's normalized solid angle."""

    cap_plus: CapSpec
    cap_minus: CapSpec
    nappe_solid_angle_fraction: float


def make_cone_caps(dim: int, vertex, axis, half_angle: float) -> ConeCaps:
    return ConeCaps(
        cap_plus=CapSpec(vertex=vertex, axis=axis, half_angle=half_angle, nappe="plus"),
        cap_minus=CapSpec(vertex=vertex, axis=axis, half_angle=half_angle, nappe="minus"),
        nappe_solid_angle_fraction=nappe_fraction(dim, half_angle),
    )


def cap_measure_ratio(ball: BallDomain, P, cap: CapSpec,
                      dq: DirectionQuadrature | None = None) -> float:
    """Harmonic measure of the cap via the metric-ratio density.

    Each direction e contributes its ratio at the backward hit and the
    complementary ratio at the forward hit, so antipodal pairs sum to 1 when
    both hits land in the cap.
    """
    p = interior_point(ball, BallDomain, P, dq)
    indicator = cap_indicator(cap, ball)
    if not np.allclose(cap.vertex, p):
        raise BadParameter("cap vertex must coincide with the evaluation point")
    if dq is None:
        dq = measure_rule(ball.dim)
    chords = _interpolant_values(ball, indicator, p, dq.directions)
    value = fixed_sum(dq.weights * chords)
    return min(max(value, 0.0), 1.0)


def cone_identity_check(ball: BallDomain, P, axis, half_angle: float,
                        backend: str = "poisson",
                        dq: DirectionQuadrature | None = None,
                        bq: BoundaryQuadrature | None = None):
    """w_P(U) + w_P(V) for the double cone against twice one nappe's solid angle.

    Returns (w_sum, target, defect).  backend='ratio' holds by complementarity
    to quadrature rounding; backend='poisson' is the substantive check.
    """
    p = interior_point(ball, BallDomain, P, dq)
    if not 0.0 < half_angle < 0.5 * math.pi:
        raise BadParameter("cone identity check expects half_angle in (0, pi/2)")
    caps = make_cone_caps(ball.dim, p, axis, half_angle)
    if backend == "ratio":
        w_plus = cap_measure_ratio(ball, p, caps.cap_plus, dq)
        w_minus = cap_measure_ratio(ball, p, caps.cap_minus, dq)
    elif backend == "poisson":
        w_plus = cap_measure_poisson(ball, p, caps.cap_plus, bq).value
        w_minus = cap_measure_poisson(ball, p, caps.cap_minus, bq).value
    else:
        raise BadParameter("backend must be 'ratio' or 'poisson'")
    w_sum = w_plus + w_minus
    target = 2.0 * caps.nappe_solid_angle_fraction
    return w_sum, target, abs(w_sum - target)


def center_of_mass_check(ball: BallDomain, P, axis, half_angle: float,
                         bq: BoundaryQuadrature | None = None):
    """Center of mass of the double-cone caps under the harmonic-measure
    density; returns (com, offset) where offset = |com - P|."""
    p = interior_point(ball, BallDomain, P)
    rule = _placed_rule(ball, bq, measure_quadrature)
    cap_both = CapSpec(vertex=p, axis=axis, half_angle=half_angle, nappe="both")
    ind = np.asarray(cap_indicator(cap_both, ball).value(
        ball.center + ball.radius * rule.directions), dtype=float)
    density = rule.weights * ind * kernel_values(ball, p, rule.directions)
    denom = fixed_sum(density)
    if denom < 1e-12:
        raise EmptyCap("cap carries no quadrature mass")
    mean_dir = np.array([fixed_sum(density * rule.directions[:, j])
                         for j in range(ball.dim)]) / denom
    com = ball.center + ball.radius * mean_dir
    return com, float(np.linalg.norm(com - p))


def subtended_moment(w, poly_degree: int) -> complex:
    """Moment of the subtended-angle measure on the unit circle seen from w:
    the average over directions of (boundary hit)^degree.

    Equals (0^d + w^d)/2 for analytic monomials.
    """
    wc = _as_complex(w)
    if abs(wc) >= 1.0:
        raise PointNotInterior("w must lie in the open unit disk")
    if not 0 <= poly_degree <= 8:
        raise BadParameter("moment degree must lie in 0..8")
    dq = default_direction_quadrature(2)
    p = np.array([wc.real, wc.imag])
    disk = BallDomain(center=np.zeros(2), radius=1.0)
    _, b = ball_chord_roots(disk, p, dq.directions)
    hits = p + b[:, np.newaxis] * dq.directions
    xi = hits[:, 0] + 1j * hits[:, 1]
    vals = dq.weights * xi ** poly_degree
    return complex(fixed_sum(vals.real), fixed_sum(vals.imag))


def involution_image_measure(P, arc) -> float:
    """Harmonic measure at P of a unit-circle arc as |J_P(arc)| / (2 pi).

    The image arc's side is fixed by the image of an interior sample point.
    Serves as the 2-D closed-form oracle for cap measures.
    """
    theta1, theta2 = float(arc[0]), float(arc[1])
    if not (math.isfinite(theta1) and math.isfinite(theta2)):
        raise BadParameter("arc angles must be finite")
    if theta2 <= theta1:
        raise BadParameter("arc must satisfy theta1 < theta2")
    if theta2 - theta1 >= 2.0 * math.pi:
        return 1.0
    w1 = mobius_involution(P, complex(math.cos(theta1), math.sin(theta1)))
    w2 = mobius_involution(P, complex(math.cos(theta2), math.sin(theta2)))
    tm = 0.5 * (theta1 + theta2)
    wm = mobius_involution(P, complex(math.cos(tm), math.sin(tm)))
    span = (np.angle(w2) - np.angle(w1)) % (2.0 * math.pi)
    to_mid = (np.angle(wm) - np.angle(w1)) % (2.0 * math.pi)
    length = span if to_mid <= span else 2.0 * math.pi - span
    return length / (2.0 * math.pi)


_PROP81_GRID = 2 ** 14


def star_angle_measure_check(a: float, arc):
    """Subtended angle at the origin of the image arc under q(z) = a z^2 + z + a
    against 2 pi times the harmonic measure at q(0) (the preimage arc length).

    Returns (subtended_angle, circumference_measure, defect); both sides equal
    the preimage arc length.  The arc is sampled at _PROP81_GRID steps.
    """
    if not 0.0 < a < 0.5:
        raise BadParameter("need 0 < a < 1/2 for univalence")
    theta1, theta2 = float(arc[0]), float(arc[1])
    if not (0.0 <= theta1 < theta2 <= 2.0 * math.pi):
        raise BadParameter("arc must satisfy 0 <= theta1 < theta2 <= 2 pi")
    thetas = np.linspace(theta1, theta2, _PROP81_GRID + 1)
    z = np.exp(1j * thetas)
    qz = a * z * z + z + a
    increments = np.angle(qz[1:] / qz[:-1])
    if np.any(np.abs(increments) >= math.pi * 0.999):
        raise NumericalError("argument increment too large to unwrap safely")
    subtended = fixed_sum(increments)
    circumference = theta2 - theta1        # conformal invariance: w = |arc|/2pi
    return subtended, circumference, abs(subtended - circumference)
