"""Harmonic-measure geometry in balls: the double-cone cap identity, the
center-of-mass identity, subtended-angle moments, and the star-domain
counterexample built from q(z) = a z^2 + z + a.  The metric-ratio density,
``cap_measure_ratio`` in cone coordinates, is ``poisson``'s, exported here.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadParameter, EmptyCap, NumericalError, PointNotInterior
from .boundary import CapSpec, _cone_cosines, _edge_cosine, _nappe_values, cap_indicator
from .geometry import (
    BallDomain,
    _as_complex,
    _count,
    _real,
    ball_chord_roots,
    default_direction_quadrature,
    interior_point,
    mobius_involution,
)
from .poisson import (
    BoundaryQuadrature,
    _cap_sums,
    _clamp_unit,
    _indicator_terms,
    _placed_rule,
    cap_measure_ratio,
    fixed_sum,
    measure_quadrature,
)


def nappe_fraction(dim: int, half_angle: float) -> float:
    """Normalized solid angle of one nappe: half_angle/pi in 2-D,
    (1 - cos half_angle)/2 in 3-D."""
    if dim == 2:
        return half_angle / math.pi
    if dim == 3:
        return 0.5 * (1.0 - math.cos(half_angle))
    raise BadParameter("nappe fractions are defined for dim 2 and 3")


def cone_identity_check(ball: BallDomain, P, axis, half_angle: float,
                        backend: str = "poisson",
                        bq: BoundaryQuadrature | None = None):
    """w_P(U) + w_P(V) for the double cone by the Poisson integral over the
    sphere, against twice one nappe's solid angle.

    Returns (w_sum, target, defect).  In cone coordinates the identity holds
    term by term (r1/L + r2/L = 1), so only the sphere rule tests it;
    ``backend`` names that one way and accepts only 'poisson'.

    One pass of cone cosines per block of the rule's boundary points serves
    both nappes; w(U) and w(V) are summed and clamped apart, with the bits of
    two ``cap_measure_poisson`` values.  Edge points score 1/2 in their
    nappe, so when the cone cosine is 0 a tie on the shared edge splits
    1/2 : 1/2.
    """
    p = interior_point(ball, BallDomain, P)
    half_angle = _real(half_angle, "half_angle")
    if not 0.0 < half_angle < 0.5 * math.pi:
        raise BadParameter("cone identity check expects half_angle in (0, pi/2)")
    if backend != "poisson":
        raise BadParameter("the cone identity is checked by the Poisson integral: "
                           "backend must be 'poisson'")
    cap = CapSpec(vertex=p, axis=axis, half_angle=half_angle)
    c = _edge_cosine(half_angle)
    rule = _placed_rule(ball, bq, measure_quadrature)
    xs = (p - ball.center) / ball.radius

    def nappes(dirs, weights, pts):
        d = _cone_cosines(p, cap.axis, pts)
        return tuple(_indicator_terms(ball, xs, dirs, weights, _nappe_values(d, c, nappe))[1]
                     for nappe in ("plus", "minus"))

    w_plus, w_minus = _cap_sums(ball, rule, nappes)
    w_sum = _clamp_unit(w_plus) + _clamp_unit(w_minus)
    target = 2.0 * nappe_fraction(ball.dim, half_angle)
    return w_sum, target, abs(w_sum - target)


def center_of_mass_check(ball: BallDomain, P, axis, half_angle: float,
                         bq: BoundaryQuadrature | None = None):
    """Center of mass of the double-cone caps under the harmonic-measure
    density; returns (com, offset) where offset = |com - P|.  Block by block,
    the density and its moments are taken on the nodes inside the caps only,
    and the mass and the moments are each summed once over all the blocks."""
    p = interior_point(ball, BallDomain, P)
    rule = _placed_rule(ball, bq, measure_quadrature)
    cap_both = CapSpec(vertex=p, axis=axis, half_angle=half_angle, nappe="both")
    xs = (p - ball.center) / ball.radius
    indicator = cap_indicator(cap_both, ball).value

    def mass_and_moments(dirs, weights, pts):
        cols, density = _indicator_terms(ball, xs, dirs, weights, indicator(pts))
        return (density, *(np.multiply(e, density, out=e) for e in cols))

    denom, *moments = _cap_sums(ball, rule, mass_and_moments)
    if denom < 1e-12:
        raise EmptyCap("cap carries no quadrature mass")
    mean_dir = np.array(moments) / denom
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
    poly_degree = _count(poly_degree, "moment degree", 0, 8, BadParameter)
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
    theta1, theta2 = _real(arc[0], "theta1"), _real(arc[1], "theta2")
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
    a = _real(a, "a")
    if not 0.0 < a < 0.5:
        raise BadParameter("need 0 < a < 1/2 for univalence")
    theta1, theta2 = _real(arc[0], "theta1"), _real(arc[1], "theta2")
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
