"""Harmonic-measure geometry in balls: the metric-ratio density, double-cone
cap identities, the center-of-mass identity, subtended-angle moments, and the
star-domain counterexample built from q(z) = a z^2 + z + a.

The measure of a cone cap is taken in cone coordinates.  Pairing each
direction e with its antipode, Malmheden's formula gives w_P(cap) =
2 * integral over the cone C of r1 / (r1 + r2) d sigma(e), with r1, r2 the
backward and forward chord lengths from P and sigma the normalized sphere
measure.  The integrand is smooth on C, so a Gauss rule on the cone alone is
exact to rounding, where a rule on the whole sphere sees the cap's edge.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import BadParameter, DimMismatch, EmptyCap, NumericalError, PointNotInterior
from .boundary import CapSpec, _cone_cosines, _edge_cosine, _nappe_values, cap_indicator
from .geometry import (
    BallDomain,
    _as_complex,
    ball_chord_roots,
    default_direction_quadrature,
    interior_point,
    mobius_involution,
)
from .poisson import (
    BoundaryQuadrature,
    _boundary_points,
    _boundary_values,
    _clamp_unit,
    _indicator_terms,
    _placed_rule,
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


def cone_identity_check(ball: BallDomain, P, axis, half_angle: float,
                        backend: str = "poisson",
                        bq: BoundaryQuadrature | None = None):
    """w_P(U) + w_P(V) for the double cone by the Poisson integral over the
    sphere, against twice one nappe's solid angle.

    Returns (w_sum, target, defect).  In cone coordinates the identity holds
    term by term (r1/L + r2/L = 1), so only the sphere rule tests it;
    ``backend`` names that one way and accepts only 'poisson'.

    One pass of cone cosines at the rule's boundary points serves both
    nappes; w(U) and w(V) are summed and clamped apart, with the bits of two
    ``cap_measure_poisson`` values.  Edge points score 1/2 in their nappe,
    so when the cone cosine is 0 a tie on the shared edge splits 1/2 : 1/2.
    """
    p = interior_point(ball, BallDomain, P)
    if not 0.0 < half_angle < 0.5 * math.pi:
        raise BadParameter("cone identity check expects half_angle in (0, pi/2)")
    if backend != "poisson":
        raise BadParameter("the cone identity is checked by the Poisson integral: "
                           "backend must be 'poisson'")
    cap = CapSpec(vertex=p, axis=axis, half_angle=half_angle)
    c = _edge_cosine(half_angle)
    rule = _placed_rule(ball, bq, measure_quadrature)
    xs = (p - ball.center) / ball.radius
    d = _cone_cosines(p, cap.axis, _boundary_points(ball, rule.directions))
    w_plus, w_minus = (
        fixed_sum(_indicator_terms(ball, xs, rule, _nappe_values(d, c, nappe))[1])
        for nappe in ("plus", "minus"))
    w_sum = _clamp_unit(w_plus) + _clamp_unit(w_minus)
    target = 2.0 * nappe_fraction(ball.dim, half_angle)
    return w_sum, target, abs(w_sum - target)


def center_of_mass_check(ball: BallDomain, P, axis, half_angle: float,
                         bq: BoundaryQuadrature | None = None):
    """Center of mass of the double-cone caps under the harmonic-measure
    density; returns (com, offset) where offset = |com - P|.  The mass and
    the moments are summed over the nodes inside the caps only."""
    p = interior_point(ball, BallDomain, P)
    rule = _placed_rule(ball, bq, measure_quadrature)
    cap_both = CapSpec(vertex=p, axis=axis, half_angle=half_angle, nappe="both")
    xs = (p - ball.center) / ball.radius
    ind = _boundary_values(ball, cap_indicator(cap_both, ball), rule)
    inside, density = _indicator_terms(ball, xs, rule, ind)
    del ind                     # the full-size values go before the gathers
    denom = fixed_sum(density)
    if denom < 1e-12:
        raise EmptyCap("cap carries no quadrature mass")
    moments = []
    for j in range(ball.dim):
        e = rule.directions[:, j][inside]
        moments.append(fixed_sum(np.multiply(e, density, out=e)))
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
