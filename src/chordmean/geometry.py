"""Domains, chords, direction quadratures, the disk involution, plane sections,
and the worker threads that run independent pieces of one call.

All points and directions are plain numpy float arrays; helpers accept any
sequence of reals. Everything here is a pure function of immutable inputs,
except the worker pool behind ``_in_parallel``.
"""

from __future__ import annotations

import cmath
import collections
import functools
import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameter,
    BadResolution,
    DegenerateDirection,
    DimMismatch,
    MissingSeed,
    NotStarShapedFromP,
    PointNotInterior,
)

INTERIOR_MARGIN = 1e-9          # required relative distance to the boundary
UNIT_TOL = 1e-9                 # tolerance on |e| = 1 for user-supplied directions
BOUNDARY_TOL = 1e-9             # relative tolerance of BallDomain.on_boundary

# Default node counts (2-D: directions or circle points; 3-D: polar nodes of
# the Gauss product): modest for smooth data, large for indicator data
# (deterministic rules see O(1/N) edge error on indicators).
SMOOTH_RES_2D = 4096
SMOOTH_RES_3D = 64
MEASURE_RES_2D = 2 ** 16
MEASURE_RES_3D = 256
# Largest resolution per scheme (nodes, Gauss polar rings, design rotations):
# no rule at its ceiling takes more than about 130 MB.
MAX_RESOLUTION = {"uniform_angle_2d": 2 ** 22, "gauss_product_3d": 2 ** 10,
                  "monte_carlo": 2 ** 22, "monte_carlo_design": 2 ** 19}

# Philox sub-stream indices (key = [seed, stream]) so every consumer of a seed
# draws from a disjoint counter-based stream.
STREAM_DIRECTIONS = 0
STREAM_TRAVELER_FULL = 1
STREAM_TRAVELER_PLANE = 2
STREAM_TRAVELER_LINE = 3


def philox_stream(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for (seed, stream); identical across runs.

    The seed is an integer with 0 <= seed < 2**64; anything else, a float
    included, raises BadParameter."""
    key = np.array([_count(seed, "seed", 0, 2 ** 64 - 1, BadParameter), stream],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _count(x, name: str, lo: int, hi: float, error=BadResolution) -> int:
    """x as an int from lo to hi through operator.index: Python and numpy
    integers, bool included; anything else, a whole float too, is ``error``."""
    try:
        n = operator.index(x)
    except TypeError:
        n = None
    if n is None or not lo <= n <= hi:
        raise error(f"{name} must be an integer from {lo} to {hi}, got {x!r}")
    return n


def _real(x, name: str) -> float:
    """x as a finite float: anything float() reads as one; else BadParameter."""
    try:
        v = float(x)
    except (TypeError, ValueError, OverflowError):
        raise BadParameter(f"{name} must be a float, got {x!r}") from None
    if not math.isfinite(v):
        raise BadParameter(f"non-finite {name}: {v!r}")
    return v


def _float_array(x, what: str) -> np.ndarray:
    """x as a 1-D float array, else BadParameter (an int past the float range too)."""
    try:
        return np.asarray(x, dtype=float).reshape(-1)
    except (TypeError, ValueError, OverflowError):
        raise BadParameter(f"{what} {x!r} is not a vector of reals") from None


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float array, optionally checking the dimension."""
    p = _float_array(x, "point")
    if dim is not None and p.size != dim:
        raise DimMismatch(f"expected a {dim}-vector, got length {p.size}")
    if p.size not in (1, 2, 3):
        raise DimMismatch(f"only dimensions 1..3 are supported, got {p.size}")
    if not all(map(math.isfinite, p.tolist())):
        raise BadParameter(f"point {p} has a non-finite coordinate")
    return p


def check_unit(e: np.ndarray, dim: int) -> np.ndarray:
    """e as a unit ``dim``-vector: DimMismatch for another length,
    DegenerateDirection unless |e| = 1 (NaN included)."""
    e = _float_array(e, "direction")
    if e.size != dim:
        raise DimMismatch(f"expected a {dim}-D direction, got length {e.size}")
    norm = np.linalg.norm(e)
    if not abs(norm - 1.0) <= UNIT_TOL:         # NaN fails too
        raise DegenerateDirection(f"direction norm {float(norm)!r} is not 1")
    return e


def point_norm(v: np.ndarray):
    """np.linalg.norm(v); a norm past the float range is inf, without numpy's
    overflow warning (a huge point is simply far outside every domain)."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(v)


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row dot products sum_j a[..., j] b[..., j] over a short last axis
    (other axes broadcast); ``row_dot(v, v)`` is the squared row norm.

    Added column by column, in the order np.sum(axis=-1) adds them, so the
    bits equal np.sum(a * b, axis=-1), but several times faster than a
    reduction over a last axis of length 2 or 3.
    """
    out = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        out += a[..., j] * b[..., j]
    return out


def _as_complex(z) -> complex:
    """z, a real or complex scalar or an (x, y) pair, as a finite complex."""
    try:
        if isinstance(z, (complex, float, int, np.complexfloating, np.floating,
                          np.integer)):
            c = complex(z)
        else:
            arr = np.asarray(z, dtype=float).reshape(-1)
            if arr.size != 2:
                raise DimMismatch("expected a complex number or an (x, y) pair")
            c = complex(arr[0], arr[1])
    except OverflowError:                   # a Python int past the float range
        raise BadParameter("complex input beyond the float range") from None
    if not cmath.isfinite(c):
        raise BadParameter(f"{c} is not a finite complex number")
    return c


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BallDomain:
    """Open ball |x - center| < radius in dimension 2 or 3 (1 for intervals)."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "radius", _real(self.radius, "ball radius"))
        if not self.radius > 0:
            raise BadParameter("ball radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.size

    def on_boundary(self, x) -> bool:
        r = point_norm(as_point(x, self.dim) - self.center)
        return abs(r - self.radius) <= BOUNDARY_TOL * self.radius

    def boundary_distance(self, x) -> float:
        return self.radius - float(point_norm(as_point(x, self.dim) - self.center))

    def require_interior(self, x) -> np.ndarray:
        p = as_point(x, self.dim)
        if self.boundary_distance(p) <= INTERIOR_MARGIN * self.radius:
            raise PointNotInterior(f"point {p} is not strictly inside the ball")
        return p

    def chord_roots(self, p: np.ndarray, dirs: np.ndarray):
        return ball_chord_roots(self, p, dirs)


@dataclass(frozen=True)
class Ellipse2D:
    """Axis-aligned ellipse ((x-cx)/A)^2 + ((y-cy)/B)^2 < 1; a disk iff A == B."""

    center: np.ndarray
    semi_axes: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center, 2))
        a, b = (_real(x, "ellipse semi-axis") for x in self.semi_axes)
        if not (a > 0 and b > 0):
            raise BadParameter("ellipse semi-axes must be positive")
        object.__setattr__(self, "semi_axes", (a, b))

    @property
    def dim(self) -> int:
        return 2

    def _scaled(self, x) -> np.ndarray:
        return (as_point(x, 2) - self.center) / np.asarray(self.semi_axes)

    def require_interior(self, x) -> np.ndarray:
        p = as_point(x, 2)
        if point_norm(self._scaled(p)) >= 1.0 - INTERIOR_MARGIN:
            raise PointNotInterior(f"point {p} is not strictly inside the ellipse")
        return p

    def chord_roots(self, p: np.ndarray, dirs: np.ndarray):
        return ellipse_chord_roots(self, p, dirs)


_STAR_THETAS = np.linspace(0.0, 2.0 * math.pi, 4096 + 1)


class StarDomain2D:
    """Planar domain star-shaped about the origin, with boundary given in
    polar form r = rho(theta) by a strictly positive 2*pi-periodic callable.
    A rho that does not take arrays of angles is applied elementwise.

    The boundary points rho(theta) (cos theta, sin theta) at the 4096 angles
    of ``_STAR_THETAS``, closed by 2 pi, are the table ``star_hits_batch`` reads.

    ``conformal(a)`` is the image of the unit disk under
    q(z) = a z^2 + z + a with 0 < a < 1/2 (univalent), whose boundary has the
    polar form r(theta) = 1 + 2 a cos(theta).
    """

    def __init__(self, rho):
        thetas = _STAR_THETAS[:-1]
        try:
            vals = np.asarray(rho(thetas), dtype=float)
        except (TypeError, ValueError):
            vals = None
        if vals is None or vals.shape != thetas.shape:
            rho = _elementwise(rho)
            vals = rho(thetas)
        if not np.all(vals > 0.0):
            raise BadParameter("rho must be strictly positive on [0, 2pi)")
        self._rho = rho
        self._table = np.append(vals, vals[0]) * np.array([np.cos(_STAR_THETAS),
                                                           np.sin(_STAR_THETAS)])

    @classmethod
    def conformal(cls, a: float) -> "StarDomain2D":
        a = _real(a, "conformal coefficient")
        if not 0.0 < a < 0.5:
            raise BadParameter("conformal coefficient must satisfy 0 < a < 1/2")
        return cls(lambda t: 1.0 + 2.0 * a * np.cos(t))

    @property
    def dim(self) -> int:
        return 2

    def boundary_radius(self, theta):
        """rho at an angle or, elementwise, at an array of angles."""
        return self._rho(theta)

    def require_interior(self, x) -> np.ndarray:
        p = as_point(x, 2)
        r = float(point_norm(p))
        rho = float(self._rho(math.atan2(p[1], p[0])))
        if r >= rho * (1.0 - INTERIOR_MARGIN):
            raise PointNotInterior(f"point {p} is not strictly inside the star domain")
        return p

    def chord_roots(self, p: np.ndarray, dirs: np.ndarray):
        # One call, so one boundary table serves both ends of every chord.
        t = star_hits_batch(self, p, np.concatenate([dirs, -dirs]))
        return -t[len(dirs):], t[:len(dirs)]


def _elementwise(rho):
    """A scalar-only rho, applied to every element of an array of angles."""
    def rho_array(theta):
        theta = np.asarray(theta, dtype=float)
        return np.array([float(rho(t)) for t in theta.ravel()]).reshape(theta.shape)
    return rho_array


# ---------------------------------------------------------------------------
# Chords
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chord:
    """Line through ``base`` along ``direction`` with boundary hits at t=a<0 and t=b>0."""

    base: np.ndarray
    direction: np.ndarray
    t_neg: float
    t_pos: float

    @property
    def q1(self) -> np.ndarray:
        return self.base + self.t_neg * self.direction

    @property
    def q2(self) -> np.ndarray:
        return self.base + self.t_pos * self.direction

    @property
    def r1(self) -> float:
        return -self.t_neg

    @property
    def r2(self) -> float:
        return self.t_pos


def ball_chord_roots(ball: BallDomain, p: np.ndarray, dirs: np.ndarray):
    """Roots (a, b) of |p + t e - c|^2 = R^2 for each row e of ``dirs``.

    Vectorized core; assumes p strictly interior and unit rows.
    a < 0 < b and a*b = |p - c|^2 - R^2 for every direction.  A (K, dim)
    ``p`` holds one base point per row and gives (K, N) roots.
    """
    d = p - ball.center
    if d.ndim == 1:
        beta = dirs @ d
        gamma = float(d @ d) - ball.radius ** 2
    else:
        beta = d @ dirs.T
        gamma = np.sum(d * d, axis=1, keepdims=True) - ball.radius ** 2
    s = np.sqrt(beta * beta - gamma)
    return -beta - s, -beta + s


def ellipse_chord_roots(ellipse: Ellipse2D, p: np.ndarray, dirs: np.ndarray):
    """Roots (a, b) of the ellipse quadratic along p + t e for each row of ``dirs``."""
    ax = np.asarray(ellipse.semi_axes)
    u = (p - ellipse.center) / ax
    v = dirs / ax
    alpha = row_dot(v, v)
    beta = v @ u
    gamma = float(u @ u) - 1.0
    s = np.sqrt(beta * beta - alpha * gamma)
    return (-beta - s) / alpha, (-beta + s) / alpha


# A ray takes at most as many rho evaluations as a bisection's 53 midpoints.
# After m of them its bracket is at most 2^(11 - m) table steps wide, so
# 2^-42 of a step (3.5e-16) after the last; a ray stops at that width too.
_STAR_MAX_RHO = 53
_STAR_SLACK = 11
_STAR_STEP = float(np.max(np.diff(_STAR_THETAS)))
_STAR_TOL = math.ldexp(_STAR_STEP, _STAR_SLACK - _STAR_MAX_RHO)


def _view(wx, wy, x, y):
    """Angle of (x, y) seen from the unit direction w, in (-pi, pi]."""
    return np.arctan2(wx * y - wy * x, wx * x + wy * y)


def star_hits_batch(domain: StarDomain2D, p: np.ndarray, dirs: np.ndarray
                    ) -> np.ndarray:
    """Forward ray/boundary hit distances for each direction row.

    P sees the boundary point B(theta) at the angle phi(theta) = arg(B - P),
    and the domain is star-shaped from P exactly when phi increases through
    one turn.  phi on the domain's boundary table gives each direction's
    bracket [theta_k, theta_k+1], on which g(theta) = view(B(theta) - P) -
    view(e) has one root; view is the angle seen from the bracket's bisector
    w = (cos, sin)((phi_k + phi_k+1) / 2), so g stays inside (-pi, pi) on
    every bracket, also one that spans more than pi (P between a table chord
    and its arc).  Illinois steps solve g = 0 on the rays still open; each
    step is kept within a radius of the midpoint that shrinks as bisection
    would, but for a slack of 11 halvings (the ITP method's projection), so
    no ray takes more than ``_STAR_MAX_RHO`` rho evaluations.  A ray stops
    when its next angle is an end of its bracket or the bracket is
    ``_STAR_TOL`` wide; its hit distance is (B(theta) - P) . e at that end.
    Raises NotStarShapedFromP, whatever the directions, when phi on the
    table is not strictly increasing through one turn.
    """
    bx, by = domain._table - p[:, np.newaxis]
    # phi taken increasing: a turn is added at each step back, arctan2's wrap included
    phi = np.arctan2(by, bx)
    phi += 2.0 * math.pi * np.cumsum(np.diff(phi, prepend=phi[0]) < 0.0)
    if not (np.all(np.diff(phi) > 0.0) and abs(phi[-1] - phi[0] - 2.0 * math.pi) < 1.0):
        raise NotStarShapedFromP(f"the domain is not star-shaped from {p}: seen from "
                                 "it, the boundary does not turn once in one sense")
    ex, ey = dirs[:, 0], dirs[:, 1]
    alpha = phi[0] + np.mod(np.arctan2(ey, ex) - phi[0], 2.0 * math.pi)
    k = np.minimum(np.searchsorted(phi, alpha, side="right"), phi.size - 1)
    mid = 0.5 * (phi[k - 1] + phi[k])
    wx, wy = np.cos(mid), np.sin(mid)
    beta = _view(wx, wy, ex, ey)
    # One row per quantity, one column per open ray: the bracket's ends with
    # their g and hit distances, the ray's constants, and the end last moved.
    state = np.stack([_STAR_THETAS[k - 1], _STAR_THETAS[k],
                      _view(wx, wy, bx[k - 1], by[k - 1]) - beta,
                      _view(wx, wy, bx[k], by[k]) - beta,
                      bx[k - 1] * ex + by[k - 1] * ey, bx[k] * ex + by[k] * ey,
                      wx, wy, beta, ex, ey, np.zeros(len(dirs))])
    ray = np.arange(len(dirs))
    out = np.empty(len(dirs))
    for j in range(_STAR_MAX_RHO + 1):
        lo, hi, g_lo, g_hi, t_lo, t_hi = state[:6]
        x = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        half = 0.5 * (hi - lo)
        reach = math.ldexp(_STAR_STEP, _STAR_SLACK - 1 - j) - half
        np.clip(x, lo + half - reach, lo + half + reach, out=x)
        stop = ~((lo < x) & (x < hi)) | (hi - lo <= _STAR_TOL) | (j == _STAR_MAX_RHO)
        if np.any(stop):
            out[ray[stop]] = np.where(x[stop] <= lo[stop], t_lo[stop], t_hi[stop])
            if np.all(stop):
                break
            state, x, ray = state[:, ~stop], x[~stop], ray[~stop]
        lo, hi, g_lo, g_hi, t_lo, t_hi, wx, wy, beta, ex, ey, side = state
        rad = domain.boundary_radius(x)
        bx, by = rad * np.cos(x) - p[0], rad * np.sin(x) - p[1]
        g = _view(wx, wy, bx, by) - beta
        up = g >= 0.0
        # Illinois: an end kept a second time running counts at half its g
        np.multiply(g_lo, 0.5, out=g_lo, where=up & (side > 0.0))
        np.multiply(g_hi, 0.5, out=g_hi, where=~up & (side < 0.0))
        t = bx * ex + by * ey
        for end, g_end, t_end, here in ((hi, g_hi, t_hi, up), (lo, g_lo, t_lo, ~up)):
            np.copyto(end, x, where=here)
            np.copyto(g_end, g, where=here)
            np.copyto(t_end, t, where=here)
        np.copyto(side, np.where(up, 1.0, -1.0))
    return out


_NO_RULE = object()      # interior_point's dq for a solve that takes no rule


def interior_point(domain, kinds, P, dq=_NO_RULE) -> np.ndarray:
    """The one input check of every solve: ``domain`` must be one of the
    types ``kinds``, P strictly inside it, and ``dq``, for a solve that takes
    a rule, a DirectionQuadrature of its dimension.  Returns P as an array.

    Every domain type offers ``dim``, ``require_interior(P)`` and
    ``chord_roots(p, dirs)``: the chord parameters a < 0 < b along each unit
    row of ``dirs``.
    """
    if not isinstance(domain, kinds):
        kinds = kinds if isinstance(kinds, tuple) else (kinds,)
        names = " or ".join(k.__name__ for k in kinds)
        raise BadParameter(f"expected a {names}, got {type(domain).__name__}")
    p = domain.require_interior(P)
    if dq is not _NO_RULE and not isinstance(dq, DirectionQuadrature):
        raise BadParameter(f"expected a DirectionQuadrature, got {type(dq).__name__}")
    if dq is not _NO_RULE and dq.dim != domain.dim:
        raise DimMismatch(f"{dq.dim}-D direction rule for a {domain.dim}-D domain")
    return p


def chord_through(domain, P, e) -> Chord:
    """Chord of ``domain`` through interior point P along unit direction e."""
    p = interior_point(domain, (BallDomain, Ellipse2D, StarDomain2D), P)
    e = check_unit(e, domain.dim)
    a, b = domain.chord_roots(p, e[np.newaxis, :])
    a, b = float(a[0]), float(b[0])
    if not a < 0.0 < b:
        raise PointNotInterior("chord roots do not bracket the base point")
    return Chord(base=p, direction=e, t_neg=a, t_pos=b)


def ray_hit_star(domain: StarDomain2D, P, e):
    """First boundary hit of the ray {P + t e : t > 0} of a 2-D star domain,
    as (hit point, t): one row of ``star_hits_batch``, so any e raises
    NotStarShapedFromP when the domain is not star-shaped from P."""
    p = interior_point(domain, StarDomain2D, P)
    e = check_unit(e, 2)
    t = float(star_hits_batch(domain, p, e[np.newaxis, :])[0])
    return p + t * e, t


# ---------------------------------------------------------------------------
# Direction quadratures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirectionQuadrature:
    """Weighted unit directions representing the normalized sphere measure.

    Rules from the builders are shared: building the same rule again returns
    the same object, and its arrays are read-only.
    """

    directions: np.ndarray          # (N, dim)
    weights: np.ndarray             # (N,), sums to 1
    scheme: str
    resolution: int
    seed: int | None = None

    def __post_init__(self):
        """Refuse what no builder makes: an unknown scheme, a resolution or
        seed its reader refuses, and shapes that disagree with each other or
        with the scheme's node count (N for uniform angles and Monte Carlo,
        2 res^2 for the Gauss product, 6 res for the design)."""
        res = _count(self.resolution, "resolution", 1, MAX_RESOLUTION[_known_scheme(self.scheme)])
        object.__setattr__(self, "resolution", res)
        object.__setattr__(self, "seed", _scheme_seed(self.scheme, self.seed))
        shape = np.shape(self.directions)
        if len(shape) != 2 or shape[1] not in (2, 3) or np.shape(self.weights) != shape[:1]:
            raise BadParameter(f"{shape} directions with {np.shape(self.weights)} weights")
        n = {"gauss_product_3d": 2 * res ** 2, "monte_carlo_design": 6 * res}.get(self.scheme, res)
        if shape[0] != n:
            raise BadResolution(f"{self.scheme} at resolution {res} has {n} nodes, not {shape[0]}")

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

    def __len__(self) -> int:
        return self.directions.shape[0]

    @property
    def half_nodes(self) -> slice | None:
        """Which of this rule's own nodes form its half rule: a prefix for the
        Monte Carlo schemes, every other node for uniform angles with even N
        (the N/2 rule's angles, see ``_circle_nodes``), None for odd N and the
        Gauss product (its half rule has other polar nodes)."""
        n = len(self)
        if self.scheme == "monte_carlo":
            return slice(0, max(n // 2, 1))
        if self.scheme == "monte_carlo_design":
            return slice(0, 6 * max(n // 12, 1))   # keep whole rotated axis sets
        if self.scheme == "uniform_angle_2d" and n % 2 == 0:
            return slice(None, None, 2)
        return None

    def half_resolution(self) -> "DirectionQuadrature":
        """Coarser companion rule used for a-posteriori error estimates: the
        ``half_nodes`` with equal weights when set, else the rule built at
        half the resolution."""
        nodes = self.half_nodes
        if nodes is None:
            return _build(self.dim, self.scheme, max(self.resolution // 2, 2), self.seed)
        dirs = self.directions[nodes]
        n = len(dirs)
        resolution = n // 6 if self.scheme == "monte_carlo_design" else n
        return read_only(DirectionQuadrature(dirs, np.full(n, 1.0 / n), self.scheme,
                                             resolution, self.seed))


_MC_SCHEMES = ("monte_carlo", "monte_carlo_design")


def _known_scheme(scheme) -> str:
    """The scheme, which must be one of the names in MAX_RESOLUTION."""
    if not isinstance(scheme, str) or scheme not in MAX_RESOLUTION:
        raise BadParameter(f"unknown direction scheme {scheme!r}")
    return scheme


def _scheme_seed(scheme: str, seed) -> int | None:
    """The seed as an int from 0 to 2^64 - 1, or None: the Monte Carlo
    schemes need one and the deterministic ones refuse one."""
    if seed is not None:
        seed = _count(seed, "seed", 0, 2 ** 64 - 1, BadParameter)
    if scheme in _MC_SCHEMES and seed is None:
        raise MissingSeed("Monte Carlo schemes require a seed")
    if scheme not in _MC_SCHEMES and seed is not None:
        raise BadParameter(f"{scheme} is deterministic and takes no seed")
    return seed


def read_only(rule):
    """Mark a rule's arrays read-only, so a shared rule cannot be altered."""
    rule.directions.flags.writeable = False
    rule.weights.flags.writeable = False
    return rule


def _circle_nodes(n: int) -> np.ndarray:
    """n equally spaced unit vectors (cos t, sin t), t = 2 pi k / n.

    For even n the second half is the exact negation of the first, so node
    k + n/2 is the antipode of node k bit for bit, and every other node holds
    the n/2 rule's angles: bit for bit when n/2 is even; for odd n/2 those
    past pi are rounded as negations, within 1.1e-15 of that rule's own.
    """
    thetas = 2.0 * math.pi * np.arange(n if n % 2 else n // 2) / n
    nodes = np.column_stack([np.cos(thetas), np.sin(thetas)])
    return nodes if n % 2 else np.concatenate([nodes, -nodes])


def _gauss_product_nodes(n_polar: int):
    """Unit directions and weights of the Gauss product: n_polar
    Gauss-Legendre polar nodes times m = 2*n_polar equal azimuths, N = n_polar*m.

    The first N/2 rows are rings i < n_polar/2 with every azimuth, ring-major
    (and for odd n_polar the first n_polar azimuths of the equatorial ring);
    the last N/2 rows are those rows negated, so row k + N/2 is the antipode
    of row k bit for bit, and the weights repeat.  ``leggauss`` is symmetric
    bit for bit (x[::-1] == -x, w[::-1] == w), so the negation of ring i,
    azimuth j is node (n_polar-1-i, (j + n_polar) mod m) to rounding of the
    azimuths (within 1.5e-15 for n_polar <= 512), with the same weight.
    """
    x, w = np.polynomial.legendre.leggauss(n_polar)
    m = 2 * n_polar
    phi = 2.0 * math.pi * np.arange(m) / m
    sin_t = np.sqrt(1.0 - x * x)
    h = n_polar * n_polar                     # N/2
    rings = (n_polar + 1) // 2                # an odd product's equator included:
    k = rings * m                             # its last n_polar rows are overwritten
    dirs = np.empty((2 * h, 3))
    weights = np.empty(2 * h)
    dirs[:k, 0] = np.outer(sin_t[:rings], np.cos(phi)).ravel()
    dirs[:k, 1] = np.outer(sin_t[:rings], np.sin(phi)).ravel()
    dirs[:k, 2] = np.repeat(x[:rings], m)
    weights[:k] = np.repeat(w[:rings] / 2.0, m) / m
    np.negative(dirs[:h], out=dirs[h:])
    weights[h:] = weights[:h]
    return dirs, weights


def _uniform_angle_2d(n: int) -> DirectionQuadrature:
    return DirectionQuadrature(_circle_nodes(n), np.full(n, 1.0 / n), "uniform_angle_2d", n)


def _gauss_product_3d(n_polar: int) -> DirectionQuadrature:
    dirs, weights = _gauss_product_nodes(n_polar)
    return DirectionQuadrature(dirs, weights, "gauss_product_3d", n_polar)


def uniform_directions(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n independent uniform unit vectors: normalized Gaussian rows."""
    g = rng.standard_normal((n, dim))
    norm = np.sqrt(row_dot(g, g))
    for j in range(dim):                # a column at a time: rows of 2-3 are slow
        g[:, j] /= norm
    return g


def _monte_carlo(dim: int, n: int, seed: int) -> DirectionQuadrature:
    dirs = uniform_directions(philox_stream(seed, STREAM_DIRECTIONS), n, dim)
    return DirectionQuadrature(dirs, np.full(n, 1.0 / n), "monte_carlo", n, seed)


# The six icosahedral axes form a spherical 5-design: their average integrates
# every spherical harmonic of degree 1..5 to zero exactly.
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
_ICOSA_AXES = np.array([
    [0.0, 1.0, _GOLDEN], [0.0, 1.0, -_GOLDEN],
    [1.0, _GOLDEN, 0.0], [1.0, -_GOLDEN, 0.0],
    [_GOLDEN, 0.0, 1.0], [-_GOLDEN, 0.0, 1.0],
]) / math.sqrt(1.0 + _GOLDEN ** 2)


def _quaternion_rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    """n Haar-uniform rotation matrices from unit quaternions (no LAPACK)."""
    w, x, y, z = uniform_directions(rng, n, 4).T
    rot = np.empty((n, 3, 3))
    rot[:, 0, 0] = 1 - 2 * (y * y + z * z)
    rot[:, 0, 1] = 2 * (x * y - w * z)
    rot[:, 0, 2] = 2 * (x * z + w * y)
    rot[:, 1, 0] = 2 * (x * y + w * z)
    rot[:, 1, 1] = 1 - 2 * (x * x + z * z)
    rot[:, 1, 2] = 2 * (y * z - w * x)
    rot[:, 2, 0] = 2 * (x * z - w * y)
    rot[:, 2, 1] = 2 * (y * z + w * x)
    rot[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return rot


def _monte_carlo_design(n_rotations: int, seed: int) -> DirectionQuadrature:
    """Randomly rotated copies of the icosahedral axis set: 6 directions per draw.

    Unbiased over the sphere, and each rotated copy integrates spherical
    harmonics of degree <= 5 exactly, which sharply cuts the variance of
    plane-averaging estimators compared with independent normals.
    """
    rng = philox_stream(seed, STREAM_DIRECTIONS)
    rot = _quaternion_rotations(rng, n_rotations)
    dirs = (rot @ _ICOSA_AXES.T).transpose(0, 2, 1).reshape(-1, 3)
    n = dirs.shape[0]
    return DirectionQuadrature(dirs, np.full(n, 1.0 / n), "monte_carlo_design",
                               n_rotations, seed)


# Built rules are shared: the builders return the same read-only rule for the
# same key from a small least-recently-used cache.
RULE_CACHE_SIZE = 16


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def _build(dim, scheme, resolution, seed) -> DirectionQuadrature:
    return read_only(_construct(dim, scheme, resolution, seed))


def _construct(dim, scheme, resolution, seed) -> DirectionQuadrature:
    if scheme == "uniform_angle_2d":
        if dim != 2:
            raise BadParameter("uniform_angle_2d requires dim=2")
        return _uniform_angle_2d(resolution)
    if scheme == "gauss_product_3d":
        if dim != 3:
            raise BadParameter("gauss_product_3d requires dim=3")
        return _gauss_product_3d(resolution)
    if scheme == "monte_carlo":
        return _monte_carlo(dim, resolution, seed)
    if scheme == "monte_carlo_design":
        if dim != 3:
            raise BadParameter("monte_carlo_design requires dim=3")
        return _monte_carlo_design(resolution, seed)
    raise BadParameter(f"unknown direction scheme {scheme!r}")


def build_direction_quadrature(dim: int, scheme: str, resolution: int,
                               seed: int | None = None) -> DirectionQuadrature:
    """Weighted unit-direction set for the normalized measure on S^{dim-1}.

    uniform_angle_2d: ``resolution`` equally spaced angles, weight 1/N.
    gauss_product_3d: ``resolution`` Gauss-Legendre polar nodes times
        2*resolution uniform azimuths; exact for spherical harmonics of
        degree <= 2*resolution - 1.
    monte_carlo: ``resolution`` normalized Gaussian vectors from the
        counter-based stream (seed, STREAM_DIRECTIONS); weight 1/N.
    monte_carlo_design (3-D): ``resolution`` random rotations of the
        icosahedral axis set (6 directions each); unbiased, variance-reduced
        for plane averaging.
    The Monte Carlo schemes need a seed; the deterministic ones refuse one.
    A scheme not named in ``MAX_RESOLUTION`` (or not a ``str``) raises
    BadParameter, a resolution below 4 or above ``MAX_RESOLUTION[scheme]``
    BadResolution.

    The rule is shared, not copied: the last RULE_CACHE_SIZE rules built are
    kept by (dim, scheme, resolution, seed), and their arrays are read-only.
    The cache is bounded by count, not bytes: one 512-polar 3-D rule is
    16.8 MB, and 16 rules of that size would hold about 270 MB.
    """
    dim = _count(dim, "dim", 2, 3, DimMismatch)
    resolution = _count(resolution, "resolution", 4, MAX_RESOLUTION[_known_scheme(scheme)])
    seed = _scheme_seed(scheme, seed)   # read before the cache, where 7.0 == 7
    return _build(dim, scheme, resolution, seed)


def default_direction_quadrature(dim: int, resolution: int | None = None
                                 ) -> DirectionQuadrature:
    """Deterministic default: uniform angles in 2-D, Gauss product in 3-D.

    The one discretisation of the sphere: boundary quadratures are these
    rules placed on a ball.
    """
    if _count(dim, "dim", 2, 3, DimMismatch) == 2:
        scheme, default = "uniform_angle_2d", SMOOTH_RES_2D
    else:
        scheme, default = "gauss_product_3d", SMOOTH_RES_3D
    return build_direction_quadrature(dim, scheme,
                                      default if resolution is None else resolution)


def measure_rule(dim: int) -> DirectionQuadrature:
    """Default high-resolution rule for indicator (harmonic measure) work."""
    return default_direction_quadrature(dim, MEASURE_RES_2D if dim == 2 else MEASURE_RES_3D)


# ---------------------------------------------------------------------------
# Disk involution
# ---------------------------------------------------------------------------

def mobius_involution(P, z) -> complex:
    """J_P(z) = (P - z)/(1 - conj(P) z), the chord involution of the unit circle.

    Defined for |P| < 1; an involution of the circle that also swaps 0 and P
    (the off-circle evaluations used by the moment identities).
    """
    p = _as_complex(P)
    if abs(p) >= 1.0:
        raise PointNotInterior("P must lie in the open unit disk")
    w = _as_complex(z)
    return (p - w) / (1.0 - p.conjugate() * w)


# ---------------------------------------------------------------------------
# Plane sections of a 3-ball
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaneSections:
    """Sections of a 3-ball by K planes through one interior point, row k
    for normal k: centers (K, 3), radii (K,), in-plane axes u and v (K, 3)
    and the point's in-plane coordinates ``base2d`` (K, 2)."""

    center3d: np.ndarray
    radius: np.ndarray
    u: np.ndarray
    v: np.ndarray
    base2d: np.ndarray

    def to_3d(self, xi: np.ndarray) -> np.ndarray:
        """3-D points of in-plane coordinates xi (K, ..., 2) scaled by each
        section's radius: center + radius * (xi_0 u + xi_1 v), per row k.

        Each coordinate is built as one contiguous array, with the same
        operations in the same order; the (K, ..., 3) result is a view of
        the (3, K, ...) block, so its columns stay contiguous after a
        ``reshape(-1, 3)``.
        """
        rows = (slice(None),) + (np.newaxis,) * (xi.ndim - 2)
        x0, x1, r = xi[..., 0], xi[..., 1], self.radius[rows]
        out = np.empty((3,) + np.broadcast_shapes(x0.shape, r.shape))
        for j, coord in enumerate(out):
            np.multiply(x0, self.u[rows + (j,)], out=coord)
            coord += x1 * self.v[rows + (j,)]
            coord *= r
            coord += self.center3d[rows + (j,)]
        return np.moveaxis(out, 0, -1)


def plane_sections(ball: BallDomain, p: np.ndarray, normals: np.ndarray
                   ) -> PlaneSections:
    """Sections of a 3-ball by the planes through p with the unit normal rows.

    Vectorized core; assumes p strictly interior and unit rows.  Centres,
    frames and ``base2d`` are built as (3, K) and (2, K) blocks of contiguous
    coordinate columns, and the fields are (K, 3) and (K, 2) views of them.
    """
    # on the normals as given, since numpy's matmul rounds by layout
    d_signed = (ball.center - p) @ normals.T
    n = normals.T.copy()                            # (3, K), reused for the base points
    radius = np.sqrt(ball.radius ** 2 - d_signed ** 2)
    center3d = ball.center[:, np.newaxis] - d_signed * n
    # per-column deterministic frame (Gram-Schmidt of the smallest-|component|
    # axis, the first one on ties, as np.argmin takes it)
    a = np.abs(n)
    cols = n.shape[1]
    # flat indices into the (3, K) blocks of each column's axis entry
    at = np.where(a[2] < np.minimum(a[0], a[1]), 2, a[1] < a[0]) * cols + np.arange(cols)
    del a                                           # one block fewer at the peak
    u = -n.reshape(-1)[at] * n
    u.reshape(-1)[at] += 1.0
    u /= np.sqrt(row_dot(u.T, u.T))
    v = np.empty_like(u)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):  # v = n x u, as np.cross
        np.multiply(n[j], u[k], out=v[i])
        v[i] -= n[k] * u[j]
    base = np.subtract(p[:, np.newaxis], center3d, out=n)
    base2d = np.stack([row_dot(base.T, u.T), row_dot(base.T, v.T)])
    return PlaneSections(center3d.T, radius, u.T, v.T, base2d.T)


def plane_section(ball: BallDomain, P, normal) -> PlaneSections:
    """Section of a 3-ball by the plane through P with the given unit normal,
    as the one-row ``plane_sections``."""
    p = interior_point(ball, BallDomain, P)
    if ball.dim != 3:
        raise DimMismatch("plane_section requires a 3-dimensional ball")
    return plane_sections(ball, p, check_unit(normal, 3)[np.newaxis, :])


# ---------------------------------------------------------------------------
# Worker threads for the independent pieces of one call
# ---------------------------------------------------------------------------

def _row_blocks(n: int, rows: int) -> list[slice]:
    """Contiguous slices of ``rows`` rows covering range(n) in order.  A
    remainder shorter than ``rows`` joins the last slice, so no slice is
    shorter than ``rows`` unless it is the whole range."""
    edges = [*range(0, n - rows + 1, rows)] or [0]
    return [slice(start, stop) for start, stop in zip(edges, edges[1:] + [n])]


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                  # no affinity call on this platform
        return os.cpu_count() or 1


def _parallel_blocks(n: int, min_rows: int) -> list[slice]:
    """``_row_blocks`` of range(n) for ``_in_parallel``: one block per usable
    CPU, none shorter than ``min_rows`` rows unless it is the whole range."""
    return _row_blocks(n, max(min_rows, n // _usable_cpus()))


class _Task:
    """A no-argument callable, run once by whichever thread claims it first."""

    __slots__ = ("fn", "claimed", "done", "result", "error")

    def __init__(self, fn):
        self.fn = fn
        self.claimed = threading.Lock()
        self.done = threading.Event()
        self.result = self.error = None

    def run(self) -> None:
        if not self.claimed.acquire(blocking=False):
            return                          # another thread has it
        try:
            self.result = self.fn()
        except BaseException as exc:        # raised again by _in_parallel's caller
            self.error = exc
        finally:
            self.fn = None
            self.done.set()


def _run_unclaimed(tasks) -> None:
    for task in tasks:
        task.run()


class _Pool:
    """Daemon threads that run queued jobs in the order they were queued."""

    def __init__(self):
        self.jobs = collections.deque()
        self.queued = threading.Semaphore(0)
        self.threads = 0

    def grow(self, n: int) -> None:
        while self.threads < n:
            threading.Thread(target=self._work, name="chordmean-worker",
                             daemon=True).start()
            self.threads += 1

    def submit(self, job) -> None:
        self.jobs.append(job)
        self.queued.release()

    def _work(self) -> None:
        _WORKER.inside = True
        while True:
            self.queued.acquire()
            self.jobs.popleft()()


_WORKER = threading.local()     # ``inside`` is set on the pool's own threads
_POOL: _Pool | None = None
_POOL_LOCK = threading.Lock()


def _forget_pool() -> None:
    """In a forked child: the parent's workers do not exist there."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _in_parallel(tasks) -> list:
    """The results of the no-argument callables ``tasks``, in task order.

    The caller runs the first task itself, then any other not yet started.
    Up to (usable CPUs - 1) workers of a persistent pool of daemon threads,
    started on first use, take the others, each the next one not yet
    started.  Every task finishes before the exception of the first failing
    task, in task order, is raised.  With one usable CPU or one task, and in
    a call made on a worker thread (so that no worker waits on the pool), it
    is a plain loop.  numpy releases the interpreter lock in its array
    loops, random draws and matrix products, which is where the tasks
    overlap, so they must not write to shared state.
    """
    global _POOL
    tasks = list(tasks)
    workers = min(_usable_cpus(), len(tasks)) - 1
    if workers < 1 or getattr(_WORKER, "inside", False):
        return [task() for task in tasks]
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = _Pool()
        _POOL.grow(workers)
        pool = _POOL
    claims = [_Task(task) for task in tasks]
    for _ in range(workers):
        pool.submit(functools.partial(_run_unclaimed, claims[1:]))
    _run_unclaimed(claims)
    for claim in claims:
        claim.done.wait()
    for claim in claims:
        if claim.error is not None:
            raise claim.error
    return [claim.result for claim in claims]
