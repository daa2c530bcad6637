"""Boundary data on domain boundaries: harmonic and biharmonic polynomial
families with exact gradients, cap indicators, and wrappers for user callables.

Harmonic bases are explicit monomial tables with rational coefficients
(2-D: Re z^m / Im z^m; 3-D: solid harmonics up to degree 6), generated once
by an exact integer recurrence, so values and gradients carry no
special-function error.

A polynomial is evaluated on one power table per call: x_j^e for e up to the
largest exponent of coordinate j, each power the previous one times x_j. Every
term reads its powers from the table, and a gradient evaluates all partials on
the table of the polynomial, whose exponents bound theirs. Values are within a
few ulps of the sum of |c x^e| over the terms.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BadIndex,
    BadParameter,
    DimMismatch,
    UnsupportedDegree,
)
from .geometry import (BallDomain, _count, _real, as_point, borrow, check_unit, interior_point,
                       park, row_dot)

MAX_DEGREE = 6


# ---------------------------------------------------------------------------
# Monomial-table polynomials
# ---------------------------------------------------------------------------

class _Poly:
    """Polynomial as {exponent tuple: coefficient}; evaluates on (..., dim).

    Each term c x^a y^b z^c is multiplied left to right from the power table,
    and the terms are added in dict order.
    """

    __slots__ = ("dim", "terms", "top", "_plan")

    def __init__(self, dim: int, terms: dict):
        self.dim = dim
        self.terms = {e: float(c) for e, c in terms.items() if c != 0}
        self.top = tuple(max((e[j] for e in self.terms), default=0)
                         for j in range(dim))
        self._plan = tuple((c, tuple((j, k) for j, k in enumerate(exps) if k))
                           for exps, c in self.terms.items())

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        out = np.empty(pts.shape[:-1])
        _evaluate(pts, self.top, [(self, out)])
        return out

    def partial(self, j: int) -> "_Poly":
        terms = {}
        for exps, c in self.terms.items():
            if exps[j]:
                e = list(exps)
                e[j] -= 1
                key = tuple(e)
                terms[key] = terms.get(key, 0.0) + c * exps[j]
        return _Poly(self.dim, terms)

    def laplacian(self) -> "_Poly":
        terms = {}
        for j in range(self.dim):
            second = self.partial(j).partial(j)
            for exps, c in second.terms.items():
                terms[exps] = terms.get(exps, 0.0) + c
        return _Poly(self.dim, terms)

    def scaled(self, s: float) -> "_Poly":
        return _Poly(self.dim, {e: c * s for e, c in self.terms.items()})

    def plus(self, other: "_Poly") -> "_Poly":
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0.0) + c
        return _Poly(self.dim, terms)

    def times(self, other: "_Poly") -> "_Poly":
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, 0.0) + c1 * c2
        return _Poly(self.dim, terms)


def _evaluate(pts: np.ndarray, top, targets) -> None:
    """Write each polynomial of the (poly, out) pairs ``targets`` at pts into
    its out, from one power table in the thread's scratch: x_j^e for e up to
    top[j], each power the previous one times x_j."""
    shape = pts.shape[:-1]
    blocks = [borrow(("powers", j), (max(m - 1, 0),) + shape) for j, m in enumerate(top)]
    table = [[None, pts[..., j]] for j in range(len(top))]      # index 0 is unused
    for row, block in zip(table, blocks):
        for i in range(len(block)):                         # block[i, ...] stays an array
            row.append(np.multiply(row[-1], row[1], out=block[i, ...]))
    term = borrow("term", shape)
    for poly, out in targets:
        out[...] = 0.0
        for c, factors in poly._plan:
            if not factors:
                out += c
                continue
            (j, k), *rest = factors
            np.multiply(c, table[j][k], out=term)
            for j, k in rest:
                np.multiply(term, table[j][k], out=term)
            out += term
    park("term", term)
    for j, block in enumerate(blocks):
        park(("powers", j), block)


def _circle_power(k: int):
    """Exact monomial expansions of Re((x+iy)^k) and Im((x+iy)^k)."""
    re: dict = {}
    im: dict = {}
    for j in range(k + 1):
        c = Fraction(math.comb(k, j))
        key = (k - j, j)
        if j % 4 == 0:
            re[key] = re.get(key, 0) + c
        elif j % 4 == 1:
            im[key] = im.get(key, 0) + c
        elif j % 4 == 2:
            re[key] = re.get(key, 0) - c
        else:
            im[key] = im.get(key, 0) - c
    return re, im


def _basis_2d(m: int, k: str) -> _Poly:
    re, im = _circle_power(m)
    return _Poly(2, re if k == "re" else im)


def _basis_3d(m: int, k: int) -> _Poly:
    """Solid harmonic of degree m: body(z, x^2+y^2) times Re/Im((x+iy)^|k|).

    The body coefficients follow the exact recurrence forced by harmonicity;
    a_0 = 1 so the leading term is z^(m-|k|) times the angular factor.
    """
    kk = abs(k)
    re, im = _circle_power(kk)
    angular = re if k >= 0 else im
    p = m - kk
    body: dict = {}
    a = Fraction(1)
    for j in range(p // 2 + 1):
        for i in range(j + 1):
            key = (2 * i, 2 * (j - i), p - 2 * j)
            body[key] = body.get(key, 0) + a * math.comb(j, i)
        a *= Fraction(-(p - 2 * j) * (p - 2 * j - 1), 4 * (j + 1) * (j + kk + 1))
    terms: dict = {}
    for (bx, by, bz), bc in body.items():
        for (ax, ay), ac in angular.items():
            key = (bx + ax, by + ay, bz)
            terms[key] = terms.get(key, 0) + bc * ac
    return _Poly(3, terms)


_BASIS_CACHE: dict = {}


def _basis(dim: int, m: int, k) -> _Poly:
    key = (dim, m, k)
    if key not in _BASIS_CACHE:
        _BASIS_CACHE[key] = _basis_2d(m, k) if dim == 2 else _basis_3d(m, k)
    return _BASIS_CACHE[key]


def _check_index(dim: int, m, k) -> int:
    """m as an int, once (dim, m, k) names a tabulated basis polynomial."""
    m = _count(m, "degree", 0, MAX_DEGREE, UnsupportedDegree)
    if dim == 2:
        if k not in ("re", "im") or (m == 0 and k == "im"):
            raise BadIndex(f"2-D degree-{m} index must be 're' or 'im' (nonzero)")
    else:
        if not isinstance(k, (int, np.integer)) or not -m <= k <= m:
            raise BadIndex(f"3-D degree-{m} index must be an integer in [-{m}, {m}]")
    return m


def basis_indices(dim: int, m: int):
    """All valid basis indices for (dim, m)."""
    m = _count(m, "degree", 0, MAX_DEGREE, UnsupportedDegree)
    if _count(dim, "dim", 2, 3, DimMismatch) == 2:
        return ("re",) if m == 0 else ("re", "im")
    return tuple(range(-m, m + 1))


# ---------------------------------------------------------------------------
# Boundary data container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryData:
    """Boundary values f (and optionally grad f) as vectorized evaluators.

    ``value`` and ``gradient`` accept a point (dim,) or a batch (N, dim).
    ``exact_solution``, when present, evaluates the known solution of the
    associated boundary value problem at interior points (used to fill solver
    oracles and residuals).
    """

    value: object
    gradient: object = None
    _: KW_ONLY
    exact_solution: object = None


def require_data(data) -> None:
    """The data check of every solve: ``data`` must be a BoundaryData."""
    if not isinstance(data, BoundaryData):
        raise BadParameter(f"expected BoundaryData, got {type(data).__name__} "
                           "(polynomials give theirs by .boundary_data())")


def from_callable(f, gradient=None) -> BoundaryData:
    """Wrap scalar user callables, looped over rows, with the gradient if
    one is given."""
    def rowwise(g):
        def batch(pts):
            pts = np.asarray(pts, dtype=float)
            if pts.ndim == 1:
                return np.asarray(g(pts), dtype=float)
            return np.array([g(p) for p in pts])
        return batch

    return BoundaryData(rowwise(f), None if gradient is None else rowwise(gradient))


def constant_data(c: float) -> BoundaryData:
    c = _real(c, "the constant")

    def value(pts):
        pts = np.asarray(pts, dtype=float)
        return np.full(pts.shape[:-1], c)

    def gradient(pts):
        pts = np.asarray(pts, dtype=float)
        return np.zeros(pts.shape)

    return BoundaryData(value, gradient, exact_solution=value)


# ---------------------------------------------------------------------------
# Harmonic polynomials
# ---------------------------------------------------------------------------

class _PolynomialData:
    """Exact value and gradient of the polynomial ``_poly`` (partials ``_grads``)."""

    def value(self, pts):
        return self._poly(pts)

    def gradient(self, pts):
        pts = np.asarray(pts, dtype=float)
        # a partial's exponents never exceed the polynomial's: one table serves all
        out = np.empty(pts.shape)
        _evaluate(pts, self._poly.top, [(g, out[..., j]) for j, g in enumerate(self._grads)])
        return out

    def boundary_data(self) -> BoundaryData:
        return BoundaryData(self.value, self.gradient, exact_solution=self.value)


class HarmonicPolynomial(_PolynomialData):
    """Linear combination of tabulated harmonic basis polynomials."""

    def __init__(self, dim: int, terms):
        dim = _count(dim, "dim", 2, 3, DimMismatch)
        terms = tuple((_check_index(dim, m, k), k, _real(c, "coefficient"))
                      for m, k, c in terms)
        self.dim = dim
        self.terms = terms
        poly = _Poly(dim, {})
        for m, k, c in terms:
            poly = poly.plus(_basis(dim, m, k).scaled(c))
        self._poly = poly
        self._grads = [poly.partial(j) for j in range(dim)]

    @classmethod
    def zero(cls, dim: int) -> "HarmonicPolynomial":
        return cls(dim, [])

    @property
    def degree(self) -> int:
        return max((m for m, _, _ in self.terms), default=0)

    def __add__(self, other: "HarmonicPolynomial") -> "HarmonicPolynomial":
        if self.dim != other.dim:
            raise DimMismatch("cannot add polynomials of different dimension")
        return HarmonicPolynomial(self.dim, self.terms + other.terms)

    def __rmul__(self, s: float) -> "HarmonicPolynomial":
        return HarmonicPolynomial(self.dim, [(m, k, s * c) for m, k, c in self.terms])


def harmonic_poly(dim: int, m: int, k) -> HarmonicPolynomial:
    """Basis harmonic polynomial: 2-D Re z^m / Im z^m, 3-D solid harmonic.

    Homogeneous of degree m with an exact analytic gradient.
    """
    return HarmonicPolynomial(dim, [(m, k, 1.0)])


# ---------------------------------------------------------------------------
# Biharmonic polynomials (ball-adapted two-harmonic form)
# ---------------------------------------------------------------------------

class BiharmonicPolynomial(_PolynomialData):
    """u = h1 + (|x|^2 - 1) h2 with h1, h2 harmonic; u is biharmonic.

    On the unit sphere the trace is h1 and the gradient is grad h1 + 2 x h2;
    ``value``/``gradient`` evaluate the exact polynomial anywhere, so the data
    is usable on any ball's boundary.
    """

    def __init__(self, h1: HarmonicPolynomial, h2: HarmonicPolynomial):
        if h1.dim != h2.dim:
            raise DimMismatch("h1 and h2 must share a dimension")
        self.dim = h1.dim
        self.h1 = h1
        self.h2 = h2
        r2_minus_1 = _Poly(self.dim, {
            tuple(2 if j == i else 0 for j in range(self.dim)): 1.0
            for i in range(self.dim)}).plus(
                _Poly(self.dim, {(0,) * self.dim: -1.0}))
        self._poly = h1._poly.plus(r2_minus_1.times(h2._poly))
        self._grads = [self._poly.partial(j) for j in range(self.dim)]


def almansi_assemble(h1: HarmonicPolynomial, h2: HarmonicPolynomial
                     ) -> BiharmonicPolynomial:
    """Biharmonic polynomial h1 + (|x|^2 - 1) h2 with boundary-trace evaluators."""
    return BiharmonicPolynomial(h1, h2)


# ---------------------------------------------------------------------------
# Spherical-cap indicators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapSpec:
    """Double-cone nappe selector: directions from ``vertex`` within
    ``half_angle`` of +-``axis`` cut the cap(s) from the boundary."""

    vertex: np.ndarray
    axis: np.ndarray
    half_angle: float
    nappe: str = "plus"

    def __post_init__(self):
        object.__setattr__(self, "vertex", as_point(self.vertex))
        object.__setattr__(self, "axis", check_unit(self.axis, self.vertex.size))
        object.__setattr__(self, "half_angle", _real(self.half_angle, "half_angle"))
        if not 0.0 < self.half_angle < math.pi:
            raise BadParameter("half_angle must lie in (0, pi)")
        if self.nappe not in ("plus", "minus", "both"):
            raise BadParameter("nappe must be 'plus', 'minus', or 'both'")


def arc_cap(ball, P, theta1: float, theta2: float) -> CapSpec:
    """Cap (seen from P) whose cone cuts exactly the circle arc [theta1, theta2].

    Angles are taken about the ball center.  The directions from P to the
    arc turn counterclockwise through 2 h from u1 to u2, so the axis is
    u2 - u1 turned a right angle clockwise, or +-(u1 + u2) where that is the
    longer (+ if P lies left of the chord from u1's end to u2's), and
    h = atan2(|u2 - u1|, axis . (u1 + u2)).  An arc of 2 pi or more is the
    whole circle: both nappes at pi / 2.
    """
    p = interior_point(ball, BallDomain, P)
    if ball.dim != 2:
        raise DimMismatch("arc_cap requires a disk")
    theta1, theta2 = _real(theta1, "theta1"), _real(theta2, "theta2")
    if theta2 <= theta1:
        raise BadParameter("arc must satisfy theta1 < theta2")
    if theta2 - theta1 >= 2.0 * math.pi:
        return CapSpec(vertex=p, axis=(1.0, 0.0), half_angle=0.5 * math.pi, nappe="both")
    q1, q2 = (ball.center + ball.radius * np.array([math.cos(t), math.sin(t)])
              for t in (theta1, theta2))
    u1, u2 = ((q - p) / np.linalg.norm(q - p) for q in (q1, q2))
    chord, bisector = u2 - u1, u1 + u2
    if np.linalg.norm(bisector) < np.linalg.norm(chord):
        axis = np.array([chord[1], -chord[0]])
    else:                               # + if P lies left of q1 -> q2
        axis = bisector if (q2 - q1) @ [p[1] - q1[1], q1[0] - p[0]] > 0.0 else -bisector
    axis = axis / np.linalg.norm(axis)
    half = math.atan2(np.linalg.norm(chord), float(axis @ bisector))
    return CapSpec(vertex=p, axis=axis, half_angle=half, nappe="plus")


def _side(inside, edge) -> np.ndarray:
    """1.0 where ``inside``, 0.5 on the cone edge ``edge``, 0.0 elsewhere."""
    out = np.asarray(inside, dtype=float)
    out[edge] = 0.5
    return out


def _edge_cosine(half_angle: float) -> float:
    """cos(half_angle), the cone cosine the cap indicator compares against;
    0 within 1e-15 of it, so a half-angle of pi/2 leaves no crack at the
    equator and the two nappes then share their edge."""
    c = math.cos(half_angle)
    return 0.0 if abs(c) < 1e-15 else c


def cap_indicator(cap: CapSpec, ball: BallDomain) -> BoundaryData:
    """Indicator of the boundary cap(s) of ``ball`` cut by the cone of ``cap``,
    whose vertex must lie strictly inside the ball.

    Points exactly on the cone edge score 1/2 (a measure-zero tie rule).
    """
    vertex = interior_point(ball, BallDomain, cap.vertex)
    axis = cap.axis
    c = _edge_cosine(cap.half_angle)
    nappe = cap.nappe

    def value(pts):
        return _nappe_values(_cone_cosines(vertex, axis, pts), c, nappe)

    return BoundaryData(value)


def _cone_cosines(vertex: np.ndarray, axis: np.ndarray, pts) -> np.ndarray:
    """Cosine of the angle between ``axis`` and x - vertex at each row x of
    ``pts``: the one quantity the cap indicator compares.  The differences
    are laid out row-major whatever the layout of ``pts``, so ``v @ axis``
    rounds the same for a column-major view (``PlaneSections.to_3d``); they
    are filled a coordinate column at a time, since a subtraction over rows
    of 2 or 3 values runs several times slower."""
    pts = np.asarray(pts, dtype=float)
    v = np.empty(pts.shape)
    for j, x in enumerate(vertex):
        np.subtract(pts[..., j], x, out=v[..., j])
    return (v @ axis) / np.sqrt(row_dot(v, v))


def _nappe_values(d: np.ndarray, c: float, nappe: str) -> np.ndarray:
    """The indicator of ``nappe`` of the cone with edge cosine ``c`` from the
    cone cosines ``d``; points on an edge score 1/2."""
    if nappe == "plus":
        return _side(d > c, d == c)
    if nappe == "minus":
        return _side(d < -c, d == -c)
    both = _side(d > c, d == c) + _side(d < -c, d == -c)
    # for c > 0 the nappes are disjoint; else a point inside both (or on
    # their shared edge) is covered once
    return both if c > 0.0 else np.minimum(both, 1.0)
