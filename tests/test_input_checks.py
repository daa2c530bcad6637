"""Every public entry point checks its domain type, point, data, direction
rule, directions and scalar parameters first, and rejects a bad one with a
typed error instead of a numpy, attribute or Python error or a silently wrong
value."""

import inspect
import math
import operator
import pathlib
import re

import numpy as np
import pytest

import chordmean as cm
from chordmean.averaging import MAX_INNER_RESOLUTION
from chordmean.brownian import MAX_SAMPLES
from chordmean.geometry import MAX_RESOLUTION

P = (0.3, 0.1)
DISK = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
ELLIPSE = cm.Ellipse2D(center=(0.0, 0.0), semi_axes=(1.5, 1.0))
STAR = cm.StarDomain2D.conformal(0.2)
DATA = cm.harmonic_poly(2, 2, "re").boundary_data()
ALMANSI = cm.almansi_assemble(cm.harmonic_poly(2, 0, "re"),
                              cm.harmonic_poly(2, 1, "re")).boundary_data()
CAP = cm.CapSpec(vertex=P, axis=(1.0, 0.0), half_angle=0.5)
AXIS = np.array([0.0, 1.0])
P3 = (0.3, 0.1, 0.2)
BALL3 = cm.BallDomain(center=(0.0, 0.0, 0.0), radius=1.0)
CAP_2D_AXIS = dict(vertex=P3, axis=(1.0, 0.0), half_angle=0.5)


def _rule(dim):
    return cm.default_direction_quadrature(dim, 16 if dim == 2 else 4)


_NOT_A_BALL = {
    "poisson_solve": lambda d: cm.poisson_solve(d, DATA, P),
    "cap_measure_poisson": lambda d: cm.cap_measure_poisson(d, P, CAP),
    "cone_identity_check": lambda d: cm.cone_identity_check(d, P, AXIS, 0.6),
    "center_of_mass_check": lambda d: cm.center_of_mass_check(d, P, AXIS, 0.6),
    "compare_exit_distributions": lambda d: cm.compare_exit_distributions(
        d, P, CAP, 1000, seed=1),
    "arc_cap": lambda d: cm.arc_cap(d, P, 0.0, 1.0),
    "poisson_kernel": lambda d: cm.poisson_kernel(d, P, (1.0, 0.0)),
    "cap_indicator": lambda d: cm.cap_indicator(CAP, d),
}

# directions, caps and complex-plane inputs of the wrong dimension or value
_WRONG_INPUT = {
    "arc_cap-3d-ball": lambda: cm.arc_cap(BALL3, P3, 0.0, 1.0),
    "plane_section-2d-normal": lambda: cm.plane_section(BALL3, P3, (1.0, 0.0)),
    "chord_through-3d-direction": lambda: cm.chord_through(DISK, P, (1.0, 0.0, 0.0)),
    "ray_hit_star-3d-direction": lambda: cm.ray_hit_star(STAR, P, (1.0, 0.0, 0.0)),
    "cap-2d-axis": lambda: cm.CapSpec(**CAP_2D_AXIS),
    "cap_indicator-2d-vertex": lambda: cm.cap_indicator(CAP, BALL3),
    "cap_measure_ratio-2d-vertex": lambda: cm.cap_measure_ratio(BALL3, P3, CAP),
    "cap_measure_poisson-2d-vertex": lambda: cm.cap_measure_poisson(BALL3, P3, CAP),
    "compare_exit_distributions-2d-vertex": lambda: cm.compare_exit_distributions(
        BALL3, P3, CAP, 1000, seed=1),
    "cone_identity_check-2d-axis": lambda: cm.cone_identity_check(BALL3, P3, AXIS, 0.6),
    "center_of_mass_check-2d-axis": lambda: cm.center_of_mass_check(BALL3, P3, AXIS, 0.6),
    "subtended_moment-3-vector": lambda: cm.subtended_moment([0.1, 0.2, 0.3], 2),
}

POLY = cm.harmonic_poly(2, 2, "re")

# a solve takes BoundaryData and a DirectionQuadrature, nothing else
_NOT_DATA_OR_RULE = {
    "solve_harmonic-polynomial": lambda: cm.solve_harmonic(DISK, POLY, P, _rule(2)),
    "solve_biharmonic-polynomial": lambda: cm.solve_biharmonic(DISK, POLY, P, _rule(2)),
    "poisson_solve-polynomial": lambda: cm.poisson_solve(DISK, POLY, P),
    "solve_on_domain-polynomial": lambda: cm.solve_on_domain(ELLIPSE, POLY, P, _rule(2)),
    "chord_interpolant_max-polynomial": lambda: cm.chord_interpolant_max(
        DISK, POLY, P, _rule(2)),
    "cross_section_solve-polynomial": lambda: cm.cross_section_solve(
        BALL3, cm.harmonic_poly(3, 2, 1), P3, _rule(3)),
    "solve_harmonic-lambda": lambda: cm.solve_harmonic(DISK, lambda x: x[:, 0], P, _rule(2)),
    "solve_biharmonic-lambda": lambda: cm.solve_biharmonic(
        DISK, lambda x: x[:, 0], P, _rule(2)),
    "solve_harmonic-rule-none": lambda: cm.solve_harmonic(DISK, DATA, P, None),
    "solve_harmonic-rule-list": lambda: cm.solve_harmonic(DISK, DATA, P, [1, 2]),
    "cross_section_solve-rule-none": lambda: cm.cross_section_solve(
        BALL3, cm.harmonic_poly(3, 2, 1).boundary_data(), P3, None),
    "poisson_solve-bq-list": lambda: cm.poisson_solve(DISK, DATA, P, bq=[1, 2]),
    "cap_measure_poisson-bq-string": lambda: cm.cap_measure_poisson(DISK, P, CAP, bq="x"),
    "cone_identity_check-bq-list": lambda: cm.cone_identity_check(
        DISK, P, AXIS, 0.6, bq=[1, 2]),
    "center_of_mass_check-bq-rule": lambda: cm.center_of_mass_check(
        DISK, P, AXIS, 0.6, bq=_rule(2)),
}

# the inner circle's node count and a direction rule's resolution are
# integers, not floats that happen to be one; both have a ceiling
_NOT_AN_INT = {
    f"cross_section_solve-inner-{r}": lambda r=r: cm.cross_section_solve(
        BALL3, cm.harmonic_poly(3, 2, 1).boundary_data(), P3, _rule(3), r)
    for r in (2.5, 64.0, MAX_INNER_RESOLUTION + 1, 10 ** 20)
} | {
    "build_direction_quadrature-gauss-16.0": lambda: cm.build_direction_quadrature(
        3, "gauss_product_3d", 16.0),
    "build_direction_quadrature-uniform-64.5": lambda: cm.build_direction_quadrature(
        2, "uniform_angle_2d", 64.5),
    "build_direction_quadrature-mc-100.0": lambda: cm.build_direction_quadrature(
        2, "monte_carlo", 100.0, seed=1),
} | {
    f"build_direction_quadrature-{dim}d-{scheme}-{r}":
    lambda dim=dim, scheme=scheme, r=r: cm.build_direction_quadrature(
        dim, scheme, r, seed=1 if scheme.startswith("monte_carlo") else None)
    for dim, scheme in ((2, "uniform_angle_2d"), (3, "gauss_product_3d"), (2, "monte_carlo"),
                        (3, "monte_carlo"), (3, "monte_carlo_design"))
    for r in (MAX_RESOLUTION[scheme] + 1, 10 ** 20)
} | {
    f"compare_exit_distributions-n-{n}": lambda n=n: cm.compare_exit_distributions(
        DISK, P, CAP, n, seed=1)
    for n in (1000.0, "1000", MAX_SAMPLES + 1, 10 ** 400)
}

# a seed is an integer from 0 to 2**64 - 1, for the travelers and Monte
# Carlo rules alike
_BAD_SEED = {
    f"{name}-seed-{seed}": lambda call=call, seed=seed: call(seed)
    for name, call in (
        ("compare_exit_distributions",
         lambda seed: cm.compare_exit_distributions(DISK, P, CAP, 1000, seed=seed)),
        ("build_direction_quadrature",
         lambda seed: cm.build_direction_quadrature(3, "monte_carlo_design", 4, seed=seed)))
    for seed in (-1, 2 ** 64, 10 ** 400, math.nan, math.inf, 2.5, 7.0, "7")
}

CASES = [
    pytest.param(lambda: cm.chord_interpolant_max(DISK, DATA, P, _rule(3)), cm.DimMismatch,
                 id="chord_interpolant_max-3d-rule"),
    pytest.param(lambda: cm.solve_harmonic("disk", DATA, P, _rule(2)), cm.BadParameter,
                 id="solve_harmonic-string"),
    pytest.param(lambda: cm.solve_harmonic(ELLIPSE, DATA, P, _rule(2)), cm.BadParameter,
                 id="solve_harmonic-ellipse"),
    pytest.param(lambda: cm.solve_biharmonic(ELLIPSE, ALMANSI, P, _rule(2)), cm.BadParameter,
                 id="solve_biharmonic-ellipse"),
    pytest.param(lambda: cm.cap_measure_ratio(ELLIPSE, P, CAP), cm.BadParameter,
                 id="cap_measure_ratio-ellipse"),
    pytest.param(lambda: cm.center_of_mass_check(
        DISK, P, AXIS, 0.6,
        bq=cm.build_boundary_quadrature(cm.BallDomain(center=(0.0, 0.0), radius=2.0), 4096)),
                 cm.BadParameter, id="center_of_mass_check-other-ball"),
] + [pytest.param(f, cm.BadParameter, id=name) for name, f in _NOT_DATA_OR_RULE.items()
] + [pytest.param(f, cm.BadResolution, id=name) for name, f in _NOT_AN_INT.items()
] + [pytest.param(f, cm.BadParameter, id=name) for name, f in _BAD_SEED.items()
] + [pytest.param(lambda f=f, d=d: f(d), cm.BadParameter, id=f"{name}-{kind}")
     for name, f in _NOT_A_BALL.items()
     for kind, d in (("ellipse", ELLIPSE), ("star", STAR))] + [
    pytest.param(f, cm.DimMismatch, id=name) for name, f in _WRONG_INPUT.items()] + [
    pytest.param(lambda: cm.subtended_moment(complex(math.nan, 0.0), 2),
                 cm.BadParameter, id="subtended_moment-nan"),
    pytest.param(lambda: cm.mobius_involution(complex(math.nan, 0.0), 0.5),
                 cm.BadParameter, id="mobius_involution-nan"),
    pytest.param(lambda: cm.involution_image_measure(complex(math.nan, 0.0), (0.0, 1.0)),
                 cm.BadParameter, id="involution_image_measure-nan-point"),
    # a Python int beyond the float range is an input error, not an OverflowError
    pytest.param(lambda: cm.chord_through(cm.BallDomain((0, 0), 1), (10 ** 400, 0), (1, 0)),
                 cm.BadParameter, id="chord_through-huge-int"),
    pytest.param(lambda: cm.mobius_involution(10 ** 400, 0.5),
                 cm.BadParameter, id="mobius_involution-huge-int"),
    pytest.param(lambda: cm.subtended_moment(10 ** 400, 2),
                 cm.BadParameter, id="subtended_moment-huge-int"),
    pytest.param(lambda: cm.cap_measure_ratio(cm.BallDomain((0.0,), 1.0), (0.2,),
                                              cm.CapSpec((0.2,), (1.0,), 0.5)),
                 cm.DimMismatch, id="cap_measure_ratio-1d-ball"),
    # a fractional degree was read as the degree-2 basis, or as a power w^2.5
    pytest.param(lambda: cm.harmonic_poly(3, 2.5, 0), cm.UnsupportedDegree,
                 id="harmonic_poly-fractional-degree"),
    pytest.param(lambda: cm.subtended_moment(0.3, 2.5), cm.BadParameter,
                 id="subtended_moment-fractional-degree"),
    # (ab)^2 underflows to 0
    pytest.param(lambda: cm.hermite_monomial_at_zero(4, -1.0, 1e-320), cm.NumericalError,
                 id="hermite_monomial_at_zero-underflow"),
    pytest.param(lambda: cm.hermite_monomial_at_zero(4, -1e-200, 1e-200), cm.NumericalError,
                 id="hermite_monomial_at_zero-tiny-bracket"),
    pytest.param(lambda: cm.hermite_monomial_at_zero(12, -1e160, 1e160), cm.NumericalError,
                 id="hermite_monomial_at_zero-huge-bracket"),
]


@pytest.mark.parametrize("call, error", CASES)
def test_entry_point_rejects_input(call, error):
    with pytest.raises(error):
        call()


def test_boundary_data_is_its_value_and_optional_gradient():
    # values alone are data for every harmonic solve; the biharmonic one
    # asks for the gradient it reads
    data = cm.BoundaryData(lambda x: x[:, 0])
    assert abs(cm.solve_harmonic(DISK, data, P, _rule(2)).value - P[0]) <= 1e-14
    with pytest.raises(cm.GradientRequired):
        cm.solve_biharmonic(DISK, data, P, _rule(2))


def test_a_positional_tag_is_not_the_oracle():
    with pytest.raises(TypeError):
        cm.BoundaryData(lambda x: x[:, 0], None, "c0")


def test_cross_section_takes_python_and_numpy_integers():
    data = cm.harmonic_poly(3, 2, 1).boundary_data()
    a = cm.cross_section_solve(BALL3, data, P3, _rule(3), 64)
    b = cm.cross_section_solve(BALL3, data, P3, _rule(3), np.int64(64))
    assert a.value.hex() == b.value.hex()
    assert type(b.report.nodes_used) is int and b.report.nodes_used == a.report.nodes_used


def test_resolutions_take_numpy_integers_up_to_the_ceiling():
    rule = cm.build_direction_quadrature(2, "uniform_angle_2d", np.int64(64))
    assert rule is cm.build_direction_quadrature(2, "uniform_angle_2d", 64)
    data = cm.harmonic_poly(3, 2, 1).boundary_data()
    top = cm.cross_section_solve(BALL3, data, P3, _rule(3), MAX_INNER_RESOLUTION)
    assert abs(top.value - top.oracle_value) <= 1e-12


def test_seeds_take_every_integer_below_2_to_the_64():
    ends = [cm.compare_exit_distributions(DISK, P, CAP, 1000, seed=s)
            for s in (0, np.uint64(2 ** 64 - 1), 2 ** 64 - 1, True)]
    assert ends[1] == ends[2] != ends[0]
    assert ends[3].travelers == cm.compare_exit_distributions(DISK, P, CAP, 1000, 1).travelers


# One table for the scalar parameters: every int or float parameter of the
# public names, probed with the same 13 values.  A count is read through
# operator.index (``geometry._count``), a real through float() and a finiteness
# check (``geometry._real``); a value its reader refuses raises the row's
# error.  Every other value ends in some ChordMeanError or a finite result.
VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-1": -1, "0": 0,
          "2.5": 2.5, "True": True, "str-3": "3", "None": None, "10**400": 10 ** 400,
          "float32-0.5": np.float32(0.5), "-0.0": -0.0, "1e-320": 1e-320}

COUNT, OPTIONAL_COUNT, REAL, VECTOR = "count", "count or None", "real", "vector"
SMALL_BQ = cm.build_boundary_quadrature(DISK, 256)
HARM3 = cm.harmonic_poly(3, 2, 1).boundary_data()


def _roots(chord):
    return chord.t_neg, chord.t_pos


# (name, parameter, how it is read, error for a value its reader refuses, call)
PROBES = [
    ("build_direction_quadrature", "dim", COUNT, cm.DimMismatch,
     lambda v: cm.build_direction_quadrature(v, "monte_carlo", 16, seed=1).weights),
    ("build_direction_quadrature", "resolution", COUNT, cm.BadResolution,
     lambda v: cm.build_direction_quadrature(2, "monte_carlo", v, seed=1).weights),
    ("build_direction_quadrature", "seed", OPTIONAL_COUNT, cm.BadParameter,
     lambda v: cm.build_direction_quadrature(3, "monte_carlo_design", 4, seed=v).weights),
    ("default_direction_quadrature", "dim", COUNT, cm.DimMismatch,
     lambda v: cm.default_direction_quadrature(v, 16).weights),
    ("default_direction_quadrature", "resolution", OPTIONAL_COUNT, cm.BadResolution,
     lambda v: cm.default_direction_quadrature(2, v).weights),
    ("build_boundary_quadrature", "resolution", OPTIONAL_COUNT, cm.BadResolution,
     lambda v: cm.build_boundary_quadrature(DISK, v).weights),
    ("cross_section_solve", "inner_resolution", COUNT, cm.BadResolution,
     lambda v: cm.cross_section_solve(BALL3, HARM3, P3, _rule(3), v).value),
    ("compare_exit_distributions", "N", COUNT, cm.BadResolution,
     lambda v: cm.compare_exit_distributions(DISK, P, CAP, v, seed=1).oracle_measure),
    ("compare_exit_distributions", "seed", COUNT, cm.BadParameter,
     lambda v: [t.frequency for t in cm.compare_exit_distributions(
         DISK, P, CAP, 1000, seed=v).travelers]),
    ("harmonic_poly", "dim", COUNT, cm.DimMismatch,
     lambda v: cm.harmonic_poly(v, 1, 0).value(P3)),
    ("harmonic_poly", "m", COUNT, cm.UnsupportedDegree,
     lambda v: cm.harmonic_poly(3, v, 0).value(P3)),
    ("basis_indices", "dim", COUNT, cm.DimMismatch, lambda v: len(cm.basis_indices(v, 2))),
    ("basis_indices", "m", COUNT, cm.UnsupportedDegree, lambda v: len(cm.basis_indices(3, v))),
    ("HarmonicPolynomial", "dim", COUNT, cm.DimMismatch,
     lambda v: cm.HarmonicPolynomial(v, [(1, 0, 1.0)]).value(P3)),
    ("HarmonicPolynomial", "terms.m", COUNT, cm.UnsupportedDegree,
     lambda v: cm.HarmonicPolynomial(3, [(v, 0, 1.0)]).value(P3)),
    ("HarmonicPolynomial", "terms.c", REAL, cm.BadParameter,
     lambda v: cm.HarmonicPolynomial(2, [(1, "re", v)]).value(P)),
    ("HarmonicPolynomial.zero", "dim", COUNT, cm.DimMismatch,
     lambda v: cm.HarmonicPolynomial.zero(v).degree),
    ("subtended_moment", "poly_degree", COUNT, cm.BadParameter,
     lambda v: cm.subtended_moment(0.3, v)),
    ("hermite_monomial_at_zero", "m", COUNT, cm.BadDegree,
     lambda v: cm.hermite_monomial_at_zero(v, -1.0, 1.0)),
    ("hermite_monomial_at_zero", "a", REAL, cm.BadParameter,
     lambda v: cm.hermite_monomial_at_zero(4, v, 1.0)),
    ("hermite_monomial_at_zero", "b", REAL, cm.BadParameter,
     lambda v: cm.hermite_monomial_at_zero(4, -1.0, v)),
    ("CapSpec", "half_angle", REAL, cm.BadParameter,
     lambda v: cm.CapSpec(P, (1.0, 0.0), v).half_angle),
    ("CapSpec", "axis", VECTOR, None, lambda v: cm.CapSpec(P, (v, 0.0), 0.5).axis),
    ("cone_identity_check", "half_angle", REAL, cm.BadParameter,
     lambda v: cm.cone_identity_check(DISK, P, AXIS, v, bq=SMALL_BQ)),
    ("center_of_mass_check", "half_angle", REAL, cm.BadParameter,
     lambda v: cm.center_of_mass_check(DISK, P, AXIS, v, bq=SMALL_BQ)[1]),
    ("arc_cap", "theta1", REAL, cm.BadParameter,
     lambda v: cm.arc_cap(DISK, P, v, 1.0).half_angle),
    ("arc_cap", "theta2", REAL, cm.BadParameter,
     lambda v: cm.arc_cap(DISK, P, 0.0, v).half_angle),
    ("involution_image_measure", "arc.0", REAL, cm.BadParameter,
     lambda v: cm.involution_image_measure(0.2, (v, 1.0))),
    ("involution_image_measure", "arc.1", REAL, cm.BadParameter,
     lambda v: cm.involution_image_measure(0.2, (0.0, v))),
    ("star_angle_measure_check", "a", REAL, cm.BadParameter,
     lambda v: cm.star_angle_measure_check(v, (0.0, 1.0))),
    ("star_angle_measure_check", "arc.0", REAL, cm.BadParameter,
     lambda v: cm.star_angle_measure_check(0.3, (v, 2.0))),
    ("star_angle_measure_check", "arc.1", REAL, cm.BadParameter,
     lambda v: cm.star_angle_measure_check(0.3, (0.0, v))),
    ("StarDomain2D.conformal", "a", REAL, cm.BadParameter,
     lambda v: cm.StarDomain2D.conformal(v).boundary_radius(0.0)),
    ("BallDomain", "radius", REAL, cm.BadParameter,
     lambda v: cm.BallDomain((0.0, 0.0), v).radius),
    ("Ellipse2D", "semi_axes.0", REAL, cm.BadParameter,
     lambda v: cm.Ellipse2D((0.0, 0.0), (v, 1.0)).semi_axes),
    ("Ellipse2D", "semi_axes.1", REAL, cm.BadParameter,
     lambda v: cm.Ellipse2D((0.0, 0.0), (1.5, v)).semi_axes),
    ("constant_data", "c", REAL, cm.BadParameter, lambda v: cm.constant_data(v).value(P)),
    ("chord_through", "e", VECTOR, None,
     lambda v: _roots(cm.chord_through(DISK, P, (v, 0.0)))),
    ("ray_hit_star", "e", VECTOR, None, lambda v: cm.ray_hit_star(STAR, P, (v, 0.0))[1]),
    ("plane_section", "normal", VECTOR, None,
     lambda v: cm.plane_section(BALL3, P3, (v, 0.0, 0.0)).radius),
]


def _refused(kind: str, value) -> bool:
    """Whether the reader of a parameter of this kind refuses the value."""
    if kind == VECTOR or (kind == OPTIONAL_COUNT and value is None):
        return False
    if kind in (COUNT, OPTIONAL_COUNT):
        try:
            operator.index(value)
        except TypeError:
            return True
        return False
    try:
        return not math.isfinite(float(value))
    except (TypeError, ValueError, OverflowError):
        return True


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind, error, call, value", [
    pytest.param(kind, error, call, value, id=f"{name}-{param}-{vid}")
    for name, param, kind, error, call in PROBES for vid, value in VALUES.items()])
def test_scalar_parameter_ends_typed_or_finite(kind, error, call, value):
    try:
        result = call(value)
    except cm.ChordMeanError as exc:
        if _refused(kind, value):
            assert isinstance(exc, error), repr(exc)
        return
    assert not _refused(kind, value), f"accepted {value!r}: {result!r}"
    assert np.isfinite(np.asarray(result, dtype=complex)).all(), result


# Result records: the library builds them, and no entry point reads their
# fields as parameters.
RECORDS = {"Chord", "DirectionQuadrature", "ChordAverageResult", "SolveReport",
           "ExperimentReport", "TravelerStats"}


def _public_callables():
    """(name, callable) for every README public name and the public methods
    of its classes, the class itself standing for its constructor."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    for name in re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE):
        obj = getattr(cm, name)
        if name in RECORDS or (inspect.isclass(obj) and issubclass(obj, Exception)):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and (
                        inspect.isfunction(member) or isinstance(member, classmethod)):
                    yield f"{name}.{attr}", getattr(obj, attr)


def test_every_numeric_parameter_is_in_the_probe_table():
    probed = {(name, param.split(".")[0]) for name, param, *_ in PROBES}
    numeric = [(name, p.name) for name, obj in _public_callables()
               for p in inspect.signature(obj).parameters.values()
               if re.search(r"\b(int|float)\b", str(p.annotation))]
    assert len(numeric) >= 25
    missing = [f"{name}({param})" for name, param in numeric if (name, param) not in probed]
    assert not missing, f"numeric parameters missing from PROBES: {missing}"
    assert RECORDS <= set(dir(cm))
