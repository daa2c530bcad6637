"""Every public entry point checks its domain type, point, data, direction
rule and directions first, and rejects a bad one with a typed error instead
of a numpy or attribute error or a silently wrong value."""

import math

import numpy as np
import pytest

import chordmean as cm
from chordmean.averaging import MAX_INNER_RESOLUTION
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
] + [pytest.param(lambda f=f, d=d: f(d), cm.BadParameter, id=f"{name}-{kind}")
     for name, f in _NOT_A_BALL.items()
     for kind, d in (("ellipse", ELLIPSE), ("star", STAR))] + [
    pytest.param(f, cm.DimMismatch, id=name) for name, f in _WRONG_INPUT.items()] + [
    pytest.param(lambda: cm.involution_image_measure(0.2, (math.nan, 1.0)),
                 cm.BadParameter, id="involution_image_measure-nan-angle"),
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
