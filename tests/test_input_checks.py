"""Every public entry point checks its domain type, point and direction rule
first, and rejects a bad one with a typed error instead of a numpy or
attribute error or a silently wrong value."""

import numpy as np
import pytest

import chordmean as cm

P = (0.3, 0.1)
DISK = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
ELLIPSE = cm.Ellipse2D(center=(0.0, 0.0), semi_axes=(1.5, 1.0))
STAR = cm.StarDomain2D.conformal(0.2)
DATA = cm.harmonic_poly(2, 2, "re").boundary_data()
ALMANSI = cm.almansi_assemble(cm.harmonic_poly(2, 0, "re"),
                              cm.harmonic_poly(2, 1, "re")).boundary_data()
CAP = cm.CapSpec(vertex=P, axis=(1.0, 0.0), half_angle=0.5)
AXIS = np.array([0.0, 1.0])


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
}

CASES = [
    pytest.param(lambda: cm.chord_interpolant_max(DISK, DATA, P, _rule(3)), cm.DimMismatch,
                 id="chord_interpolant_max-3d-rule"),
    pytest.param(lambda: cm.cap_measure_ratio(DISK, P, CAP, dq=_rule(3)), cm.DimMismatch,
                 id="cap_measure_ratio-3d-rule"),
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
] + [pytest.param(lambda f=f, d=d: f(d), cm.BadParameter, id=f"{name}-{kind}")
     for name, f in _NOT_A_BALL.items()
     for kind, d in (("ellipse", ELLIPSE), ("star", STAR))]


@pytest.mark.parametrize("call, error", CASES)
def test_entry_point_rejects_input(call, error):
    with pytest.raises(error):
        call()
