"""Properties of the cap measures on random caps, in 2-D and 3-D: the
paper's double-cone and center-of-mass identities and the agreement of the
Poisson integral with the exact ``cap_measure_ratio``, all at rounding, and
the premise of the 3-D cap rule, that every meridian from the pole leaves
the cap once.  Derandomised, so the suite stays deterministic."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

import chordmean as cm
from chordmean import poisson

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)
BALLS = {2: cm.BallDomain(center=(0.0, 0.0), radius=1.0),
         3: cm.BallDomain(center=(0.0, 0.0, 0.0), radius=1.0)}

dims = st.sampled_from([2, 3])
cosines = st.floats(-1.0, 1.0)
angles = st.floats(0.0, 2.0 * math.pi)
half_angles = st.floats(0.1, 1.5)


def _unit(dim, c, t):
    """The unit vector at angle t in 2-D; with polar cosine c and azimuth t in 3-D."""
    if dim == 2:
        return np.array([math.cos(t), math.sin(t)])
    s = math.sqrt(1.0 - c * c)
    return np.array([s * math.cos(t), s * math.sin(t), c])


def _cap(dim, r, c, t, c_axis, t_axis):
    return r * _unit(dim, c, t), _unit(dim, c_axis, t_axis)


caps = st.tuples(dims, st.floats(0.0, 0.8), cosines, angles, cosines, angles)


@PROPERTY
@given(caps, half_angles)
def test_cone_identity_holds_at_rounding(cap, half):
    dim = cap[0]
    p, axis = _cap(*cap)
    _, _, defect = cm.cone_identity_check(BALLS[dim], p, axis, half)
    assert defect <= 1e-12


@PROPERTY
@given(caps, half_angles)
def test_center_of_mass_is_the_point_at_rounding(cap, half):
    dim = cap[0]
    p, axis = _cap(*cap)
    _, offset = cm.center_of_mass_check(BALLS[dim], p, axis, half)
    assert offset <= 1e-12


@PROPERTY
@given(caps, half_angles, st.sampled_from(["plus", "minus", "both"]))
def test_poisson_cap_measure_is_the_exact_one(cap, half, nappe):
    dim = cap[0]
    p, axis = _cap(*cap)
    spec = cm.CapSpec(p, axis, half, nappe)
    report = cm.cap_measure_poisson(BALLS[dim], p, spec)
    assert abs(report.value - cm.cap_measure_ratio(BALLS[dim], p, spec)) <= 1e-13
    assert report.error_estimate <= 1e-13


@PROPERTY
@given(caps, st.floats(0.1, 0.5 * math.pi))
def test_the_indicator_reads_1_on_every_node(cap, half):
    dim = cap[0]
    p, axis = _cap(*cap)
    dirs, weights = poisson._cap_nodes(p, axis, half)
    assert np.all(cm.cap_indicator(cm.CapSpec(p, axis, half), BALLS[dim]).value(dirs) == 1.0)
    assert np.all(weights > 0.0)


@PROPERTY
@given(st.floats(0.0, 0.99), cosines, angles, cosines, angles, st.floats(0.01, 0.5 * math.pi))
def test_each_meridian_leaves_the_cap_once_at_its_edge_angle(r, c, t, c_axis, t_axis, half):
    # the cap indicator along 4,000 polar angles of each of 64 meridians,
    # half of them spaced geometrically from 1e-9 for caps near the rim that
    # look small from the center: one switch from 1 to 0, in the grid step
    # holding the edge angle
    p, axis = _cap(3, r, c, t, c_axis, t_axis)
    pole, meridians, edge = poisson._edge_angles(p, axis, half, 64)
    theta = np.union1d(math.pi * np.arange(1, 2001) / 2000, np.geomspace(1e-9, 1.0, 2000))
    points = (np.cos(theta)[:, np.newaxis, np.newaxis] * pole
              + np.sin(theta)[:, np.newaxis, np.newaxis] * meridians)
    inside = cm.cap_indicator(cm.CapSpec(p, axis, half), BALLS[3]).value(
        points.reshape(-1, 3)).reshape(theta.size, -1) > 0.0
    assert np.all(np.count_nonzero(inside[1:] != inside[:-1], axis=0) == 1)
    first_out = np.argmin(inside, axis=0)
    assert np.all((theta[first_out - 1] <= edge) & (edge <= theta[first_out]))
