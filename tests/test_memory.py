"""Memory a solve maps: the traced allocation peak of one warmed-up solve of
each smooth-solve kind, and the per-thread scratch cap.

``tracemalloc`` sees numpy's data allocations, so its peak over one call is
the most array memory the call held at once beyond what was already live.
The bounds are the peaks of the two-pass solves that the one-pass plan
replaced (2-core Intel Xeon, numpy 2.4): the plan must not hold more.
"""

import threading
import time
import tracemalloc

import numpy as np
import pytest

import chordmean as cm
from chordmean import geometry

# KiB: the traced peak of one solve before the one-pass plan
TWO_PASS_PEAK_KIB = {"harmonic2d": 259, "biharmonic2d": 356, "poisson2d": 258,
                     "harmonic3d": 547, "biharmonic3d": 836, "poisson3d": 450}


def _solve(kind: str):
    """The ``sweep`` benchmark's solves: the unit ball, the default rules,
    degree-4 harmonic data and the (5, 3) Almansi pair."""
    dim = int(kind[-2])
    ball = cm.BallDomain(center=np.zeros(dim), radius=1.0)
    rule = cm.default_direction_quadrature(dim)
    p = np.array([0.3, -0.2, 0.1][:dim])
    if kind.startswith("biharmonic"):
        pair = ((5, "re"), (3, "im")) if dim == 2 else ((5, 2), (3, -2))
        data = cm.almansi_assemble(*(cm.harmonic_poly(dim, m, k) for m, k in pair))
        return lambda: cm.solve_biharmonic(ball, data.boundary_data(), p, rule)
    data = cm.harmonic_poly(dim, 4, "re" if dim == 2 else 1).boundary_data()
    if kind.startswith("poisson"):
        return lambda: cm.poisson_solve(ball, data, p)
    return lambda: cm.solve_harmonic(ball, data, p, rule)


@pytest.mark.parametrize("kind", sorted(TWO_PASS_PEAK_KIB))
def test_one_solve_holds_no_more_than_two_passes_did(kind):
    solve = _solve(kind)
    solve()
    solve()                     # plans built, scratch parked
    tracemalloc.start()
    try:
        solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= TWO_PASS_PEAK_KIB[kind] * 1024, peak / 1024


def _scratch_of_this_thread():
    time.sleep(0.05)                # long enough for every worker to take a task
    buffers = dict(vars(geometry._SCRATCH).get("buffers", {}))
    return threading.get_ident(), buffers


def test_scratch_stays_within_its_cap_per_thread():
    """A cross section over 510 design normals and 512 circle nodes evaluates
    the data at 261,120 points, far past the cap; every thread that ran it
    parks at most SCRATCH_BYTES, in buffers of at most an eighth of that."""
    ball = cm.BallDomain(center=(0.0, 0.0, 0.0), radius=1.0)
    normals = cm.build_direction_quadrature(3, "monte_carlo_design", 85, seed=7)
    data = cm.almansi_assemble(cm.harmonic_poly(3, 5, 2),
                               cm.harmonic_poly(3, 3, -2)).boundary_data()
    for inner_solver in ("poisson", "chords"):
        cm.cross_section_solve(ball, data, (0.2, -0.1, 0.3), normals, 512, inner_solver)
    seen = geometry._in_parallel([_scratch_of_this_thread] * 2 * geometry._usable_cpus())
    assert len({ident for ident, _ in seen}) >= min(geometry._usable_cpus(), 2)
    for _, buffers in seen:
        assert sum(b.nbytes for b in buffers.values()) <= geometry.SCRATCH_BYTES
        assert all(b.nbytes <= geometry.SCRATCH_BYTES // 8 for b in buffers.values())


def test_a_nested_borrow_gets_its_own_buffer():
    outer = geometry.borrow("probe", (4096,))
    inner = geometry.borrow("probe", (4096,))
    assert not np.shares_memory(outer, inner)
    geometry.park("probe", inner)
    geometry.park("probe", outer)       # the key is taken: outer is dropped
    again = geometry.borrow("probe", (2048, 2))
    assert np.shares_memory(again, inner) and not np.shares_memory(again, outer)
