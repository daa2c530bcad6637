"""Worker threads: ``geometry._in_parallel`` runs the travelers of one
comparison and the plane chunks of one cross section at once, and every
result equals that of a serial run bit for bit.

The worker count is ``geometry._usable_cpus()``, monkeypatched here to 1, 2
and 3 whatever the machine; lowering ``averaging._SECTION_ROWS`` and
``poisson._BLOCK_ROWS`` forces many chunks and blocks on small inputs.
"""

import math
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc

import numpy as np
import pytest

import chordmean as cm
from chordmean import averaging, brownian, geometry, poisson
from chordmean.geometry import _in_parallel, philox_stream

BALL = cm.BallDomain(center=(0.0, 0.0, 0.0), radius=1.0)
DISK = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
OFF_BALL = cm.BallDomain(center=(0.25, -0.5, 1.0), radius=1.5)
P3 = (0.3, -0.2, 0.25)
JOIN_S = 60.0


def _cpus(monkeypatch, n):
    monkeypatch.setattr(geometry, "_usable_cpus", lambda: n)


# ---------------------------------------------------------------------------
# _in_parallel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_come_in_task_order(monkeypatch, workers):
    _cpus(monkeypatch, workers)
    assert _in_parallel(lambda k=k: k * k for k in range(7)) == [k * k for k in range(7)]
    assert _in_parallel([]) == []


def test_one_cpu_is_a_plain_loop(monkeypatch):
    _cpus(monkeypatch, 1)
    assert set(_in_parallel([threading.get_ident] * 4)) == {threading.get_ident()}


def test_every_task_finishes_before_the_first_failure_is_raised(monkeypatch):
    _cpus(monkeypatch, 3)
    finished = []

    def slow(name):
        time.sleep(0.05)
        finished.append(name)

    def fail(error):
        raise error

    with pytest.raises(ValueError, match="first"):
        _in_parallel([lambda: slow("a"), lambda: fail(ValueError("first")),
                      lambda: fail(KeyError("second")), lambda: slow("b")])
    assert sorted(finished) == ["a", "b"]


def test_a_call_from_a_worker_runs_inline(monkeypatch):
    # both workers busy with a task that itself calls _in_parallel: their
    # inner calls run on their own threads instead of waiting on the pool
    _cpus(monkeypatch, 3)
    together = threading.Barrier(3, timeout=JOIN_S)

    def outer():
        together.wait()
        inner = _in_parallel([threading.get_ident] * 3)
        return getattr(geometry._WORKER, "inside", False), set(inner) == {threading.get_ident()}

    out = []
    caller = threading.Thread(target=lambda: out.append(_in_parallel([outer] * 3)),
                              daemon=True)
    caller.start()
    caller.join(JOIN_S)
    assert not caller.is_alive()
    (on_worker, _), *on_workers = out[0]
    assert not on_worker and on_workers == [(True, True), (True, True)]


def test_tasks_overlap_with_more_workers_than_cores(monkeypatch):
    # 8 workers, each task waits at a barrier that only all of them together
    # pass: it completes only if all 8 tasks run at once
    _cpus(monkeypatch, 8)
    barrier = threading.Barrier(8, timeout=JOIN_S)
    assert _in_parallel([barrier.wait] * 8) is not None
    assert not barrier.broken


def test_concurrent_callers_run_each_task_once(monkeypatch):
    # four callers share eight workers under a short switch interval: a task
    # claimed twice, or lost, breaks the tally
    _cpus(monkeypatch, 8)
    ran, results = [], []

    def caller(c):
        for call in range(40):
            tasks = [lambda k=k: ran.append((c, call, k)) or k for k in range(9)]
            results.append(_in_parallel(tasks) == list(range(9)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(c,), daemon=True) for c in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(JOIN_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert results == [True] * 160
    assert sorted(ran) == [(c, call, k) for c in range(4) for call in range(40) for k in range(9)]


def test_forked_child_runs_a_cross_section_solve_on_its_own_workers(tmp_path):
    # the child of a process whose pool has started gets a pool of its own;
    # the parent kills the child if it has not finished in time
    script = textwrap.dedent(f"""
        import os, sys, threading, time
        import chordmean as cm
        from chordmean import geometry
        geometry._usable_cpus = lambda: 3
        ball = cm.BallDomain(center=(0.0, 0.0, 0.0), radius=1.0)
        rule = cm.build_direction_quadrature(3, "gauss_product_3d", 16)

        def solve():
            return cm.cross_section_solve(ball, cm.harmonic_poly(3, 3, 1).boundary_data(),
                                          {P3!r}, rule, 64).value

        before = solve()
        assert geometry._POOL is not None
        pid = os.fork()
        if pid == 0:
            same = solve() == before
            started = threading.active_count() > 1
            os._exit(0 if same and started else 1)
        deadline = time.monotonic() + {JOIN_S}
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                sys.exit(os.waitstatus_to_exitcode(status))
            time.sleep(0.01)
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        sys.exit("the forked child did not finish")
    """)
    path = tmp_path / "fork_child.py"
    path.write_text(script)
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          timeout=2 * JOIN_S)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# Cross sections in chunks of planes
# ---------------------------------------------------------------------------

NORMALS = {"gauss": cm.build_direction_quadrature(3, "gauss_product_3d", 16),
           "design": cm.build_direction_quadrature(3, "monte_carlo_design", 11, seed=2)}
DATA = {"harm": cm.harmonic_poly(3, 4, 3).boundary_data(),
        "almansi": cm.almansi_assemble(cm.harmonic_poly(3, 3, -1),
                                       cm.harmonic_poly(3, 2, 1)).boundary_data(),
        "cap": cm.cap_indicator(cm.CapSpec(vertex=P3, axis=(0.0, 0.6, 0.8),
                                           half_angle=0.9), BALL)}


def _section_solve(data, normals, inner_solver):
    return cm.cross_section_solve(BALL, DATA[data], P3, NORMALS[normals], 64, inner_solver)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("data", sorted(DATA))
@pytest.mark.parametrize("normals", sorted(NORMALS))
@pytest.mark.parametrize("inner_solver", ["poisson", "chords"])
def test_cross_section_in_chunks_equals_one_serial_solve(monkeypatch, workers, data,
                                                         normals, inner_solver):
    _cpus(monkeypatch, 1)
    serial = repr(_section_solve(data, normals, inner_solver))
    _cpus(monkeypatch, workers)
    monkeypatch.setattr(averaging, "_SECTION_ROWS", 2)
    assert repr(_section_solve(data, normals, inner_solver)) == serial


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("normals,halves", [("gauss", [256, 64]), ("design", [66])])
def test_cross_section_chunks_cover_each_plane_once(monkeypatch, workers, normals, halves):
    """In parallel, the chunks of each solve (full rule, then the half rule
    unless it is nested) are contiguous, more than one, and hold each plane
    of the serial solve once."""
    _cpus(monkeypatch, workers)
    monkeypatch.setattr(averaging, "_SECTION_ROWS", 16)
    seen = []
    sections = averaging.plane_sections

    def counted_sections(ball, p, rows):
        seen.append(rows)
        return sections(ball, p, rows)

    monkeypatch.setattr(averaging, "plane_sections", counted_sections)
    rule = NORMALS[normals]
    cm.cross_section_solve(BALL, cm.constant_data(1.0), P3, rule, 64)
    rules = [rule, rule.half_resolution()][:len(halves)]
    expected = [r.directions[:h] for r, h in zip(rules, halves)]
    assert len(seen) == sum(min(workers, h // 16) for h in halves) > len(halves)
    assert (sorted(row.tobytes() for chunk in seen for row in chunk)
            == sorted(row.tobytes() for rows in expected for row in rows))


def test_non_finite_data_in_one_chunk_raises_the_serial_error(monkeypatch):
    # points below z = -0.9 lie only in the steep planes of the second chunk
    rule = NORMALS["gauss"]

    def value(x):
        return np.where(x[:, 2] < -0.9, np.nan, x[:, 0])

    data = cm.BoundaryData(value)
    circle = geometry._circle_nodes(64)
    chunks = geometry._row_blocks(256, 128)
    bad = [averaging._section_sums(BALL, data, np.array(P3), rule.directions[rows],
                                   circle, "poisson")[1] for rows in chunks]
    assert bad[0] == 0 < bad[1]
    messages = []
    for workers in (1, 2):
        _cpus(monkeypatch, workers)
        with pytest.raises(cm.NumericalError) as err:
            cm.cross_section_solve(BALL, data, P3, rule, 64)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == f"{bad[1]} of {256 * 64} integrand values are not finite"


# ---------------------------------------------------------------------------
# Travelers at once, samplers in blocks
# ---------------------------------------------------------------------------

TRAVELER_CASES = {
    "2d": (DISK, (0.5, 0.0), cm.arc_cap(DISK, (0.5, 0.0), -math.pi / 2, math.pi / 2)),
    "3d": (OFF_BALL, (0.5, -0.25, 1.75), cm.CapSpec((0.5, -0.25, 1.75), (0.0, 0.6, 0.8), 0.9)),
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(TRAVELER_CASES))
def test_travelers_at_once_and_in_blocks_equal_one_serial_run(monkeypatch, workers, case):
    ball, p, cap = TRAVELER_CASES[case]
    _cpus(monkeypatch, 1)
    serial = repr(cm.compare_exit_distributions(ball, p, cap, 3001, seed=19))
    _cpus(monkeypatch, workers)
    monkeypatch.setattr(poisson, "_BLOCK_ROWS", 64)
    assert repr(cm.compare_exit_distributions(ball, p, cap, 3001, seed=19)) == serial


SAMPLERS = [(brownian.exits_full_batch, DISK, (0.5, 0.0)),
            (brownian.exits_line_batch, DISK, (0.5, 0.0)),
            (brownian.exits_full_batch, OFF_BALL, (0.5, -0.25, 1.75)),
            (brownian.exits_plane_batch, OFF_BALL, (0.5, -0.25, 1.75)),
            (brownian.exits_line_batch, OFF_BALL, (0.5, -0.25, 1.75))]


@pytest.mark.parametrize("rows, n", [(64, 1001), (poisson._BLOCK_ROWS, 40000)])
@pytest.mark.parametrize("sampler, ball, p", SAMPLERS,
                         ids=[f"{s.__name__}-{b.dim}d" for s, b, _ in SAMPLERS])
def test_samplers_in_blocks_keep_the_whole_array_points(monkeypatch, rows, n, sampler,
                                                        ball, p):
    p = np.asarray(p, dtype=float)
    monkeypatch.setattr(poisson, "_BLOCK_ROWS", n)
    whole = sampler(ball, p, philox_stream(7, 5), n)
    monkeypatch.setattr(poisson, "_BLOCK_ROWS", rows)
    blocked = sampler(ball, p, philox_stream(7, 5), n)
    assert blocked[0].tobytes() == whole[0].tobytes()
    assert all(c.flags.c_contiguous for c in blocked[0].T)      # one column per coordinate
    assert np.asarray(blocked[1]).tobytes() == np.asarray(whole[1]).tobytes()


def test_3d_comparison_peak_stays_small(monkeypatch):
    # two travelers at a time on two CPUs; the samplers and the hit counts
    # hold only blocks of their temporaries (20.8 MB one after another on
    # whole arrays)
    _cpus(monkeypatch, 2)
    p = (0.0, 0.0, 0.5)
    cap = cm.CapSpec(vertex=p, axis=(0.0, 0.0, 1.0), half_angle=math.acos(-0.5 / math.sqrt(1.25)))
    cm.compare_exit_distributions(BALL, p, cap, 1000, seed=5)
    tracemalloc.start()
    try:
        cm.compare_exit_distributions(BALL, p, cap, 10 ** 5, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18e6
