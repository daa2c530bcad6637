"""Tests of the benchmark itself.

    python3 -m pytest bench/tests

Smoke runs of every workload at minimal size (one operation of each kind,
one pass), the metric names and units against BENCHMARK.json, failure
accounting with a deliberately wrong result, the refusal to run without a
source tree, and the selftest timing report.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import benchenv  # noqa: E402

benchenv.import_chordmean()

import chordmean as cm  # noqa: E402
import run  # noqa: E402
import selftest_timings  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


def _printed_units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_spec_lists_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert _units(SPEC["end_to_end"]) == dict(run.END_TO_END)
    assert _units(SPEC["per_layer"]) == dict(run.PER_LAYER)
    assert set(workloads.TAIL_PERCENTILE) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_untraced(workload):
    details, result = run.run(workload, seed=5, seconds=0, trace=False, minimal=True)
    assert result["correct"], details["failures"]
    assert result["failed"] == 0 and details["failed_ratio"] == 0.0
    assert result["attempted"] == details["ops_per_pass"] >= 1
    assert _printed_units(result) == _units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced_digest_matches(workload):
    details, result = run.run(workload, seed=5, seconds=0, trace=True, minimal=True)
    assert details["digest_match"] and result["correct"], details["failures"]
    assert _printed_units(result) == _units(SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["trace.overhead_ratio"] > 0
    assert metrics["boundary.eval.calls"] > 0
    # the cli layer is traced in the CLI's own processes only
    assert (metrics["cli.import_s"] > 0) == (workload == "cli")


def test_every_metric_printed_with_its_unit(capsys):
    for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        assert run.main(["--workload=sweep", "--seed=2", "--seconds=0",
                         f"--trace={trace}"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert _printed_units(result) == _units(spec)
        assert details["env"]["nproc"] >= 1 and len(details["digest"]) == 64


def test_same_seed_same_digest_other_seed_other_inputs():
    digests = [run.run("sweep", seed, 0, False, minimal=True)[0]["digest"]
               for seed in (3, 3, 4)]
    assert digests[0] == digests[1] != digests[2]


def test_wrong_result_is_counted_as_failed(monkeypatch):
    real = cm.solve_harmonic

    def off_by_a_little(*args, **kwargs):
        result = real(*args, **kwargs)
        report = dataclasses.replace(result.report, value=result.report.value + 1e-3)
        return dataclasses.replace(result, report=report)

    monkeypatch.setattr(cm, "solve_harmonic", off_by_a_little)
    details, result = run.run("sweep", seed=5, seconds=0, trace=False, minimal=True)
    assert not result["correct"]
    assert result["failed"] >= 2        # at least one harmonic op per dimension
    assert details["failed_ratio"] == result["failed"] / result["attempted"]
    assert result["metrics"]["ok_ratio"]["value"] == 1.0 - details["failed_ratio"]


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(benchenv.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload=sweep",
                           "--seed=1", "--seconds=1", "--trace=0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no chordmean source tree" in proc.stderr


def test_selftest_timings_report():
    report = selftest_timings.report((4, 7))     # two of the fastest criteria
    assert [c["criterion"] for c in report["criteria"]] == [4, 7]
    assert all(c["passed"] and c["seconds"] >= 0 for c in report["criteria"])
