"""chordmean benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: operations run one after another, each a
single call into chordmean's public API (or one CLI process for ``cli``).
The workload's pass of seeded operations (see workloads.py) repeats until
``--seconds`` have elapsed, always ending on a pass boundary, so every run
measures the same composition; a run makes at least enough passes for ten
latency samples beyond the tail percentile.  Every output is checked against its oracle,
and every repeat of a pass must reproduce the first pass byte for byte.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the run alternates untraced and traced passes (see
tracer.py), checks that both give the same output digest, and reports the
per-layer metrics per traced pass.  The line before the result holds the run's
details: output digest, environment, tail percentile, failed_ratio, set-up
samples and per-kind latencies.

Exits 2 without a result when the checkout has no chordmean source tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import benchenv

_perf = time.perf_counter

# Set-up runs in the measuring process plus this many fresh processes;
# setup_s is their median.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("ok_ratio", "ratio"),
              ("max_error_ratio", "ratio"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("geometry.rule_build.calls", "count"), ("geometry.rule_build.self_s", "s"),
    ("geometry.rule_build.per_op", "calls/op"),
    ("geometry.chord_roots.items", "count"), ("geometry.chord_roots.self_s", "s"),
    ("averaging.nodes_evaluated_per_node_used", "ratio"),
    ("geometry.plane_section.calls", "count"), ("geometry.plane_section.self_s", "s"),
    ("boundary.eval.calls", "count"), ("boundary.eval.items", "count"),
    ("boundary.eval.self_s", "s"),
    ("poisson.rule_build.calls", "count"), ("poisson.rule_build.self_s", "s"),
    ("poisson.kernel.items", "count"), ("poisson.kernel.self_s", "s"),
    ("poisson.fixed_sum.calls", "count"), ("poisson.fixed_sum.items", "count"),
    ("poisson.fixed_sum.self_s", "s"),
    ("poisson.solve.calls", "count"), ("poisson.solve.self_s", "s"),
    ("averaging.solve.calls", "count"), ("averaging.solve.self_s", "s"),
    ("averaging.star_hits.calls", "count"), ("averaging.star_hits.items", "count"),
    ("averaging.star_hits.self_s", "s"),
    ("biharmonic.solve.calls", "count"), ("biharmonic.solve.self_s", "s"),
    ("measure.cap_ratio.self_s", "s"), ("measure.center_of_mass.self_s", "s"),
    ("measure.cone.self_s", "s"),
    ("brownian.sampler.items", "count"), ("brownian.sampler.self_s", "s"),
    ("brownian.full.acceptance", "ratio"), ("brownian.compare.self_s", "s"),
    ("cli.import_s", "s"), ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def render(out) -> str:
    """An operation's output as text, floats as 17-significant-digit reprs."""
    parts = []
    for x in out:
        if isinstance(x, float):
            parts.append(format(x, ".17g"))
        else:
            parts.append(str(x))
    return "\t".join(parts)


@dataclass
class Phase:
    """Outcome of repeating the pass: latencies, failures, outputs."""

    attempted: int = 0
    failed: int = 0
    passes: int = 0
    latencies: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    max_error: float = 0.0
    first_pass: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        """Completed operations per pass over the sum, across the pass's
        positions, of each operation's median latency: robust to
        interference from other load on the machine that slows part of a
        pass."""
        n = len(self.latencies) // self.passes
        median_pass_s = sum(statistics.median(self.latencies[i::n]) for i in range(n))
        return (self.attempted - self.failed) / self.passes / median_pass_s

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.first_pass).encode()).hexdigest()

    def extend(self, other: "Phase") -> None:
        """Append the passes of ``other``; this phase's first pass stays first."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.passes += other.passes
        self.latencies += other.latencies
        self.kinds += other.kinds
        self.max_error = max(self.max_error, other.max_error)
        self.first_pass = self.first_pass or other.first_pass
        self.failures += other.failures[:max(0, 5 - len(self.failures))]


def run_passes(ops, seconds: float, reference: list[str] | None = None,
               min_passes: int = 1) -> Phase:
    """Repeat the pass until ``seconds`` have elapsed and ``min_passes`` ran.

    Each output must equal ``reference`` at its position; without a
    reference, this phase's first pass is the reference.
    """
    ph = Phase()
    t_start = _perf()
    while True:
        for i, op in enumerate(ops):
            ph.attempted += 1
            t0 = _perf()
            try:
                out = op.call()
                ph.latencies.append(_perf() - t0)
                text = render(out)
                err = op.check(out)
                if reference is not None and text != reference[i]:
                    raise RuntimeError("output differs from the first run")
                if err is not None and not err <= 1.0:
                    raise RuntimeError(f"error {err:.3g} x tolerance")
            except Exception as exc:  # a failing operation is counted, not fatal
                if len(ph.latencies) < ph.attempted:
                    ph.latencies.append(_perf() - t0)
                ph.failed += 1
                text = f"failed: {type(exc).__name__}"
                if len(ph.failures) < 5:
                    ph.failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            else:
                if err is not None and op.panel:
                    ph.max_error = max(ph.max_error, err)
            ph.kinds.append(op.kind)
            if ph.passes == 0:
                ph.first_pass.append(text)
        ph.passes += 1
        if reference is None:
            reference = ph.first_pass
        if _perf() - t_start >= seconds and ph.passes >= min_passes:
            break
    return ph


def _percentile(values, q: float) -> float:
    """Linear-interpolation percentile, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _peak_rss_mb(workload: str) -> float:
    # cli operations run in child processes; the largest child is their peak
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _setup_probe(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(benchenv.BENCH / "setup_probe.py"),
         f"--workload={workload}", f"--seed={seed}"],
        capture_output=True, text=True, cwd=benchenv.ROOT, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.split()[-1])


def _latency_by_kind(ph: Phase) -> dict:
    by_kind = {}
    for kind, dt in zip(ph.kinds, ph.latencies):
        by_kind.setdefault(kind, []).append(dt)
    return {k: round(statistics.median(v) * 1e3, 3) for k, v in sorted(by_kind.items())}


def _count(total: float, passes: int):
    value = total / passes
    return int(value) if value == int(value) else value


def layer_metrics(tr, passes: int, ops_per_pass: int, cli_records: list[dict],
                  overhead_ratio: float) -> dict:
    """Per-pass layer metrics from a tracer's totals over ``passes`` passes."""
    values = {}
    for name, _ in PER_LAYER:
        layer, _, what = name.rpartition(".")
        st = tr.stats.get(layer)
        if st is not None and what in st:
            values[name] = _count(st[what], passes) if what != "self_s" \
                else st[what] / passes
    extra = tr.extra
    rule_calls = tr.stats.get("geometry.rule_build", {}).get("calls", 0)
    values["geometry.rule_build.per_op"] = rule_calls / (passes * ops_per_pass)
    values["averaging.nodes_evaluated_per_node_used"] = (
        extra["chord_dirs"] / extra["nodes_used"] if extra["nodes_used"] else 0.0)
    values["brownian.full.acceptance"] = (
        extra["acceptance_sum"] / extra["acceptance_n"] if extra["acceptance_n"] else 0.0)
    if cli_records:
        values["cli.import_s"] = statistics.median(r["import_s"] for r in cli_records)
        values["cli.main.self_s"] = statistics.median(
            r["stats"]["cli.main"]["self_s"] for r in cli_records)
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}


def run(workload: str, seed: int, seconds: float, trace: bool,
        minimal: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (details, result).

    ``minimal`` keeps the panel and one seeded operation of each kind and
    skips warm-up and the set-up probes: a smoke run for the benchmark's
    own tests.
    """
    t0 = _perf()
    benchenv.import_chordmean()
    import workloads
    from tracer import Tracer

    launcher = workloads.CliLauncher()
    if minimal:
        ops = workloads.build(workload, seed, launcher)
        ops = ([op for op in ops if op.panel]
               + workloads.one_of_each_kind([op for op in ops if not op.panel]))
    else:
        ops = workloads.prepare(workload, seed, launcher)
    setup_samples = [_perf() - t0]

    details = {"workload": workload, "seed": seed, "trace": int(trace),
               "ops_per_pass": len(ops)}
    if not trace:
        q = workloads.TAIL_PERCENTILE[workload]
        # enough passes for ten samples beyond the tail percentile, however
        # slow the machine
        min_passes = 1 if minimal else math.ceil(10.0 / ((1.0 - q / 100.0) * len(ops)))
        ph = run_passes(ops, seconds, min_passes=min_passes)
        # before the set-up probes, whose processes would count as children
        peak_rss_mb = _peak_rss_mb(workload)
        if not minimal:
            setup_samples += [_setup_probe(workload, seed) for _ in range(SETUP_PROBES)]
        attempted, failed = ph.attempted, ph.failed
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": ph.ops_per_s,
            "op_p50_ms": _percentile(ph.latencies, 50.0) * 1e3,
            "op_tail_ms": _percentile(ph.latencies, q) * 1e3,
            "ok_ratio": (attempted - failed) / attempted,
            "max_error_ratio": ph.max_error,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        details.update(digest=ph.digest(), passes=ph.passes, tail_percentile=q,
                       tail_samples_beyond=sum(
                           x > metrics["op_tail_ms"]["value"] / 1e3 for x in ph.latencies),
                       setup_samples_s=setup_samples, failures=ph.failures,
                       latency_by_kind_ms=_latency_by_kind(ph))
        correct = failed == 0
    else:
        # Traced and untraced passes alternate, so drift in the machine's
        # speed falls alike on both sides of trace.overhead_ratio.
        untraced, traced, tr = run_passes(ops, 0), Phase(), Tracer()
        t_start = _perf()
        while True:
            if workload == "cli":
                launcher.traced = True
            else:
                tr.install()
            try:
                traced.extend(run_passes(ops, 0, untraced.first_pass))
            finally:
                tr.uninstall()
                launcher.traced = False
            if _perf() - t_start >= seconds:
                break
            untraced.extend(run_passes(ops, 0, untraced.first_pass))
        for record in launcher.records:
            tr.merge(record)
        metrics = layer_metrics(tr, traced.passes, len(ops), launcher.records,
                                untraced.ops_per_s / traced.ops_per_s)
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        digest_match = untraced.digest() == traced.digest()
        details.update(digest=untraced.digest(), traced_digest=traced.digest(),
                       digest_match=digest_match,
                       passes={"untraced": untraced.passes, "traced": traced.passes},
                       failures=untraced.failures + traced.failures)
        correct = failed == 0 and digest_match
    details.update(failed_ratio=failed / attempted, env=benchenv.environment())
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "measure", "sections_rays_mc", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time; whole passes run until it has "
                             "elapsed and the tail percentile has ten samples beyond it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        details, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except benchenv.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in details["failures"]:
        print(f"failed operation: {failure}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
