"""Informational selftest timing report; not a workload and not gated.

    python3 bench/selftest_timings.py

Runs the acceptance criteria 1-14 once each and prints one JSON object with
every criterion's ``CheckResult.seconds`` and ``passed``, plus the
environment block.  The full list takes about a minute and a half on a
2-core machine.
"""

import json

import benchenv


def report(ids) -> dict:
    """Run the criteria ``ids`` once each; their timings and outcomes."""
    benchenv.import_chordmean()
    from chordmean import selftest

    results = selftest.run_checks(ids)
    return {
        "criteria": [{"criterion": r.criterion, "name": r.name, "passed": bool(r.passed),
                      "seconds": r.seconds} for r in results],
        "total_s": sum(r.seconds for r in results),
        "env": benchenv.environment(),
    }


def main() -> None:
    benchenv.import_chordmean()
    from chordmean import selftest

    print(json.dumps(report(selftest.FULL_IDS), indent=2))


if __name__ == "__main__":
    main()
