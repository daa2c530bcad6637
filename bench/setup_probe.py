"""Times one benchmark set-up in a fresh process.

    python3 bench/setup_probe.py --workload NAME --seed N

Set-up is importing chordmean (numpy included), building the workload's
inputs and warming up, as in run.py.  Prints the seconds.
"""

import argparse
import time

import benchenv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    t0 = time.perf_counter()
    benchenv.import_chordmean()
    import workloads

    workloads.prepare(args.workload, args.seed)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
