"""One traced CLI process: ``python3 bench/cli_child.py <chordmean arguments>``.

Times ``import chordmean`` (numpy included), installs the tracer, runs
``chordmean.cli.main`` as the ``cli.main`` layer and reports the trace
record on stderr after the trace marker.  Stdout and the exit code are the
command's own, so outputs compare byte for byte with ``python -m chordmean``.
"""

import json
import sys
import time

import benchenv
from tracer import TRACE_MARKER, Tracer


def main() -> int:
    t0 = time.perf_counter()
    benchenv.import_chordmean()
    import chordmean.cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        code = chordmean.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    record = tracer.record()
    record["import_s"] = import_s
    print(TRACE_MARKER + json.dumps(record), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
