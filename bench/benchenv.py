"""Where the benchmark finds chordmean, and the environment block it records.

Standard library only at import time: the scripts that time ``import
chordmean`` import this module first.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class MissingSource(RuntimeError):
    """The checkout holds no chordmean source tree to benchmark."""


def import_chordmean():
    """Import chordmean from the checkout's ``src/``, put first on ``sys.path``.

    Raises MissingSource when there is no ``src/chordmean`` next to the
    benchmark, or the import resolved elsewhere, so an installed copy is
    never measured instead.
    """
    if not (SRC / "chordmean" / "__init__.py").is_file():
        raise MissingSource(f"no chordmean source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import chordmean

    if Path(chordmean.__file__).resolve().parent != SRC / "chordmean":
        raise MissingSource(f"chordmean was imported from {chordmean.__file__}, "
                            f"not from {SRC}")
    return chordmean


def child_env() -> dict:
    """Environment for child processes: the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None outside a repo)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    """nproc, CPU model, Python/numpy/BLAS, thread settings and git commit."""
    import numpy as np

    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "CHORDMEAN_THREADS": os.environ.get("CHORDMEAN_THREADS"),
        "git_commit": _git_commit(),
    }
