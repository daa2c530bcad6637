"""The per-layer tracer in bench/ looks chordmean functions up by name; every
name it traces must exist, or a rename silently drops a layer."""

import importlib.util
import pathlib
import sys

import chordmean  # noqa: F401  (loads the modules the tracer names)
import chordmean.cli  # noqa: F401

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("chordmean_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load_tracer()
    targets = [t for layer_targets, _ in tracer.LAYERS.values() for t in layer_targets]
    targets.append(("boundary", "cap_indicator"))
    missing = []
    for module, attr in targets:
        owner = sys.modules[f"chordmean.{module}"]
        if "." in attr:             # a method: patched in the class's own __dict__
            cls_name, meth = attr.split(".")
            found = meth in getattr(owner, cls_name, object).__dict__
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{module}.{attr}")
    assert not missing, f"bench/tracer.py traces names that do not exist: {missing}"
