"""The benchmark in bench/ looks chordmean functions up by name: the per-layer
tracer patches them, and the workloads call ``getattr(cm, fn)``.  Every name
either uses must exist, or a rename silently drops a layer or breaks every
benchmark run while the tests under tests/ still pass."""

import ast
import importlib.util
import pathlib
import sys

import chordmean  # noqa: F401  (loads the modules the tracer names)
import chordmean.cli  # noqa: F401

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
WORKLOADS = BENCH / "workloads.py"


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


def _workload_names():
    """(module, name) for every ``cm.<name>`` attribute, every function name
    passed as a string to ``_op(kind, extract, check, fn, ...)`` and every
    ``from chordmean.<module> import <name>`` in bench/workloads.py."""
    names = []
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "cm"):
            names.append(("chordmean", node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "_op"):
            fn = node.args[3] if len(node.args) > 3 else next(
                k.value for k in node.keywords if k.arg == "fn")
            assert isinstance(fn, ast.Constant), ast.dump(fn)
            names.append(("chordmean", fn.value))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("chordmean"):
            names += [(node.module, alias.name) for alias in node.names]
    return names


def test_workload_names_resolve():
    names = _workload_names()
    assert ("chordmean", "cap_measure_ratio") in names   # the scan finds _op's strings
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"bench/workloads.py uses names that do not exist: {missing}"
