"""Per-layer tracing of chordmean from outside the package.

``Tracer.install`` replaces every module-level binding of the traced
functions (solvers import ``fixed_sum``, ``ball_chord_roots``,
``cap_indicator`` and others by name) and two ``half_resolution`` methods
with wrappers that record, per layer, the outermost calls, the items
processed and the self time: time in the wrapped function minus time in
wrapped functions it called.  ``BoundaryData`` evaluators are traced by
wrapping the data handed to a solver or returned by ``cap_indicator``.
``uninstall`` restores the originals.

Standard library only, so a traced child process can time ``import
chordmean`` (and numpy with it) after importing this module.
"""

from __future__ import annotations

import dataclasses
import sys
import time

_perf = time.perf_counter

# Prefix of the stderr line on which a traced child process reports its record.
TRACE_MARKER = "BENCH_TRACE "


def _rows(x) -> int:
    """Rows of an (N, dim) array, or 1 for a single point."""
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    n = 1
    for s in shape[:-1]:
        n *= s
    return n


def _size(x) -> int:
    size = getattr(x, "size", None)
    return int(size) if size is not None else len(x)


def _arg(i, name):
    def get(args, kwargs):
        return args[i] if len(args) > i else kwargs[name]
    return get


_DIRS = _arg(2, "dirs")

# layer -> (module, attribute) targets, and how to count items per call
LAYERS = {
    "geometry.rule_build": ([("geometry", "build_direction_quadrature"),
                             ("geometry", "DirectionQuadrature.half_resolution")], None),
    "geometry.chord_roots": ([("geometry", "ball_chord_roots"),
                              ("geometry", "ellipse_chord_roots")],
                             lambda a, k: _rows(_DIRS(a, k))),
    "geometry.plane_section": ([("geometry", "plane_section")], None),
    "poisson.rule_build": ([("poisson", "build_boundary_quadrature"),
                            ("poisson", "BoundaryQuadrature.half_resolution"),
                            ("poisson", "measure_quadrature")], None),
    "poisson.kernel": ([("poisson", "kernel_values")],
                       lambda a, k: _rows(_arg(2, "pts")(a, k))),
    "poisson.fixed_sum": ([("poisson", "fixed_sum")],
                          lambda a, k: _size(_arg(0, "values")(a, k))),
    "poisson.solve": ([("poisson", "poisson_solve"),
                       ("poisson", "cap_measure_poisson")], None),
    "averaging.solve": ([("averaging", "solve_harmonic"),
                         ("averaging", "solve_on_domain"),
                         ("averaging", "cross_section_solve"),
                         ("averaging", "chord_interpolant_max")], None),
    "averaging.star_hits": ([("averaging", "star_hits_batch")],
                            lambda a, k: _rows(_DIRS(a, k))),
    "biharmonic.solve": ([("biharmonic", "solve_biharmonic")], None),
    "measure.cap_ratio": ([("measure", "cap_measure_ratio")], None),
    "measure.center_of_mass": ([("measure", "center_of_mass_check")], None),
    "measure.cone": ([("measure", "cone_identity_check")], None),
    "brownian.sampler": ([("brownian", "exits_full_batch"),
                          ("brownian", "exits_disk_exact_batch"),
                          ("brownian", "exits_plane_batch"),
                          ("brownian", "exits_line_batch")],
                         lambda a, k: int(_arg(3, "n")(a, k))),
    "brownian.compare": ([("brownian", "compare_exit_distributions")], None),
    "cli.main": ([("cli", "main")], None),
}
BOUNDARY_LAYER = "boundary.eval"

# Solvers whose second argument is the BoundaryData they evaluate.
_DATA_TAKERS = {("averaging", "solve_harmonic"), ("averaging", "solve_on_domain"),
                ("averaging", "cross_section_solve"),
                ("averaging", "chord_interpolant_max"),
                ("biharmonic", "solve_biharmonic"), ("poisson", "poisson_solve")}
# Direction-quadrature chord solves: their chord-root directions are compared
# with the nodes_used they report.
_CHORD_SOLVES = {("averaging", "solve_harmonic"), ("averaging", "solve_on_domain"),
                 ("biharmonic", "solve_biharmonic")}


class Tracer:
    """Accumulates calls, items and self time per layer while installed."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.extra = {"acceptance_sum": 0.0, "acceptance_n": 0,
                      "chord_dirs": 0.0, "nodes_used": 0}
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}
        self._patches: list[tuple] = []

    # -- accounting ---------------------------------------------------------

    def _layer(self, layer: str) -> dict:
        st = self.stats.get(layer)
        if st is None:
            st = self.stats[layer] = {"calls": 0, "items": 0, "self_s": 0.0}
        return st

    def span(self, layer: str, fn, items=None):
        """Wrap ``fn`` so each call is accounted to ``layer``."""
        stack = self._stack
        depth = self._depth

        def wrapper(*args, **kwargs):
            st = self._layer(layer)
            outer = depth.get(layer, 0) == 0
            if outer:
                st["calls"] += 1
                if items is not None:
                    st["items"] += items(args, kwargs)
            depth[layer] = depth.get(layer, 0) + 1
            frame = [0.0]
            stack.append(frame)
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][0] += dt
                st["self_s"] += dt - frame[0]

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "traced")
        return wrapper

    def _traced_data(self, data):
        if data is None or getattr(data.value, "_bench_traced", False):
            return data
        value = self.span(BOUNDARY_LAYER, data.value, lambda a, k: _rows(a[0]))
        value._bench_traced = True
        gradient = data.gradient
        if gradient is not None:
            gradient = self.span(BOUNDARY_LAYER, gradient, lambda a, k: _rows(a[0]))
        return dataclasses.replace(data, value=value, gradient=gradient)

    def _with_data(self, fn):
        def wrapper(*args, **kwargs):
            if len(args) > 1:
                args = (args[0], self._traced_data(args[1])) + args[2:]
            elif "data" in kwargs:
                kwargs["data"] = self._traced_data(kwargs["data"])
            return fn(*args, **kwargs)
        return wrapper

    def _chord_ratio(self, fn):
        def wrapper(*args, **kwargs):
            before = self._chord_dirs()
            result = fn(*args, **kwargs)
            self.extra["chord_dirs"] += self._chord_dirs() - before
            self.extra["nodes_used"] += result.report.nodes_used
            return result
        return wrapper

    def _chord_dirs(self) -> float:
        # A star-domain chord is two ray searches, one per direction sign.
        roots = self.stats.get("geometry.chord_roots", {}).get("items", 0)
        rays = self.stats.get("averaging.star_hits", {}).get("items", 0)
        return roots + 0.5 * rays

    def _acceptance(self, fn):
        def wrapper(*args, **kwargs):
            points, rate = fn(*args, **kwargs)
            self.extra["acceptance_sum"] += rate
            self.extra["acceptance_n"] += 1
            return points, rate
        return wrapper

    def _cap_indicator(self, fn):
        def wrapper(*args, **kwargs):
            return self._traced_data(fn(*args, **kwargs))
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of the traced functions in loaded chordmean modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import chordmean  # noqa: F401  (the modules below must be loaded)
        import chordmean.cli  # noqa: F401

        replacements = {}      # id(original) -> wrapper
        for layer, (targets, items) in LAYERS.items():
            for module, attr in targets:
                mod = sys.modules[f"chordmean.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._patches.append((cls, meth, orig))
                    setattr(cls, meth, self.span(layer, orig, items))
                    continue
                orig = getattr(mod, attr)
                wrapped = self.span(layer, orig, items)
                if (module, attr) in _CHORD_SOLVES:
                    wrapped = self._chord_ratio(wrapped)
                if (module, attr) in _DATA_TAKERS:
                    wrapped = self._with_data(wrapped)
                if (module, attr) == ("brownian", "exits_full_batch"):
                    wrapped = self._acceptance(wrapped)
                replacements[id(orig)] = (orig, wrapped)
        boundary = sys.modules["chordmean.boundary"]
        orig = boundary.cap_indicator
        replacements[id(orig)] = (orig, self._cap_indicator(orig))

        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "chordmean" or name.startswith("chordmean.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results ------------------------------------------------------------

    def record(self) -> dict:
        return {"stats": {k: dict(v) for k, v in self.stats.items()},
                "extra": dict(self.extra)}

    def merge(self, record: dict) -> None:
        """Add a record from another tracer (a traced child process)."""
        for layer, st in record["stats"].items():
            mine = self._layer(layer)
            for key, value in st.items():
                mine[key] += value
        for key, value in record["extra"].items():
            self.extra[key] += value
