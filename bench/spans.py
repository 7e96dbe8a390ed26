"""Span tracer for the benchmark's traced run.

`Tracer.install()` wraps every public function of the package's layer
modules and rebinds the wrapper at every module attribute that holds the
original function object, so aliases (`cli.parse_group`) and
`from .abelian import sumset` bindings in other modules are traced too.
Spans (layer function, start, end, parent span, task id) are kept in
compact in-memory arrays and written out by `Tracer.save()` when the run
ends.  Per-layer work counters are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np
from addforms.errors import CapExceeded

PACKAGE = "addforms"
LAYERS = ("abelian", "fourier", "linform", "reduction", "polynomial", "bounds", "cli", "report")

_CHECKERS = {"check_kneser", "check_plunnecke_ruzsa", "check_energy_doubling", "check_energy_bound"}
_PAIR_KERNELS = {"abelian.sumset", "abelian.representation_vector", "abelian.stabilizer"}
_PARSERS = {"abelian.parse_group", "abelian.parse_subset", "abelian.parse_subset_file"}
_EXACT_LINFORM = {"linform.eval_density_fixed", "linform.enumerate_satisfying"}


def _free_vars(system, subset, fixed=(), **_) -> int:
    return subset.group.order ** (system.arity - len(fixed))


def _meter(layer: str, name: str, args, kwargs, result, counts: dict) -> None:
    """Add the work counts of one finished call to `counts`."""
    if layer == "abelian":
        if name == "sumset":
            a, b = args
            counts["abelian.pairs"] += a.size * b.size
        elif name == "representation_vector":
            counts["abelian.pairs"] += args[0].size ** 2
        elif name == "stabilizer":
            s = args[0]
            if 0 < s.size < s.group.order:
                counts["abelian.pairs"] += s.size**2
    elif layer == "fourier" and name == "fourier_transform":
        group = args[1] if len(args) > 1 and args[1] is not None else kwargs.get("group")
        counts["fourier.points"] += (group or args[0].group).order
    elif layer == "linform":
        if name == "eval_density_fixed":
            space = _free_vars(*args, **kwargs)
            counts["linform.assignments"] += float(space)
            counts["linform.satisfying"] += int(result * space)
        elif name == "enumerate_satisfying":
            counts["linform.assignments"] += float(_free_vars(*args, **kwargs))
            counts["linform.satisfying"] += len(result)
        elif name == "estimate_density":
            counts["linform.samples"] += args[2] if len(args) > 2 else kwargs["samples"]
    elif layer == "reduction" and name == "graph_densities":
        counts["reduction.graph_vertices"] += args[0].vertices.size
    elif layer == "bounds" and name in _CHECKERS:
        counts["bounds.checks"] += 1
    elif layer == "report" and name == "dump_json":
        counts["report.bytes"] += len(result.encode())


class Tracer:
    """Records one span per call into a layer's public functions."""

    def __init__(self):
        self.funcs: list[tuple[str, str]] = []  # function id -> (layer, name)
        self.name = array("h")
        self.parent = array("l")
        self.task = array("l")
        self.start = array("d")
        self.end = array("d")
        self.task_id = -1
        self._stack: list[int] = []
        self._in_reduction = 0  # open reduction spans
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._rebound: list[tuple[object, str, object]] = []
        self.counts = {
            key: 0
            for key in (
                "abelian.pairs",
                "fourier.points",
                "linform.assignments",
                "linform.satisfying",
                "linform.samples",
                "linform.refused",
                "reduction.linform_calls",
                "reduction.graph_vertices",
                "bounds.checks",
                "report.bytes",
            )
        }

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Bind the wrapper of every public layer function at every module
        attribute of the package that holds the original."""
        if not self._wrappers:
            for layer in LAYERS:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
                for name, obj in vars(mod).items():
                    if (
                        not name.startswith("_")
                        and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                    ):
                        self._wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._rebound.append((mod, attr, obj))

    def uninstall(self) -> None:
        """Restore every binding that `install` replaced."""
        for mod, attr, obj in reversed(self._rebound):
            setattr(mod, attr, obj)
        self._rebound.clear()

    def _wrap(self, layer: str, name: str, fn):
        fid = len(self.funcs)
        self.funcs.append((layer, name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(fid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.task.append(self.task_id)
            self.end.append(0.0)
            if layer == "linform" and self._in_reduction:
                self.counts["reduction.linform_calls"] += 1
            self._stack.append(idx)
            self._in_reduction += layer == "reduction"
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except CapExceeded as exc:
                if layer == "linform" and not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    self.counts["linform.refused"] += 1
                raise
            finally:
                self.end[idx] = perf_counter()
                self._in_reduction -= layer == "reduction"
                self._stack.pop()
            _meter(layer, name, args, kwargs, result, self.counts)
            return result

        return traced

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "task": np.array(self.task, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def self_times(self) -> np.ndarray:
        """Span duration minus the time covered by its child spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return dur - covered

    def layer_of_span(self) -> np.ndarray:
        layer_ids = np.array([LAYERS.index(layer) for layer, _ in self.funcs], dtype=np.int64)
        return layer_ids[self.arrays()["name"]]

    def duration_of(self, names: set[str]) -> float:
        """Total duration of spans of the named `layer.function`s."""
        a = self.arrays()
        pick = np.array([f"{layer}.{name}" in names for layer, name in self.funcs], dtype=bool)
        mask = pick[a["name"]] if pick.size else np.zeros(a["name"].size, dtype=bool)
        return float((a["end"][mask] - a["start"][mask]).sum())

    def self_time_per_task(self) -> dict[int, float]:
        a = self.arrays()
        sums = np.bincount(a["task"], weights=self.self_times()) if a["task"].size else []
        return {int(t): float(s) for t, s in enumerate(sums) if s}

    def layer_metrics(self) -> dict[str, float]:
        """calls and self_s for every layer plus the work counters and rates."""
        layer = self.layer_of_span()
        self_s = self.self_times()
        calls = np.bincount(layer, minlength=len(LAYERS))
        busy = np.bincount(layer, weights=self_s, minlength=len(LAYERS))
        out: dict[str, float] = {}
        for i, name in enumerate(LAYERS):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(busy[i])
        out.update(self.counts)

        def rate(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0 else 0.0

        out["abelian.mpairs_per_s"] = rate(
            self.counts["abelian.pairs"] / 1e6, self.duration_of(_PAIR_KERNELS)
        )
        out["abelian.parse_s"] = self.duration_of(_PARSERS)
        out["fourier.points_per_s"] = rate(
            self.counts["fourier.points"], self.duration_of({"fourier.fourier_transform"})
        )
        out["linform.assignments_per_s"] = rate(
            self.counts["linform.assignments"], self.duration_of(_EXACT_LINFORM)
        )
        out["linform.samples_per_s"] = rate(
            self.counts["linform.samples"], self.duration_of({"linform.estimate_density"})
        )
        out["bounds.checks_per_s"] = rate(
            self.counts["bounds.checks"], self.duration_of({f"bounds.{c}" for c in _CHECKERS})
        )
        return out

    def save(self, path) -> None:
        """Write the spans and the function table to an .npz file."""
        names = np.array([f"{layer}.{name}" for layer, name in self.funcs])
        np.savez(path, functions=names, **self.arrays())
