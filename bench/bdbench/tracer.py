"""Tracing from outside the program.

`Tracer.install` replaces every public function of every belldyn module,
at every module that binds it (so the `from .x import y` copies in cli,
correlations, oracle and nonmarkov too), with a wrapper that records a
span. Spans live in flat arrays until `save` writes them out; `restore`
puts the originals back and checks that it did.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "dynamics", "correlations", "linalg", "oracle", "nonmarkov", "bench")


def public_functions(modules):
    """(module, attribute name, function) for every public belldyn function
    bound in each module, whichever module defines it."""
    out = []
    for mod in modules:
        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__.startswith("belldyn.") and obj.__module__ != "belldyn.__main__":
                out.append((mod, name, obj))
    return out


class Tracer:
    """Spans of one traced run: name, layer, start, end, parent, run id."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = -1
        self._stack: list[int] = []
        self._bound: list[tuple] = []
        #: (span index, function name, evaluations, history) per oracle result
        self.oracle_results: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(LAYERS.index(layer))
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def span(self, name: str, layer: str = "bench"):
        return _Span(self, self._name_id(name, layer))

    def wrap(self, fn):
        layer = fn.__module__.split(".")[1]
        nid = self._name_id(f"{layer}.{fn.__name__}", layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, t0, time.perf_counter())
            if hasattr(result, "evaluations") and hasattr(result, "history"):
                tracer.oracle_results.append(
                    (idx, fn.__name__, int(result.evaluations), np.asarray(result.history))
                )
            return result

        traced.bench_traced = True
        return traced

    # -- installation ------------------------------------------------------

    def install(self, modules) -> int:
        """Wrap every public function at every binding; returns how many
        bindings were replaced."""
        if self._bound:
            raise RuntimeError("tracer already installed")
        wrappers: dict = {}
        for mod, name, fn in public_functions(modules):
            if fn not in wrappers:
                wrappers[fn] = self.wrap(fn)
            self._bound.append((mod, name, fn))
            setattr(mod, name, wrappers[fn])
        return len(self._bound)

    def restore(self) -> None:
        """Put every original back, then check that no binding in any of the
        wrapped modules is still a wrapper."""
        modules = {id(mod): mod for mod, _, _ in self._bound}
        for mod, name, fn in self._bound:
            setattr(mod, name, fn)
        self._bound = []
        stray = [f"{mod.__name__}.{name}" for mod in modules.values()
                 for name, obj in vars(mod).items() if getattr(obj, "bench_traced", False)]
        if stray:
            raise RuntimeError(f"originals not restored: {stray}")

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        """Span table as numpy arrays, with durations and self times."""
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        layer = np.asarray(self.layer_of, dtype=np.int32)[name] if len(name) else name
        return {
            "name": name,
            "layer": layer,
            "parent": parent,
            "run": np.array(self.run, dtype=np.int32),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        table = self.arrays()
        np.savez(path, names=np.array(json.dumps({"names": self.names, "layers": LAYERS})),
                 **{k: table[k] for k in ("name", "layer", "parent", "run", "start", "end")})


class _Span:
    __slots__ = ("tracer", "nid", "idx", "t0")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx, self.t0, time.perf_counter())
        return False
