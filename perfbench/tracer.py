"""Span tracer installed around qreduce's public functions from outside.

Every public module-level function of the eight layers, the three hot
methods below and every entry of `verify.PROPERTIES` is replaced by a
wrapper that records one span (name, start, end, parent).  The wrapper is
installed by identity in every `qreduce.*` namespace that holds the
original, so calls through `from .x import f` names, class attributes and
the property registry are all timed.  Spans stay in memory and are
written out once, after the run.

Self time of a span is its duration minus the time covered by its direct
child spans; time spent in private helpers counts towards the nearest
wrapped caller.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import weakref
from array import array

import numpy as np

LAYERS = ("quat", "qlinalg", "functors", "algebra", "dynamics", "sampling",
          "verify", "cli")

# Methods wrapped in addition to the module-level functions.
METHODS = {
    "qlinalg": (("QMatrix", "__matmul__"),),
    "algebra": (("StarAlgebra", "commutant_basis"),
                ("StarAlgebra", "bicommutant_basis")),
}

# Methods whose first argument (the algebra) is remembered, so that a call
# on an algebra object seen before counts as a cache hit.
HIT_TRACKED = ("algebra.StarAlgebra.commutant_basis",
               "algebra.StarAlgebra.bicommutant_basis")


class Tracer:
    """In-memory span recorder with per-name call counts and self time."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.hits: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []   # [span index, child time]
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def wrap(self, name: str, func):
        nid = self._name_id(name)
        clock, stack = time.perf_counter, self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            span_start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_end[idx] = end
                duration = end - span_start[idx]
                self_s[nid] += duration - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += duration

        if name not in HIT_TRACKED:
            return traced
        seen = weakref.WeakSet()
        self.hits[name] = 0

        @functools.wraps(func)
        def hit_counting(obj, *args, **kwargs):
            if obj in seen:
                self.hits[name] += 1
            else:
                seen.add(obj)
            return traced(obj, *args, **kwargs)

        return hit_counting

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap the layers' public functions and rebind every reference."""
        replacements: dict[int, tuple[object, object]] = {}
        verify = importlib.import_module("qreduce.verify")
        for pos, (prop, func) in enumerate(verify.PROPERTIES):
            if id(func) not in replacements:
                replacements[id(func)] = (
                    func, self.wrap(f"verify.prop_{prop}", func))
            verify.PROPERTIES[pos] = (prop, replacements[id(func)][1])
        for layer in LAYERS:
            module = importlib.import_module(f"qreduce.{layer}")
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__
                        and id(obj) not in replacements):
                    replacements[id(obj)] = (
                        obj, self.wrap(f"{layer}.{attr}", obj))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(module, cls_name, None)
                func = vars(cls).get(meth) if cls is not None else None
                if not inspect.isfunction(func):
                    self.missing.append(f"{layer}.{cls_name}.{meth}")
                    continue
                setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", func))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "qreduce"
                                      or mod_name.startswith("qreduce.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    # -- results -------------------------------------------------------

    def calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_s_of(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def layer_self_s(self, layer: str) -> float:
        return sum(s for name, s in zip(self.names, self.self_s)
                   if name.split(".", 1)[0] == layer)

    def hit_ratio(self, name: str) -> float:
        calls = self.calls_of(name)
        return self.hits.get(name, 0) / calls if calls else 0.0

    def metrics(self, names: list[str]) -> dict:
        """Values of the named per-layer metrics that the trace holds:
        `<function>.calls`, `<function>.self_s`, `<layer>.self_s` and
        `<method>.hit_ratio`."""
        values = {}
        for name in names:
            stem, _, what = name.rpartition(".")
            if what == "self_s" and stem in LAYERS:
                values[name] = self.layer_self_s(stem)
                continue
            if what not in ("calls", "self_s", "hit_ratio"):
                continue
            if stem not in self._ids and stem not in self.missing:
                self.missing.append(stem)   # not present in the program
            if what == "calls":
                values[name] = self.calls_of(stem)
            elif what == "self_s":
                values[name] = self.self_s_of(stem)
            else:
                values[name] = self.hit_ratio(stem)
        return values

    def table(self) -> dict:
        return {name: {"calls": c, "self_s": s}
                for name, c, s in zip(self.names, self.calls, self.self_s)
                if c}

    def write_spans(self, path) -> None:
        """Write all spans as one compressed numpy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
