"""Per-layer tracing of singclass from outside the program.

Each layer is one module of the package.  ``Tracer.install`` replaces the
layer's public functions and the public and arithmetic methods of its public
classes with wrappers, and rebinds every name in every loaded singclass
module that refers to a replaced function, so a call through an imported
name such as ``singclass.cycles.solve_linear`` is seen too.  A wrapper counts
every call.  A call that crosses from one layer into another also records a
span (name, start, end, parent); calls within a layer are only counted, which
keeps the overhead and the span count down while still giving every layer
its self time: a span's duration minus the time its child spans cover.
Spans stay in memory and are written out by ``dump`` at the end of a pass.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("trees", "classes", "exact", "combinatorics", "cycles", "local_models", "grammar", "cli")
ROOT_LAYER = "bench"
_ARITHMETIC = ("__add__", "__sub__", "__mul__", "__neg__", "__call__")

_RENDERERS = (
    "render_class", "render_class_latex", "class_to_json",
    "render_cycles", "render_cycles_latex", "cycles_to_json",
    "render_xpoly", "render_xpoly_latex", "xpoly_to_json",
)


def _terms(result) -> int:
    return len(result.terms)


# Wrapped name -> (sum name, amount(args, result), inclusive-time name).
# Sums and inclusive times feed the size and rate metrics of the layers.
HOOKS = {
    **{f"classes.{name}": ("classes.terms_out", lambda a, r: _terms(r), None)
       for name in ("product_expansion", "psi_power_sing", "basic_to_sing", "sing_to_basic")},
    "exact.solve_linear": ("exact.solve_linear_cells",
                           lambda a, r: len(a[0]) * len(a[0][0]) if a[0] else 0,
                           "exact.solve_linear"),
    **{f"cycles.{name}": ("cycles.terms_out", lambda a, r: _terms(r), None)
       for name in ("completed_cycle", "genus0_part")},
    "cycles.multiply_central": ("cycles.terms_out", lambda a, r: _terms(r), "cycles.multiply_central"),
    "local_models.hurwitz_coordinates": (None, None, "local_models.hurwitz_coordinates"),
    **{f"grammar.{name}": ("grammar.parse_chars", lambda a, r: len(a[0]), "grammar.parse")
       for name in ("parse_class", "parse_cycles")},
    **{f"grammar.{name}": ("grammar.render_chars", lambda a, r: len(r), "grammar.render")
       for name in _RENDERERS},
}

# Memo tables whose public cache_info() gives a layer's hit ratio.
CACHES = {
    "trees.encoding_hit_ratio": ("trees", ("encoding",)),
    "classes.memo_hit_ratio": ("classes", None),  # every memo table of the module
    "combinatorics.partitions_of_hit_ratio": ("combinatorics", ("partitions_of",)),
}


def _cache_tables(module, names):
    if names is not None:
        return [getattr(module, n) for n in names]
    return [obj for _, obj in sorted(vars(module).items()) if hasattr(obj, "cache_info")]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.current = -1
        self.layer = ROOT_LAYER
        self.counts: Counter = Counter()
        self.sums: Counter = Counter()
        self.inclusive: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self._caches: dict[str, tuple[list, tuple[int, int]]] = {}

    # -- spans -----------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, layer: str, t: float):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.current)
        self.span_start.append(t)
        self.span_end.append(t)
        saved = (self.current, self.layer)
        self.current, self.layer = idx, layer
        return idx, saved

    def _close(self, idx: int, saved, t: float):
        self.span_end[idx] = t
        self.current, self.layer = saved

    def run_op(self, fn):
        """Run one op of the workload as a root span."""
        idx, saved = self._open(self._name_id(f"{ROOT_LAYER}.op"), ROOT_LAYER, perf_counter())
        try:
            return fn()
        finally:
            self._close(idx, saved, perf_counter())

    def _wrap(self, layer: str, key: str, fn):
        tracer, counts = self, self.counts
        nid = self._name_id(key)
        sum_name, amount, timer = HOOKS.get(key, (None, None, None))
        hooked = sum_name is not None or timer is not None

        def wrapper(*args, **kwargs):
            counts[key] += 1
            cross = tracer.layer != layer
            if not cross and not hooked:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            if cross:
                idx, saved = tracer._open(nid, layer, t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if cross:
                    tracer._close(idx, saved, t1)
            if sum_name is not None:
                tracer.sums[sum_name] += amount(args, result)
            if timer is not None:
                tracer.inclusive[timer] += t1 - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing the wrappers -----------------------------------------
    def install(self):
        for metric, (layer, names) in CACHES.items():
            tables = _cache_tables(importlib.import_module(f"singclass.{layer}"), names)
            self._caches[metric] = (tables, _cache_totals(tables))
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"singclass.{layer}")
            names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
            for name in names:
                obj = getattr(module, name)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_methods(layer, obj)
                elif callable(obj):
                    replaced[id(obj)] = self._wrap(layer, f"{layer}.{name}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != "singclass" and not modname.startswith("singclass."):
                continue
            for name, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._restore.append((module, name, value))
                    setattr(module, name, wrapper)

    def _wrap_methods(self, layer: str, cls: type):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _ARITHMETIC:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(layer, key, attr.__func__))
            elif callable(attr):
                new = self._wrap(layer, key, attr)
            else:
                continue
            self._restore.append((cls, name, attr))
            setattr(cls, name, new)

    def uninstall(self):
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    # -- results ---------------------------------------------------------
    def cache_use(self) -> dict[str, list[int]]:
        """Memo-table hits and misses since ``install``, per hit-ratio metric."""
        out = {}
        for metric, (tables, (hits0, misses0)) in self._caches.items():
            hits, misses = _cache_totals(tables)
            out[metric] = [hits - hits0, misses - misses0]
        return out

    def layer_self_seconds(self, overhead: dict[str, float]) -> dict[str, float]:
        """Self time per layer: span time minus the time of its child spans,
        less the wrappers' own cost as measured by ``calibrate``.  Without
        that correction a layer reached by many cheap cross-layer calls
        would be charged for the tracing rather than for its work."""
        n = len(self.span_name)
        durations = [self.span_end[i] - self.span_start[i] for i in range(n)]
        self_time = [d - overhead["inner"] for d in durations]
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                self_time[parent] -= durations[i] + overhead["outer"]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        out = {layer: 0.0 for layer in (ROOT_LAYER,) + LAYERS}
        spans = Counter()
        for i in range(n):
            layer = layer_of[self.span_name[i]]
            out[layer] += self_time[i]
            spans[layer] += 1
        for key, calls in self.counts.items():
            spans[key.split(".", 1)[0]] -= calls
        for layer in LAYERS:
            # -spans[layer] calls took the count-only path, inside the layer itself
            out[layer] += spans[layer] * overhead["count_only"]
        return out

    def summary(self) -> dict:
        """Everything the per-layer metrics are made from, as plain JSON data."""
        overhead = calibrate()
        return {
            "self_s": self.layer_self_seconds(overhead),
            "overhead_s": overhead,
            "counts": dict(sorted(self.counts.items())),
            "sums": dict(sorted(self.sums.items())),
            "inclusive_s": dict(sorted(self.inclusive.items())),
            "caches": self.cache_use(),
            "spans": len(self.span_name),
        }

    def dump(self, path):
        """Write the spans: one JSON header line, then name, parent (int32)
        and start, end (float64, perf_counter seconds) arrays of ``count``
        entries each."""
        with open(path, "wb") as f:
            header = {"names": self.names, "count": len(self.span_name),
                      "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(f)


def calibrate(calls: int = 2000, repeats: int = 7) -> dict[str, float]:
    """Seconds a wrapper adds per call: inside its span ("inner"), around
    the span in the caller ("outer"), and on the count-only path.  Each is
    the fastest of several repeats of a loop over a wrapped no-op."""

    def noop():
        return None

    def loop(fn) -> float:
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        return perf_counter() - t0

    bare = min(loop(noop) for _ in range(repeats))
    spanned, counted = [], []
    for _ in range(repeats):
        tracer = Tracer()
        wrapped = tracer._wrap("calibration", "calibration.noop", noop)
        total = loop(wrapped)
        recorded = sum(e - s for s, e in zip(tracer.span_start, tracer.span_end))
        spanned.append((total, recorded))
        tracer.layer = "calibration"
        counted.append(loop(wrapped))
    total, recorded = min(spanned)
    return {
        "inner": recorded / calls,
        "outer": (total - recorded - bare) / calls,
        "count_only": (min(counted) - bare) / calls,
    }


def _cache_totals(tables) -> tuple[int, int]:
    infos = [t.cache_info() for t in tables]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)
