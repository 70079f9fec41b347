"""Spans and counters for the traced run, applied from outside the package.

``Tracer.install`` replaces every public function of each zsum layer with a
wrapper that records a span (name, start, end, parent), in the function's
home module and in every zsum module that imported it by name, and wraps
the ``AbelianGroup`` arithmetic methods with call counters.  ``uninstall``
puts the originals back.  Spans stay in memory (flat arrays, one entry per
call) until ``summary`` reduces them.  Nothing in ``src/`` is edited.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("groups", "davenport", "zerosum", "weighted", "conjecture", "serialize", "cli")
COUNTED_METHODS = ("add", "scalar_mul", "check_element")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.nested = array("b")  # 1 if an enclosing span has the same name
        self.start = array("q")
        self.end = array("q")
        self.counts = dict.fromkeys(COUNTED_METHODS, 0)
        self.davenport_get_hits = 0
        self._active: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        self._active.append(0)
        stack, active = self._stack, self._active
        name_id, parent, nested = self.name_id, self.parent, self.nested
        start, end, clock = self.start, self.end, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            nested.append(1 if active[nid] else 0)
            end.append(0)
            active[nid] += 1
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                active[nid] -= 1
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_davenport_hit(self, record) -> None:
        if record.method == "cache":
            self.davenport_get_hits += 1

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"zsum.{layer}") for layer in LAYERS}
        loaded = [m for name, m in sys.modules.items() if name == "zsum" or name.startswith("zsum.")]
        hooks = {"davenport.davenport_get": self._count_davenport_hit}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or inspect.isgeneratorfunction(fn)):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, hooks.get(name))
                for m in loaded:
                    for a, v in list(vars(m).items()):
                        if v is fn:
                            self._patches.append((m, a, fn))
                            setattr(m, a, wrapper)

        group_cls = modules["groups"].AbelianGroup
        for meth in COUNTED_METHODS:
            orig = group_cls.__dict__[meth]
            self._patches.append((group_cls, meth, orig))
            setattr(group_cls, meth, self._counter(meth, orig))

    def _counter(self, meth: str, orig):
        counts = self.counts

        def wrapper(self_, *args):
            counts[meth] += 1
            return orig(self_, *args)

        return wrapper

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._patches):
            setattr(target, attr, orig)
        self._patches.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds (outermost spans only, so
        recursion is not counted twice), self seconds (duration minus the
        time its child spans cover) and the longest single span."""
        n = len(self.start)
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name_id[i]]]
            dur = end[i] - start[i]
            entry["calls"] += 1
            entry["self_s"] += (dur - child[i]) / 1e9
            if not self.nested[i]:
                entry["s"] += dur / 1e9
            entry["max_s"] = max(entry["max_s"], dur / 1e9)
        return out

    def layer_self_s(self, summary: dict[str, dict]) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, entry in summary.items():
            totals[name.split(".", 1)[0]] += entry["self_s"]
        return totals

    @property
    def span_count(self) -> int:
        return len(self.start)
