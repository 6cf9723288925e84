"""Per-module span tracing of the boxstab library, installed from outside.

A *layer* is one library module.  The tracer replaces, for the duration of a
``with`` block, every function or method through which control can pass from
one layer into another by a wrapper that opens a span.  A span opens only
when the caller is a different layer, so recursion inside a module opens
none.  A layer's self time is its span time minus the time of the spans of
other layers nested inside it.  Spans are aggregated as they close: per
layer, self nanoseconds and the number of spans opened; per wrapped target
and calling layer, the number of calls (including pass-through ones).

Crossings are found by reading each layer module's namespace: a function
imported from another layer is wrapped where it was imported, and a class
imported from another layer gets its ``__init__`` and public methods wrapped
on the class itself.  Names the benchmark calls directly and crossings the
namespace scan cannot see are listed in ``ENTRY_POINTS`` and ``EXTRA``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter_ns

LAYERS = ("geom", "range2d", "pl3d", "stab5", "stab6", "domcut", "topk")

# (module, attribute path) the benchmark itself calls; wrapped in place.
ENTRY_POINTS = (
    ("geom", "rank_reduce"),
    ("geom", "rank_locate"),
    ("geom", "contains"),
    ("pl3d", "build_pl3"),
    ("pl3d", "query_pl3"),
    ("stab5", "build_stab5"),
    ("stab5", "query_stab5"),
    ("stab6", "build_stab6"),
    ("stab6", "query_stab6"),
    ("topk", "build_topk_stab"),
    ("topk", "query_topk_stab"),
)

# Crossings the namespace scan misses.  stab6.query_stab6 imports
# stab5._query_node inside the function body, so it must be wrapped in the
# stab5 namespace (stab5's own recursion then passes through).  ZR4Fast and
# ZR4Slow are stab6-internal; they are wrapped only so that their calls are
# counted for the fallback share.
EXTRA = (
    ("stab5", "_query_node"),
    ("stab6", "ZR4Fast.query"),
    ("stab6", "ZR4Slow.query"),
)

# Targets whose truthy results are counted, by qualified name.
OBSERVED = ("StabEmpty2.empty",)

BENCH = "bench"  # the caller label of spans opened by the benchmark loop


def _layer_of(obj) -> str | None:
    mod = getattr(obj, "__module__", "") or ""
    pkg, _, name = mod.rpartition(".")
    return name if pkg == "boxstab" and name in LAYERS else None


class Tracer:
    """Span aggregation over the library's module boundaries."""

    def __init__(self):
        self.stack: list[list] = []  # [layer, start_ns, child_ns]
        self.self_ns: Counter = Counter()
        self.spans: Counter = Counter()
        self.calls: Counter = Counter()  # (qualname, caller layer) -> calls
        self.truthy: Counter = Counter()  # target -> truthy results
        self._undo: list[tuple] = []
        self._targets = None  # crossings, found on first entry

    def reset(self) -> None:
        self.self_ns.clear()
        self.spans.clear()
        self.calls.clear()
        self.truthy.clear()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, layer: str, target: str):
        stack = self.stack
        self_ns = self.self_ns
        spans = self.spans
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # read the clock before the bookkeeping, so that its cost lands
            # in this span and not in the caller's self time
            start = perf_counter_ns()
            caller = stack[-1][0] if stack else BENCH
            calls[(target, caller)] += 1
            if caller == layer:
                return fn(*args, **kwargs)
            frame = [layer, start, 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                self_ns[layer] += elapsed - frame[2]
                spans[layer] += 1
                if stack:
                    stack[-1][2] += elapsed

        if target not in OBSERVED:
            return traced
        truthy = self.truthy

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            result = traced(*args, **kwargs)
            truthy[target] += bool(result)
            return result

        return observed

    def _patch(self, owner, attr: str, layer: str) -> None:
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, layer, fn.__qualname__))

    def crossings(self):
        """(owner, attribute, callee layer) of every crossing."""
        mods = {name: importlib.import_module(f"boxstab.{name}") for name in LAYERS}
        found: dict[tuple, tuple] = {}
        classes: dict[type, str] = {}
        for importer, mod in mods.items():
            for name, obj in vars(mod).items():
                callee = _layer_of(obj)
                if callee is None or callee == importer:
                    continue
                if inspect.isclass(obj):
                    classes[obj] = callee
                elif inspect.isfunction(obj):
                    found[(id(mod), name)] = (mod, name, callee)
        for cls, callee in classes.items():
            for attr, val in vars(cls).items():
                if inspect.isfunction(val) and (attr == "__init__" or not attr.startswith("_")):
                    found[(id(cls), attr)] = (cls, attr, callee)
        for layer, path in ENTRY_POINTS + EXTRA:
            owner = mods[layer]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            found[(id(owner), attr)] = (owner, attr, layer)
        return list(found.values())

    def __enter__(self):
        if self._targets is None:
            self._targets = self.crossings()
        for owner, attr, layer in self._targets:
            self._patch(owner, attr, layer)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)
        return False

    # -- results ------------------------------------------------------------

    def calls_to(self, target: str, caller: str | None = None) -> int:
        return sum(
            v for (t, c), v in self.calls.items()
            if t == target and (caller is None or c == caller)
        )
