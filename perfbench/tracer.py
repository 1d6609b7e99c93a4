"""Spans around calls into the toricwonder modules, recorded from outside.

`Tracer.install` replaces every public function of the six modules, and a
few named methods, with a wrapper that records a span (name, start, end,
parent span).  A function is replaced under every name that refers to it
in any toricwonder module, so `toricwonder.cli.build_poset` and
`toricwonder.charts.is_nested` are traced too.  Spans live in flat arrays
in memory; `write` dumps them once the traced pass is over.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
import types
from array import array
from collections import Counter

MODULES = ("lattices", "arrangement", "decomposition", "nested", "charts", "cli")

# (module, class, method) -> span name
METHODS = {
    ("arrangement", "Layer", "contains"): "arrangement.Layer.contains",
    ("arrangement", "LayerPoset", "hasse_edges"): "arrangement.hasse_edges",
    ("charts", "Chart", "character_unit"): "charts.character_unit",
}

# One-line helpers called about a million times per atlas pass; a span each
# would cost more than the work, so their time stays in the caller's self time.
UNTRACED = frozenset({"lattices.mod1", "charts.unit_root"})

# span name -> size of a result, summed for the yield ratios
RESULT_SIZES = {
    "arrangement.layer_components": len,
    "arrangement.build_poset": lambda poset: len(poset.layers),
    "nested.enumerate_maximal": len,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.result_sizes: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        size_of = RESULT_SIZES.get(name)
        stack, span_name, start, end, parent = (
            self._stack, self.span_name, self.start, self.end, self.parent
        )
        sizes = self.result_sizes
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if size_of is not None:
                sizes[name] += size_of(result)
            return result

        return traced

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the public functions and METHODS of every module in MODULES."""
        package = sys.modules["toricwonder"]
        modules = [sys.modules[f"toricwonder.{m}"] for m in MODULES]
        holders = modules + [package]
        for module, short in zip(modules, MODULES):
            for attr, fn in list(vars(module).items()):
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or not isinstance(fn, types.FunctionType)
                    or fn.__module__ != module.__name__
                    or name in UNTRACED
                ):
                    continue
                wrapper = self._wrap(name, fn)
                for holder in holders:
                    for other, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, other, wrapper)
        for (short, cls_name, attr), name in METHODS.items():
            cls = getattr(sys.modules[f"toricwonder.{short}"], cls_name)
            self._set(cls, attr, self._wrap(name, vars(cls)[attr]))

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- derived numbers --------------------------------------------------

    def summary(self) -> dict:
        """Calls, inclusive and self seconds per span name, and result sizes.

        Self time is a span's duration minus its direct children's.
        Inclusive time counts only spans with no ancestor of the same
        name, so recursion is not counted twice.
        """
        n = len(self.span_name)
        names, span_name, parent = self.names, self.span_name, self.parent
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        inclusive: Counter = Counter()
        for i in range(n):
            nid = span_name[i]
            calls[names[nid]] += 1
            self_s[names[nid]] += dur[i] - child[i]
            j = parent[i]
            while j >= 0 and span_name[j] != nid:
                j = parent[j]
            if j < 0:
                inclusive[names[nid]] += dur[i]
        return {
            "spans": n,
            "calls": dict(calls),
            "self_s": dict(self_s),
            "inclusive_s": dict(inclusive),
            "result_sizes": dict(self.result_sizes),
        }

    def write(self, path):
        """Gzipped text: the name table as JSON, then one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(self.names) + "\n")
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{self.span_name[i]}\t{self.start[i]!r}\t"
                    f"{self.end[i]!r}\t{self.parent[i]}\n"
                )
