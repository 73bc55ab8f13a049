"""Spans and call counts for the per-layer metrics.

The tracer wraps named public functions of tordyn from outside.  A function
imported with `from .x import f` is a second name for the same object in
another module; every such name is rebound to the wrapper, so calls through
the alias are counted too.  Each wrapped call appends one span (name, start,
end, parent) to flat arrays kept in memory; `write` saves them when the run
ends.  A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from array import array
from time import perf_counter


def _functions(package: str, label: str) -> list[tuple[str, str]]:
    """(module, function) pairs behind a label `<module>.<function>`.  The
    label `serialization.encode` stands for every `encode_*` function."""
    module, function = label.split(".")
    if label == "serialization.encode":
        mod = sys.modules[f"{package}.serialization"]
        return [(module, name) for name in sorted(vars(mod)) if name.startswith("encode_")]
    return [(module, function)]


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.calls: list[int] = []
        self.label_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object, object]] = []

    def _label_id(self, label: str) -> int:
        self.labels.append(label)
        self.calls.append(0)
        return len(self.labels) - 1

    def _wrap(self, label_id: int, fn):
        calls, stack = self.calls, self._stack
        label_of, start, end, parent = self.label_of, self.start, self.end, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[label_id] += 1
            idx = len(start)
            label_of.append(label_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self, labels, package: str = "tordyn") -> None:
        """Wrap the functions behind each label and rebind every name that
        refers to them."""
        if not self._bindings:
            self._bind(labels, package)
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def _bind(self, labels, package: str) -> None:
        modules = [m for name, m in sys.modules.items()
                   if isinstance(m, types.ModuleType) and (name == package or name.startswith(package + "."))]
        for label in labels:
            label_id = self._label_id(label)
            for modname, fname in _functions(package, label):
                original = getattr(sys.modules[f"{package}.{modname}"], fname)
                wrapper = self._wrap(label_id, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bindings.append((mod, attr, original, wrapper))

    def mark(self) -> tuple[int, list[int]]:
        return len(self.start), list(self.calls)

    def calls_since(self, since: tuple[int, list[int]]) -> dict[str, int]:
        return {label: self.calls[k] - since[1][k] for k, label in enumerate(self.labels)}

    def summary(self, since: tuple[int, list[int]]) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and calls per label for the spans recorded after `since`."""
        first = since[0]
        child = {}
        for i in range(len(self.start) - 1, first - 1, -1):
            p = self.parent[i]
            if p >= first:
                child[p] = child.get(p, 0.0) + self.end[i] - self.start[i]
        self_s = {label: 0.0 for label in self.labels}
        for i in range(first, len(self.start)):
            label = self.labels[self.label_of[i]]
            self_s[label] += self.end[i] - self.start[i] - child.get(i, 0.0)
        return self_s, self.calls_since(since)

    def write(self, path: str, rounds: list) -> None:
        """Save the spans: a JSON header (labels, span count, and the span
        range of every traced round) followed by the four arrays in native
        binary."""
        header = {"labels": self.labels, "spans": len(self.start), "rounds": rounds,
                  "arrays": ["label_of:int32", "start:float64", "end:float64", "parent:int32"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.label_of, self.start, self.end, self.parent):
                arr.tofile(fh)
