"""Outside tracer: wraps package functions in place and records spans in memory.

`from gotzmann import decompose` yields the re-exported *function*, not the
submodule, so modules are reached through sys.modules.  A function bound into
other namespaces by `from .core import ...` is replaced in every gotzmann.*
namespace that holds it; otherwise calls such as lex -> core.shadow_up would
go unseen.  Generators are timed inside each next().

A span is (name, start, end, parent, operation id).  Self time is a span's
duration minus the durations of its direct child spans; total time counts only
spans with no enclosing span of the same name.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = json.loads((Path(__file__).parent / "layers.json").read_text())
TARGETS = tuple(LAYERS["functions"])
KEYED = "lex.minimal_growth"
COUNTED = "core.all_monomials"


def _resolve(target: str):
    """(owner object, attribute) for a 'module.function' or 'module.Class' target."""
    module, name = target.split(".")
    owner = sys.modules[f"gotzmann.{module}"]
    attr = getattr(owner, name)
    if inspect.isclass(attr):
        return attr, "__post_init__"
    return owner, name


def gotzmann_namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gotzmann" or name.startswith("gotzmann."))]


def is_wrapped(fn) -> bool:
    return getattr(fn, "__traced__", False)


def installed() -> list[str]:
    """Every binding in a gotzmann namespace that is currently a tracing wrapper."""
    found = [f"{ns.__name__}.{key}" for ns in gotzmann_namespaces()
             for key, value in vars(ns).items() if is_wrapped(value)]
    for target in TARGETS:
        owner, attr = _resolve(target)
        if is_wrapped(getattr(owner, attr)):
            found.append(target)
    return sorted(set(found))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.nested = array("b")
        self.start = array("d")
        self.end = array("d")
        self.calls: list[int] = []
        self.depth: list[int] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.enabled = True
        self.seen_keys: set = set()
        self.counters = {f"{KEYED}.distinct_keys": 0, f"{COUNTED}.monomials": 0}
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self.name_id.get(name)
        if nid is None:
            nid = self.name_id[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.depth.append(0)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.nested.append(1 if self.depth[nid] else 0)
        self.depth[nid] += 1
        self.stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, nid: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        self.depth[nid] -= 1

    def add_span(self, name, start, end, parent, op, nested=0) -> int:
        """Append a finished span recorded elsewhere, such as in a child process."""
        self.span_name.append(self.intern(name))
        self.parent.append(parent)
        self.op.append(op)
        self.nested.append(nested)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    # -- wrappers ------------------------------------------------------------

    def _wrapper(self, target: str, fn):
        nid = self.intern(target)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                if tracer.enabled:
                    tracer.calls[nid] += 1
                return _TracedIter(tracer, nid, fn(*args, **kwargs))
        else:
            hook = {KEYED: self._key_hook, COUNTED: self._count_hook}.get(target)

            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                tracer.calls[nid] += 1
                idx = tracer.open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx, nid)
                if hook is not None:
                    hook(args, result)
                return result

        traced.__traced__ = True
        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _key_hook(self, args, result):
        dim, d, ctx = args
        key = (ctx.n, ctx.flavor, d, dim)
        if key not in self.seen_keys:
            self.seen_keys.add(key)
            self.counters[f"{KEYED}.distinct_keys"] += 1

    def _count_hook(self, args, result):
        self.counters[f"{COUNTED}.monomials"] += len(result)

    def install(self):
        """Wrap every target in every gotzmann namespace that binds it."""
        namespaces = gotzmann_namespaces()
        for target in TARGETS:
            owner, attr = _resolve(target)
            original = getattr(owner, attr)
            wrapper = self._wrapper(target, original)
            if inspect.isclass(owner):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._undo.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(self.start))]

    def aggregate(self, bucket_of=None) -> dict:
        """Per name: spans, self_s and total_s.  With bucket_of (op id -> bucket),
        one such table per bucket instead."""
        selfs = self.self_times()
        out: dict = {}
        for i, nid in enumerate(self.span_name):
            table = out.setdefault(bucket_of[self.op[i]], {}) if bucket_of else out
            row = table.setdefault(self.names[nid], {"spans": 0, "self_s": 0.0, "total_s": 0.0})
            row["spans"] += 1
            row["self_s"] += selfs[i]
            if not self.nested[i]:
                row["total_s"] += self.end[i] - self.start[i]
        return out

    def dump(self, path: Path):
        """Write every span as a tab-separated line: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{names[self.span_name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                         f"\t{self.parent[i]}\t{self.op[i]}\n")

    def export(self) -> dict:
        """Spans and counters as plain data, for a child process to hand to its parent."""
        return {
            "names": [self.names[n] for n in self.span_name],
            "start": list(self.start), "end": list(self.end),
            "parent": list(self.parent), "nested": list(self.nested),
            "calls": dict(zip(self.names, self.calls)),
            "counters": self.counters,
        }

    def merge(self, data: dict, op: int, parent: int):
        """Append a child's exported spans under the given parent span."""
        base = len(self.start)
        for name, s, e, p, nest in zip(data["names"], data["start"], data["end"],
                                       data["parent"], data["nested"]):
            self.add_span(name, s, e, parent if p < 0 else base + p, op, nest)
        for name, count in data["calls"].items():
            self.calls[self.intern(name)] += count
        for key, value in data["counters"].items():
            self.counters[key] += value


class _TracedIter:
    """A generator whose every next() is a span of the generator function's name."""

    def __init__(self, tracer: Tracer, nid: int, gen):
        self.tracer, self.nid, self.gen = tracer, nid, gen

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        if not tracer.enabled:
            return next(self.gen)
        idx = tracer.open(self.nid)
        try:
            return next(self.gen)
        finally:
            tracer.close(idx, self.nid)
