"""In-memory span tracing of cechmod's layers, installed from outside `src/`.

`install` wraps every public module-level function of the traced layers, plus
the two groupoid methods that dominate the bundle layer, and rebinds each name
in every cechmod module that holds it, so calls made through `from .x import
f` are traced too. The returned callable restores the originals.

A span is (name, parent, start, end). Self time is a span's duration minus
the durations of its direct children, so the self times of all spans under a
root add up to the root's duration.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable

LAYERS = ("algebra", "complexes", "cech", "bundle", "gauge", "snf", "io")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1])
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> float:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()
        return self.span_end[idx] - self.span_start[idx]

    def wrap(self, name, fn: Callable, hook: Callable | None = None) -> Callable:
        """`fn` with a span around each call. `name` is a string, or a
        function of the call's (args, kwargs) that returns one."""
        begin, end = self.begin, self.end
        name_of = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(name_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    def summary(self) -> tuple[dict[str, float], Counter]:
        """Self seconds and call count per span name."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            self_s[name] += dur[i] - child[i]
            calls[name] += 1
        return self_s, calls

    def write(self, path: str) -> None:
        """All spans as gzipped tab-separated `name parent start end` lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("# span\tname\tparent\tstart\tend\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}"
                         f"\t{self.span_start[i]!r}\t{self.span_end[i]!r}\n")


# -- what is traced, and the counts read off return values ----------------------

def _classify_name(args, kwargs) -> str:
    strategy = args[2] if len(args) > 2 else kwargs.get("strategy", "brute")
    return f"cech.classify_{strategy}"


def _on_classify(counters, args, result) -> None:
    if result.cocycles_enumerated is not None:
        counters["cech.leaves"] += result.cocycles_enumerated
        counters["cech.classes"] += result.count


def _on_stabilizer(counters, args, result) -> None:
    counters["cech.stabilizer_size"] += len(result)


def _on_gauge(counters, args, result) -> None:
    counters["gauge.gstar_order"] += result.cm.G.order


def _on_construct(counters, args, result) -> None:
    groupoid = args[0]
    counters["bundle.morphisms"] += len(groupoid.morphisms)
    counters["bundle.compose_entries"] += len(groupoid.compose)


NAMES = {"cech.classify": _classify_name}
HOOKS = {"cech.classify": _on_classify, "cech.stabilizer": _on_stabilizer,
         "gauge.gauge_crossed_module": _on_gauge}


def install(tracer: Tracer) -> Callable[[], None]:
    """Trace the layers of the imported cechmod; return the undo function."""
    package = [m for name, m in sys.modules.items()
               if name == "cechmod" or name.startswith("cechmod.")]
    undo: list[tuple[object, str, object]] = []

    def rebind(original, wrapper) -> None:
        for module in package:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))

    for layer in LAYERS:
        module = sys.modules[f"cechmod.{layer}"]
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != module.__name__:
                continue
            if inspect.isgeneratorfunction(fn):
                raise TypeError(f"{layer}.{attr} is a generator; a span would end too early")
            key = f"{layer}.{attr}"
            rebind(fn, tracer.wrap(NAMES.get(key, key), fn, HOOKS.get(key)))

    bundle = sys.modules["cechmod.bundle"]
    for cls, attr, name, hook in (
            (bundle.FiniteGroupoid, "check_axioms", "bundle.check_axioms", None),
            (bundle.BundleGroupoid, "__init__", "bundle.construct", _on_construct)):
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.wrap(name, original, hook))
        undo.append((cls, attr, original))

    def restore() -> None:
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)

    return restore
