"""Spans around calls into ``dscodes``, recorded from outside the package.

A :class:`Tracer` keeps every span in memory as (name, start, end, parent)
in flat arrays, so millions of short calls stay affordable, and writes them
out at the end.  :func:`install` rebinds each traced function in every
loaded module that holds it by name (``from .code import
iter_error_syndromes`` makes a second binding that patching ``code`` alone
would miss) and replaces traced methods on their classes.  Names that no
longer exist are reported as missing instead of failing the run.

A span's busy time is its duration; for a generator it is the time spent
inside ``next`` only.  Self time is busy time minus the busy time of its
direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.gen_busy: dict[int, int] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.seen: dict[str, set] = defaultdict(set)
        self.stack = [-1]

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.stack.append(i)
        self.start.append(_clock())
        self.end.append(0)
        return i

    def close(self, i: int) -> None:
        self.end[i] = _clock()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def callback(self, fn, name: str = "decode.decoder"):
        """Wrap a callback the benchmark supplies while tracing; else return it."""
        return wrap_call(self, fn, name, distinct_per_parent) if self.enabled else fn

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def iterate(self, i: int, it, name: str):
        """Re-yield ``it``, charging only the time inside ``next`` to span i."""
        busy = self.end[i] - self.start[i]
        last = self.end[i]
        items = 0
        try:
            while True:
                self.stack.append(i)
                t0 = _clock()
                try:
                    item = next(it)
                except StopIteration:
                    break
                finally:
                    last = _clock()
                    busy += last - t0
                    self.stack.pop()
                items += 1
                yield item
        finally:
            self.end[i] = last
            self.gen_busy[i] = busy
            self.counts[name + ".items"] += items

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        busy = (end - start).astype(np.float64)
        for i, b in self.gen_busy.items():
            busy[i] = b
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=busy[nested], minlength=n)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=busy, minlength=k)
        own = np.bincount(name, weights=busy - child, minlength=k)
        return {
            nm: {"calls": int(calls[j]), "s": total[j] / 1e9, "self_s": own[j] / 1e9}
            for j, nm in enumerate(self.names)
        }

    def children_named(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans directly under a ``parent_name`` span."""
        if parent_name not in self._ids or child_name not in self._ids:
            return 0
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        hits = (name == self._ids[child_name]) & (parent >= 0)
        parents = parent[hits]
        return int((name[parents] == self._ids[parent_name]).sum())

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            generator_span=np.array(list(self.gen_busy), dtype=np.int64),
            generator_busy_ns=np.array(list(self.gen_busy.values()), dtype=np.int64),
        )


Hook = Callable[[Tracer, int, tuple, dict, object, BaseException | None], None]


def distinct_per_parent(tracer: Tracer, i, args, kwargs, result, exc) -> None:
    """Remember the bits of the last argument, per parent span."""
    tracer.seen[tracer.names[tracer.name[i]]].add((tracer.parent[i], args[-1].bits))


def wrap_call(tracer: Tracer, fn, name, hook: Hook | None = None):
    """Span around each call; ``name`` may be a function of (args, kwargs)."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        i = tracer.open(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(i)
            if hook is not None:
                hook(tracer, i, args, kwargs, None, exc)
            raise
        tracer.close(i)
        if hook is not None:
            hook(tracer, i, args, kwargs, result, None)
        return result

    return traced


def wrap_generator(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        i = tracer.open(name)
        try:
            it = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        return tracer.iterate(i, it, name)

    return traced


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # "func" or "Class.method"
    name: object  # span name, or function of (args, kwargs)
    generator: bool = False
    hook: Hook | None = None
    only_module: bool = False  # rebind in ``module`` alone


def install(tracer: Tracer, targets: list[Target], extra_modules: tuple[str, ...] = ()):
    """Wrap every target; returns (bindings patched, span names missing)."""
    bindings: list[str] = []
    missing: list[str] = []
    for t in targets:
        label = t.name if isinstance(t.name, str) else f"{t.module}.{t.attr}"
        try:
            owner = importlib.import_module(t.module)
        except ImportError:
            missing.append(label)
            continue
        *path, attr = t.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None:
            missing.append(label)
            continue
        if t.generator:
            wrapper = wrap_generator(tracer, orig, t.name)
        else:
            wrapper = wrap_call(tracer, orig, t.name, t.hook)
        if path:
            setattr(owner, attr, wrapper)
            bindings.append(f"{t.module}.{t.attr}")
            continue
        for mod_name, mod in list(sys.modules.items()):
            if t.only_module:
                if mod_name != t.module:
                    continue
            elif mod is None or not (
                mod_name == "dscodes" or mod_name.startswith("dscodes.") or mod_name in extra_modules
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    bindings.append(f"{mod_name}.{key}")
    return bindings, missing
