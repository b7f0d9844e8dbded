"""Span tracer that wraps public functions of the ldphist modules.

Every call into a wrapped function becomes a span: a name, a start and an
end (``perf_counter_ns``), the span that was open around it in the same
thread (its parent) and the trace id current in that thread, so that the
spans of one trial or one user upload share an id.  Spans are kept in
memory, one buffer per thread, and are written out when the run ends.

A layer's self time is the duration of its spans minus the time their
child spans cover.  Targets are looked up by name when the tracer is
installed; a name the program no longer has is recorded as absent and
skipped, so deleting a public function never crashes a traced run.  The
wrappers are removed again by ``uninstall``, and an untraced run never
installs them.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Target:
    """One public name to wrap: ``attr`` is ``func`` or ``Class.method``."""

    span: str
    module: str
    attr: str
    counter: Optional[Callable] = None  # counter(tracer, args, kwargs, result)


class _Buffer:
    __slots__ = ("name", "start", "end", "parent", "trace", "stack", "trace_id")

    def __init__(self):
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trace = array("q")
        self.stack = []
        self.trace_id = -1


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.names = sorted({t.span for t in self.targets})
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []
        self._patches = []  # (owner, attr, original) in install order
        self.counters = {}
        self.absent = set()

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def set_trace_id(self, trace_id: int) -> None:
        """Trace id given to the spans this thread opens from now on."""
        self._buffer().trace_id = trace_id

    def count(self, key: str, value=1) -> None:
        """Add to a counter.  Only work inside a unit (trace id >= 0) is
        counted; set-up work is timed but not counted."""
        if self._buffer().trace_id < 0:
            return
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, fn, span: str, counter):
        name_id = self._name_id[span]
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = tracer._buffer()
            idx = len(buf.start)
            stack = buf.stack
            buf.name.append(name_id)
            buf.parent.append(stack[-1] if stack else -1)
            buf.trace.append(buf.trace_id)
            buf.end.append(0)
            stack.append(idx)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            module = sys.modules.get(target.module)
            if module is None:
                self.absent.add(f"{target.module}.{target.attr}")
                continue
            if "." in target.attr:
                self._install_method(module, target)
            else:
                self._install_function(module, target)

    def _install_function(self, module, target: Target) -> None:
        original = getattr(module, target.attr, None)
        if not callable(original):
            self.absent.add(f"{target.module}.{target.attr}")
            return
        wrapped = self._wrap(original, target.span, target.counter)
        # Patch every package module that imported the function by name,
        # since those modules call it through their own globals.
        package = target.module.split(".")[0]
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def _install_method(self, module, target: Target) -> None:
        cls_name, meth = target.attr.split(".", 1)
        cls = getattr(module, cls_name, None)
        if not isinstance(cls, type) or not hasattr(cls, meth):
            self.absent.add(f"{target.module}.{target.attr}")
            return
        # Wrap the method on the class and on every subclass that
        # overrides it, so that calls through any of them are seen.
        todo, owners = [cls], []
        while todo:
            c = todo.pop()
            if meth in vars(c):
                owners.append(c)
            todo.extend(c.__subclasses__())
        for owner in owners:
            raw = vars(owner)[meth]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, target.span, target.counter))
            else:
                wrapped = self._wrap(raw, target.span, target.counter)
            self._patches.append((owner, meth, raw))
            setattr(owner, meth, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def arrays(self) -> dict:
        """All spans as numpy arrays; ``parent`` indexes the same arrays."""
        with self._lock:
            buffers = list(self._buffers)
        parts = {key: [] for key in ("name", "start", "end", "parent", "trace", "thread")}
        offset = 0
        for thread, buf in enumerate(buffers):
            count = len(buf.start)
            parent = np.array(buf.parent, dtype=np.int64)
            parts["name"].append(np.array(buf.name, dtype=np.uint16))
            parts["start"].append(np.array(buf.start, dtype=np.int64))
            parts["end"].append(np.array(buf.end, dtype=np.int64))
            parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
            parts["trace"].append(np.array(buf.trace, dtype=np.int64))
            parts["thread"].append(np.full(count, thread, dtype=np.int32))
            offset += count
        return {
            key: (np.concatenate(vals) if vals else np.zeros(0, dtype=np.int64))
            for key, vals in parts.items()
        }

    def summary(self, select=None) -> dict:
        """name -> (self seconds, inclusive seconds, span count), over the
        spans for which ``select(trace_ids)`` is true (all spans if None)."""
        a = self.arrays()
        dur = (a["end"] - a["start"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = dur - child
        keep = np.ones(len(dur), dtype=bool) if select is None else select(a["trace"])
        out = {}
        for i, name in enumerate(self.names):
            sel = keep & (a["name"] == i)
            out[name] = (
                float(own[sel].sum()) / 1e9,
                float(dur[sel].sum()) / 1e9,
                int(sel.sum()),
            )
        return out

    def span_count(self) -> int:
        with self._lock:
            return sum(len(buf.start) for buf in self._buffers)

    def save(self, path: str) -> None:
        a = self.arrays()
        np.savez(path, names=np.array(self.names), **a)
