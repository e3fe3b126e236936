"""The tracing/metrics core: counters, nestable spans, snapshots.

A :class:`Registry` is a plain in-process store with two kinds of
entries:

counters
    Monotonic numbers keyed by dotted names
    (``"kernels.fine_delay_cascade.calls"``).  :meth:`Registry.count` adds to
    them; they only ever grow.
spans
    Wall-clock stage timers keyed by ``/``-joined paths
    (``"deskew/measure_arrivals/bus.acquire"``).  Spans nest through a
    thread-local stack, so the same code emits the same span name
    everywhere and the registry attributes the time to wherever the
    call actually sat in the stage tree.  A helper thread adopts its
    caller's open path (:meth:`Registry.nested_under`), so work split
    across threads lands under the same paths as inline work.

Everything is thread-safe behind one lock.  Process safety is by
value, not by sharing: each worker process accumulates into its own
registry and ships a :meth:`Registry.snapshot` back; the parent
:meth:`Registry.merge`-s the snapshots, which is how the experiment
runner aggregates across a ``--jobs N`` process pool.

This module never checks the global enable flag — that fast path lives
in :mod:`repro.instrument`'s facade, so a disabled run costs one
module-attribute read per instrumentation point.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence, Tuple

__all__ = ["Registry", "Span"]


class Span:
    """Times one ``with`` block and records it under its nested path."""

    __slots__ = ("_registry", "_name", "_path", "_t0")

    def __init__(self, registry: "Registry", name: str):
        self._registry = registry
        self._name = str(name)

    def __enter__(self) -> "Span":
        stack = self._registry._stack()
        self._path = "/".join(stack + [self._name])
        stack.append(self._name)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._t0
        stack = self._registry._stack()
        if stack and stack[-1] == self._name:
            stack.pop()
        self._registry._record_span(self._path, elapsed)
        return False


class Registry:
    """Thread-safe store of counters and span timings."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._spans: Dict[str, Dict[str, float]] = {}
        self._local = threading.local()

    # -- counters ----------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Add *value* to the counter *name* (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    # -- spans -------------------------------------------------------------

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def open_path(self) -> Tuple[str, ...]:
        """The calling thread's open span names, outermost first."""
        return tuple(self._stack())

    @contextmanager
    def nested_under(self, path: Sequence[str]) -> Iterator[None]:
        """Open this thread's spans under *path* for a ``with`` block.

        *path* is another thread's :meth:`open_path`: work handed to a
        helper thread keeps the span paths it would have had inline.
        """
        stack = self._stack()
        saved = stack[:]
        stack[:] = path
        try:
            yield
        finally:
            stack[:] = saved

    def span(self, name: str) -> Span:
        """A context manager timing one stage, nested under open spans."""
        return Span(self, name)

    def _record_span(self, path: str, elapsed: float) -> None:
        with self._lock:
            stat = self._spans.get(path)
            if stat is None:
                self._spans[path] = {"calls": 1, "total_s": elapsed}
            else:
                stat["calls"] += 1
                stat["total_s"] += elapsed

    # -- aggregation -------------------------------------------------------

    def snapshot(self) -> dict:
        """A deep-copied, JSON-friendly view of the current state."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "spans": {path: dict(s) for path, s in self._spans.items()},
            }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add; span stats add call counts and total times.  This
        is the cross-process aggregation primitive: workers snapshot,
        the parent merges.
        """
        counters = snapshot.get("counters", {})
        spans = snapshot.get("spans", {})
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            for path, stat in spans.items():
                mine = self._spans.get(path)
                if mine is None:
                    self._spans[path] = {
                        "calls": int(stat["calls"]),
                        "total_s": float(stat["total_s"]),
                    }
                else:
                    mine["calls"] += int(stat["calls"])
                    mine["total_s"] += float(stat["total_s"])

    def reset(self) -> None:
        """Drop all counters and span statistics (open spans keep going)."""
        with self._lock:
            self._counters.clear()
            self._spans.clear()
