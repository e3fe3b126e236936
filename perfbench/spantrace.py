"""In-memory span tracing by wrapping the program's functions from outside.

The program under test is not edited: :class:`Tracer` replaces a
function at every name its callers look it up under (a module global
such as ``repro.campaign.runner.calibrate_lines_pack``, or a class
attribute for methods) with a wrapper that records a span, and puts
the originals back on :meth:`Tracer.restore`.

A span is ``(id, parent, name, start, end)``; every span of one tracer
carries its ``run_id``.  A layer's self time is its spans' durations
minus those of their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus its children's durations.

    A span's children ran in its thread (the span stack is per thread),
    so they are nested inside it and never overlap one another.
    """
    result = {span.id: span.end - span.start for span in spans}
    for span in spans:
        if span.parent is not None:
            result[span.parent] -= span.end - span.start
    return result


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s`` and ``self_s``."""
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += span.end - span.start
        entry["self_s"] += own[span.id]
    return totals


class Tracer:
    """Records spans around wrapped functions, in memory, per thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named *name*.

        A call nested in a span of the same name (a layer calling
        itself) is not recorded again, so layer times never double.
        """
        stack = self._stack()
        if any(open_name == name for _id, open_name in stack):
            return fn(*args, **kwargs)
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, parent, name, start, end))

    def install(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to *replacement* until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_method(self, cls, attr: str, name: str) -> None:
        """Trace ``cls.attr`` (a plain function defined on *cls*)."""
        original = cls.__dict__[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs)

        self.install(cls, attr, wrapper)

    def wrap_function(self, fn: Callable, name: str, package: str = "repro") -> int:
        """Trace *fn* under every module global of *package* bound to it.

        Callers that did ``from .x import fn`` hold their own binding,
        so each one is replaced.  Returns how many bindings were found.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        found = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == package or module_name.startswith(package + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.install(module, attr, wrapper)
                    found += 1
        return found

    def restore(self) -> None:
        """Put every original back (in reverse order of wrapping)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"run_id": self.run_id, "spans": [asdict(s) for s in self.spans]},
                handle,
            )
