"""Lightweight observability for the simulator: spans, counters, manifests.

The package is a zero-dependency tracing/metrics layer with one hard
requirement: **disabled must cost nothing**.  Instrumentation points
all funnel through this facade, whose functions check one module-level
flag and fall through to no-ops, so the default (disabled) state adds
a single attribute read plus a cheap call per instrumentation point —
far below measurement noise for the array-sized operations being
timed.

Usage::

    from repro import instrument

    instrument.enable()
    with instrument.span("calibration"):
        line.calibrate()                      # nested spans accumulate
    instrument.count("runs")
    snapshot = instrument.get_registry().snapshot()
    print(instrument.profile_table(snapshot))

What gets recorded when enabled:

* :func:`span` — nestable wall-clock stage timers (delay-line stages,
  deskew iterations, calibration sweeps, experiment runners); a helper
  thread nests its spans under its caller's with :func:`open_path` and
  :func:`nested_under`;
* :func:`count` — monotonic counters;
* :func:`record_kernel_op` — the kernel dispatcher's per-op call /
  sample / wall-time counters plus which backend served the call.

Aggregation across a process pool is by value: each worker snapshots
its own registry and the parent merges (see
:class:`~repro.instrument.registry.Registry`).  A whole run serialises
to a validated JSON manifest (:mod:`repro.instrument.manifest`) which
``python -m repro.experiments --metrics-json`` writes and CI archives.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    ContextManager,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .manifest import (
    MANIFEST_SCHEMA,
    MANIFEST_VERSION,
    build_manifest,
    kernel_stats,
    profile_table,
    validate_manifest,
    write_manifest,
)
from .registry import Registry, Span

__all__ = [
    "Registry",
    "Span",
    "enabled",
    "enable",
    "disable",
    "enabled_scope",
    "registry_scope",
    "get_registry",
    "span",
    "open_path",
    "nested_under",
    "count",
    "record_kernel_op",
    "MANIFEST_SCHEMA",
    "MANIFEST_VERSION",
    "build_manifest",
    "kernel_stats",
    "profile_table",
    "validate_manifest",
    "write_manifest",
]

_enabled: bool = False
_registry = Registry()


class _NullSpan:
    """The shared do-nothing span returned while instrumentation is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def enabled() -> bool:
    """True when instrumentation points record into the registry."""
    return _enabled


def enable() -> Registry:
    """Turn recording on; returns the global registry."""
    global _enabled
    _enabled = True
    return _registry


def disable() -> None:
    """Turn recording off (the no-op fast path; the default state)."""
    global _enabled
    _enabled = False


@contextmanager
def enabled_scope(reset: bool = False) -> Iterator[Registry]:
    """Enable instrumentation for a ``with`` block, then restore.

    ``reset=True`` clears the registry on entry — the benchmark/test
    idiom for measuring one operation in isolation.
    """
    previous = _enabled
    if reset:
        _registry.reset()
    enable()
    try:
        yield _registry
    finally:
        if not previous:
            disable()


@contextmanager
def registry_scope(
    registry: Optional[Registry] = None, record: bool = True
) -> Iterator[Registry]:
    """Swap in a private registry (fresh by default) for a ``with`` block.

    This is the **per-run scoping** hook: a benchmark loop runs each
    campaign inside its own registry, so its counters and spans
    describe exactly that run — not the process's lifetime tally —
    while instrumentation points throughout the library keep
    funnelling through the module-level facade unchanged.

    The swap is process-global, so scopes must not overlap: one
    writer at a time (runs execute sequentially, which is what makes
    this exact).  On exit both the previous registry and the previous
    enabled flag are restored.

    ``record=False`` installs the registry without enabling recording
    (rarely useful; symmetry with :func:`enabled_scope`).
    """
    global _registry, _enabled
    previous_registry = _registry
    previous_enabled = _enabled
    _registry = registry if registry is not None else Registry()
    _enabled = record
    try:
        yield _registry
    finally:
        _registry = previous_registry
        _enabled = previous_enabled


def get_registry() -> Registry:
    """The process-global registry (also valid while disabled)."""
    return _registry


def span(name: str) -> Union[Span, _NullSpan]:
    """A stage-timer context manager; a shared no-op when disabled."""
    if not _enabled:
        return _NULL_SPAN
    return _registry.span(name)


def open_path() -> Tuple[str, ...]:
    """The calling thread's open span names (pass to :func:`nested_under`)."""
    return _registry.open_path()


def nested_under(path: Sequence[str]) -> ContextManager[None]:
    """Nest this thread's spans under another thread's :func:`open_path`."""
    return _registry.nested_under(path)


def count(name: str, value: float = 1) -> None:
    """Add *value* to a monotonic counter; a no-op when disabled."""
    if _enabled:
        _registry.count(name, value)


def record_kernel_op(
    op: str, backend: str, samples: int, seconds: float
) -> None:
    """Record one kernel dispatch (called by :mod:`repro.kernels`).

    Emits the four flat counters the manifest's ``kernels`` section is
    built from: per-op ``calls``/``samples``/``seconds`` and the
    per-backend call tally.
    """
    if not _enabled:
        return
    _registry.count(f"kernels.{op}.calls")
    _registry.count(f"kernels.{op}.samples", int(samples))
    _registry.count(f"kernels.{op}.seconds", float(seconds))
    _registry.count(f"kernels.backend.{backend}.calls")
