"""Shared scaffolding for the per-figure experiment runners.

Every paper figure gets a module with a ``run(fast=False)`` function
returning an :class:`ExperimentResult` — a named table whose rows hold
both the paper's reported values and this reproduction's measured
values, so the benchmark suite and EXPERIMENTS.md are generated from
the same data.

``fast=True`` shrinks record lengths and sweep densities for CI-speed
runs; the shapes under test are preserved, only statistical precision
drops.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .. import instrument
from ..errors import MeasurementError
from ..signals.waveform import Waveform

__all__ = [
    "DEFAULT_DT",
    "PRECISION_DT",
    "ExperimentResult",
    "steady_state",
    "format_ps",
    "call_instrumented",
]

#: Default simulation sample interval for experiments, seconds.
DEFAULT_DT = 1e-12

#: Sample interval for precision-critical experiments, seconds.
PRECISION_DT = 0.5e-12

#: Time discarded from the start of simulated records before jitter
#: measurements, seconds.  A scope only ever sees a long-running
#: signal; the first nanoseconds of a simulation contain the circuit's
#: start-up transient, which a bench measurement would never include.
WARMUP_TIME = 3e-9


def steady_state(waveform: Waveform, warmup: float = WARMUP_TIME) -> Waveform:
    """Drop the start-up transient from a simulated record."""
    start = waveform.t0 + warmup
    if start >= waveform.t_end:
        raise MeasurementError(
            "record shorter than the warm-up window; lengthen the pattern"
        )
    return waveform.slice_time(start, waveform.t_end)


def format_ps(seconds: float, digits: int = 1) -> str:
    """Render a time in picoseconds for result tables."""
    return f"{seconds * 1e12:.{digits}f} ps"


def call_instrumented(
    fn: Callable,
    *args,
    collect: bool = False,
    span: Optional[str] = None,
    **kwargs,
) -> Tuple[object, float, Optional[dict]]:
    """Run one unit of work, optionally capturing its own metrics.

    The shared unit runner of ``python -m repro.experiments``'s
    executor and of the campaign workers
    (:class:`repro.workers.worker.WorkerSession`): it is top-level
    picklable call material (executor workers receive ``fn`` by module
    attribute plus plain arguments), and it implements the
    snapshot-per-call discipline the cross-process metric aggregation
    relies on.

    Returns ``(result, duration_s, snapshot)``.  With *collect*, the
    process-local :mod:`repro.instrument` registry is reset and
    enabled before the call and snapshotted after, so a pool worker
    reused for several units ships each unit's metrics separately and
    the parent's :meth:`~repro.instrument.registry.Registry.merge`
    stays a plain sum.  *span* wraps the call in a stage timer.
    """
    snapshot = None
    if collect:
        instrument.get_registry().reset()
        instrument.enable()
    t0 = time.perf_counter()
    if span is not None:
        with instrument.span(span):
            result = fn(*args, **kwargs)
    else:
        result = fn(*args, **kwargs)
    duration = time.perf_counter() - t0
    if collect:
        snapshot = instrument.get_registry().snapshot()
    return result, duration, snapshot


@dataclass
class ExperimentResult:
    """A named result table for one reproduced figure.

    Attributes
    ----------
    experiment:
        Identifier, e.g. ``"fig15"``.
    title:
        Human-readable description.
    rows:
        Table rows; each row is a flat dict of column -> value.
    checks:
        Named shape assertions evaluated by the runner: name -> bool.
        The benchmark suite requires every check to pass.
    notes:
        Free-form commentary (substitutions, known deviations).
    """

    experiment: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: str = ""

    def add_row(self, **columns: object) -> None:
        """Append one table row."""
        self.rows.append(dict(columns))

    def add_check(self, name: str, passed: bool) -> None:
        """Record one shape assertion."""
        self.checks[name] = bool(passed)

    @property
    def all_checks_pass(self) -> bool:
        """True when every recorded shape assertion holds."""
        return all(self.checks.values())

    def failed_checks(self) -> List[str]:
        """Names of the shape assertions that failed."""
        return [name for name, ok in self.checks.items() if not ok]

    def format_markdown(self) -> str:
        """Render the result as a Markdown section (for EXPERIMENTS.md)."""
        lines = [f"## `{self.experiment}` — {self.title}", ""]
        if self.rows:
            columns = list(self.rows[0].keys())
            lines.append("| " + " | ".join(columns) + " |")
            lines.append("|" + "---|" * len(columns))
            for row in self.rows:
                cells = []
                for column in columns:
                    value = row.get(column, "")
                    if isinstance(value, float):
                        cells.append(f"{value:.3g}")
                    else:
                        cells.append(str(value))
                lines.append("| " + " | ".join(cells) + " |")
            lines.append("")
        for name, ok in self.checks.items():
            mark = "x" if ok else " "
            lines.append(f"- [{mark}] {name}")
        if self.checks:
            lines.append("")
        if self.notes:
            lines.append(f"> {self.notes}")
            lines.append("")
        return "\n".join(lines)

    def format_table(self) -> str:
        """Render the rows as an aligned text table."""
        check_lines_always = "\n".join(
            f"  [{'PASS' if ok else 'FAIL'}] {name}"
            for name, ok in self.checks.items()
        )
        if not self.rows:
            parts = [f"[{self.experiment}] {self.title}", "  (no rows)"]
            if check_lines_always:
                parts.append(check_lines_always)
            return "\n".join(parts)
        columns = list(self.rows[0].keys())
        widths = {c: len(c) for c in columns}
        rendered_rows = []
        for row in self.rows:
            rendered = {}
            for column in columns:
                value = row.get(column, "")
                if isinstance(value, float):
                    text = f"{value:.3g}"
                else:
                    text = str(value)
                rendered[column] = text
                widths[column] = max(widths[column], len(text))
            rendered_rows.append(rendered)
        header = "  ".join(c.ljust(widths[c]) for c in columns)
        separator = "  ".join("-" * widths[c] for c in columns)
        body = "\n".join(
            "  ".join(r[c].ljust(widths[c]) for c in columns)
            for r in rendered_rows
        )
        check_lines = "\n".join(
            f"  [{'PASS' if ok else 'FAIL'}] {name}"
            for name, ok in self.checks.items()
        )
        parts = [f"[{self.experiment}] {self.title}", header, separator, body]
        if check_lines:
            parts.append(check_lines)
        if self.notes:
            parts.append(f"  note: {self.notes}")
        return "\n".join(parts)
