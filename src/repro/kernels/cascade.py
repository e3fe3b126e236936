"""Shared plumbing for the fused buffer-cascade kernels.

The fine delay line is an N-stage cascade of identical limiting-buffer
stages (slew-limit -> one-pole filter -> noise -> next stage).  Running
it stage by stage through :class:`~repro.signals.waveform.Waveform`
objects costs ~2(N+1) full-record allocations plus per-stage dispatch,
filter-state solves and validation passes — overhead that dominates the
cascade's runtime for typical record lengths.  The fused kernels
(``fine_delay_cascade_stream`` / ``fine_delay_cascade_batch`` in each
backend) take the raw input samples plus a pre-built per-stage
parameter plan and run the whole chain in one call; a whole record is
one stream call on fresh state.

This module holds what the two backends and the plan builder share:

* :class:`CascadeStage` — the per-stage parameter record of the plan
  (amplitude target, slew step, compression law, filter coefficients,
  pre-generated noise);
* :class:`CascadeStageState` / :func:`fresh_cascade_state` — the
  per-stage carry of the stream kernel;
* :func:`typical_crossing_interval` — the compression-state seeding
  helper, moved here from ``repro.circuits.vga_buffer`` so backends can
  use it without importing the circuit layer.

Equivalence contract (asserted by ``tests/kernels/test_fusion.py``
against a chain of per-stage ``process`` calls): fused output is
**bit-exact** against the per-stage chain on the python backend, and
within 0.01 ps of measured delay on numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "CascadeStage",
    "CascadeStageState",
    "fresh_cascade_state",
    "typical_crossing_interval",
]


@dataclass(frozen=True)
class CascadeStage:
    """One stage of a fused cascade plan.

    Everything here is resolved *before* the kernel call: control
    voltages are already mapped to amplitude targets, noise is already
    drawn (in stage order, so the fused and per-stage paths consume
    identical generator streams), and the one-pole filter is already
    discretised.  The kernel itself is then a pure array computation.

    Attributes
    ----------
    amplitude:
        Programmed amplitude target, volts — a 0-d array (static
        control), a per-sample array (time-varying Vctrl, i.e. jitter
        injection), or for batch plans ``(n_lanes, 1)`` / per-lane
        per-sample ``(n_lanes, n)`` arrays.
    amplitude_min:
        The part's minimum swing, volts (the uncompressible floor).
        Batch plans whose lanes model *different* device instances
        (campaign packs) carry an ``(n_lanes, 1)`` column instead of a
        shared float.
    v_linear:
        Input linear range of the limiting transconductor, volts.
    max_step:
        Slew limit per sample, volts (``slew_rate * dt``) — a float, or
        an ``(n_lanes, 1)`` column for pack plans with per-lane slew
        rates.
    corner:
        Gain-compression corner, Hz (``inf`` disables compression).
    order:
        Compression-law steepness exponent.
    b, a:
        Bilinear one-pole low-pass coefficients for the stage bandwidth.
    zi_unit:
        ``scipy.signal.lfilter_zi(b, a)`` — the settled filter state for
        a unit input, scaled by the first slewed sample at run time.
    noise:
        Pre-generated band-limited input noise (same shape as the
        record), or ``None`` for a noiseless stage.
    """

    amplitude: Union[float, np.ndarray]
    amplitude_min: Union[float, np.ndarray]
    v_linear: float
    max_step: Union[float, np.ndarray]
    corner: float
    order: int
    b: np.ndarray
    a: np.ndarray
    zi_unit: np.ndarray
    noise: Optional[np.ndarray] = None


@dataclass
class CascadeStageState:
    """Carried state of one cascade stage across chunk boundaries.

    The streaming kernels (``fine_delay_cascade_stream``) thread one of
    these per stage through successive calls, so a chunked run continues
    the per-sample recurrences — comparator flips, compression-scale
    decay, slew tracking, filter memory — exactly where the previous
    chunk left them.

    Two kinds of members live here:

    * **Frozen whole-record statistics** (``hysteresis``,
      ``initial_interval``): a whole-record call derives these from the
      full record (a percentile swing estimate and the median crossing
      interval).  A stream cannot see the full record, so they are
      frozen once — by a priming pass, or from the first chunk — and
      reused for every subsequent chunk.
    * **Dynamic recurrence state** (``comp_state``, ``elapsed``,
      ``scale``, ``slew_y``, ``filter_zi``): read at the top of each
      kernel call and written back at the bottom.

    ``primed`` distinguishes a fresh state (kernel performs the
    first-sample initialisation from this chunk) from a carried one.
    """

    hysteresis: Optional[float] = None
    initial_interval: Optional[float] = None
    comp_state: int = 0  # +1/-1 comparator state; 0 = unprimed
    elapsed: float = 0.0
    scale: float = 1.0
    slew_y: float = 0.0
    filter_zi: Optional[np.ndarray] = None
    primed: bool = False

    def freeze_stats(self, hysteresis: float, initial_interval: float) -> None:
        """Pin the whole-record statistics without touching dynamics."""
        self.hysteresis = float(hysteresis)
        self.initial_interval = float(initial_interval)

    def rearm(self) -> None:
        """Reset the dynamic recurrences, keeping any frozen statistics.

        Used after a priming pass: the stream keeps the statistics the
        prime established but must re-run the first-sample
        initialisation on the first real data chunk.
        """
        self.comp_state = 0
        self.elapsed = 0.0
        self.scale = 1.0
        self.slew_y = 0.0
        self.filter_zi = None
        self.primed = False


def fresh_cascade_state(n_stages: int) -> "list[CascadeStageState]":
    """Return unprimed carry states for an *n_stages* cascade."""
    return [CascadeStageState() for _ in range(n_stages)]


def typical_crossing_interval(v_in: np.ndarray, dt: float) -> float:
    """Median interval between zero crossings of *v_in*, seconds.

    Used to initialise the compression state at the start of a record
    (the record models a snapshot of a signal that has been running at
    its own rate forever).  Returns a long interval (no compression)
    when the record has fewer than two crossings.
    """
    sign = v_in > 0.0
    changes = np.flatnonzero(sign[1:] != sign[:-1])
    if changes.size < 2:
        return 1.0
    # Median via direct partition: same value as np.median (middle
    # element, or the mean of the two middle elements), without the
    # dispatch overhead — this runs once per lane per stage.
    intervals = np.diff(changes)
    half = intervals.size // 2
    if intervals.size % 2:
        median = float(np.partition(intervals, half)[half])
    else:
        middle = np.partition(intervals, (half - 1, half))
        median = (float(middle[half - 1]) + float(middle[half])) / 2.0
    return median * dt

