"""Shared plumbing for the fused buffer-cascade kernel.

The fine delay line is an N-stage cascade of identical limiting-buffer
stages (slew-limit -> one-pole filter -> noise -> next stage).  Running
it stage by stage through :class:`~repro.signals.waveform.Waveform`
objects costs ~2(N+1) full-record allocations plus per-stage dispatch,
filter-state solves and validation passes — overhead that dominates the
cascade's runtime for typical record lengths.  Each backend has one
fused kernel, ``fine_delay_cascade(values, stages, dt, states)``, that
takes a ``(lanes, samples)`` record, a pre-built per-stage parameter
plan and one carry state per stage, and runs the whole chain in one
call.  A whole record or a batch is a call on fresh states; a stream
chunk is a call on the states the previous chunk left.

This module holds what the two backends and the plan builder share:

* :class:`CascadeStage` — the per-stage parameter record of the plan
  (amplitude target, slew step, compression law, filter coefficients,
  pre-generated noise);
* :class:`CascadeStageState` / :func:`fresh_cascade_state` — the
  per-stage, per-lane carry of the kernel;
* :func:`typical_crossing_interval` — the compression-state seeding
  helper, moved here from ``repro.circuits.vga_buffer`` so backends can
  use it without importing the circuit layer;
* :func:`_flip_scale` — the compression scale a comparator flip sets,
  the one expression both backends evaluate it with.

Every standalone limiting-buffer stage (output driver, fanout leg, mux
driver, one variable-gain stage) is a one-stage plan on the same
kernel, so the per-stage chain of ``process`` calls is a chain of
one-stage kernel calls.  Fused output is byte-identical to that chain
on both backends (``tests/kernels/test_fusion.py``), under the one
kernel contract stated in :mod:`repro.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ..errors import CircuitError

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
        ``iir.lfilter_zi(b, a)`` — the settled filter state for a unit
        input, scaled by the first slewed sample at run time.
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

    def __post_init__(self) -> None:
        if not np.all(np.asarray(self.max_step) > 0):
            raise CircuitError(f"max_step must be positive: {self.max_step}")


@dataclass
class CascadeStageState:
    """Carried state of one cascade stage, one entry per lane.

    The cascade kernel threads one of these per stage through
    successive calls, so a chunked run continues each lane's
    per-sample recurrences — comparator flips, compression-scale decay,
    slew tracking, filter memory — exactly where the previous chunk
    left them.  Every array member holds one entry (or, for
    ``filter_zi``, one row) per lane.

    Two kinds of members live here:

    * **Frozen whole-record statistics** (``hysteresis``,
      ``initial_interval``): a whole-record call derives these from the
      full record (a percentile swing estimate and the median crossing
      interval of each lane).  A stream cannot see the full record, so
      they are frozen once — by a priming pass, or from the first
      chunk — and reused for every subsequent chunk.
    * **Dynamic recurrence state** (``comp_state``, ``count``,
      ``elapsed``, ``scale``, ``slew_y``, ``filter_zi``): written at
      the bottom of each kernel call and read at the top of the next.
      A lane's half-cycle age is ``count * dt + elapsed``: ``count``
      is the integer number of samples since its last comparator flip
      (or since the record began) and ``elapsed`` is the seed interval
      until the lane's first flip, 0.0 after it.  Carrying the count,
      not the product, rounds the age once per half-cycle however the
      record is split, so a stream matches the whole record byte for
      byte.

    ``primed`` distinguishes a fresh state (the kernel seeds every
    lane's recurrences from this chunk's first sample) from a carried
    one.

    ``scratch`` holds full-length work arrays a backend kernel reuses
    from call to call (see :meth:`buffer`).  They carry no state: every
    call overwrites them before reading, so a stream's same-length
    chunks allocate no fresh scratch, and a fresh state's scratch is
    freed with the state when a whole-record call returns.
    """

    hysteresis: Optional[np.ndarray] = None
    initial_interval: Optional[np.ndarray] = None
    comp_state: Optional[np.ndarray] = None  # +1/-1 comparator state
    count: Optional[np.ndarray] = None  # int64 samples since last flip
    elapsed: Optional[np.ndarray] = None
    scale: Optional[np.ndarray] = None
    slew_y: Optional[np.ndarray] = None
    filter_zi: Optional[np.ndarray] = None
    primed: bool = False
    scratch: "dict[str, np.ndarray]" = field(
        default_factory=dict, repr=False, compare=False
    )

    def buffer(self, name: str, shape: "tuple[int, ...]") -> np.ndarray:
        """The float64 scratch array *name* of *shape*, uninitialised.

        The same array comes back while the shape holds; a new shape
        (a stream's shorter last chunk) replaces it.
        """
        array = self.scratch.get(name)
        if array is None or array.shape != shape:
            array = self.scratch[name] = np.empty(shape)
        return array

    def freeze_stats(self, hysteresis, initial_interval) -> None:
        """Pin the whole-record statistics (one value per lane)."""
        self.hysteresis = np.array(hysteresis, dtype=np.float64).reshape(-1)
        self.initial_interval = np.array(
            initial_interval, dtype=np.float64
        ).reshape(-1)

    def freeze_from(self, v_in: np.ndarray, dt: float) -> None:
        """Freeze the statistics of the ``(lanes, n)`` record *v_in*,
        unless a prime or an earlier chunk already froze them."""
        if self.hysteresis is None:
            upper, lower = np.percentile(v_in, (98.0, 2.0), axis=1)
            self.freeze_stats(
                0.3 * ((upper - lower) / 2.0),
                [typical_crossing_interval(lane, dt) for lane in v_in],
            )


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


def _flip_scale(ratio: np.ndarray, order: int) -> np.ndarray:
    """Compression scale ``1 / (1 + ratio ** order)`` of each flip.

    *ratio* is ``1 / (2 corner)`` over the half-cycle that ended at the
    flip.  Both backends evaluate every flip's scale here, numpy on all
    flips of a call at once and the python loop on a one-element array
    per flip, so they share ``np.power`` (Python-float ``**`` can
    differ from it in the last bit).
    """
    return 1.0 / (1.0 + np.power(ratio, order))
