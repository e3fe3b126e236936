"""Pluggable compute kernels for the simulation's stateful inner loops.

Every per-sample loop that dominates the simulator's wall-clock time —
the limiting-buffer cascade (comparator, compression and slew-rate
recurrences of each stage), the edge-matching loop of the delay
measurement, and the comparator walk of the hysteresis edge extractor
— dispatches through this package to one of two interchangeable
backends:

``python``
    The original interpreted loops, kept as the semantic reference
    (~50 ns/sample for the slew limiters).
``numpy``
    Array versions: frontier relaxation for the slew limiters (every
    lane of a call at once, lane results independent of the call),
    full vectorisation for the measurement kernels.

**The kernel contract: python and numpy give the same bytes** — for
every kernel, and so for whole records, packs and streams at any chunk
size.  Both backends compute the compressive slew recurrence with the
same float64 operations in the same order: a comparator flip's
half-cycle age is ``samples since the last flip * dt``, plus the seed
interval before a lane's first flip, and a stream carries that sample
count across chunk boundaries as an integer, so a split record rounds
every age as the whole one does; every flip's compression scale comes
from one helper (:func:`repro.kernels.cascade._flip_scale`); and numpy's
relaxation converges to the reference slew loop bit for bit, the loop
itself finishing any lane still ramping at the sweep cap.  No tolerance
separates the backends or a stream from its whole record
(``tests/kernels/test_byte_contract.py``).

Select with the ``REPRO_KERNELS`` environment variable or
:func:`set_backend` / :func:`use_backend`; the default (``auto``) is
numpy.  See DESIGN.md §"Kernel layer".

Each backend has one fused cascade kernel,
``fine_delay_cascade(values, stages, dt, states)``, over a
``(lanes, samples)`` record with one per-lane carry state per stage.
Every limiting-buffer stage of the simulator runs on it: the fine
delay line's N-stage cascade, and each standalone buffer (output
driver, fanout leg, mux driver, single variable-gain stage) as a
one-stage cascade.  The three public cascade entries are thin callers
of it: :func:`fine_delay_cascade` (one whole record, fresh state),
:func:`fine_delay_cascade_stream` (one chunk, carried state) and
:func:`fine_delay_cascade_batch` (lanes of a batch, fresh state).
Each records its own op counters.  There is no per-stage slew-limiter
op: the reference slew loops (``slew_limit``, which numpy shares, and
the python ``compressive_slew_limit_carry``) are internals of the
cascade.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import instrument
from ..errors import CircuitError
from .cascade import (
    CascadeStage,
    CascadeStageState,
    fresh_cascade_state,
    typical_crossing_interval,
)
from .dispatch import (
    BACKEND_NAMES,
    active_backend,
    get_backend,
    reset_backend,
    set_backend,
    use_backend,
)

__all__ = [
    "BACKEND_NAMES",
    "active_backend",
    "get_backend",
    "reset_backend",
    "set_backend",
    "use_backend",
    "CascadeStage",
    "CascadeStageState",
    "fresh_cascade_state",
    "typical_crossing_interval",
    "match_edges",
    "hysteresis_crossings",
    "nearest_edge_margin",
    "match_edges_batch",
    "fine_delay_cascade",
    "fine_delay_cascade_batch",
    "fine_delay_cascade_stream",
]

PerLane = Union[float, Sequence[float], np.ndarray]


def _run(op: str, samples: int, call):
    """Dispatch one kernel op, recording counters when instrumented.

    *samples* is the op's work size (array elements, or edges for the
    matching kernels); it feeds the manifest's per-op sample counters.
    The disabled path is one flag check — no clocks are read.
    """
    if not instrument.enabled():
        return call()
    t0 = time.perf_counter()
    result = call()
    instrument.record_kernel_op(
        op, active_backend(), samples, time.perf_counter() - t0
    )
    return result


def _as_float_array(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64)


def _per_lane(value: PerLane, n_lanes: int, name: str) -> np.ndarray:
    """Normalise a scalar-or-per-lane parameter to a ``(n_lanes,)`` array."""
    array = np.asarray(value, dtype=np.float64)
    if array.ndim == 0:
        return np.full(n_lanes, float(array))
    if array.shape != (n_lanes,):
        raise CircuitError(
            f"{name} must be a scalar or have one entry per lane "
            f"({n_lanes}), got shape {array.shape}"
        )
    return np.ascontiguousarray(array)


def match_edges(
    ref_edges: np.ndarray,
    out_edges: np.ndarray,
    coarse: float,
    max_edge_offset: float,
) -> np.ndarray:
    """One-to-one greedy matching of reference to output edges.

    Returns the matched offsets ``out - ref`` in reference-edge order.
    Each reference edge proposes its nearest output edge around
    ``ref + coarse``; proposals deviating more than *max_edge_offset*
    from the coarse estimate are discarded, and each output edge is
    granted to at most one reference edge (closest deviation wins).
    """
    ref_edges = _as_float_array(ref_edges)
    out_edges = _as_float_array(out_edges)
    return _run(
        "match_edges",
        ref_edges.size + out_edges.size,
        lambda: get_backend().match_edges(
            ref_edges,
            out_edges,
            float(coarse),
            float(max_edge_offset),
        ),
    )


def hysteresis_crossings(
    v: np.ndarray, hysteresis: float
) -> "Tuple[np.ndarray, np.ndarray]":
    """Comparator-with-hysteresis switch locations on a bare array.

    *v* must already have the threshold subtracted.  Returns
    ``(positions, rising)`` where positions are fractional sample
    coordinates of the bare-threshold crossings that caused each
    comparator switch.
    """
    v = _as_float_array(v)
    return _run(
        "hysteresis_crossings",
        v.size,
        lambda: get_backend().hysteresis_crossings(v, float(hysteresis)),
    )


def nearest_edge_margin(
    probe_edges: np.ndarray, data_edges: np.ndarray
) -> float:
    """Smallest |probe - nearest data edge| distance, seconds."""
    probe_edges = _as_float_array(probe_edges)
    data_edges = _as_float_array(data_edges)
    return float(
        _run(
            "nearest_edge_margin",
            probe_edges.size + data_edges.size,
            lambda: get_backend().nearest_edge_margin(
                probe_edges, data_edges
            ),
        )
    )


def match_edges_batch(
    ref_edges: np.ndarray,
    out_edges: Sequence[np.ndarray],
    coarse: PerLane,
    max_edge_offset: float,
) -> List[np.ndarray]:
    """Match one reference edge list against many lanes' output edges.

    One bus acquisition (or calibration sweep) measures every lane
    against the same reference record, each lane with its own coarse
    delay estimate.  Lanes are ragged — each extracts however many
    edges survived its own noise — so the result is a list of per-lane
    offset arrays, ordered like *out_edges*.
    """
    reference = _as_float_array(ref_edges)
    lanes = [_as_float_array(lane_edges) for lane_edges in out_edges]
    coarses = _per_lane(coarse, len(lanes), "coarse")
    window = float(max_edge_offset)

    def match_lanes() -> List[np.ndarray]:
        match = get_backend().match_edges
        return [
            match(reference, lane_edges, float(lane_coarse), window)
            for lane_edges, lane_coarse in zip(lanes, coarses)
        ]

    return _run(
        "match_edges_batch",
        reference.size * len(lanes) + sum(lane.size for lane in lanes),
        match_lanes,
    )


def _cascade(
    op: str,
    values,
    stages: Sequence[CascadeStage],
    dt: float,
    states: Optional[Sequence[CascadeStageState]],
    ndim: int,
) -> np.ndarray:
    """The input normaliser the three cascade entries share.

    Checks the record (*ndim* dimensions, at least one sample) and the
    carry states against the stages, then runs the backend kernel on
    the record's ``(lanes, samples)`` view under op name *op* (on fresh
    states when *states* is ``None``) and returns the output in the
    record's own shape.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != ndim or values.size == 0:
        shape = "(samples,)" if ndim == 1 else "(lanes, samples)"
        raise CircuitError(
            f"{op} needs a non-empty {shape} record, got shape "
            f"{values.shape}"
        )
    stages = list(stages)
    if states is None:
        states = fresh_cascade_state(len(stages))
    elif len(states) != len(stages):
        raise CircuitError(
            f"need one carry state per stage: {len(stages)} stages, "
            f"{len(states)} states"
        )
    lanes = values.reshape(-1, values.shape[-1])
    out = _run(
        op,
        values.size * max(1, len(stages)),
        lambda: get_backend().fine_delay_cascade(
            lanes, stages, float(dt), list(states)
        ),
    )
    return out.reshape(values.shape)


def fine_delay_cascade(
    values: np.ndarray,
    stages: Sequence[CascadeStage],
    dt: float,
) -> np.ndarray:
    """Run a whole N-stage buffer cascade over *values* in one kernel call.

    *stages* is a pre-built plan (see :class:`CascadeStage`), one
    :class:`repro.circuits.vga_buffer.StagePlanner` call per stage:
    amplitude targets already resolved from control voltages, noise
    already drawn in stage order, filters already discretised.  Stage
    semantics are identical to
    :func:`repro.circuits.vga_buffer.limiting_stage_batch` chained N
    times, minus the per-stage Waveform round-trips.

    This is the backend's cascade kernel on one lane and fresh state:
    the whole record is one chunk.  It records its own
    ``fine_delay_cascade`` op counters.
    """
    return _cascade("fine_delay_cascade", values, stages, dt, None, 1)


def fine_delay_cascade_stream(
    values: np.ndarray,
    stages: Sequence[CascadeStage],
    dt: float,
    states: Sequence[CascadeStageState],
) -> np.ndarray:
    """Run one chunk of a cascade, carrying per-stage state in *states*.

    The stateful variant of :func:`fine_delay_cascade`: *states* (one
    :class:`CascadeStageState` per stage, mutated in place) threads the
    comparator, compression, slew-tracker, filter and frozen-statistics
    state across successive calls, so feeding the chunks of a split
    record through this kernel reproduces one whole-record call — see
    :mod:`repro.core.streaming` for the chunk invariants.  The chunk
    is one lane.  The numpy kernel also keeps its full-length scratch
    arrays in *states*, so same-length chunks reuse them.
    """
    return _cascade(
        "fine_delay_cascade_stream", values, stages, dt, states, 1
    )


def fine_delay_cascade_batch(
    values: np.ndarray,
    stages: Sequence[CascadeStage],
    dt: float,
) -> np.ndarray:
    """Batched :func:`fine_delay_cascade` over a ``(lanes, samples)`` record.

    Each plan stage carries lane-aware parameters (``(n_lanes, 1)``
    amplitude columns, ``(n_lanes, n)`` noise), so lane ``i`` of the
    result matches the scalar cascade run on lane ``i`` alone.
    """
    return _cascade("fine_delay_cascade_batch", values, stages, dt, None, 2)
