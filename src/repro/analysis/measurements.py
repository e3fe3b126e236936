"""Scope-style measurements on waveforms.

These functions reproduce the measurements the paper reports from its
sampling oscilloscope: delay between two traces (cursor-to-cursor at
the 50 % threshold), peak-to-peak total jitter of an eye, amplitude,
and rise time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal, Optional, Sequence, Union

import numpy as np

from ..errors import InsufficientEdgesError, MeasurementError
from ..jitter.tie import tie_from_edges
from ..kernels import match_edges, match_edges_batch
from ..signals.edges import auto_threshold, crossing_times
from ..signals.waveform import Waveform, WaveformBatch

__all__ = [
    "DelayMeasurement",
    "coarse_delay_estimate",
    "measure_delay",
    "measure_delays_batch",
    "peak_to_peak_jitter",
    "rms_jitter",
    "measure_amplitude",
    "rise_time_20_80",
]

Direction = Literal["rising", "falling", "both"]


@dataclass(frozen=True)
class DelayMeasurement:
    """Result of a trace-to-trace delay measurement.

    Attributes
    ----------
    delay:
        Mean edge-to-edge delay, seconds.
    std:
        Standard deviation of the per-edge delays (edge-to-edge jitter
        between the two traces), seconds.
    n_edges:
        Number of matched edge pairs used.
    """

    delay: float
    std: float
    n_edges: int


def coarse_delay_estimate(reference: Waveform, delayed: Waveform) -> float:
    """Cross-correlation delay estimate, good to about one sample.

    Used to seed the precise edge-matching measurement; also useful on
    its own for signals without clean threshold crossings.
    """
    estimates = _coarse_delay_estimates_fft(
        reference, [delayed], delayed.values[None, :]
    )
    return float(estimates[0])


def measure_delay(
    reference: Waveform,
    delayed: Waveform,
    threshold: Optional[float] = None,
    direction: Direction = "both",
    coarse: Optional[float] = None,
    max_edge_offset: Optional[float] = None,
) -> DelayMeasurement:
    """Measure the delay from *reference* to *delayed* at the threshold.

    The measurement matches each reference crossing to the output
    crossing nearest to ``crossing + coarse`` and averages the
    differences — exactly what moving two scope cursors to
    corresponding 50 % points does, but over every edge in the record.
    Matching is one-to-one: each output crossing is granted to at most
    one reference crossing (smallest deviation from the coarse estimate
    wins), so a dropped or extra edge in the output trace costs a match
    instead of counting one output edge twice and biasing the mean.

    Parameters
    ----------
    threshold:
        Crossing threshold; defaults to each trace's own 50 % level
        (handles attenuation between the two points).
    coarse:
        Initial delay estimate; computed by cross-correlation when
        omitted.
    max_edge_offset:
        Matches farther than this from the coarse estimate are
        discarded; defaults to half the median reference edge spacing.
    """
    ref_threshold = (
        auto_threshold(reference) if threshold is None else threshold
    )
    out_threshold = auto_threshold(delayed) if threshold is None else threshold
    ref_edges = crossing_times(reference, ref_threshold, direction)
    out_edges = crossing_times(delayed, out_threshold, direction)
    if ref_edges.size == 0 or out_edges.size == 0:
        raise InsufficientEdgesError(
            "need at least one edge in both traces to measure delay"
        )
    if coarse is None:
        coarse = coarse_delay_estimate(reference, delayed)
    if max_edge_offset is None:
        if ref_edges.size > 1:
            max_edge_offset = float(np.median(np.diff(ref_edges))) / 2.0
        else:
            max_edge_offset = float("inf")

    delta_array = match_edges(
        ref_edges, out_edges, float(coarse), float(max_edge_offset)
    )
    if delta_array.size == 0:
        raise InsufficientEdgesError(
            "no edge pairs matched within the offset window"
        )
    std = float(delta_array.std(ddof=1)) if delta_array.size > 1 else 0.0
    return DelayMeasurement(
        delay=float(delta_array.mean()),
        std=std,
        n_edges=int(delta_array.size),
    )


def _next_fast_len(target: int) -> int:
    """Smallest 5-smooth integer >= *target* (scipy's real-FFT length)."""
    best = 1 << (target - 1).bit_length()
    power5 = 1
    while power5 < best:
        power35 = power5
        while power35 < best:
            # Lift power35 to at least target by the least power of two.
            best = min(best, power35 << (-(-target // power35) - 1).bit_length())
            power35 *= 3
        power5 *= 5
    return best


def _coarse_delay_estimates_fft(
    reference: Waveform,
    lanes: Sequence[Waveform],
    stacked: np.ndarray,
) -> np.ndarray:
    """Cross-correlation delay estimates of every lane against *reference*.

    The one correlation path: :func:`coarse_delay_estimate` is its
    one-lane call.  One batched FFT evaluates the full cross-correlation
    of each mean-removed lane (the rows of *stacked*) with the
    mean-removed reference; each estimate is the ``argmax`` of that
    correlation, an integer sample lag, plus the lanes' start offset.
    """
    for lane in lanes:
        if abs(reference.dt - lane.dt) > 1e-12 * reference.dt:
            raise MeasurementError("waveforms must share a sample interval")
    a = reference.values - reference.values.mean()
    n = min(a.shape[0], stacked.shape[1])
    a = a[:n]
    b = (stacked - stacked.mean(axis=1, keepdims=True))[:, :n]
    n_fft = _next_fast_len(2 * n - 1)
    spectrum = np.fft.rfft(b, n_fft, axis=1) * np.fft.rfft(a[::-1], n_fft)
    correlation = np.fft.irfft(spectrum, n_fft, axis=1)[:, : 2 * n - 1]
    lags = np.argmax(correlation, axis=1) - (n - 1)
    t0s = np.array([lane.t0 for lane in lanes])
    return lags * reference.dt + (t0s - reference.t0)


def measure_delays_batch(
    reference: Waveform,
    delayed: Union[WaveformBatch, Sequence[Waveform]],
    threshold: Optional[float] = None,
    direction: Direction = "both",
    max_edge_offset: Optional[float] = None,
) -> List[DelayMeasurement]:
    """Measure every lane of *delayed* against one shared *reference*.

    Equivalent to calling :func:`measure_delay` per lane, but the
    reference's threshold, crossings, and matching window are computed
    once, the lanes' thresholds and coarse cross-correlations are
    evaluated as single batched array operations when the lanes share a
    record length, and the edge matching for all lanes goes through the
    kernel layer's single batched call.  Each lane's result matches its
    individual :func:`measure_delay`: the thresholds and the integer
    coarse correlation lag are the same quantities computed along a
    batch axis, and the matcher is shared.
    """
    if isinstance(delayed, WaveformBatch):
        delayed = delayed.waveforms()
    else:
        delayed = list(delayed)
    ref_threshold = (
        auto_threshold(reference) if threshold is None else threshold
    )
    ref_edges = crossing_times(reference, ref_threshold, direction)
    if ref_edges.size == 0:
        raise InsufficientEdgesError(
            "need at least one edge in the reference to measure delay"
        )
    if max_edge_offset is None:
        if ref_edges.size > 1:
            max_edge_offset = float(np.median(np.diff(ref_edges))) / 2.0
        else:
            max_edge_offset = float("inf")

    uniform = len({lane.values.shape[0] for lane in delayed}) == 1
    if uniform:
        stacked = np.stack([lane.values for lane in delayed])
        if threshold is None:
            # auto_threshold for every lane at once: the same 2nd/98th
            # percentile midpoint, computed along the batch axis.
            highs = np.percentile(stacked, 98, axis=1)
            lows = np.percentile(stacked, 2, axis=1)
            lane_thresholds = (highs + lows) / 2.0
        else:
            lane_thresholds = np.full(len(delayed), float(threshold))
        coarses = _coarse_delay_estimates_fft(reference, delayed, stacked)
    else:
        lane_thresholds = [
            auto_threshold(lane) if threshold is None else threshold
            for lane in delayed
        ]
        coarses = [
            coarse_delay_estimate(reference, lane) for lane in delayed
        ]

    out_edge_sets = []
    for lane, lane_threshold in zip(delayed, lane_thresholds):
        out_edges = crossing_times(lane, float(lane_threshold), direction)
        if out_edges.size == 0:
            raise InsufficientEdgesError(
                "need at least one edge in every lane to measure delay"
            )
        out_edge_sets.append(out_edges)

    delta_arrays = match_edges_batch(
        ref_edges,
        out_edge_sets,
        np.asarray(coarses, dtype=np.float64),
        float(max_edge_offset),
    )
    results = []
    for delta_array in delta_arrays:
        if delta_array.size == 0:
            raise InsufficientEdgesError(
                "no edge pairs matched within the offset window"
            )
        std = float(delta_array.std(ddof=1)) if delta_array.size > 1 else 0.0
        results.append(
            DelayMeasurement(
                delay=float(delta_array.mean()),
                std=std,
                n_edges=int(delta_array.size),
            )
        )
    return results


def peak_to_peak_jitter(
    waveform: Waveform,
    nominal_period: float,
    threshold: Optional[float] = None,
    direction: Direction = "both",
) -> float:
    """Total jitter, peak-to-peak, as a scope eye measurement reports it.

    Edges are extracted at the 50 % threshold, a constant-frequency
    clock is recovered, and the spread of the resulting TIE sample is
    returned.

    Parameters
    ----------
    nominal_period:
        The edge-position grid period.  For NRZ data this is the unit
        interval; for a clock it is the half period (both edges sit on
        a half-period grid).
    """
    if threshold is None:
        threshold = auto_threshold(waveform)
    edges = crossing_times(waveform, threshold, direction)
    if edges.size < 3:
        raise InsufficientEdgesError(
            f"peak-to-peak jitter needs >= 3 edges, got {edges.size}"
        )
    tie = tie_from_edges(edges, nominal_period)
    return float(tie.max() - tie.min())


def rms_jitter(
    waveform: Waveform,
    nominal_period: float,
    threshold: Optional[float] = None,
    direction: Direction = "both",
) -> float:
    """RMS (one-sigma) jitter of the waveform's edges."""
    if threshold is None:
        threshold = auto_threshold(waveform)
    edges = crossing_times(waveform, threshold, direction)
    if edges.size < 3:
        raise InsufficientEdgesError(
            f"RMS jitter needs >= 3 edges, got {edges.size}"
        )
    tie = tie_from_edges(edges, nominal_period)
    return float(tie.std(ddof=1))


def measure_amplitude(waveform: Waveform) -> float:
    """Differential half-swing (robust against overshoot)."""
    return waveform.amplitude()


def rise_time_20_80(
    waveform: Waveform, threshold: Optional[float] = None
) -> float:
    """Mean 20-80 % rise time of the rising edges in the record."""
    if threshold is None:
        threshold = auto_threshold(waveform)
    values = waveform.values
    high = float(np.percentile(values, 98))
    low = float(np.percentile(values, 2))
    swing = high - low
    if swing <= 0:
        raise MeasurementError("waveform has no swing; cannot measure rise")
    level_20 = low + 0.2 * swing
    level_80 = low + 0.8 * swing
    t20 = crossing_times(waveform, level_20, "rising")
    t80 = crossing_times(waveform, level_80, "rising")
    if t20.size == 0 or t80.size == 0:
        raise InsufficientEdgesError("no complete rising edges in record")
    durations = []
    for start in t20:
        later = t80[t80 > start]
        if later.size:
            durations.append(later[0] - start)
    if not durations:
        raise InsufficientEdgesError("no complete rising edges in record")
    return float(np.mean(durations))
