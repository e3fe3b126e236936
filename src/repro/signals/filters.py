"""Linear filtering primitives for waveforms.

The circuit models are built from a small set of linear blocks — mainly
single-pole low-pass sections (limited bandwidth of a buffer stage) and
single-pole high-pass sections (AC coupling of the jitter-injection
path).  All filters here operate on :class:`~repro.signals.waveform.Waveform`
objects and return new waveforms on the same grid.

The IIR sections are discretised with the bilinear transform and run
through :func:`repro.kernels.iir.lfilter` (scipy's compiled ``lfilter``
routine, loaded without ``scipy.signal``), with the initial filter state
chosen so a record that starts at a settled DC level stays settled (no
artificial start-up transient — important because experiments measure
the very first edges of a record too).
"""

from __future__ import annotations

import math
import threading
from typing import Optional

import numpy as np

from .. import instrument
from ..errors import WaveformError
from ..kernels.iir import lfilter, lfilter_zi
from .waveform import Waveform

__all__ = [
    "single_pole_lowpass",
    "multi_pole_lowpass",
    "single_pole_highpass",
    "gaussian_lowpass",
    "moving_average",
    "bandwidth_to_time_constant",
    "bilinear_lowpass_coefficients",
    "lowpass_zi_unit",
    "cascade_filter_plan",
    "clear_filter_caches",
    "rise_time_to_bandwidth",
    "bandwidth_to_rise_time",
]


def bandwidth_to_time_constant(bandwidth_3db: float) -> float:
    """Time constant (s) of a single-pole filter with given -3 dB bandwidth."""
    if bandwidth_3db <= 0:
        raise WaveformError(f"bandwidth must be positive: {bandwidth_3db}")
    return 1.0 / (2.0 * math.pi * bandwidth_3db)


def rise_time_to_bandwidth(rise_time_10_90: float) -> float:
    """-3 dB bandwidth of a single pole from its 10-90 % rise time.

    Uses the classic ``BW = 0.35 / t_r`` relation.
    """
    if rise_time_10_90 <= 0:
        raise WaveformError(f"rise time must be positive: {rise_time_10_90}")
    return 0.35 / rise_time_10_90


def bandwidth_to_rise_time(bandwidth_3db: float) -> float:
    """10-90 % rise time of a single pole from its -3 dB bandwidth."""
    if bandwidth_3db <= 0:
        raise WaveformError(f"bandwidth must be positive: {bandwidth_3db}")
    return 0.35 / bandwidth_3db


def bilinear_lowpass_coefficients(dt: float, tau: float) -> tuple:
    """Bilinear-transform coefficients for ``H(s) = 1 / (1 + s tau)``.

    Returns the ``(b, a)`` arrays for :func:`repro.kernels.iir.lfilter`.
    This is the one place the one-pole discretisation lives: the
    stage-bandwidth filter of every cascade plan (through
    :func:`cascade_filter_plan`), the noise band-limiting in
    :class:`repro.circuits.vga_buffer.BandLimitedNoise`, and
    :func:`single_pole_lowpass` all share these coefficients, so a
    change to the discretisation cannot silently de-synchronise them.
    """
    if dt <= 0:
        raise WaveformError(f"sample interval must be positive: {dt}")
    if tau <= 0:
        raise WaveformError(f"time constant must be positive: {tau}")
    k = 2.0 * tau / dt
    b0 = 1.0 / (1.0 + k)
    b = np.array([b0, b0])
    a = np.array([1.0, (1.0 - k) / (1.0 + k)])
    return b, a


# Explicit bounded memo caches for the per-stage filter solves, in the
# style of the PRBS memo cache (`repro.signals.patterns`): a dict with
# FIFO eviction behind one lock, hit/miss counters through
# `repro.instrument`, and a clear hook for tests.  An lru_cache would
# bound the entries too, but hides its statistics from the instrument
# manifests and cannot be cleared selectively alongside the other repro
# caches.  Cached arrays are marked read-only because callers scale
# them (``zi_unit * y0``) rather than mutate them.
_ZI_CACHE: "dict[tuple, np.ndarray]" = {}
_PLAN_CACHE: "dict[tuple, tuple]" = {}
_FILTER_CACHE_MAX = 256
_FILTER_CACHE_LOCK = threading.Lock()


def clear_filter_caches() -> None:
    """Drop all memoised filter solves (tests, memory pressure)."""
    with _FILTER_CACHE_LOCK:
        _ZI_CACHE.clear()
        _PLAN_CACHE.clear()


def lowpass_zi_unit(dt: float, tau: float) -> np.ndarray:
    """Settled ``lfilter`` state for a unit input, cached per ``(dt, tau)``.

    :func:`repro.kernels.iir.lfilter_zi` solves a small linear system
    each call; inside the fused cascade that solve would repeat for
    every stage of every record even though a given stage geometry only
    ever has a handful of distinct ``(dt, tau)`` pairs.
    """
    key = (float(dt), float(tau))
    with _FILTER_CACHE_LOCK:
        cached = _ZI_CACHE.get(key)
    if cached is not None:
        instrument.count("filters.zi_cache_hits")
        return cached
    instrument.count("filters.zi_cache_misses")
    # Solve outside the lock: concurrent first calls may duplicate the
    # work, but never block each other on the solve.
    b, a = bilinear_lowpass_coefficients(key[0], key[1])
    zi = lfilter_zi(b, a)
    zi.setflags(write=False)
    with _FILTER_CACHE_LOCK:
        if key not in _ZI_CACHE and len(_ZI_CACHE) >= _FILTER_CACHE_MAX:
            _ZI_CACHE.pop(next(iter(_ZI_CACHE)))
        _ZI_CACHE[key] = zi
    return zi


def cascade_filter_plan(dt: float, tau: float) -> tuple:
    """``(b, a, zi_unit)`` for one cascade stage, cached per ``(dt, tau)``.

    One lookup serves everything a :class:`~repro.kernels.cascade.CascadeStage`
    needs from the filter layer — the bilinear coefficients and the
    settled unit state — so building a
    :class:`~repro.circuits.vga_buffer.StagePlanner` (for a whole
    record, a pack, a standalone stage or a stream) costs a dict hit
    per stage instead of re-deriving the discretisation.  Arrays are
    read-only; treat the tuple as immutable.
    """
    key = (float(dt), float(tau))
    with _FILTER_CACHE_LOCK:
        cached = _PLAN_CACHE.get(key)
    if cached is not None:
        instrument.count("filters.plan_cache_hits")
        return cached
    instrument.count("filters.plan_cache_misses")
    b, a = bilinear_lowpass_coefficients(key[0], key[1])
    b.setflags(write=False)
    a.setflags(write=False)
    plan = (b, a, lowpass_zi_unit(key[0], key[1]))
    with _FILTER_CACHE_LOCK:
        if key not in _PLAN_CACHE and len(_PLAN_CACHE) >= _FILTER_CACHE_MAX:
            _PLAN_CACHE.pop(next(iter(_PLAN_CACHE)))
        _PLAN_CACHE[key] = plan
    return plan


def single_pole_lowpass(waveform: Waveform, bandwidth_3db: float) -> Waveform:
    """First-order low-pass: models the finite bandwidth of one stage.

    The filter state is initialised so the first sample's value is
    treated as the settled history of the line.
    """
    tau = bandwidth_to_time_constant(bandwidth_3db)
    b, a = bilinear_lowpass_coefficients(waveform.dt, tau)
    zi = lfilter_zi(b, a) * waveform.values[0]
    filtered, _ = lfilter(b, a, waveform.values, zi=zi)
    return Waveform(filtered, waveform.dt, waveform.t0)


def multi_pole_lowpass(
    waveform: Waveform, bandwidth_3db: float, n_poles: int
) -> Waveform:
    """Cascade of identical single poles with a combined -3 dB bandwidth.

    The per-pole bandwidth is widened by ``1/sqrt(2**(1/n) - 1)`` so the
    cascade's overall -3 dB point lands at *bandwidth_3db*.
    """
    if n_poles < 1:
        raise WaveformError(f"need at least one pole, got {n_poles}")
    per_pole = bandwidth_3db / math.sqrt(2.0 ** (1.0 / n_poles) - 1.0)
    result = waveform
    for _ in range(n_poles):
        result = single_pole_lowpass(result, per_pole)
    return result


def single_pole_highpass(
    waveform: Waveform,
    cutoff_3db: float,
    settled_value: Optional[float] = None,
) -> Waveform:
    """First-order high-pass: models AC coupling.

    ``H(s) = s tau / (1 + s tau)``.  The state is initialised so the
    coupling capacitor has charged to *settled_value* — the record's
    first sample by default, which is the physical steady state when
    the record begins at a settled DC level.  For a record that is a
    snapshot of a stationary process (e.g. band-limited noise), pass
    the process mean instead: the capacitor of a long-running node
    charges to the input's average, not to whatever excursion the
    snapshot happens to start on.
    """
    tau = bandwidth_to_time_constant(cutoff_3db)
    k = 2.0 * tau / waveform.dt
    b = np.array([k, -k]) / (1.0 + k)
    a = np.array([1.0, (1.0 - k) / (1.0 + k)])
    if settled_value is None:
        settled_value = waveform.values[0]
    zi = lfilter_zi(b, a) * settled_value
    filtered, _ = lfilter(b, a, waveform.values, zi=zi)
    return Waveform(filtered, waveform.dt, waveform.t0)


def _gaussian_kernel(sigma_samples: float) -> np.ndarray:
    """Unit-area Gaussian FIR of *sigma_samples*, cut at ±4 sigma.

    The one Gaussian kernel builder: :func:`gaussian_lowpass` and the
    edge shaping of synthesized NRZ records and stream chunks use it.
    """
    half_width = max(1, int(math.ceil(4.0 * sigma_samples)))
    x = np.arange(-half_width, half_width + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (x / sigma_samples) ** 2)
    kernel /= kernel.sum()
    return kernel


def _edge_padded_convolve(
    values: np.ndarray, kernel: np.ndarray, left: int, right: int
) -> np.ndarray:
    """``valid`` convolution of *values* padded with *left* copies of
    its first sample and *right* copies of its last (half the kernel on
    both sides keeps a whole record's length)."""
    if left or right:
        values = np.concatenate(
            [np.full(left, values[0]), values, np.full(right, values[-1])]
        )
    return np.convolve(values, kernel, mode="valid")


def gaussian_lowpass(waveform: Waveform, sigma_time: float) -> Waveform:
    """Zero-phase Gaussian smoothing with standard deviation *sigma_time*.

    Linear-phase (symmetric) filtering: edge positions are preserved,
    only their slopes change.  Used for scope-style display smoothing;
    synthesized edges use the same kernel.
    """
    if sigma_time < 0:
        raise WaveformError(f"sigma must be >= 0, got {sigma_time}")
    if sigma_time == 0:
        return waveform.copy()
    kernel = _gaussian_kernel(sigma_time / waveform.dt)
    half = kernel.size // 2
    smoothed = _edge_padded_convolve(waveform.values, kernel, half, half)
    return Waveform(smoothed, waveform.dt, waveform.t0)


def moving_average(waveform: Waveform, window_time: float) -> Waveform:
    """Boxcar average over *window_time* seconds (zero-phase).

    The window is rounded to an odd number of samples so the boxcar is
    symmetric about each output sample: an even window has no centre
    sample, which silently shifts every edge by ``dt / 2`` — a fatal
    timing bias in a library whose headline quantities are single
    picoseconds.
    """
    window = max(1, int(round(window_time / waveform.dt)))
    if window % 2 == 0:
        window += 1
    if window == 1:
        return waveform.copy()
    half = window // 2
    averaged = _edge_padded_convolve(
        waveform.values, np.full(window, 1.0 / window), half, half
    )
    return Waveform(averaged, waveform.dt, waveform.t0)
