"""Analog waveform synthesis from bit patterns.

Turns bit sequences into differential NRZ (or clock / RZ) voltage
traces the way a lab pattern generator does: ideal transition instants
are computed first (optionally perturbed per edge to model source
jitter and duty-cycle distortion), then rendered onto the sample grid
with sub-sample accuracy and a Gaussian edge-shaping filter that sets
the 20-80 % rise time.

The sub-sample rendering matters: the paper measures delays of a few
picoseconds, far below any practical sample interval, so edge positions
must survive synthesis with much better than one-sample resolution.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import PatternError, WaveformError
from .filters import _edge_padded_convolve, _gaussian_kernel
from .patterns import alternating_bits
from .waveform import Waveform

__all__ = [
    "GAUSSIAN_RISE_SIGMA_RATIO",
    "transition_times_from_bits",
    "render_transitions",
    "synthesize_nrz",
    "NRZStreamSource",
    "synthesize_clock",
    "synthesize_rz_clock",
    "synthesize_step",
]

#: 20-80 % rise time of a step through a Gaussian filter is
#: ``2 * 0.8416 * sigma`` (0.8416 is the 80th-percentile z-score).
GAUSSIAN_RISE_SIGMA_RATIO = 2.0 * 0.8416212335729143


def transition_times_from_bits(
    bits: Sequence[int],
    unit_interval: float,
    t_start: float = 0.0,
    initial_bit: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Compute ideal transition instants for an NRZ rendering of *bits*.

    Bit *k* occupies ``[t_start + k*UI, t_start + (k+1)*UI)``.  A
    transition occurs at the start of bit *k* whenever it differs from
    the previous bit (the bit before the pattern is *initial_bit*).

    Returns
    -------
    (times, targets):
        ``times`` are the transition instants (seconds) and ``targets``
        the bit value (0/1) the line moves *to* at each instant.
    """
    array = np.asarray(bits, dtype=np.int64)
    if array.size == 0:
        raise PatternError("bit sequence must not be empty")
    if unit_interval <= 0:
        raise PatternError(f"unit interval must be positive: {unit_interval}")
    previous = np.concatenate([[initial_bit], array[:-1]])
    change_indices = np.flatnonzero(array != previous)
    times = t_start + change_indices * unit_interval
    targets = array[change_indices]
    return times, targets.astype(np.int64)


def render_transitions(
    times: np.ndarray,
    targets: np.ndarray,
    duration: float,
    dt: float,
    amplitude: float,
    rise_time: float,
    t0: float = 0.0,
    initial_level: Optional[float] = None,
) -> Waveform:
    """Render transition instants into an analog differential trace.

    Parameters
    ----------
    times, targets:
        Transition instants (seconds, ascending) and target bit values
        (0 → ``-amplitude``, 1 → ``+amplitude``).
    duration:
        Length of the rendered record, seconds.
    dt:
        Sample interval, seconds.
    amplitude:
        Differential half-swing, volts (levels are ``±amplitude``).
    rise_time:
        20-80 % rise time of the rendered edges, seconds.  Zero renders
        ideal (one-sample, anti-aliased) steps.
    t0:
        Time of the first sample.
    initial_level:
        Line level before the first transition; defaults to the
        complement of the first target (so the first transition is
        a real edge), or ``-amplitude`` if there are no transitions.

    Notes
    -----
    Each transition is drawn as an anti-aliased step: the sample
    straddled by the instant takes a fractional value so the 50 %
    crossing lands at the exact requested time even between samples.
    A Gaussian FIR then shapes the 20-80 % rise time; being symmetric
    (linear phase), it does not move the 50 % crossing.
    """
    times = np.asarray(times, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if times.shape != targets.shape:
        raise WaveformError("times and targets must have the same length")
    if not np.isfinite(times).all():
        raise WaveformError("transition times must be finite")
    if times.size > 1 and np.any(np.diff(times) < 0):
        raise WaveformError("transition times must be ascending")
    n_samples = int(round(duration / dt)) + 1
    if n_samples < 2:
        raise WaveformError("record must contain at least two samples")

    levels = np.where(targets == 1, amplitude, -amplitude)
    if initial_level is None:
        initial_level = -levels[0] if levels.size else -amplitude
    # The whole record is one window, with no guard band.
    record = (0, n_samples)
    values = _render_window(
        *_place_transitions(
            (times - t0) / dt, levels, n_samples, float(initial_level)
        ),
        record,
        record,
        _edge_kernel(rise_time, dt),
    )
    return Waveform(values, dt, t0)


def _edge_kernel(rise_time: float, dt: float) -> Optional[np.ndarray]:
    """Gaussian kernel giving a 20-80 % *rise_time*; None for ideal steps."""
    if rise_time > 0.0:
        return _gaussian_kernel((rise_time / GAUSSIAN_RISE_SIGMA_RATIO) / dt)
    return None


def _place_transitions(
    index_float: np.ndarray,
    levels: np.ndarray,
    n_samples: int,
    level_before: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The transitions at fractional sample *index_float* that land on
    a record of *n_samples*: the sample each lands on, its offset from
    it (in ``[-0.5, 0.5)``), its level, and the record's opening level.
    """
    nearest = np.floor(index_float + 0.5).astype(np.int64)
    # In time order, transitions landing before the record form a
    # prefix (the last one sets the opening level) and those past its
    # last sample a suffix that never shows.
    lo, hi = np.searchsorted(nearest, (0, n_samples))
    if lo:
        level_before = float(levels[lo - 1])
    nearest = nearest[lo:hi]
    return nearest, index_float[lo:hi] - nearest, levels[lo:hi], level_before


def _render_window(
    nearest: np.ndarray,
    frac: np.ndarray,
    levels: np.ndarray,
    level_before: float,
    window: Tuple[int, int],
    span: Tuple[int, int],
    kernel: Optional[np.ndarray],
) -> np.ndarray:
    """Samples ``span = [s0, s1)`` of a record, rendered over the
    samples ``window = [w0, w1)`` from the level entering the window
    and its transitions (arrays as :func:`_place_transitions` gives
    them, ``w0 <= nearest < w1``).

    A whole record is one window and its own span; a stream chunk's
    window adds up to one kernel half-width on each side of its span,
    so the edge-shaping filter sees the neighbours the record has.
    """
    (w0, w1), (s0, s1) = window, span
    # A level holds from the sample after its transition's to the next
    # transition's sample.  (Filling preallocated arrays beats
    # concatenating short lists on every stream chunk.)
    seg = np.empty(levels.size + 1)
    seg[0], seg[1:] = level_before, levels
    bounds = np.empty(levels.size + 2, dtype=np.int64)
    bounds[0], bounds[1:-1], bounds[-1] = w0 - 1, nearest, w1 - 1
    lengths = bounds[1:] - bounds[:-1]
    values = seg.repeat(lengths)
    prev = seg[:-1]
    if np.count_nonzero(lengths[1:-1]) < nearest.size - 1:
        # Colliding sample indices (UI < dt): the segment between two
        # transitions on one sample is empty, and only the last of them
        # places a step there, from the level of the one before it.
        last = lengths[1:] != 0
        last[-1] = True
        nearest, frac, levels, prev = (
            nearest[last], frac[last], levels[last], prev[last]
        )
    # Area-preserving placement: the sample whose +-dt/2 window contains
    # the instant takes the window-average value, so the step's
    # centroid, and hence the 50 % crossing after the (symmetric)
    # edge-shaping filter, lands at the instant exactly.
    values[nearest - w0] = prev + (0.5 - frac) * (levels - prev)
    if kernel is None:
        return values[s0 - w0 : s1 - w0]
    half = kernel.size // 2
    return _edge_padded_convolve(
        values, kernel, half - (s0 - w0), half - (w1 - s1)
    )


def synthesize_nrz(
    bits: Sequence[int],
    bit_rate: float,
    dt: float,
    amplitude: float = 0.4,
    rise_time: float = 30e-12,
    edge_jitter: Optional[np.ndarray] = None,
    t0: float = 0.0,
    pad_ui: float = 2.0,
    lead_ui: float = 2.0,
    initial_bit: int = 0,
) -> Waveform:
    """Render a bit sequence as a differential NRZ waveform.

    Parameters
    ----------
    bits:
        The bit pattern (0/1 values).
    bit_rate:
        Data rate in bit/s (6.4 Gbps → ``6.4e9``).
    dt:
        Sample interval, seconds.
    amplitude:
        Differential half-swing in volts.
    rise_time:
        20-80 % rise time of the source, seconds.
    edge_jitter:
        Optional per-transition time offsets (seconds), one entry per
        transition in the pattern; models source jitter exactly at the
        edges where it acts.
    t0:
        Time of the first sample.
    pad_ui:
        Quiet unit intervals appended after the last bit so trailing
        edges settle inside the record.
    lead_ui:
        Quiet unit intervals *before* the first bit: the record starts
        at ``t0 - lead_ui * UI`` at a settled level, so the first
        transition is a clean edge well inside the record (circuit
        models and edge extractors both need settled history).
    initial_bit:
        Logical level before the pattern starts.
    """
    if bit_rate <= 0:
        raise PatternError(f"bit rate must be positive: {bit_rate}")
    unit_interval = 1.0 / bit_rate
    times, targets = transition_times_from_bits(
        bits, unit_interval, t_start=t0, initial_bit=initial_bit
    )
    if edge_jitter is not None:
        edge_jitter = np.asarray(edge_jitter, dtype=np.float64)
        if edge_jitter.shape != times.shape:
            raise WaveformError(
                f"edge_jitter length {edge_jitter.size} does not match "
                f"transition count {times.size}"
            )
        times = times + edge_jitter
        order = np.argsort(times, kind="stable")
        times = times[order]
        targets = targets[order]
    if lead_ui < 0:
        raise PatternError(f"lead_ui must be >= 0, got {lead_ui}")
    record_start = t0 - lead_ui * unit_interval
    initial_bit_level = amplitude if int(initial_bit) == 1 else -amplitude
    duration = (len(np.asarray(bits)) + pad_ui + lead_ui) * unit_interval
    return render_transitions(
        times,
        targets,
        duration=duration,
        dt=dt,
        amplitude=amplitude,
        rise_time=rise_time,
        t0=record_start,
        # With no edge the line holds initial_bit's level throughout.
        initial_level=None if times.size else initial_bit_level,
    )


class NRZStreamSource:
    """Chunked NRZ synthesis: :func:`synthesize_nrz` in bounded memory.

    Renders the same record :func:`synthesize_nrz` would produce for the
    full bit sequence, but emits it as successive sample chunks, pulling
    bits lazily — so a billion-bit stimulus never exists as one array.
    Each chunk goes through the renderer a whole record uses, over a
    guard-banded window (one Gaussian half-width of context on each
    side) at the *global* sample indices, so the emitted samples are
    byte-identical to the monolithic record for any chunk size.  The
    pending transitions are held as arrays, appended per pulled block
    and retired by slicing.

    Parameters
    ----------
    bits:
        Either the full bit sequence, or a callable ``take(count)``
        returning the next *count* bits (e.g. the bound method of a
        resumable :class:`~repro.signals.patterns.PRBSGenerator`), in
        which case *n_bits* is required.
    n_bits:
        Total pattern length in bits (inferred when *bits* is a
        sequence).
    chunk_samples:
        Samples per emitted chunk (the last chunk may be shorter).
    Remaining parameters match :func:`synthesize_nrz` (*edge_jitter* is
    not supported in streaming mode).
    """

    def __init__(
        self,
        bits,
        bit_rate: float,
        dt: float,
        chunk_samples: int,
        n_bits: Optional[int] = None,
        amplitude: float = 0.4,
        rise_time: float = 30e-12,
        t0: float = 0.0,
        pad_ui: float = 2.0,
        lead_ui: float = 2.0,
        initial_bit: int = 0,
    ):
        if bit_rate <= 0:
            raise PatternError(f"bit rate must be positive: {bit_rate}")
        if dt <= 0:
            raise WaveformError(f"sample interval must be positive: {dt}")
        if chunk_samples < 1:
            raise WaveformError(
                f"chunk_samples must be >= 1, got {chunk_samples}"
            )
        if lead_ui < 0:
            raise PatternError(f"lead_ui must be >= 0, got {lead_ui}")
        if callable(bits):
            if n_bits is None:
                raise PatternError(
                    "n_bits is required when bits is a callable source"
                )
            self._take = bits
        else:
            array = np.asarray(bits, dtype=np.int64)
            if n_bits is None:
                n_bits = array.size
            elif n_bits > array.size:
                raise PatternError(
                    f"n_bits {n_bits} exceeds the {array.size} bits given"
                )
            self._take = _SequenceTake(array).take
        if n_bits < 1:
            raise PatternError("bit sequence must not be empty")
        self.n_bits = int(n_bits)
        self.unit_interval = 1.0 / bit_rate
        self.dt = float(dt)
        self.chunk_samples = int(chunk_samples)
        self.amplitude = float(amplitude)
        self.t_first_bit = float(t0)
        self.record_start = t0 - lead_ui * self.unit_interval
        duration = (self.n_bits + pad_ui + lead_ui) * self.unit_interval
        self.n_samples_total = int(round(duration / self.dt)) + 1
        if self.n_samples_total < 2:
            raise WaveformError("record must contain at least two samples")
        self._kernel = _edge_kernel(rise_time, dt)
        self._half_width = 0 if self._kernel is None else self._kernel.size // 2
        self._prev_bit = int(initial_bit)
        self._bits_pulled = 0
        # Pending transitions, in time order, not yet behind the render
        # window: the sample each lands on, its offset from that sample
        # and the level it moves to.
        self._nearest = np.empty(0, dtype=np.int64)
        self._frac = np.empty(0)
        self._levels = np.empty(0)
        self._level_before = (
            self.amplitude if int(initial_bit) == 1 else -self.amplitude
        )
        self._emitted = 0

    # -- bit pulling -------------------------------------------------------

    def _nearest_index(self, bit_index: int) -> int:
        instant = self.t_first_bit + bit_index * self.unit_interval
        return int(
            math.floor((instant - self.record_start) / self.dt + 0.5)
        )

    def _pull_bits_until(self, window_end: int) -> None:
        """Pull bits until every transition landing before *window_end*
        (in samples) is known."""
        while (
            self._bits_pulled < self.n_bits
            and self._nearest_index(self._bits_pulled) < window_end
        ):
            count = min(4096, self.n_bits - self._bits_pulled)
            block = np.asarray(self._take(count), dtype=np.int64)
            if block.size != count:
                raise PatternError(
                    f"bit source returned {block.size} bits, wanted {count}"
                )
            changes = np.flatnonzero(np.diff(block, prepend=self._prev_bit))
            if changes.size:
                instants = self.t_first_bit + (
                    self._bits_pulled + changes
                ) * self.unit_interval
                levels = np.where(
                    block[changes] == 1, self.amplitude, -self.amplitude
                )
                nearest, frac, levels, self._level_before = _place_transitions(
                    (instants - self.record_start) / self.dt,
                    levels,
                    self.n_samples_total,
                    self._level_before,
                )
                self._nearest = np.concatenate((self._nearest, nearest))
                self._frac = np.concatenate((self._frac, frac))
                self._levels = np.concatenate((self._levels, levels))
            if block.size:
                self._prev_bit = int(block[-1])
            self._bits_pulled += count

    def __iter__(self) -> "NRZStreamSource":
        return self

    def __next__(self) -> Waveform:
        s0 = self._emitted
        if s0 >= self.n_samples_total:
            raise StopIteration
        s1 = min(s0 + self.chunk_samples, self.n_samples_total)
        half = self._half_width
        w0 = max(0, s0 - half)
        w1 = min(self.n_samples_total, s1 + half)
        self._pull_bits_until(w1)
        # A transition drives every sample after the one it lands on, so
        # those landing before the window collapse into its entry level.
        gone = self._nearest.searchsorted(w0)
        end = self._nearest.searchsorted(w1)
        if gone:
            self._level_before = float(self._levels[gone - 1])
            self._nearest = self._nearest[gone:]
            self._frac = self._frac[gone:]
            self._levels = self._levels[gone:]
            end -= gone
        values = _render_window(
            self._nearest[:end],
            self._frac[:end],
            self._levels[:end],
            self._level_before,
            (w0, w1),
            (s0, s1),
            self._kernel,
        )
        self._emitted = s1
        return Waveform(
            values, self.dt, self.record_start + self.dt * s0
        )


class _SequenceTake:
    """Adapter presenting a stored bit array as a ``take(count)`` source."""

    def __init__(self, bits: np.ndarray):
        self._bits = bits
        self._cursor = 0

    def take(self, count: int) -> np.ndarray:
        block = self._bits[self._cursor : self._cursor + count]
        self._cursor += count
        return block


def synthesize_clock(
    frequency: float,
    n_cycles: int,
    dt: float,
    amplitude: float = 0.4,
    rise_time: float = 30e-12,
    edge_jitter: Optional[np.ndarray] = None,
    t0: float = 0.0,
) -> Waveform:
    """Render a square clock at *frequency* hertz.

    A clock at frequency ``f`` is rendered as the 1010... pattern at bit
    rate ``2 f`` — the paper uses exactly this equivalence when it
    characterises the circuit with 6.4 GHz clocks standing in for
    12.8 Gbps NRZ data.
    """
    if frequency <= 0:
        raise PatternError(f"clock frequency must be positive: {frequency}")
    bits = alternating_bits(2 * n_cycles, first=1)
    return synthesize_nrz(
        bits,
        bit_rate=2.0 * frequency,
        dt=dt,
        amplitude=amplitude,
        rise_time=rise_time,
        edge_jitter=edge_jitter,
        t0=t0,
    )


def synthesize_rz_clock(
    frequency: float,
    n_cycles: int,
    dt: float,
    amplitude: float = 0.4,
    rise_time: float = 30e-12,
    duty_cycle: float = 0.5,
    t0: float = 0.0,
) -> Waveform:
    """Render a return-to-zero clock: one pulse per period.

    Each period of length ``1/frequency`` carries a high pulse of width
    ``duty_cycle / frequency`` followed by a return to the low level.
    With ``duty_cycle=0.5`` this coincides with a square clock.
    """
    if frequency <= 0:
        raise PatternError(f"clock frequency must be positive: {frequency}")
    if not 0.0 < duty_cycle < 1.0:
        raise PatternError(f"duty cycle must be in (0, 1): {duty_cycle}")
    period = 1.0 / frequency
    rise_times = t0 + period * np.arange(n_cycles)
    fall_times = rise_times + duty_cycle * period
    times = np.empty(2 * n_cycles)
    targets = np.empty(2 * n_cycles, dtype=np.int64)
    times[0::2] = rise_times
    times[1::2] = fall_times
    targets[0::2] = 1
    targets[1::2] = 0
    duration = (n_cycles + 2) * period
    return render_transitions(
        times,
        targets,
        duration=duration,
        dt=dt,
        amplitude=amplitude,
        rise_time=rise_time,
        t0=t0 - period,
        initial_level=-amplitude,
    )


def synthesize_step(
    dt: float,
    amplitude: float = 0.4,
    rise_time: float = 30e-12,
    step_time: float = 0.0,
    t_before: float = 0.5e-9,
    t_after: float = 1.5e-9,
    rising: bool = True,
) -> Waveform:
    """Render a single differential step, for step-response probing."""
    t0 = step_time - t_before
    duration = t_before + t_after
    target = 1 if rising else 0
    initial = -amplitude if rising else amplitude
    return render_transitions(
        np.array([step_time]),
        np.array([target]),
        duration=duration,
        dt=dt,
        amplitude=amplitude,
        rise_time=rise_time,
        t0=t0,
        initial_level=initial,
    )
