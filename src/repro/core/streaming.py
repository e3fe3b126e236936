"""Constant-memory streaming execution of the delay-line pipelines.

A billion-bit BERT record at 6.4 Gbps and 1 ps sampling is ~156 G
samples — far beyond what the monolithic :meth:`process` paths can hold.
This module runs the same physics chunk by chunk: the caller pushes
successive :class:`~repro.signals.waveform.Waveform` chunks of one long
contiguous record and receives the corresponding output chunks, while
the engine carries every per-sample recurrence across the boundaries:

* the fused-cascade kernel state (comparator flips, compression scale,
  slew tracker, one-pole filter memory) via
  :class:`~repro.kernels.cascade.CascadeStageState`, carried through
  one-lane calls of the cascade kernel
  (:func:`repro.kernels.fine_delay_cascade_stream`);
* the per-stage noise generator position, noise-shaping filter state
  and RMS normalisation (:class:`_NoiseStream`);
* the transmission-line dispersion filter state;
* the absolute time grid (each stage's control-voltage waveform is
  evaluated at the *global* sample index, so jitter injection sees the
  same instants as a monolithic run).

Equivalence contract (asserted by ``tests/kernels/test_streaming.py``
and ``tests/core/test_streaming.py``): with a priming record equal to
the concatenated chunks, a streamed :class:`FineDelayLine` run is
**bit-exact** against the monolithic path on the python kernel backend
for *any* split of the record, and within the 0.01 ps measured-delay
contract on the numpy backend.

Whole-record statistics and priming
-----------------------------------
The monolithic path derives three quantities from the *full* record: the
comparator hysteresis (a percentile swing estimate), the compression
seed interval (median crossing interval), and each noise record's RMS
normalisation.  A stream cannot see the full record, so:

* ``prime=record`` runs the record once through a throwaway deep copy
  of the processor (cloned generators, fresh dynamics) and freezes the
  statistics it measures — this is what makes the streamed output
  bit-exact, at the cost of one extra pass;
* ``prime=None`` (the constant-memory default) freezes the statistics
  from the first chunk.  The run is deterministic and self-consistent
  but only approximately equal to a monolithic run — fine for long
  BERT streams where the first chunk is already statistically
  representative.

Noise determinism
-----------------
``numpy.random.Generator.normal`` consumes its bit stream sequentially,
so drawing a record in chunks yields the same values as one big draw.
With ``rng=None`` each cascade element draws from its own private
generator — exactly what the monolithic :class:`FineDelayLine` path
does — so fine-line streaming is noise-bit-exact.  An explicit *rng* is
split into independent child streams (one per element) because the
monolithic shared-generator consumption order cannot be reproduced
chunk by chunk; the same applies to :class:`CombinedDelayLine`, whose
monolithic path shares one generator across the coarse and fine
sections.  Streamed runs with noise are therefore deterministic and
split-invariant, but only the ``rng=None`` fine-line case reproduces
the monolithic noise realisation bit for bit.
"""

from __future__ import annotations

import copy
import math
from typing import Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np
from scipy import signal as _scipy_signal

from .. import instrument, kernels
from ..circuits.vga_buffer import BufferParams, VariableGainBuffer
from ..errors import CircuitError
from ..kernels.cascade import CascadeStage, CascadeStageState
from ..signals.filters import (
    bandwidth_to_time_constant,
    bilinear_lowpass_coefficients,
    cascade_filter_plan,
)
from ..signals.waveform import Waveform

__all__ = ["StreamProcessor"]

#: Chunk-boundary contiguity tolerance, in sample intervals.
_CONTIGUITY_TOL = 1e-6


class _NoiseStream:
    """Chunked continuation of ``band_limited_noise``.

    Draws the white sequence chunk by chunk from the same generator and
    carries the shaping filter's state, so the concatenated chunks are
    sample-for-sample the single-call noise record (the first chunk
    absorbs the discarded warmup prefix).  The RMS normalisation gain is
    frozen on the first chunk — or copied in from a priming pass, which
    is what makes the stream bit-exact against the monolithic record.
    """

    def __init__(
        self,
        sigma: float,
        bandwidth: float,
        dt: float,
        rng: np.random.Generator,
    ):
        self.sigma = float(sigma)
        self.rng = rng
        nyquist = 0.5 / dt
        if bandwidth < nyquist:
            tau = bandwidth_to_time_constant(bandwidth)
            self.n_warmup = int(min(8192, math.ceil(10.0 * tau / dt)))
            self.b, self.a = bilinear_lowpass_coefficients(dt, tau)
        else:
            # At or above Nyquist the monolithic path skips the filter.
            self.n_warmup = 0
            self.b = None
            self.a = None
        self.gain: Optional[float] = None
        self.zi: Optional[np.ndarray] = None

    def next(self, n: int) -> np.ndarray:
        if self.b is not None:
            if self.zi is None:
                white = self.rng.normal(0.0, 1.0, size=n + self.n_warmup)
                zi = np.zeros(len(self.a) - 1)
                filtered, self.zi = _scipy_signal.lfilter(
                    self.b, self.a, white, zi=zi
                )
                filtered = filtered[self.n_warmup:]
            else:
                white = self.rng.normal(0.0, 1.0, size=n)
                filtered, self.zi = _scipy_signal.lfilter(
                    self.b, self.a, white, zi=self.zi
                )
        else:
            filtered = self.rng.normal(0.0, 1.0, size=n)
        if self.gain is None:
            rms = float(np.sqrt(np.mean(filtered**2))) if n else 0.0
            self.gain = 0.0 if rms == 0.0 else self.sigma / rms
        return filtered * self.gain


class _StageOp:
    """One limiting-buffer stage of a streamed cascade."""

    def __init__(
        self,
        params: BufferParams,
        amplitude: Optional[Union[float, np.ndarray]],
        vctrl: Optional[Waveform],
        rng: np.random.Generator,
    ):
        self.params = params
        self.vctrl = vctrl
        self.static_amplitude = (
            None
            if vctrl is not None
            else np.asarray(amplitude, dtype=np.float64)
        )
        self.noise: Optional[_NoiseStream] = None
        self._rng = rng
        self.state = CascadeStageState()
        self.dt: Optional[float] = None
        self.t_base: Optional[float] = None

    def bind(self, dt: float, t_base: float) -> None:
        """Resolve the dt-dependent constants on the first chunk."""
        self.dt = dt
        self.t_base = t_base
        tau = bandwidth_to_time_constant(self.params.bandwidth)
        self._b, self._a, self._zi_unit = cascade_filter_plan(dt, tau)
        self._max_step = self.params.slew_rate * dt
        if self.params.noise_sigma > 0:
            self.noise = _NoiseStream(
                self.params.noise_sigma,
                self.params.noise_bandwidth,
                dt,
                self._rng,
            )

    def stage_for_chunk(self, n: int, offset: int) -> CascadeStage:
        if self.vctrl is not None:
            # Evaluate the control waveform at the *global* sample
            # instants, so a chunked run injects the same jitter a
            # monolithic run would.
            times = self.t_base + self.dt * np.arange(offset, offset + n)
            amplitude = np.asarray(
                self.params.amplitude_from_vctrl(self.vctrl.value_at(times)),
                dtype=np.float64,
            )
        else:
            amplitude = self.static_amplitude
        noise = self.noise.next(n) if self.noise is not None else None
        return CascadeStage(
            amplitude=amplitude,
            amplitude_min=self.params.amplitude_min,
            v_linear=self.params.v_linear,
            max_step=self._max_step,
            corner=self.params.compression_corner,
            order=self.params.compression_order,
            b=self._b,
            a=self._a,
            zi_unit=self._zi_unit,
            noise=noise,
        )


def _stage_op(element, rng: np.random.Generator) -> _StageOp:
    """Build a stage op from a circuit element (VGA or fixed buffer)."""
    params = element.params
    if isinstance(element, VariableGainBuffer):
        vctrl = element.vctrl
        if isinstance(vctrl, Waveform):
            return _StageOp(params, None, vctrl, rng)
        return _StageOp(
            params, params.amplitude_from_vctrl(vctrl), None, rng
        )
    return _StageOp(params, element.amplitude, None, rng)


class _CascadeOp:
    """A contiguous run of limiting stages fused into one kernel call."""

    def __init__(self, stage_ops: List[_StageOp]):
        self.stage_ops = stage_ops

    def bind(self, dt: float, t: float) -> float:
        for op in self.stage_ops:
            op.bind(dt, t)
            t = t + op.params.propagation_delay
        return t

    def shift(self, t: float) -> float:
        # Repeated addition, matching the monolithic plan's t_acc
        # accumulation order bit for bit.
        for op in self.stage_ops:
            t = t + op.params.propagation_delay
        return t

    def apply(self, values: np.ndarray, dt: float, offset: int) -> np.ndarray:
        with instrument.span("stream.state_carry"):
            stages = [
                op.stage_for_chunk(values.size, offset)
                for op in self.stage_ops
            ]
            states = [op.state for op in self.stage_ops]
        return kernels.fine_delay_cascade_stream(values, stages, dt, states)


class _TLineOp:
    """A transmission-line tap with carried dispersion-filter state."""

    def __init__(self, line):
        self.gain = line.gain
        self.total_delay = line.total_delay
        self.bandwidth = (
            line.bandwidth()
            if line.dispersive and line.total_delay > 0
            else math.inf
        )
        self._b = None
        self._a = None
        self.zi: Optional[np.ndarray] = None

    def bind(self, dt: float, t: float) -> float:
        if np.isfinite(self.bandwidth) and self.bandwidth < 0.5 / dt:
            tau = bandwidth_to_time_constant(self.bandwidth)
            self._b, self._a = bilinear_lowpass_coefficients(dt, tau)
        return t + self.total_delay

    def shift(self, t: float) -> float:
        return t + self.total_delay

    def apply(self, values: np.ndarray, dt: float, offset: int) -> np.ndarray:
        if self._b is not None:
            zi = (
                _scipy_signal.lfilter_zi(self._b, self._a) * values[0]
                if self.zi is None
                else self.zi
            )
            values, self.zi = _scipy_signal.lfilter(
                self._b, self._a, values, zi=zi
            )
        if self.gain != 1.0:
            values = values * self.gain
        return values


class _SkewOp:
    """A pure time shift (mux port skew): no sample processing."""

    def __init__(self, skew: float):
        self.skew = float(skew)

    def bind(self, dt: float, t: float) -> float:
        return t + self.skew

    def shift(self, t: float) -> float:
        return t + self.skew

    def apply(self, values: np.ndarray, dt: float, offset: int) -> np.ndarray:
        return values


def _resolve_element_rngs(
    elements: Sequence, rng: Optional[np.random.Generator]
) -> List[np.random.Generator]:
    """One independent generator per element.

    ``None`` uses each element's own private generator (the monolithic
    fine-line convention); an explicit generator is split into child
    streams so chunked consumption stays split-invariant.
    """
    if rng is None:
        return [element._resolve_rng(None) for element in elements]
    return list(rng.spawn(len(elements)))


class StreamProcessor:
    """Push-chunks, get-chunks streaming executor for a delay pipeline.

    Built by :meth:`FineDelayLine.open_stream` /
    :meth:`CombinedDelayLine.open_stream`; chunks must tile one
    contiguous record (same ``dt``, each chunk starting where the
    previous ended).  Each :meth:`push` returns the corresponding
    output chunk with its time origin already carrying the pipeline's
    accumulated propagation delays.
    """

    def __init__(self, ops: List):
        self._ops = ops
        self._dt: Optional[float] = None
        self._t0: Optional[float] = None
        self._offset = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def for_cascade(
        cls, elements: Sequence, rng: Optional[np.random.Generator] = None
    ) -> "StreamProcessor":
        """A pure limiting-stage cascade (the fine delay line)."""
        rngs = _resolve_element_rngs(elements, rng)
        stage_ops = [_stage_op(e, r) for e, r in zip(elements, rngs)]
        return cls([_CascadeOp(stage_ops)])

    @classmethod
    def for_combined(
        cls,
        coarse,
        fine_elements: Sequence,
        rng: Optional[np.random.Generator] = None,
    ) -> "StreamProcessor":
        """Coarse selector (fanout, selected tap, mux) plus fine cascade.

        The tap selection is captured at build time; reprogramming the
        coarse section mid-stream is not supported.
        """
        mux = coarse.mux
        line = coarse.lines[coarse.select]
        noisy = [coarse.fanout, mux] + list(fine_elements)
        rngs = _resolve_element_rngs(noisy, rng)
        fan_op = _stage_op(coarse.fanout, rngs[0])
        mux_op = _stage_op(mux, rngs[1])
        fine_ops = [
            _stage_op(e, r) for e, r in zip(fine_elements, rngs[2:])
        ]
        return cls(
            [
                _CascadeOp([fan_op]),
                _TLineOp(line),
                _SkewOp(mux.port_skews[mux.select]),
                _CascadeOp([mux_op] + fine_ops),
            ]
        )

    # -- priming -----------------------------------------------------------

    def _stage_ops(self) -> Iterator[_StageOp]:
        for op in self._ops:
            if isinstance(op, _CascadeOp):
                for stage in op.stage_ops:
                    yield stage

    def prime(self, waveform: Waveform) -> None:
        """Freeze the whole-record statistics from a priming record.

        Runs *waveform* once through a throwaway deep copy of this
        processor (cloned generators, fresh dynamics) and copies back
        the comparator hysteresis, compression seed interval, and noise
        RMS gains it measured.  When the priming record equals the
        concatenated chunks, the subsequent stream is bit-exact against
        the monolithic path on the python kernel backend.  Must run
        before the first :meth:`push`.
        """
        if self._dt is not None:
            raise CircuitError(
                "prime() must run before the first chunk is pushed"
            )
        with instrument.span("stream.prime"):
            twin = copy.deepcopy(self)
            twin.push(waveform)
            for mine, primed in zip(self._stage_ops(), twin._stage_ops()):
                if primed.state.hysteresis is not None:
                    mine.state.freeze_stats(
                        primed.state.hysteresis,
                        primed.state.initial_interval,
                    )
                if primed.noise is not None:
                    # The twin binds its noise streams on the prime
                    # chunk; pre-freeze the gain on the real op so the
                    # first real chunk reuses it.
                    mine._primed_noise_gain = primed.noise.gain

    # -- streaming ---------------------------------------------------------

    def push(self, chunk: Waveform) -> Waveform:
        """Process the next chunk and return its output chunk."""
        if len(chunk) == 0:
            raise CircuitError("streamed chunks must be non-empty")
        if self._dt is None:
            self._dt = chunk.dt
            self._t0 = chunk.t0
            t = chunk.t0
            for op in self._ops:
                t = op.bind(self._dt, t)
            for stage in self._stage_ops():
                gain = getattr(stage, "_primed_noise_gain", None)
                if gain is not None and stage.noise is not None:
                    stage.noise.gain = gain
        else:
            if chunk.dt != self._dt:
                raise CircuitError(
                    f"chunk dt {chunk.dt} does not match the stream's "
                    f"{self._dt}"
                )
            expected = self._t0 + self._dt * self._offset
            if abs(chunk.t0 - expected) > _CONTIGUITY_TOL * self._dt:
                raise CircuitError(
                    f"chunk t0 {chunk.t0} is not contiguous with the "
                    f"stream (expected {expected})"
                )
        with instrument.span("stream.chunk"):
            instrument.count("stream.chunks")
            instrument.count("stream.samples", len(chunk))
            values = np.asarray(chunk.values, dtype=np.float64)
            t = chunk.t0
            for op in self._ops:
                values = op.apply(values, self._dt, self._offset)
                t = op.shift(t)
            out = Waveform(values, self._dt, t)
        self._offset += len(chunk)
        return out

    def process(self, chunks: Iterable[Waveform]) -> Iterator[Waveform]:
        """Yield the output chunk for each input chunk."""
        for chunk in chunks:
            yield self.push(chunk)

    @property
    def samples_processed(self) -> int:
        """Total input samples consumed so far."""
        return self._offset
