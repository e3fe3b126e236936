"""Constant-memory streaming execution of the delay-line pipelines.

A billion-bit BERT record at 6.4 Gbps and 1 ps sampling is ~156 G
samples — far beyond what the monolithic :meth:`process` paths can hold.
This module runs the same physics chunk by chunk: the caller pushes
successive :class:`~repro.signals.waveform.Waveform` chunks of one long
contiguous record and receives the corresponding output chunks.

A whole record is a one-chunk stream.  Each limiting stage is planned
by the :class:`~repro.circuits.vga_buffer.StagePlanner` that plans a
whole record or a pack (:func:`repro.core.fine_delay.cascade_plan_pack`)
and every standalone buffer stage; a stream builds it on the first
chunk and plans every chunk on it, so the planner carries the stage's
band-limited noise source (generator position, shaping-filter state,
frozen RMS gain) and the record's global sample offset, at which a
control-voltage waveform is evaluated (jitter injection sees the same
instants as a monolithic run).  This module keeps what belongs to
streams alone:

* chunk contiguity checks (same ``dt``, each chunk starting where the
  previous ended) and the chunks' time origins;
* the fused-cascade kernel state (comparator flips, compression scale,
  slew tracker, one-pole filter memory) via
  :class:`~repro.kernels.cascade.CascadeStageState`, carried through
  one-lane calls of the cascade kernel
  (:func:`repro.kernels.fine_delay_cascade_stream`);
* the transmission-line dispersion filter state;
* priming (below).

Chunk buffers
-------------
A stream's full-length work arrays live as long as the stream: the
numpy kernel keeps its four scratch arrays (the noisy record, the tanh
output and the target floor and extra, the last two of which the slew
relaxation reuses for its step and output) with the carry states, and
each stage planner draws its lanes' noise into one reused block.
Same-length pushes therefore reuse the same arrays instead of handing
the heap back and faulting it in again on every chunk; a shorter chunk
(the last one) gets arrays of its own shape.
No reuse shows in a result: each output chunk is the kernel's last
filter output, never a held buffer, and the bytes are those of fresh
arrays (``tests/kernels/test_chunk_buffers.py``).

Equivalence contract (asserted by ``tests/kernels/test_streaming.py``,
``tests/core/test_streaming.py`` and
``tests/kernels/test_byte_contract.py``): every chunk has the same
bytes on both kernel backends (the kernel contract of
:mod:`repro.kernels`), and a fresh stream fed the whole record as one
chunk is byte-identical to the monolithic path.  With a priming record
equal to the concatenated chunks, a streamed :class:`FineDelayLine`
run reproduces the monolithic path byte for byte for any split,
one-sample chunks included: each lane's half-cycle age crosses a chunk
boundary as an integer sample count plus the seed lead, so it rounds
exactly as in the whole record.

Whole-record statistics and priming
-----------------------------------
The monolithic path derives three quantities from the *full* record: the
comparator hysteresis (a percentile swing estimate), the compression
seed interval (median crossing interval), and each noise record's RMS
normalisation.  A stream cannot see the full record, so:

* ``prime=record`` binds the stream to the record's time grid (the
  first chunk must start where the record starts), runs the record once
  through a throwaway deep copy of the processor (cloned generators,
  fresh dynamics) and freezes the statistics it measures — this is what
  makes the streamed output reproduce the monolithic one, at the cost
  of one extra pass;
* ``prime=None`` (the constant-memory default) freezes the statistics
  from the first chunk.  The run is deterministic and self-consistent
  but only approximately equal to a monolithic run — fine for long
  BERT streams where the first chunk is already statistically
  representative.

Noise determinism
-----------------
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
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from .. import instrument, kernels
from ..circuits.vga_buffer import StagePlanner, stage_control
from ..errors import CircuitError
from ..kernels.cascade import CascadeStageState
from ..kernels.iir import lfilter, lfilter_zi
from ..signals.filters import (
    bandwidth_to_time_constant,
    bilinear_lowpass_coefficients,
)
from ..signals.waveform import Waveform

__all__ = ["StreamProcessor"]

#: Chunk-boundary contiguity tolerance, in sample intervals.
_CONTIGUITY_TOL = 1e-6


class _CascadeOp:
    """A contiguous run of limiting stages fused into one kernel call.

    The stages' programming (parameters and control) is captured when
    the stream is built; their planners are built on :meth:`bind`.
    """

    def __init__(
        self, elements: Sequence, rngs: Sequence[np.random.Generator]
    ):
        self.params = [element.params for element in elements]
        self.controls = [stage_control(element) for element in elements]
        self.rngs = list(rngs)
        self.states = [CascadeStageState() for _ in self.params]
        self.planners: List[StagePlanner] = []

    def bind(self, dt: float, t: float) -> float:
        self.planners = []
        for params, control, rng in zip(
            self.params, self.controls, self.rngs
        ):
            self.planners.append(
                StagePlanner([params], [control], [rng], dt, t)
            )
            t = t + params.propagation_delay
        return t

    def shift(self, t: float) -> float:
        # Repeated addition, matching the monolithic plan's t_acc
        # accumulation order bit for bit.
        for params in self.params:
            t = t + params.propagation_delay
        return t

    def apply(self, values: np.ndarray, dt: float) -> np.ndarray:
        with instrument.span("stream.state_carry"):
            stages = [p.plan(values.size) for p in self.planners]
        return kernels.fine_delay_cascade_stream(
            values, stages, dt, self.states
        )

    def freeze(self, primed: "_CascadeOp") -> None:
        """Adopt the whole-record statistics a priming twin measured:
        the kernel's hysteresis and seed interval, the noise RMS gains."""
        for state, twin in zip(self.states, primed.states):
            if twin.hysteresis is not None:
                state.freeze_stats(twin.hysteresis, twin.initial_interval)
        for planner, twin in zip(self.planners, primed.planners):
            for source, twin_source in zip(
                planner.noise or (), twin.noise or ()
            ):
                source.gain = twin_source.gain


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

    def apply(self, values: np.ndarray, dt: float) -> np.ndarray:
        if self._b is not None:
            zi = (
                lfilter_zi(self._b, self._a) * values[0]
                if self.zi is None
                else self.zi
            )
            values, self.zi = lfilter(self._b, self._a, values, zi=zi)
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

    def apply(self, values: np.ndarray, dt: float) -> np.ndarray:
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
        return cls([_CascadeOp(elements, rngs)])

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
        return cls(
            [
                _CascadeOp(noisy[:1], rngs[:1]),
                _TLineOp(line),
                _SkewOp(mux.port_skews[mux.select]),
                _CascadeOp(noisy[1:], rngs[1:]),
            ]
        )

    def _bind(self, waveform: Waveform) -> None:
        """Fix the stream's time grid and build the per-stage state."""
        self._dt = waveform.dt
        self._t0 = waveform.t0
        t = waveform.t0
        for op in self._ops:
            t = op.bind(self._dt, t)

    def _cascades(self) -> Iterator[_CascadeOp]:
        return (op for op in self._ops if isinstance(op, _CascadeOp))

    # -- priming -----------------------------------------------------------

    def prime(self, waveform: Waveform) -> None:
        """Freeze the whole-record statistics from a priming record.

        Binds the stream to *waveform*'s time grid — the first chunk
        must start where it starts — then runs it once through a
        throwaway deep copy of this processor (cloned generators, fresh
        dynamics) and adopts the comparator hysteresis, compression
        seed interval and noise RMS gains it measured.  When the
        priming record equals the concatenated chunks, the subsequent
        stream is bit-exact against the monolithic path on the python
        kernel backend.  Must run before the first :meth:`push`.
        """
        if self._offset:
            raise CircuitError(
                "prime() must run before the first chunk is pushed"
            )
        with instrument.span("stream.prime"):
            self._bind(waveform)
            twin = copy.deepcopy(self)
            twin.push(waveform)
            for mine, primed in zip(self._cascades(), twin._cascades()):
                mine.freeze(primed)

    # -- streaming ---------------------------------------------------------

    def push(self, chunk: Waveform) -> Waveform:
        """Process the next chunk and return its output chunk."""
        if len(chunk) == 0:
            raise CircuitError("streamed chunks must be non-empty")
        if self._dt is None:
            self._bind(chunk)
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
                values = op.apply(values, self._dt)
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
