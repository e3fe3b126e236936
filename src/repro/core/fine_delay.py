"""The fine delay line: a cascade of variable-gain buffers.

This is the paper's Sec. 2 circuit (Fig. 6): N variable-amplitude
buffers in series, all driven by a common ``Vctrl``, followed by a
fixed full-swing output stage that recovers the logic amplitude.  Each
stage contributes ~14 ps of amplitude-dependent delay, so the 4-stage
production circuit spans ~56 ps (Fig. 7) with sub-picosecond
setability through a DAC on Vctrl.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import instrument, kernels
from ..circuits.buffers import OutputBuffer
from ..circuits.element import CircuitElement
from ..circuits.vga_buffer import (
    BufferParams,
    ControlInput,
    StagePlanner,
    VariableGainBuffer,
    stage_control,
)
from ..errors import CircuitError
from ..kernels.cascade import CascadeStage
from ..signals.waveform import Waveform, WaveformBatch
from .params import DEFAULT_FINE_STAGES, FOUR_STAGE_BUFFER

__all__ = ["FineDelayLine", "cascade_plan_pack"]


def _spawn_seeds(seed: Optional[int], count: int) -> List[Optional[int]]:
    """Derive *count* independent child seeds (or all-None)."""
    if seed is None:
        return [None] * count
    sequence = np.random.SeedSequence(seed)
    return [int(s.generate_state(1)[0]) for s in sequence.spawn(count)]


class FineDelayLine(CircuitElement):
    """N cascaded variable-gain buffers plus a full-swing output stage.

    Parameters
    ----------
    n_stages:
        Number of variable-gain stages (4 in the paper's production
        circuit, 2 in the early prototype).
    params:
        Physics of each variable-gain stage.
    output_amplitude:
        Differential half-swing restored by the output stage, volts.
    vctrl:
        Initial common control voltage (scalar, or a
        :class:`~repro.signals.waveform.Waveform` for jitter injection).
    seed:
        Master seed; per-stage noise generators are derived from it.

    Notes
    -----
    The paper drives all stages from one Vctrl "for simplicity"; the
    :attr:`vctrl` property follows that convention.  Per-stage control
    (for the linearity ablation) is available via
    :meth:`set_stage_vctrl`.
    """

    def __init__(
        self,
        n_stages: int = DEFAULT_FINE_STAGES,
        params: Optional[BufferParams] = None,
        output_amplitude: float = 0.4,
        vctrl: ControlInput = 0.75,
        seed: Optional[int] = None,
    ):
        super().__init__(seed)
        if n_stages < 1:
            raise CircuitError(f"need at least one stage, got {n_stages}")
        self.params = params if params is not None else FOUR_STAGE_BUFFER
        seeds = _spawn_seeds(seed, n_stages + 1)
        self._stages = [
            VariableGainBuffer(self.params, vctrl=vctrl, seed=seeds[i])
            for i in range(n_stages)
        ]
        self._output_stage = OutputBuffer(
            amplitude=output_amplitude, seed=seeds[n_stages]
        )

    # -- control ---------------------------------------------------------

    @property
    def n_stages(self) -> int:
        """Number of variable-gain stages (excluding the output stage)."""
        return len(self._stages)

    @property
    def stages(self) -> Sequence[VariableGainBuffer]:
        """The variable-gain stages, in signal order."""
        return tuple(self._stages)

    @property
    def output_stage(self) -> OutputBuffer:
        """The full-swing recovery stage."""
        return self._output_stage

    @property
    def vctrl(self) -> ControlInput:
        """The common control voltage (the paper's single-Vctrl scheme).

        Reading returns stage 0's control; writing programs every stage.
        """
        return self._stages[0].vctrl

    @vctrl.setter
    def vctrl(self, value: ControlInput) -> None:
        for stage in self._stages:
            stage.vctrl = value

    def set_stage_vctrl(self, index: int, value: ControlInput) -> None:
        """Program one stage's control independently (ablation mode)."""
        self._stages[index].vctrl = value

    def stage_vctrls(self) -> List[ControlInput]:
        """Current per-stage control voltages."""
        return [stage.vctrl for stage in self._stages]

    # -- behaviour ---------------------------------------------------------

    def _elements(self) -> List[CircuitElement]:
        """All cascade elements in signal order (stages + output stage)."""
        return list(self._stages) + [self._output_stage]

    def process(
        self, waveform: Waveform, rng: Optional[np.random.Generator] = None
    ) -> Waveform:
        with instrument.span("fine_delay"):
            instrument.count("fine_delay.fused_calls")
            stages, t_out = cascade_plan_pack(
                [self],
                WaveformBatch(
                    waveform.values[None, :], waveform.dt, waveform.t0
                ),
                [rng],
            )
            samples = kernels.fine_delay_cascade(
                waveform.values, stages, waveform.dt
            )
            return Waveform(samples, waveform.dt, float(t_out[0]))

    def open_stream(
        self,
        rng: Optional[np.random.Generator] = None,
        prime: Optional[Waveform] = None,
    ):
        """Build a chunked streaming processor for this cascade.

        Returns a :class:`~repro.core.streaming.StreamProcessor`; push
        successive contiguous chunks of one long record and receive the
        corresponding output chunks in bounded memory.  With
        *prime* equal to the concatenated chunks the streamed output
        reproduces :meth:`process`, with the same bytes on either kernel
        backend (the contract is in :mod:`repro.core.streaming`);
        ``prime=None`` freezes the whole-record statistics from the
        first chunk instead.  ``rng=None`` uses the stages' private
        generators — the same streams :meth:`process` consumes.
        """
        from .streaming import StreamProcessor

        processor = StreamProcessor.for_cascade(self._elements(), rng)
        if prime is not None:
            processor.prime(prime)
        return processor

    def process_stream(
        self,
        chunks,
        rng: Optional[np.random.Generator] = None,
        prime: Optional[Waveform] = None,
    ):
        """Yield the cascade output chunk by chunk (see :meth:`open_stream`)."""
        yield from self.open_stream(rng=rng, prime=prime).process(chunks)

    def process_batch(
        self,
        waveforms: WaveformBatch,
        rngs: Optional[Sequence[np.random.Generator]] = None,
        vctrls: Optional[np.ndarray] = None,
    ) -> WaveformBatch:
        """Run all lanes through the cascade as one batch.

        *vctrls* optionally programs each lane its own common control
        voltage (every stage of lane ``i`` at ``vctrls[i]``, matching
        the single-Vctrl convention) — this is how a calibration sweep
        collapses into a single pass.  ``None`` keeps each stage's own
        programming.  Lane ``i`` draws noise from ``rngs[i]`` only, so
        the batch is bit-exact against per-lane :meth:`process` calls
        on the python kernel backend.
        """
        rngs = self._resolve_lane_rngs(rngs, waveforms.n_lanes)
        with instrument.span("fine_delay"):
            instrument.count("fine_delay.fused_calls")
            stages, t_out = cascade_plan_pack(
                [self] * waveforms.n_lanes, waveforms, rngs, vctrls
            )
            samples = kernels.fine_delay_cascade_batch(
                waveforms.values, stages, waveforms.dt
            )
            return WaveformBatch(samples, waveforms.dt, t_out)

    def nominal_delay(self, vctrl: float, half_period: float = float("inf")) -> float:
        """Analytic estimate of the total insertion delay at *vctrl*.

        Sums the per-stage slew delays plus fixed propagation delays;
        see :meth:`BufferParams.nominal_delay`.  Useful for seeding
        calibration sweeps; the waveform simulation is authoritative.
        """
        amplitude = self.params.amplitude_from_vctrl(vctrl)
        per_stage = self.params.nominal_delay(amplitude, half_period)
        output = self._output_stage.params.nominal_delay(
            self._output_stage.amplitude, half_period
        )
        return self.n_stages * per_stage + output

    def nominal_range(self, half_period: float = float("inf")) -> float:
        """Analytic estimate of the full-scale delay range, seconds."""
        return self.nominal_delay(
            self.params.vctrl_max, half_period
        ) - self.nominal_delay(self.params.vctrl_min, half_period)


def cascade_plan_pack(
    lines: Sequence[FineDelayLine],
    batch: WaveformBatch,
    rngs: Sequence[Optional[np.random.Generator]],
    vctrls: Optional[np.ndarray] = None,
) -> Tuple[List[CascadeStage], np.ndarray]:
    """Fused-kernel plan for a *pack*: lane ``i`` runs ``lines[i]``.

    A pack runs many structurally-identical lines — e.g. the same
    campaign scenario under different Monte-Carlo variation draws —
    through one fused kernel call; a batch through one line
    (:meth:`FineDelayLine.process_batch`) is the same line repeated,
    and :meth:`FineDelayLine.process` is a pack of one.  Each stage is
    one :class:`~repro.circuits.vga_buffer.StagePlanner` call on a
    fresh planner (offset 0, fresh noise) — the planner a stream
    carries from chunk to chunk — so each lane gets its own amplitude
    target (via its line's own control mapping), slew limit, amplitude
    floor, propagation delay and noise sigma, while the planner checks
    that the lanes share the physics that feed common kernel state.

    *vctrls* optionally programs lane ``i``'s common control voltage;
    ``None`` keeps each line's own per-stage programming.  A
    jitter-injection waveform control (paper Sec. 5) is evaluated on
    each lane's own delayed time grid, giving that stage an
    ``(n_lanes, n_samples)`` amplitude.  Lane ``i`` draws noise from
    ``rngs[i]`` only, in stage order; a lane generator of ``None``
    draws each stage's noise from that stage's private generator (the
    generators :meth:`FineDelayLine.process` and its streams use when
    the caller passes none).  A lane's plan therefore does not depend
    on the pack it rides in.
    """
    n_lanes = batch.n_lanes
    if len(lines) != n_lanes:
        raise CircuitError(
            f"pack plan needs one line per lane: {len(lines)} lines, "
            f"{n_lanes} lanes"
        )
    if len(rngs) != n_lanes:
        raise CircuitError(
            f"pack plan needs one rng per lane: {len(rngs)} rngs, "
            f"{n_lanes} lanes"
        )
    stage_counts = {line.n_stages for line in lines}
    if len(stage_counts) != 1:
        raise CircuitError(
            f"pack lanes disagree on stage count: {sorted(stage_counts)}"
        )
    if vctrls is not None:
        vctrls = np.asarray(vctrls, dtype=np.float64)
        if vctrls.shape != (n_lanes,):
            raise CircuitError(
                f"vctrls must have one entry per lane ({n_lanes}), "
                f"got shape {vctrls.shape}"
            )
    t_acc = np.asarray(batch.t0, dtype=np.float64).copy()
    stages: List[CascadeStage] = []
    for elements in zip(*(line._elements() for line in lines)):
        planner = StagePlanner(
            [element.params for element in elements],
            [
                stage_control(e, None if vctrls is None else vctrls[lane])
                for lane, e in enumerate(elements)
            ],
            [e._resolve_rng(rng) for e, rng in zip(elements, rngs)],
            batch.dt,
            t_acc,
        )
        stages.append(planner.plan(batch.n_samples))
        t_acc = t_acc + np.array(
            [element.params.propagation_delay for element in elements]
        )
    return stages, t_acc
