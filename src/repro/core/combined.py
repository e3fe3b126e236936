"""The combined coarse + fine delay circuit (paper Fig. 10).

Cascades the coarse tap selector in front of the fine variable-gain
cascade: four 33 ps coarse steps plus a ~50 ps continuously adjustable
fine section give ~140 ps of total range — comfortably beyond the
application's 120 ps requirement — with picosecond-scale setability
everywhere in between.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

import numpy as np

from .. import instrument, kernels
from ..circuits.dac import ControlDAC
from ..circuits.element import CircuitElement
from ..circuits.vga_buffer import BufferParams, ControlInput
from ..errors import CalibrationError, CircuitError
from ..signals.waveform import Waveform, WaveformBatch
from .calibration import (
    CalibrationTable,
    CombinedDelaySolver,
    DelaySetting,
    calibration_stimulus,
)
from .coarse_delay import CoarseDelayLine
from .fine_delay import FineDelayLine, cascade_plan_pack
from ..analysis.measurements import measure_delay, measure_delays_batch
from ..circuits.element import spawn_rngs

__all__ = [
    "CombinedDelayLine",
    "process_lines_pack",
    "calibrate_lines_pack",
]


class CombinedDelayLine(CircuitElement):
    """Coarse tap selector followed by the fine delay cascade.

    Parameters
    ----------
    coarse:
        The coarse section; a default 4-tap, 33 ps-step line is built
        when omitted.
    fine:
        The fine section; a default 4-stage line is built when omitted.
    dac:
        Optional Vctrl DAC used when solving delay targets.
    seed:
        Master seed used for default-constructed sections.
    buffer_params:
        Physics for the default-constructed fine section's stages (the
        process-variation hook used by :mod:`repro.campaign`).  Only
        legal when *fine* is omitted.
    tap_errors:
        Per-tap electrical-length errors for the default-constructed
        coarse section (the other variation hook).  Only legal when
        *coarse* is omitted.
    n_stages:
        Stage count for the default-constructed fine section.  Only
        legal when *fine* is omitted.
    """

    def __init__(
        self,
        coarse: Optional[CoarseDelayLine] = None,
        fine: Optional[FineDelayLine] = None,
        dac: Optional[ControlDAC] = None,
        seed: Optional[int] = None,
        buffer_params: Optional[BufferParams] = None,
        tap_errors: Optional[Sequence[float]] = None,
        n_stages: Optional[int] = None,
    ):
        super().__init__(seed)
        if coarse is not None and tap_errors is not None:
            raise CircuitError(
                "pass tap_errors to the CoarseDelayLine being supplied, "
                "not alongside it"
            )
        if fine is not None and (
            buffer_params is not None or n_stages is not None
        ):
            raise CircuitError(
                "pass buffer_params/n_stages to the FineDelayLine being "
                "supplied, not alongside it"
            )
        if seed is None:
            coarse_seed = fine_seed = None
        else:
            children = np.random.SeedSequence(seed).spawn(2)
            coarse_seed = int(children[0].generate_state(1)[0])
            fine_seed = int(children[1].generate_state(1)[0])
        self.coarse = coarse if coarse is not None else CoarseDelayLine(
            seed=coarse_seed, tap_errors=tap_errors
        )
        if fine is None:
            fine_kwargs = {}
            if buffer_params is not None:
                fine_kwargs["params"] = buffer_params
            if n_stages is not None:
                fine_kwargs["n_stages"] = n_stages
            fine = FineDelayLine(seed=fine_seed, **fine_kwargs)
        self.fine = fine
        self.dac = dac
        self._solver: Optional[CombinedDelaySolver] = None

    # -- control -----------------------------------------------------------

    @property
    def select(self) -> int:
        """Coarse tap selection."""
        return self.coarse.select

    @select.setter
    def select(self, tap: int) -> None:
        self.coarse.select = tap

    @property
    def vctrl(self) -> ControlInput:
        """Fine-section common control voltage."""
        return self.fine.vctrl

    @vctrl.setter
    def vctrl(self, value: ControlInput) -> None:
        self.fine.vctrl = value

    @property
    def solver(self) -> Optional[CombinedDelaySolver]:
        """The calibration solver, once :meth:`calibrate` has run."""
        return self._solver

    @property
    def params(self) -> BufferParams:
        """The fine section's buffer parameters (control range source)."""
        return self.fine.params

    # -- behaviour -----------------------------------------------------------

    def process(
        self, waveform: Waveform, rng: Optional[np.random.Generator] = None
    ) -> Waveform:
        rng = self._resolve_rng(rng)
        with instrument.span("combined_delay"):
            with instrument.span("coarse"):
                result = self.coarse.process(waveform, rng)
            return self.fine.process(result, rng)

    def open_stream(
        self,
        rng: Optional[np.random.Generator] = None,
        prime: Optional[Waveform] = None,
    ):
        """Build a chunked streaming processor for the combined path.

        The coarse tap selection and mux programming are captured at
        build time.  Unlike :meth:`FineDelayLine.open_stream`, a noisy
        streamed run is *not* bit-exact against :meth:`process` (the
        monolithic path shares one generator across the coarse and fine
        sections, which a chunked run cannot reproduce); it is
        deterministic, split-invariant, and bit-exact in the noiseless
        case.  See :mod:`repro.core.streaming`.
        """
        from .streaming import StreamProcessor

        processor = StreamProcessor.for_combined(
            self.coarse, self.fine._elements(), rng
        )
        if prime is not None:
            processor.prime(prime)
        return processor

    def process_stream(
        self,
        chunks,
        rng: Optional[np.random.Generator] = None,
        prime: Optional[Waveform] = None,
    ):
        """Yield the combined output chunk by chunk (see :meth:`open_stream`)."""
        yield from self.open_stream(rng=rng, prime=prime).process(chunks)

    def process_batch(
        self,
        waveforms: WaveformBatch,
        rngs: Optional[Sequence[np.random.Generator]] = None,
        vctrls: Optional[np.ndarray] = None,
    ) -> WaveformBatch:
        """Run all lanes through coarse + fine sections as one batch.

        *vctrls* optionally programs each lane its own fine-section
        control voltage (the calibration-sweep batching); ``None``
        keeps the programmed controls.  A batch is this line repeated
        once per lane through :func:`process_lines_pack`.
        """
        rngs = self._resolve_lane_rngs(rngs, waveforms.n_lanes)
        with instrument.span("combined_delay"):
            return process_lines_pack(
                [self] * waveforms.n_lanes, waveforms, rngs, vctrls
            )

    # -- calibration flow ------------------------------------------------------

    def calibrate(
        self,
        stimulus: Optional[Waveform] = None,
        n_points: int = 13,
    ) -> CombinedDelaySolver:
        """Measure fine curve and coarse taps; build and store the solver.

        Both measurements run through the *full combined path* (the
        fine sweep with the coarse section at tap 0, the tap sweep with
        the fine section at minimum control), so the solver's numbers
        include every path interaction — exactly as a bench calibration
        through the assembled board would.  This is
        :func:`calibrate_lines_pack` on a pack of one line; the noise
        comes from a fixed per-line stream, so a line calibrates the
        same alone or packed with others.
        """
        if stimulus is None:
            stimulus = calibration_stimulus()
        return calibrate_lines_pack([self], [stimulus], n_points)[0]

    def set_delay(self, target: float) -> DelaySetting:
        """Program the circuit for *target* seconds of relative delay.

        Requires :meth:`calibrate` to have been run.  Returns the
        solved setting (also applied to the hardware controls).
        """
        if self._solver is None:
            raise CalibrationError(
                "delay line is not calibrated; call calibrate() first"
            )
        setting = self._solver.solve(target)
        self.coarse.select = setting.tap
        self.fine.vctrl = setting.vctrl
        return setting

    @property
    def total_range(self) -> float:
        """Calibrated total range, seconds (requires calibration)."""
        if self._solver is None:
            raise CalibrationError(
                "delay line is not calibrated; call calibrate() first"
            )
        return self._solver.total_range

    def verify_calibration(
        self,
        targets: Optional[list] = None,
        stimulus: Optional[Waveform] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> list:
        """Measure achieved-minus-requested delay at several targets.

        The production sanity check after calibration (and the drift
        detector before re-use): program each target, measure the
        actual delay against the zero setting, and return the list of
        errors in seconds.  Controls are restored afterwards.
        """
        if self._solver is None:
            raise CalibrationError(
                "delay line is not calibrated; call calibrate() first"
            )
        if stimulus is None:
            stimulus = calibration_stimulus()
        if rng is None:
            rng = np.random.default_rng(0xC4EC)
        if targets is None:
            span = self._solver.total_range
            targets = [0.25 * span, 0.5 * span, 0.75 * span]
        saved_tap = self.coarse.select
        saved_vctrl = self.fine.vctrl
        try:
            self.set_delay(0.0)
            base = measure_delay(
                stimulus, self.process(stimulus, rng)
            ).delay
            errors = []
            for target in targets:
                self.set_delay(float(target))
                achieved = (
                    measure_delay(
                        stimulus, self.process(stimulus, rng)
                    ).delay
                    - base
                )
                errors.append(achieved - float(target))
            return errors
        finally:
            self.coarse.select = saved_tap
            self.fine.vctrl = saved_vctrl

    def event_model(self):
        """A fast closed-form model of this line's delays.

        Returns an :class:`~repro.core.event_model.EventDelayModel`
        configured with this line's stage physics and as-built tap
        delays.  Used by the ATE layer's fast (edge-event) simulation
        paths; relative delays between settings are what matters there.
        """
        from .event_model import EventDelayModel

        return EventDelayModel(
            n_stages=self.fine.n_stages,
            params=self.fine.params,
            output_params=self.fine.output_stage.params,
            output_amplitude=self.fine.output_stage.amplitude,
            tap_delays=self.coarse.actual_tap_delays(),
        )


# The BufferParams fields an instance variation perturbs (see
# InstanceVariation.buffer_params): packed lanes may differ on exactly
# these, because the fused pack plan carries them per lane.
_PACK_VARIED_FIELDS = (
    "slew_rate",
    "amplitude_min",
    "amplitude_max",
    "propagation_delay",
    "noise_sigma",
)


def _lines_packable(lines: Sequence[CombinedDelayLine]) -> bool:
    """Can lane *i* of a pack ride instance ``lines[i]`` in one pass?

    Lanes may differ on the variation-perturbed stage fields
    (:data:`_PACK_VARIED_FIELDS` — the fused plan carries those per
    lane) and on what the coarse section expresses per lane (tap
    selection, mux port skews), but must agree on everything structural
    — stage count, shared stage physics, output stage, and the coarse
    section's buffer builds.  Per-stage or waveform-valued Vctrl
    programming stays unpackable.
    """
    if not lines:
        return False
    if not all(isinstance(line, CombinedDelayLine) for line in lines):
        return False
    template = lines[0]
    t_params = template.fine.params
    for line in lines:
        vctrls = line.fine.stage_vctrls()
        if any(isinstance(v, Waveform) for v in vctrls):
            return False
        if any(float(v) != float(vctrls[0]) for v in vctrls[1:]):
            return False
        normalized = line.fine.params.with_updates(
            **{
                field: getattr(t_params, field)
                for field in _PACK_VARIED_FIELDS
            }
        )
        if (
            line.fine.n_stages != template.fine.n_stages
            or normalized != t_params
            or line.fine.output_stage.params
            != template.fine.output_stage.params
            or line.fine.output_stage.amplitude
            != template.fine.output_stage.amplitude
            or line.coarse.fanout.params != template.coarse.fanout.params
            or line.coarse.fanout.amplitude
            != template.coarse.fanout.amplitude
            or line.coarse.mux.params != template.coarse.mux.params
            or line.coarse.mux.amplitude != template.coarse.mux.amplitude
        ):
            return False
    return True


def process_lines_pack(
    lines: Sequence[CombinedDelayLine],
    waveforms: WaveformBatch,
    rngs: Optional[Sequence[np.random.Generator]] = None,
    vctrls: Optional[np.ndarray] = None,
) -> WaveformBatch:
    """Run lane *i* of *waveforms* through delay line ``lines[i]``.

    The lines renderer: N :class:`CombinedDelayLine` instances, one
    record per lane, simulated as one batch — a bus's per-channel
    circuits, or a campaign pack whose buffer parameters differ by an
    instance-variation draw.  Per-lane tap selection, mux port skew,
    scalar fine Vctrl and varied stage physics all ride one fused
    kernel call via :func:`repro.core.fine_delay.cascade_plan_pack`.
    *vctrls* optionally programs lane ``i``'s fine control (the
    calibration-sweep axis); ``None`` keeps each line's own programming.

    Falls back to per-lane sequential processing when the lines differ
    structurally, so the result is always what the per-lane loop would
    produce; on the python kernel backend the fused path is bit-exact
    against that loop.  A single line is a pack of one: it is
    :meth:`CombinedDelayLine.process` itself, whose every stage runs as
    a one-lane batch.

    *rngs* supplies lane *i*'s noise stream; ``None`` uses each line's
    own private generator — matching ``lines[i].process(lane, None)``.
    """
    if len(lines) != waveforms.n_lanes:
        raise CircuitError(
            f"{len(lines)} delay lines for {waveforms.n_lanes} lanes"
        )
    if rngs is None:
        rngs = [line._rng for line in lines]
    elif len(rngs) != len(lines):
        raise CircuitError(
            f"{len(rngs)} noise streams for {len(lines)} delay lines"
        )
    if not _lines_packable(lines):
        with instrument.span("lines_pack_fallback"):
            outputs = []
            for i, line in enumerate(lines):
                if vctrls is None:
                    outputs.append(
                        line.process(waveforms.lane(i), rngs[i])
                    )
                    continue
                saved = line.fine.vctrl
                try:
                    line.fine.vctrl = float(vctrls[i])
                    outputs.append(
                        line.process(waveforms.lane(i), rngs[i])
                    )
                finally:
                    line.fine.vctrl = saved
            return WaveformBatch.from_waveforms(outputs)
    with instrument.span("lines_pack"):
        template = lines[0]
        with instrument.span("coarse"):
            buffered = template.coarse.fanout.process_batch(
                waveforms, rngs
            )
            lined = WaveformBatch.from_waveforms(
                [
                    line.coarse.lines[line.coarse.select].process(
                        buffered.lane(i), rngs[i]
                    )
                    for i, line in enumerate(lines)
                ]
            )
            skews = [
                line.coarse.mux.port_skews[line.coarse.mux.select]
                for line in lines
            ]
            muxed = template.coarse.mux.process_batch(
                lined, rngs, port_skews=skews
            )
        with instrument.span("fine_delay"):
            instrument.count("fine_delay.fused_calls")
            stages, t_out = cascade_plan_pack(
                [line.fine for line in lines], muxed, rngs, vctrls
            )
            samples = kernels.fine_delay_cascade_batch(
                muxed.values, stages, muxed.dt
            )
            return WaveformBatch(samples, muxed.dt, t_out)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def calibrate_lines_pack(
    lines: Sequence[CombinedDelayLine],
    stimuli: Sequence[Waveform],
    n_points: int = 13,
) -> list:
    """Calibrate many delay lines as one lane pack; store the solvers.

    The one calibration flow, the paper's per-channel procedure (Figs.
    7, 9, 10): a fine Vctrl sweep with the coarse section at tap 0,
    then a coarse tap sweep with the fine section at minimum control,
    both through the full combined path.
    :meth:`CombinedDelayLine.calibrate` is a pack of one.  Each line
    draws its noise from its own ``default_rng(0xCA1B)`` master stream
    (the sweep's per-point children spawned first, the tap sweep
    continuing the master), and a lane's bytes do not depend on its
    pack-mates on either kernel backend, so a line's solver does not
    depend on which other lines share its pack.

    That independence is what spreads a pack over the CPUs: the lines
    split into one contiguous block per usable CPU (at most one per
    line), block 0 calibrates in the calling thread and the others on
    threads started for this call only, and the solvers come back in
    lane order, byte-identical to a one-block run.  The kernels release
    the GIL, so the blocks overlap: on two CPUs the in-process
    ``range_mc`` campaign (one 16-line pack) took 34 % less wall time.
    Within a block the fine sweeps of its *K* lines render as **one**
    ``K * n_points``-lane fused pass and the tap sweep as ``n_taps``
    *K*-lane passes, each line's taps measured in one batch.  Lines
    that share a section calibrate as one block, since calibration
    reprograms the sections.  If a block fails, every block still
    finishes and restores its lines' controls, the first failure in
    lane order is raised, and no solver is stored.

    *stimuli* supplies line ``i``'s calibration waveform (all on one
    time grid).  Returns the list of solvers, which are also stored on
    the lines (``line.solver``).
    """
    if len(stimuli) != len(lines):
        raise CircuitError(
            f"{len(stimuli)} stimuli for {len(lines)} delay lines"
        )
    if n_points < 2:
        raise CalibrationError(f"need >= 2 points, got {n_points}")
    n_lines = len(lines)
    tap_counts = {line.coarse.n_taps for line in lines}
    if len(tap_counts) != 1:
        raise CircuitError(
            f"pack lanes disagree on coarse tap count: "
            f"{sorted(tap_counts)}"
        )
    n_taps = tap_counts.pop()
    params = lines[0].fine.params
    grid = np.linspace(params.vctrl_min, params.vctrl_max, n_points)
    instrument.count("calibration.sweep_points", n_points * n_lines)
    instrument.count("calibration.tap_points", n_taps * n_lines)
    sections = {
        id(part) for line in lines for part in (line.coarse, line.fine)
    }
    n_blocks = min(_usable_cpus(), n_lines)
    if len(sections) < 2 * n_lines:
        n_blocks = 1
    if n_blocks == 1:
        solvers = _calibrate_block(lines, stimuli, grid, n_taps)
    else:
        bounds = [k * n_lines // n_blocks for k in range(n_blocks + 1)]
        blocks = [
            (lines[lo:hi], stimuli[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]
        path = instrument.open_path()

        def run(block):
            with instrument.nested_under(path):
                return _calibrate_block(*block, grid, n_taps)

        with ThreadPoolExecutor(max_workers=n_blocks - 1) as pool:
            futures = [pool.submit(run, block) for block in blocks[1:]]
            solvers = run(blocks[0])
        for future in futures:
            solvers += future.result()
    for line, solver in zip(lines, solvers):
        line._solver = solver
    return solvers


def _calibrate_block(
    lines: Sequence[CombinedDelayLine],
    stimuli: Sequence[Waveform],
    grid: np.ndarray,
    n_taps: int,
) -> list:
    """Fine and tap sweeps of one block of lines; returns their solvers."""
    n_lines = len(lines)
    n_points = len(grid)
    masters = [np.random.default_rng(0xCA1B) for _ in lines]
    # Spawn each line's sweep streams before any processing, exactly
    # where the scalar flow spawns them (the spawn advances the
    # master's spawn counter only, leaving its bit stream untouched
    # for the tap sweep that follows).
    sweep_rngs = [spawn_rngs(master, n_points) for master in masters]
    saved_taps = [line.coarse.select for line in lines]
    fine_tables = []
    try:
        for line in lines:
            line.coarse.select = 0
        with instrument.span("calibrate_fine_delay"):
            pack_lines = [
                line for line in lines for _ in range(n_points)
            ]
            pack_waves = WaveformBatch.from_waveforms(
                [
                    stimulus
                    for stimulus in stimuli
                    for _ in range(n_points)
                ]
            )
            pack_rngs = [rng for per_line in sweep_rngs for rng in per_line]
            outputs = process_lines_pack(
                pack_lines,
                pack_waves,
                pack_rngs,
                vctrls=np.tile(grid, n_lines),
            )
            lanes = outputs.waveforms()
            for k in range(n_lines):
                sweep = WaveformBatch.from_waveforms(
                    lanes[k * n_points:(k + 1) * n_points]
                )
                delays = np.asarray(
                    [
                        m.delay
                        for m in measure_delays_batch(stimuli[k], sweep)
                    ]
                )
                fine_tables.append(
                    CalibrationTable(
                        vctrls=grid, delays=delays - delays[0]
                    )
                )
    finally:
        for line, saved in zip(lines, saved_taps):
            line.coarse.select = saved
    saved_taps = [line.coarse.select for line in lines]
    saved_vctrls = [line.fine.vctrl for line in lines]
    tap_outputs = []
    try:
        for line in lines:
            line.fine.vctrl = line.fine.params.vctrl_min
        with instrument.span("calibrate_tap_sweep"):
            stimuli_batch = WaveformBatch.from_waveforms(list(stimuli))
            for tap in range(n_taps):
                for line in lines:
                    line.coarse.select = tap
                tap_outputs.append(
                    process_lines_pack(lines, stimuli_batch, masters)
                )
            tap_delays = [
                [
                    m.delay
                    for m in measure_delays_batch(
                        stimuli[k],
                        [outputs.lane(k) for outputs in tap_outputs],
                    )
                ]
                for k in range(n_lines)
            ]
    finally:
        for line, saved_tap, saved_vctrl in zip(
            lines, saved_taps, saved_vctrls
        ):
            line.coarse.select = saved_tap
            line.fine.vctrl = saved_vctrl
    solvers = []
    for k, line in enumerate(lines):
        relative = [t - tap_delays[k][0] for t in tap_delays[k]]
        solvers.append(
            CombinedDelaySolver(
                fine_table=fine_tables[k], tap_delays=relative, dac=line.dac
            )
        )
    return solvers
