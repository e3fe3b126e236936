"""A parallel bus of ATE channels with per-channel deskew hardware.

The end application (paper Sec. 1 and 6): buses of up to 8 differential
channels at 6.4 Gbps, each routed through one combined coarse/fine
delay circuit mounted under the Device Interface Board, so the bus can
be aligned at the DUT to picosecond accuracy.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .. import instrument
from ..core.combined import CombinedDelayLine, process_lines_pack
from ..circuits.dac import ControlDAC
from ..circuits.element import spawn_rngs
from ..errors import CircuitError
from ..signals.patterns import prbs_sequence
from ..signals.waveform import Waveform, WaveformBatch
from .channel import ATEChannel

__all__ = ["ParallelBus"]


class ParallelBus:
    """N ATE channels, each followed by a combined delay circuit.

    Parameters
    ----------
    n_channels:
        Bus width (the paper's application uses 8 differential pairs).
    bit_rate:
        Data rate, bit/s.
    skew_spread:
        Half-width of the uniform distribution the channels' static
        skews are drawn from, seconds (fixture mismatch scale).
    with_delay_circuits:
        Build a :class:`~repro.core.combined.CombinedDelayLine` per
        channel.  Disable to model the ATE-only baseline.
    seed:
        Master seed; all per-channel randomness derives from it.
    buffer_params:
        Optional per-channel fine-section physics — one
        :class:`~repro.circuits.vga_buffer.BufferParams` per channel.
        This is the process-variation hook :mod:`repro.campaign` uses
        to model instance-to-instance spread; ``None`` keeps the
        calibrated nominal part on every channel.
    tap_errors:
        Optional per-channel coarse tap-error vectors (one sequence of
        per-tap errors per channel).
    rise_times:
        Optional per-channel source 20-80 % rise times, seconds.
    """

    def __init__(
        self,
        n_channels: int = 8,
        bit_rate: float = 6.4e9,
        skew_spread: float = 200e-12,
        with_delay_circuits: bool = True,
        seed: Optional[int] = None,
        buffer_params: Optional[Sequence] = None,
        tap_errors: Optional[Sequence[Sequence[float]]] = None,
        rise_times: Optional[Sequence[float]] = None,
    ):
        if n_channels < 2:
            raise CircuitError(f"a bus needs >= 2 channels: {n_channels}")
        if skew_spread < 0:
            raise CircuitError(f"skew_spread must be >= 0: {skew_spread}")
        for name, per_channel in (
            ("buffer_params", buffer_params),
            ("tap_errors", tap_errors),
            ("rise_times", rise_times),
        ):
            if per_channel is not None and len(per_channel) != n_channels:
                raise CircuitError(
                    f"{name} has {len(per_channel)} entries for "
                    f"{n_channels} channels"
                )
        self.n_channels = int(n_channels)
        self.bit_rate = float(bit_rate)
        master = np.random.SeedSequence(seed)
        children = master.spawn(2 * n_channels + 1)
        skew_rng = np.random.default_rng(children[0])
        skews = skew_rng.uniform(-skew_spread, skew_spread, size=n_channels)
        self.channels: List[ATEChannel] = [
            ATEChannel(
                bit_rate=bit_rate,
                static_skew=float(skews[i]),
                seed=int(children[1 + i].generate_state(1)[0]),
                **(
                    {}
                    if rise_times is None
                    else {"rise_time": float(rise_times[i])}
                ),
            )
            for i in range(n_channels)
        ]
        self.delay_lines: Optional[List[CombinedDelayLine]] = None
        if with_delay_circuits:
            self.delay_lines = [
                CombinedDelayLine(
                    dac=ControlDAC(seed=i),
                    seed=int(
                        children[1 + n_channels + i].generate_state(1)[0]
                    ),
                    buffer_params=(
                        None if buffer_params is None else buffer_params[i]
                    ),
                    tap_errors=(
                        None if tap_errors is None else tap_errors[i]
                    ),
                )
                for i in range(n_channels)
            ]

    @property
    def unit_interval(self) -> float:
        """The bus bit period, seconds."""
        return 1.0 / self.bit_rate

    def training_bits(self, n_bits: int = 127) -> np.ndarray:
        """The deskew training pattern (one PRBS7 period by default)."""
        return prbs_sequence(7, n_bits)

    def _lane_rngs(self, rng: Optional[np.random.Generator]):
        """Per-channel noise streams for one acquisition.

        An explicit *rng* is split into ``2 * n_channels`` child
        streams — one per channel driver, one per delay circuit — so a
        batched render and a per-channel loop consume identical
        streams.  ``None`` keeps each component on its own private
        generator.
        """
        if rng is None:
            return [None] * self.n_channels, None
        children = spawn_rngs(rng, 2 * self.n_channels)
        return children[: self.n_channels], children[self.n_channels :]

    def acquire(
        self,
        bits: Optional[Sequence[int]] = None,
        dt: float = 1e-12,
        rng: Optional[np.random.Generator] = None,
        through_delay_lines: bool = True,
        batch: bool = True,
    ) -> List[Waveform]:
        """Capture one record per channel, as a multi-input scope would.

        All channels carry the same *bits* (a deskew training pattern);
        each record reflects that channel's skew, programmed delays,
        jitter, and — when ``through_delay_lines`` — its delay circuit.

        With ``batch`` (the default) every channel's delay circuit is
        rendered as one lane of a single
        :class:`~repro.signals.waveform.WaveformBatch` pass through the
        kernel layer; ``batch=False`` keeps the per-channel loop.  Both
        modes consume identical per-channel noise streams (see
        :meth:`_lane_rngs`), so they produce the same records.
        """
        if bits is None:
            bits = self.training_bits()
        with instrument.span("bus.acquire"):
            drive_rngs, line_rngs = self._lane_rngs(rng)
            with instrument.span("drive"):
                records = [
                    channel.drive(bits, dt, drive_rngs[index])
                    for index, channel in enumerate(self.channels)
                ]
            instrument.count("bus.acquire.calls")
            instrument.count("bus.acquire.lanes", self.n_channels)
            instrument.count(
                "bus.acquire.samples",
                sum(len(record) for record in records),
            )
            if not through_delay_lines or self.delay_lines is None:
                return records
            if batch:
                stacked = WaveformBatch.from_waveforms(records)
                return process_lines_pack(
                    self.delay_lines, stacked, line_rngs
                ).waveforms()
            return [
                self.delay_lines[index].process(
                    record, None if line_rngs is None else line_rngs[index]
                )
                for index, record in enumerate(records)
            ]

    def acquire_edge_times(
        self,
        bits: Optional[Sequence[int]] = None,
        rng: Optional[np.random.Generator] = None,
        through_delay_lines: bool = True,
    ) -> List[np.ndarray]:
        """Fast acquisition: per-channel edge instants, no waveforms.

        Uses each channel's analytic edge generator and (when enabled)
        the delay circuits' closed-form event models.  Two to three
        orders of magnitude faster than :meth:`acquire`; accuracy is
        the event model's (a few ps absolute, much better
        differentially), which is what the fast deskew mode trades.
        """
        if bits is None:
            bits = self.training_bits()
        if rng is None:
            rng = np.random.default_rng(0)
        results = []
        for index, channel in enumerate(self.channels):
            edges = channel.edge_times(bits, rng)
            if through_delay_lines and self.delay_lines is not None:
                line = self.delay_lines[index]
                vctrl = line.vctrl
                if not np.isscalar(vctrl):
                    raise CircuitError(
                        "event-mode acquisition needs a scalar Vctrl"
                    )
                edges = line.event_model().propagate_edges(
                    edges,
                    vctrl=float(vctrl),
                    tap=line.select,
                    rng=rng,
                )
            results.append(edges)
        return results

    def stream_channel(
        self,
        index: int,
        chunks,
        rng: Optional[np.random.Generator] = None,
        prime: Optional[Waveform] = None,
    ):
        """Stream chunked stimulus through one channel's delay circuit.

        Yields the delay circuit's output chunk for each input chunk —
        the bounded-memory path for billion-bit BERT runs (the channel
        driver is bypassed: the caller supplies already-rendered
        stimulus chunks, e.g. from a chunked NRZ source).  See
        :meth:`repro.core.combined.CombinedDelayLine.open_stream`.
        """
        if self.delay_lines is None:
            raise CircuitError("bus was built without delay circuits")
        if not 0 <= index < self.n_channels:
            raise CircuitError(
                f"channel {index} out of range 0..{self.n_channels - 1}"
            )
        yield from self.delay_lines[index].process_stream(
            chunks, rng=rng, prime=prime
        )

    def calibrate_delay_lines(
        self,
        stimulus: Optional[Waveform] = None,
        n_points: int = 13,
    ) -> None:
        """Calibrate every channel's combined delay circuit.

        One line at a time: on numpy, calibrating an 8-channel bus as
        one 40-lane pack measured slower than this loop.
        """
        if self.delay_lines is None:
            raise CircuitError("bus was built without delay circuits")
        for line in self.delay_lines:
            line.calibrate(stimulus=stimulus, n_points=n_points)
