"""Fixed-amplitude buffers: output (recovery) stage and 1:N fanout.

The paper's circuits use two such blocks:

* an **output stage** after the variable-gain cascade that restores the
  signal to full logic swing regardless of the programmed intermediate
  amplitude (Fig. 3, right), and
* a **1:4 fanout buffer** that feeds the four coarse delay taps
  (Fig. 8, left).

Both are the same limiting-buffer physics as the variable-gain stage
but with a fixed programmed amplitude and (being ordinary full-speed
parts) faster slew and wider bandwidth.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..errors import CircuitError
from ..signals.waveform import Waveform, WaveformBatch
from .element import CircuitElement
from .vga_buffer import BufferParams, limiting_stage_batch

__all__ = ["OUTPUT_STAGE_PARAMS", "OutputBuffer", "FanoutBuffer"]

#: Default physics for fixed-amplitude full-speed buffers (output stage,
#: fanout, mux): fast slew and wide bandwidth so they contribute little
#: distortion, plus a small noise/jitter contribution of their own.
OUTPUT_STAGE_PARAMS = BufferParams(
    amplitude_min=0.399,
    amplitude_max=0.401,
    slew_rate=60e9,
    bandwidth=14e9,
    propagation_delay=70e-12,
    noise_sigma=8e-3,
    noise_bandwidth=20e9,
    compression_corner=25e9,
)


class OutputBuffer(CircuitElement):
    """Full-swing recovery stage: fixed output amplitude.

    Restores a (possibly small-swing) intermediate signal to the full
    logic amplitude.  Because its amplitude is fixed, its own
    amplitude-delay coupling contributes a constant delay only.

    Parameters
    ----------
    amplitude:
        Output differential half-swing, volts.
    params:
        Underlying buffer physics; the amplitude range is overridden to
        pin the requested output swing.
    """

    def __init__(
        self,
        amplitude: float = 0.4,
        params: Optional[BufferParams] = None,
        seed: Optional[int] = None,
    ):
        super().__init__(seed)
        if amplitude <= 0:
            raise CircuitError(f"amplitude must be positive: {amplitude}")
        base = params if params is not None else OUTPUT_STAGE_PARAMS
        self.params = base.with_updates(
            amplitude_min=amplitude * 0.999, amplitude_max=amplitude * 1.001
        )
        self.amplitude = float(amplitude)

    def process(
        self, waveform: Waveform, rng: Optional[np.random.Generator] = None
    ) -> Waveform:
        return self._one_lane(waveform, rng)

    def process_batch(
        self,
        batch: WaveformBatch,
        rngs: Optional[Sequence[np.random.Generator]] = None,
    ) -> WaveformBatch:
        rngs = self._resolve_lane_rngs(rngs, batch.n_lanes)
        return limiting_stage_batch(batch, self.amplitude, self.params, rngs)


class FanoutBuffer(CircuitElement):
    """1:N fanout buffer producing N independently-buffered copies.

    Each output leg gets its own noise realisation (the legs are
    physically separate output drivers) but shares the input signal.

    :meth:`process` returns leg 0, so a fanout can sit in a
    :class:`~repro.circuits.element.Chain` when only one leg is used;
    :meth:`copies` returns all N legs.
    """

    def __init__(
        self,
        n_outputs: int = 4,
        amplitude: float = 0.4,
        params: Optional[BufferParams] = None,
        seed: Optional[int] = None,
    ):
        super().__init__(seed)
        if n_outputs < 1:
            raise CircuitError(f"need at least one output, got {n_outputs}")
        if amplitude <= 0:
            raise CircuitError(f"amplitude must be positive: {amplitude}")
        base = params if params is not None else OUTPUT_STAGE_PARAMS
        self.params = base.with_updates(
            amplitude_min=amplitude * 0.999, amplitude_max=amplitude * 1.001
        )
        self.n_outputs = int(n_outputs)
        self.amplitude = float(amplitude)

    def copies(
        self, waveform: Waveform, rng: Optional[np.random.Generator] = None
    ) -> List[Waveform]:
        """Return all N buffered copies of the input.

        The legs draw their noise in order from the one generator.
        """
        rng = self._resolve_rng(rng)
        return [self._one_lane(waveform, rng) for _ in range(self.n_outputs)]

    def process(
        self, waveform: Waveform, rng: Optional[np.random.Generator] = None
    ) -> Waveform:
        return self._one_lane(waveform, rng)

    def process_batch(
        self,
        batch: WaveformBatch,
        rngs: Optional[Sequence[np.random.Generator]] = None,
    ) -> WaveformBatch:
        """Batched single-leg path (lane *i* rides fanout leg *i*).

        A batched bus render routes each lane through its own leg, so
        one leg per lane — exactly one limiting stage per lane — is the
        batched equivalent of :meth:`process` on every lane.
        """
        rngs = self._resolve_lane_rngs(rngs, batch.n_lanes)
        return limiting_stage_batch(batch, self.amplitude, self.params, rngs)
