"""N:1 multiplexer for the coarse delay selector.

The paper's coarse section ends in a 4:1 mux steered by two digital
select lines (SEL0, SEL1).  Behaviourally the mux passes the selected
input through one more limiting-buffer stage (its output driver);
each input port can carry a small fixed port-to-port skew, one of the
contributors to the few-ps tap deviations seen in Fig. 9.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import CircuitError, ControlRangeError
from ..signals.waveform import Waveform, WaveformBatch
from .buffers import OUTPUT_STAGE_PARAMS
from .element import CircuitElement
from .vga_buffer import BufferParams, limiting_stage_batch

__all__ = ["Multiplexer"]


class Multiplexer(CircuitElement):
    """An N:1 differential multiplexer with buffered output.

    Parameters
    ----------
    n_inputs:
        Number of selectable inputs (4 in the paper's circuit).
    amplitude:
        Output differential half-swing, volts.
    port_skews:
        Optional per-port fixed skew, seconds (length ``n_inputs``);
        models routing-length mismatch inside and around the part.
    """

    def __init__(
        self,
        n_inputs: int = 4,
        amplitude: float = 0.4,
        port_skews: Optional[Sequence[float]] = None,
        params: Optional[BufferParams] = None,
        seed: Optional[int] = None,
    ):
        super().__init__(seed)
        if n_inputs < 2:
            raise CircuitError(f"a mux needs >= 2 inputs, got {n_inputs}")
        if amplitude <= 0:
            raise CircuitError(f"amplitude must be positive: {amplitude}")
        if port_skews is None:
            port_skews = [0.0] * n_inputs
        port_skews = [float(s) for s in port_skews]
        if len(port_skews) != n_inputs:
            raise CircuitError(
                f"port_skews has {len(port_skews)} entries for "
                f"{n_inputs} inputs"
            )
        base = params if params is not None else OUTPUT_STAGE_PARAMS
        self.params = base.with_updates(
            amplitude_min=amplitude * 0.999, amplitude_max=amplitude * 1.001
        )
        self.n_inputs = int(n_inputs)
        self.amplitude = float(amplitude)
        self.port_skews = port_skews
        self._select = 0

    @property
    def select(self) -> int:
        """Currently selected input port (0-based)."""
        return self._select

    @select.setter
    def select(self, code: int) -> None:
        code = int(code)
        if not 0 <= code < self.n_inputs:
            raise ControlRangeError(
                f"select code {code} out of range 0..{self.n_inputs - 1}"
            )
        self._select = code

    def set_select_lines(self, *bits: int) -> None:
        """Program the select code from digital lines (SEL0 first).

        ``set_select_lines(1, 0)`` selects port 1 on a 4:1 mux, matching
        the paper's SEL0/SEL1 convention (SEL0 is the LSB).
        """
        code = 0
        for position, bit in enumerate(bits):
            if bit not in (0, 1):
                raise ControlRangeError(f"select bits must be 0/1: {bit}")
            code |= bit << position
        self.select = code

    def select_input(
        self,
        inputs: Sequence[Waveform],
        rng: Optional[np.random.Generator] = None,
    ) -> Waveform:
        """Pass the selected one of *inputs* through the output driver."""
        if len(inputs) != self.n_inputs:
            raise CircuitError(
                f"expected {self.n_inputs} inputs, got {len(inputs)}"
            )
        return self.process(inputs[self._select], rng)

    def process(
        self, waveform: Waveform, rng: Optional[np.random.Generator] = None
    ) -> Waveform:
        """Single-input convenience: treat *waveform* as the selected port."""
        return self._one_lane(waveform, rng)

    def process_batch(
        self,
        batch: WaveformBatch,
        rngs: Optional[Sequence[np.random.Generator]] = None,
        port_skews: Optional[Sequence[float]] = None,
    ) -> WaveformBatch:
        """Batched pass-through: every lane as the selected port.

        *port_skews* optionally gives each lane its own port skew (a
        multi-instance bus render, where lane *i* traverses a different
        physical mux); ``None`` applies this mux's selected-port skew
        to every lane.
        """
        rngs = self._resolve_lane_rngs(rngs, batch.n_lanes)
        if port_skews is None:
            skews = np.full(batch.n_lanes, self.port_skews[self._select])
        else:
            skews = np.asarray(port_skews, dtype=np.float64)
        if np.any(skews):
            batch = batch.shifted(skews)
        return limiting_stage_batch(batch, self.amplitude, self.params, rngs)
