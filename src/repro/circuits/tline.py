"""Controlled-length differential transmission lines.

The coarse delay section (paper Fig. 8) realises its 0/33/66/99 ps taps
as matched-impedance differential traces of controlled length.  The
behavioural model is:

* a pure delay (electrical length), with an optional per-instance
  *length error* — the few-picosecond manufacturing deviations that
  turn the ideal 0/33/66/99 ps into the measured 0/33/70/95 ps of
  Fig. 9;
* flat attenuation (dielectric/conductor loss at the band of interest);
* a single-pole roll-off modelling the line's dispersion, scaled with
  electrical length (longer trace, more high-frequency loss).

Unlike active stages, a passive trace adds essentially no jitter of its
own, which is exactly why the paper chose passive taps over cascading
more active fine stages (Sec. 3).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import CircuitError
from ..kernels.iir import lfilter
from ..signals.filters import bandwidth_to_time_constant, cascade_filter_plan
from ..signals.waveform import Waveform, WaveformBatch
from .element import CircuitElement

__all__ = ["TransmissionLine", "ReflectiveStub"]

#: Reference dispersion: -3 dB bandwidth of a line with 100 ps of
#: electrical length (a few cm of lossy PCB trace at these rates).
_REFERENCE_BANDWIDTH_100PS = 40e9
_REFERENCE_LENGTH = 100e-12


class TransmissionLine(CircuitElement):
    """A matched differential trace with controlled electrical length.

    Parameters
    ----------
    delay:
        Nominal electrical length, seconds.
    length_error:
        Additive deviation from nominal, seconds (manufacturing error).
    loss_db:
        Flat insertion loss, dB (positive number = attenuation).
    dispersive:
        If true (default), apply the length-scaled single-pole roll-off.
    """

    def __init__(
        self,
        delay: float,
        length_error: float = 0.0,
        loss_db: float = 0.3,
        dispersive: bool = True,
        seed: Optional[int] = None,
    ):
        super().__init__(seed)
        if delay < 0:
            raise CircuitError(f"line delay must be >= 0, got {delay}")
        if delay + length_error < 0:
            raise CircuitError(
                f"length error {length_error} makes total delay negative"
            )
        if loss_db < 0:
            raise CircuitError(f"loss must be >= 0 dB, got {loss_db}")
        self.delay = float(delay)
        self.length_error = float(length_error)
        self.loss_db = float(loss_db)
        self.dispersive = bool(dispersive)

    @property
    def total_delay(self) -> float:
        """Actual electrical length including the manufacturing error."""
        return self.delay + self.length_error

    @property
    def gain(self) -> float:
        """Linear voltage gain implied by the insertion loss."""
        return 10.0 ** (-self.loss_db / 20.0)

    def bandwidth(self) -> float:
        """Dispersion bandwidth scaled inversely with electrical length."""
        if self.total_delay <= 0:
            return np.inf
        return _REFERENCE_BANDWIDTH_100PS * (
            _REFERENCE_LENGTH / self.total_delay
        )

    def process(
        self, waveform: Waveform, rng: Optional[np.random.Generator] = None
    ) -> Waveform:
        return self._one_lane(waveform, rng)

    def process_batch(
        self,
        batch: WaveformBatch,
        rngs: Optional[Sequence[np.random.Generator]] = None,
    ) -> WaveformBatch:
        """Batched trace model: one dispersion filter pass for all lanes.

        All lanes traverse the *same* trace build, so the single-pole
        roll-off applies with one filter call along the sample axis;
        gain and electrical length are lane-independent scalars.
        """
        values = batch.values
        if self.dispersive and self.total_delay > 0:
            bandwidth = self.bandwidth()
            if np.isfinite(bandwidth) and bandwidth < 0.5 / batch.dt:
                b, a, zi_unit = cascade_filter_plan(
                    batch.dt, bandwidth_to_time_constant(bandwidth)
                )
                values, _ = lfilter(
                    b, a, values, axis=1, zi=zi_unit[None, :] * values[:, :1]
                )
        if self.gain != 1.0:
            values = values * self.gain
        t0 = batch.t0
        if self.total_delay != 0.0:
            t0 = t0 + self.total_delay
        return WaveformBatch(values, batch.dt, t0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TransmissionLine(delay={self.delay:.3e}, "
            f"error={self.length_error:.3e}, loss={self.loss_db} dB)"
        )


class ReflectiveStub(CircuitElement):
    """An impedance discontinuity producing a round-trip echo.

    The paper's 2-channel prototype (Fig. 11) carries SMA connectors
    and buffered test points "included for the experimental
    evaluations" — classic sources of reflections.  Each discontinuity
    adds a delayed, attenuated copy of the signal::

        y(t) = x(t) + gamma * x(t - 2 * stub_delay)

    (optionally with further geometrically-decaying round trips).  The
    echo lands on later bits and moves their 50 % crossings by a
    data-dependent amount — deterministic (pattern-correlated) jitter,
    the dominant contributor to the extra jitter the paper sees at
    6.4 Gbps (Fig. 13) beyond the buffers' random noise.

    Parameters
    ----------
    reflection:
        Reflection coefficient magnitude at the discontinuity (0..1).
    stub_delay:
        One-way electrical length to the discontinuity, seconds.
    n_echoes:
        Number of round trips modelled; echo ``k`` arrives at
        ``2 k * stub_delay`` scaled by ``(-reflection) ** k``.
    """

    def __init__(
        self,
        reflection: float = 0.15,
        stub_delay: float = 50e-12,
        n_echoes: int = 1,
        seed: Optional[int] = None,
    ):
        super().__init__(seed)
        if not 0.0 <= reflection < 1.0:
            raise CircuitError(
                f"reflection must be in [0, 1), got {reflection}"
            )
        if stub_delay <= 0:
            raise CircuitError(f"stub_delay must be positive: {stub_delay}")
        if n_echoes < 1:
            raise CircuitError(f"need at least one echo, got {n_echoes}")
        self.reflection = float(reflection)
        self.stub_delay = float(stub_delay)
        self.n_echoes = int(n_echoes)

    def process(
        self, waveform: Waveform, rng: Optional[np.random.Generator] = None
    ) -> Waveform:
        if self.reflection == 0.0:
            return waveform.copy()
        result = waveform
        for k in range(1, self.n_echoes + 1):
            gamma = (-self.reflection) ** k
            echo = waveform.delayed(2.0 * k * self.stub_delay) * gamma
            result = result + echo
        return result
