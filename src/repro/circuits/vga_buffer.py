"""The variable-gain (variable-amplitude) differential buffer.

This is the paper's key component: a commercial buffer whose output
*amplitude* is programmed by a control voltage ``Vctrl`` (100-750 mV
over a 1.5 V control range), and whose propagation delay turns out to
depend on that amplitude — roughly linearly, ~10 ps across the range —
because the output slew rate is finite: a larger programmed swing takes
longer to slew from the previous rail to the 50 % threshold (paper
Figs. 4-5).

The model makes that coupling *emerge* rather than scripting it.  The
signal path is::

    input (+ band-limited input noise)
      -> limiting transconductor   target = A(Vctrl) * tanh(v / v_linear)
      -> slew-rate limiter         |dy/dt| <= slew_rate
      -> single-pole bandwidth     -3 dB at `bandwidth`
      -> fixed propagation delay

Consequences reproduced by this physics, none of them hard-coded:

* delay to the 50 % point grows ~linearly with amplitude (Fig. 4/5);
* the delay-vs-Vctrl curve inherits the S-shape of the amplitude
  control law, linear mid-range with flattening extremes (Fig. 7);
* at high toggle rates the output no longer settles to the programmed
  amplitude, compressing the usable delay range (Fig. 15 roll-off);
* input noise converts to timing jitter at the crossings, so every
  cascaded stage adds a little jitter (the ~7 ps budget of Sec. 4);
* a time-varying Vctrl modulates delay, i.e. injects jitter (Sec. 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np
from scipy import signal as _scipy_signal

from .. import kernels
from ..errors import CircuitError, ControlRangeError
from ..kernels.cascade import CascadeStage
from ..signals.filters import (
    bandwidth_to_time_constant,
    bilinear_lowpass_coefficients,
    cascade_filter_plan,
)
from ..signals.waveform import Waveform, WaveformBatch
from .element import CircuitElement

__all__ = [
    "BufferParams",
    "VariableGainBuffer",
    "band_limited_noise",
    "band_limited_noise_batch",
    "limiting_stage_batch",
]

ControlInput = Union[float, Waveform]


@dataclass(frozen=True)
class BufferParams:
    """Physical parameters of one variable-gain buffer stage.

    The defaults are the library's calibration of the paper's (unnamed)
    commercial part; see :mod:`repro.core.params` for the named sets
    used by the 4-stage prototype and the early 2-stage circuit.

    Attributes
    ----------
    amplitude_min, amplitude_max:
        Programmable differential half-swing range, volts.  The paper's
        part spans 100-750 mV.
    vctrl_min, vctrl_max:
        Legal control-voltage range, volts (paper: 0-1.5 V).
    control_shape:
        Steepness of the tanh-shaped control law mapping Vctrl to
        amplitude.  Larger values flatten the extremes more (Fig. 7
        shows exactly this: linear mid-range, reduced slope at the
        ends).
    v_linear:
        Input linear range of the limiting transconductor, volts; the
        output target is ``A * tanh(v_in / v_linear)``.
    slew_rate:
        Maximum output slew rate, V/s.  This is the parameter that
        creates the amplitude-delay coupling: delay to the 50 % point
        is approximately ``amplitude / slew_rate``.
    bandwidth:
        Output -3 dB bandwidth, Hz (single pole).
    propagation_delay:
        Fixed (amplitude-independent) propagation delay, seconds.
    noise_sigma:
        Input-referred noise, volts RMS; converts to jitter at edges.
    noise_bandwidth:
        Noise bandwidth, Hz (noise is low-pass filtered to this).
    compression_corner:
        Large-signal gain-compression corner, Hz.  Real variable-gain
        buffers lose their programmable amplitude range as the toggle
        rate rises (the gain core cannot recharge its internal nodes
        within a half period), which is what makes the paper's usable
        delay range roll off at high frequency (Fig. 15).  The model
        applies a per-half-cycle compression: an excursion preceded by
        a half period ``T`` only reaches ``A * g(T)`` with
        ``g = 1 / (1 + (1 / (2 T f_c)) ** order)``.  Set to ``inf`` to
        disable (ideal wideband part).
    compression_order:
        Steepness of the compression law (the paper's measured roll-off
        is flat until a few GHz and then falls quickly; order 3 fits
        both the Fig. 15 roll-off and the pattern-dependent jitter
        growth at 6.4 Gbps).
    """

    amplitude_min: float = 0.10
    amplitude_max: float = 0.75
    vctrl_min: float = 0.0
    vctrl_max: float = 1.5
    control_shape: float = 2.5
    v_linear: float = 0.03
    slew_rate: float = 52e9
    bandwidth: float = 12.0e9
    propagation_delay: float = 80e-12
    noise_sigma: float = 19e-3
    noise_bandwidth: float = 20e9
    compression_corner: float = 6.2e9
    compression_order: int = 3

    def __post_init__(self) -> None:
        if not 0 < self.amplitude_min < self.amplitude_max:
            raise CircuitError(
                f"need 0 < amplitude_min < amplitude_max, got "
                f"{self.amplitude_min}, {self.amplitude_max}"
            )
        if self.vctrl_min >= self.vctrl_max:
            raise CircuitError("vctrl_min must be below vctrl_max")
        if self.v_linear <= 0:
            raise CircuitError(f"v_linear must be positive: {self.v_linear}")
        if self.slew_rate <= 0:
            raise CircuitError(f"slew_rate must be positive: {self.slew_rate}")
        if self.bandwidth <= 0:
            raise CircuitError(f"bandwidth must be positive: {self.bandwidth}")
        if self.noise_sigma < 0:
            raise CircuitError(f"noise_sigma must be >= 0: {self.noise_sigma}")
        if self.compression_corner <= 0:
            raise CircuitError(
                f"compression_corner must be positive: "
                f"{self.compression_corner}"
            )
        if self.compression_order < 1:
            raise CircuitError(
                f"compression_order must be >= 1: {self.compression_order}"
            )

    def with_updates(self, **changes) -> "BufferParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def amplitude_from_vctrl(
        self, vctrl: Union[float, np.ndarray]
    ) -> Union[float, np.ndarray]:
        """Programmed amplitude (V) for a control voltage.

        The control law is a normalised tanh S-curve: linear around the
        middle of the Vctrl range, saturating toward ``amplitude_min`` /
        ``amplitude_max`` at the extremes.  Control voltages outside the
        legal range are clamped (the real part's control pin clips).
        """
        v = np.clip(vctrl, self.vctrl_min, self.vctrl_max)
        mid = (self.vctrl_min + self.vctrl_max) / 2.0
        half = (self.vctrl_max - self.vctrl_min) / 2.0
        x = (v - mid) / half
        s = np.tanh(self.control_shape * x) / math.tanh(self.control_shape)
        a_mid = (self.amplitude_min + self.amplitude_max) / 2.0
        a_half = (self.amplitude_max - self.amplitude_min) / 2.0
        result = a_mid + a_half * s
        if np.isscalar(vctrl):
            return float(result)
        return result

    def compression_factor(
        self, half_period: Union[float, np.ndarray]
    ) -> Union[float, np.ndarray]:
        """Fraction of the programmed amplitude reachable in *half_period*.

        ``g(T) = 1 / (1 + (1 / (2 T f_c)) ** order)`` — approximately 1
        for slow signals, rolling toward 0 once the toggle frequency
        ``1 / (2 T)`` passes the compression corner.
        """
        if not np.isfinite(self.compression_corner):
            return np.ones_like(np.asarray(half_period, dtype=np.float64)) if (
                not np.isscalar(half_period)
            ) else 1.0
        half_period = np.maximum(half_period, 1e-18)
        toggle = 1.0 / (2.0 * np.asarray(half_period, dtype=np.float64))
        g = 1.0 / (1.0 + (toggle / self.compression_corner) ** self.compression_order)
        if np.isscalar(half_period):
            return float(g)
        return g

    def nominal_delay(
        self, amplitude: float, half_period: float = math.inf
    ) -> float:
        """First-order analytic delay estimate.

        Delay from input 50 % crossing to output 50 % crossing is the
        time to slew from the previous (compressed) rail to zero, plus
        the fixed propagation delay.  The waveform simulation is the
        reference; this estimate anchors the fast event model.

        Parameters
        ----------
        amplitude:
            Programmed amplitude, volts.
        half_period:
            Time since the previous transition; determines the
            large-signal compression at high toggle rates.
        """
        if math.isfinite(half_period):
            g = float(self.compression_factor(half_period))
            floor = min(amplitude, self.amplitude_min)
            amplitude = floor + (amplitude - floor) * g
        return self.propagation_delay + amplitude / self.slew_rate


def band_limited_noise(
    n_samples: int,
    sigma: float,
    bandwidth: float,
    dt: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Gaussian noise low-passed to *bandwidth* with exact RMS *sigma*.

    The filtered sequence is rescaled to the requested sigma so the
    effective noise power does not depend on the simulation sample
    interval.  The low-pass filter is warmed up on a discarded noise
    prefix so the record is a stationary snapshot: without the warmup,
    the filter's zero-state startup transient depresses the RMS
    estimate and the rescaling systematically *inflates* the noise
    power of short records (and with it every per-stage jitter figure).
    """
    if sigma == 0.0 or n_samples == 0:
        return np.zeros(n_samples)
    nyquist = 0.5 / dt
    if bandwidth < nyquist:
        tau = bandwidth_to_time_constant(bandwidth)
        n_warmup = int(min(8192, math.ceil(10.0 * tau / dt)))
        white = rng.normal(0.0, 1.0, size=n_samples + n_warmup)
        b, a = bilinear_lowpass_coefficients(dt, tau)
        white = _scipy_signal.lfilter(b, a, white)[n_warmup:]
    else:
        white = rng.normal(0.0, 1.0, size=n_samples)
    rms = float(np.sqrt(np.mean(white**2)))
    if rms == 0.0:
        return np.zeros(n_samples)
    return white * (sigma / rms)


def band_limited_noise_batch(
    n_lanes: int,
    n_samples: int,
    sigma: Union[float, np.ndarray],
    bandwidth: float,
    dt: float,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Per-lane band-limited noise, one generator per lane.

    Lane ``i`` is :func:`band_limited_noise` fed ``rngs[i]``: each lane
    draws only from its own stream and is its own stationary snapshot,
    so a batched render and a lane-by-lane render produce identical
    noise.

    *sigma* may be a shared float or one RMS per lane (campaign packs
    stack device instances with different noise draws).  A lane whose
    sigma is zero consumes nothing from its generator.
    """
    sigmas = np.asarray(sigma, dtype=np.float64)
    if sigmas.ndim > 0:
        lane_sigmas = sigmas.reshape(-1)
        if lane_sigmas.shape != (n_lanes,):
            raise CircuitError(
                f"sigma must be a scalar or have one entry per lane "
                f"({n_lanes}), got shape {sigmas.shape}"
            )
    else:
        lane_sigmas = np.full(n_lanes, float(sigmas))
    out = np.empty((n_lanes, n_samples))
    for lane in range(n_lanes):
        out[lane] = band_limited_noise(
            n_samples, float(lane_sigmas[lane]), bandwidth, dt, rngs[lane]
        )
    return out


def limiting_stage_batch(
    batch: WaveformBatch,
    amplitude: Union[float, np.ndarray],
    params: BufferParams,
    rngs: Sequence[np.random.Generator],
) -> WaveformBatch:
    """The limiting-buffer signal path, every lane in one kernel call.

    A standalone stage is a one-stage cascade: the stage is planned as
    one :class:`~repro.kernels.cascade.CascadeStage` and run through
    :func:`repro.kernels.fine_delay_cascade_batch`, the kernel the
    fine delay line's N-stage cascade runs on.

    *amplitude* may be a scalar (all lanes programmed alike), a
    ``(n_lanes,)`` array (per-lane programming — a control-voltage
    sweep as one batch), or a ``(n_lanes, n_samples)`` array
    (per-lane time-varying control).  Lane ``i`` draws its noise from
    ``rngs[i]`` only, so on either kernel backend each lane is
    bit-exact against its own one-lane call with the same generator.
    """
    dt = batch.dt
    amplitude = np.asarray(amplitude, dtype=np.float64)
    if amplitude.ndim == 1:
        amplitude = amplitude[:, None]
    noise = None
    if params.noise_sigma > 0:
        noise = band_limited_noise_batch(
            batch.n_lanes,
            batch.n_samples,
            params.noise_sigma,
            params.noise_bandwidth,
            dt,
            rngs,
        )
    b, a, zi_unit = cascade_filter_plan(
        dt, bandwidth_to_time_constant(params.bandwidth)
    )
    stage = CascadeStage(
        amplitude=amplitude,
        amplitude_min=params.amplitude_min,
        v_linear=params.v_linear,
        max_step=params.slew_rate * dt,
        corner=params.compression_corner,
        order=params.compression_order,
        b=b,
        a=a,
        zi_unit=zi_unit,
        noise=noise,
    )
    samples = kernels.fine_delay_cascade_batch(batch.values, [stage], dt)
    out = WaveformBatch(samples, dt, batch.t0)
    return out.shifted(params.propagation_delay)


class VariableGainBuffer(CircuitElement):
    """One variable-amplitude buffer stage (the paper's Fig. 3 block).

    Parameters
    ----------
    params:
        Physical parameters; defaults to :class:`BufferParams` defaults.
    vctrl:
        Control voltage.  Either a scalar (static delay programming) or
        a :class:`~repro.signals.waveform.Waveform` (time-varying, for
        jitter injection); voltage values outside the legal range are
        clamped.
    seed:
        Seed for the stage's private noise generator.
    """

    def __init__(
        self,
        params: Optional[BufferParams] = None,
        vctrl: ControlInput = 0.75,
        seed: Optional[int] = None,
    ):
        super().__init__(seed)
        self.params = params if params is not None else BufferParams()
        self.vctrl = vctrl

    @property
    def vctrl(self) -> ControlInput:
        """The programmed control voltage (scalar or waveform)."""
        return self._vctrl

    @vctrl.setter
    def vctrl(self, value: ControlInput) -> None:
        if isinstance(value, Waveform):
            self._vctrl = value
            return
        value = float(value)
        if not math.isfinite(value):
            raise ControlRangeError(f"Vctrl must be finite, got {value}")
        self._vctrl = value

    def amplitude_at(self, waveform: Waveform) -> Union[float, np.ndarray]:
        """Programmed amplitude, evaluated on *waveform*'s time grid."""
        if isinstance(self._vctrl, Waveform):
            vctrl_samples = self._vctrl.value_at(waveform.times())
            return self.params.amplitude_from_vctrl(vctrl_samples)
        return self.params.amplitude_from_vctrl(self._vctrl)

    def process(
        self, waveform: Waveform, rng: Optional[np.random.Generator] = None
    ) -> Waveform:
        return self._one_lane(waveform, rng)

    def process_batch(
        self,
        batch: WaveformBatch,
        rngs: Optional[Sequence[np.random.Generator]] = None,
        vctrl: Optional[Union[float, np.ndarray]] = None,
    ) -> WaveformBatch:
        """Process all lanes at once, optionally with per-lane control.

        *vctrl* overrides the stage's programmed control: a scalar
        programs every lane alike, a ``(n_lanes,)`` array programs each
        lane its own voltage — which is how a whole Vctrl calibration
        sweep becomes one batch.  ``None`` uses :attr:`vctrl`.
        """
        rngs = self._resolve_lane_rngs(rngs, batch.n_lanes)
        if vctrl is None:
            vctrl = self._vctrl
        if isinstance(vctrl, Waveform):
            # Time-varying control: evaluate on each lane's own grid
            # (lanes share dt but not necessarily the origin).
            amplitude = np.stack(
                [
                    self.params.amplitude_from_vctrl(
                        vctrl.value_at(batch.lane_times(lane))
                    )
                    for lane in range(batch.n_lanes)
                ]
            )
        else:
            amplitude = self.params.amplitude_from_vctrl(
                np.asarray(vctrl, dtype=np.float64)
            )
        return limiting_stage_batch(batch, amplitude, self.params, rngs)
