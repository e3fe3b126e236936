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
from typing import List, Optional, Sequence, Union

import numpy as np

from .. import kernels
from ..errors import CircuitError, ControlRangeError
from ..kernels.cascade import CascadeStage
from ..kernels.iir import lfilter
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
    "BandLimitedNoise",
    "StagePlanner",
    "band_limited_noise",
    "stage_control",
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


class BandLimitedNoise:
    """Gaussian noise low-passed to *bandwidth* with RMS *sigma*, drawn
    call after call from *rng*.

    The first draw warms the low-pass filter up on a discarded noise
    prefix, so the record is a stationary snapshot: without the warmup,
    the filter's zero-state startup transient depresses the RMS
    estimate and the rescaling systematically *inflates* the noise
    power of short records (and with it every per-stage jitter
    figure).  It then freezes :attr:`gain`, which rescales the filtered
    sequence to RMS *sigma* so the effective noise power does not
    depend on the simulation sample interval.  Later draws continue the
    same white sequence through the carried filter state at that gain;
    the generator consumes its bit stream sequentially, so the
    concatenated draws are sample for sample one draw of the whole
    record.  A gain set before the first draw (a stream's priming pass)
    is used as is.  A zero *sigma* draws zeros and consumes nothing.
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
        self.gain: Optional[float] = None
        # At or above Nyquist the noise stays white.
        self._b = None
        self._warmup = 0
        if bandwidth < 0.5 / dt:
            tau = bandwidth_to_time_constant(bandwidth)
            self._warmup = int(min(8192, math.ceil(10.0 * tau / dt)))
            self._b, self._a = bilinear_lowpass_coefficients(dt, tau)
            self._zi = np.zeros(len(self._a) - 1)

    def draw(
        self, n_samples: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The next *n_samples* of the noise record.

        *out*, when given, is a float64 row of *n_samples* the record
        is written into and returned as: the white draw lands in it
        (unless a warm-up prefix makes the draw longer) and the scaled
        filter output replaces it, so a reused row costs one filter
        output per draw.  The bytes and the generator's consumption are
        those of a fresh ``draw(n_samples)``.
        """
        if out is None:
            out = np.empty(n_samples)
        if self.sigma == 0.0 or n_samples == 0:
            out.fill(0.0)
            return out
        if self._warmup:
            filtered = self.rng.standard_normal(n_samples + self._warmup)
        else:
            filtered = self.rng.standard_normal(out=out)
        if self._b is not None:
            filtered, self._zi = lfilter(self._b, self._a, filtered, zi=self._zi)
            filtered = filtered[self._warmup:]
            self._warmup = 0
        if self.gain is None:
            rms = float(np.sqrt(np.mean(filtered**2)))
            self.gain = 0.0 if rms == 0.0 else self.sigma / rms
        return np.multiply(filtered, self.gain, out=out)


def band_limited_noise(
    n_samples: int,
    sigma: float,
    bandwidth: float,
    dt: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """A *n_samples* noise record: the first draw of a
    :class:`BandLimitedNoise` source, RMS exactly *sigma*."""
    return BandLimitedNoise(sigma, bandwidth, dt, rng).draw(n_samples)


# Stage physics the lanes of one plan may NOT vary: these feed kernel
# state common to all lanes (the filter discretisation, the compression
# law, the linear-range scaling), so differing values would need
# per-lane kernels.  The instance-variation model only perturbs the
# complement (slew rate, amplitude floor/ceiling, propagation delay,
# noise sigma).
_SHARED_STAGE_FIELDS = (
    "v_linear",
    "bandwidth",
    "noise_bandwidth",
    "compression_corner",
    "compression_order",
)


def _lane_column(values) -> Union[float, np.ndarray]:
    """A plain float when every lane agrees, else an ``(n_lanes, 1)`` column.

    Uniform lanes stay on the kernel's scalar-parameter path this way.
    """
    values = np.asarray(values, dtype=np.float64)
    first = float(values.flat[0])
    if np.all(values == first):
        return first
    return values.reshape(-1, 1)


def stage_control(
    element: CircuitElement, vctrl: Optional[ControlInput] = None
) -> Union[float, Waveform]:
    """The control a :class:`StagePlanner` lane takes for *element*.

    A fixed-amplitude buffer gives its amplitude; a
    :class:`VariableGainBuffer` gives the amplitude its scalar control
    programs, or its control waveform.  *vctrl* overrides the
    variable-gain stage's own control.
    """
    if not isinstance(element, VariableGainBuffer):
        return element.amplitude
    if vctrl is None:
        vctrl = element.vctrl
    if isinstance(vctrl, Waveform):
        return vctrl
    return element.params.amplitude_from_vctrl(float(vctrl))


class StagePlanner:
    """One limiting-buffer stage of a cascade plan, planned call after call.

    Lane ``i`` runs a stage with physics ``params[i]`` programmed by
    ``controls[i]``: an amplitude in volts, or a control-voltage
    :class:`~repro.signals.waveform.Waveform` (jitter injection, paper
    Sec. 5) mapped through that lane's control law.  Each :meth:`plan`
    returns the :class:`~repro.kernels.cascade.CascadeStage` for the
    next *n* samples of every lane's record: waveform controls are
    evaluated at the record's global sample instants
    ``t0[i] + dt * (offset + k)``, each lane's :class:`BandLimitedNoise`
    (drawing from ``rngs[i]``) continues where the previous call left
    it, and the offset advances.  A whole record or a pack is one call
    on a fresh planner; a stream plans every chunk on the planner it
    built for its first, so the chunk plans tile the whole-record plan.

    The planner draws every lane's noise into one ``(lanes, n)`` block
    that it reuses from call to call while *n* holds, so a plan's
    ``noise`` is valid until the planner's next :meth:`plan` call
    (every caller runs a plan through the kernel at once).
    """

    def __init__(
        self,
        params: Sequence[BufferParams],
        controls: Sequence[Union[float, Waveform]],
        rngs: Sequence[np.random.Generator],
        dt: float,
        t0: Union[float, np.ndarray],
    ):
        self.params = list(params)
        shared = self.params[0]
        for lane_params in self.params[1:]:
            for field in _SHARED_STAGE_FIELDS:
                if getattr(lane_params, field) != getattr(shared, field):
                    raise CircuitError(
                        f"lanes disagree on shared stage field {field!r}"
                    )
        self.controls = list(controls)
        self.dt = dt
        self.t0 = np.broadcast_to(
            np.asarray(t0, dtype=np.float64), (len(self.params),)
        )
        self.offset = 0
        self._b, self._a, self._zi_unit = cascade_filter_plan(
            dt, bandwidth_to_time_constant(shared.bandwidth)
        )
        self._amplitude_min = _lane_column(
            [p.amplitude_min for p in self.params]
        )
        self._max_step = _lane_column(
            [p.slew_rate * dt for p in self.params]
        )
        self.noise: Optional[List[BandLimitedNoise]] = None
        self._noise_block: Optional[np.ndarray] = None
        if any(p.noise_sigma > 0 for p in self.params):
            self.noise = [
                BandLimitedNoise(
                    p.noise_sigma, shared.noise_bandwidth, dt, rng
                )
                for p, rng in zip(self.params, rngs)
            ]
        self._static_amplitude = None
        if not any(isinstance(c, Waveform) for c in self.controls):
            self._static_amplitude = np.asarray(
                _lane_column(self.controls), dtype=np.float64
            )

    def plan(self, n_samples: int) -> CascadeStage:
        """The stage for the next *n_samples* of every lane.

        Its ``noise`` block is overwritten by the next call on this
        planner: run the plan before planning again.
        """
        amplitude = self._static_amplitude
        if amplitude is None:
            rows = []
            for lane, control in enumerate(self.controls):
                if isinstance(control, Waveform):
                    times = self.t0[lane] + self.dt * np.arange(
                        self.offset, self.offset + n_samples
                    )
                    control = self.params[lane].amplitude_from_vctrl(
                        control.value_at(times)
                    )
                rows.append(np.broadcast_to(control, (n_samples,)))
            amplitude = np.stack(rows).astype(np.float64)
        noise = None
        if self.noise is not None:
            shape = (len(self.noise), n_samples)
            if self._noise_block is None or self._noise_block.shape != shape:
                self._noise_block = np.empty(shape)
            noise = self._noise_block
            for source, row in zip(self.noise, noise):
                source.draw(n_samples, out=row)
        self.offset += n_samples
        shared = self.params[0]
        return CascadeStage(
            amplitude=amplitude,
            amplitude_min=self._amplitude_min,
            v_linear=shared.v_linear,
            max_step=self._max_step,
            corner=shared.compression_corner,
            order=shared.compression_order,
            b=self._b,
            a=self._a,
            zi_unit=self._zi_unit,
            noise=noise,
        )


def limiting_stage_batch(
    batch: WaveformBatch,
    control: Union[float, np.ndarray, Waveform],
    params: BufferParams,
    rngs: Sequence[np.random.Generator],
) -> WaveformBatch:
    """The limiting-buffer signal path, every lane in one kernel call.

    A standalone stage is a one-stage cascade: one :class:`StagePlanner`
    plan on fresh noise, run through
    :func:`repro.kernels.fine_delay_cascade_batch`, the kernel the fine
    delay line's N-stage cascade runs on.

    *control* is the programmed amplitude — a scalar (all lanes alike)
    or a ``(n_lanes,)`` array (per-lane programming: a control-voltage
    sweep as one batch) — or a control-voltage
    :class:`~repro.signals.waveform.Waveform`, mapped through
    ``params.amplitude_from_vctrl`` on each lane's own time grid.  Lane
    ``i`` draws its noise from ``rngs[i]`` only, so on either kernel
    backend each lane is bit-exact against its own one-lane call with
    the same generator.
    """
    if isinstance(control, Waveform):
        controls = [control] * batch.n_lanes
    else:
        controls = np.broadcast_to(
            np.asarray(control, dtype=np.float64), (batch.n_lanes,)
        )
    planner = StagePlanner(
        [params] * batch.n_lanes, controls, rngs, batch.dt, batch.t0
    )
    samples = kernels.fine_delay_cascade_batch(
        batch.values, [planner.plan(batch.n_samples)], batch.dt
    )
    out = WaveformBatch(samples, batch.dt, batch.t0)
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
        control = self._vctrl if vctrl is None else vctrl
        if not isinstance(control, Waveform):
            control = self.params.amplitude_from_vctrl(
                np.asarray(control, dtype=np.float64)
            )
        return limiting_stage_batch(batch, control, self.params, rngs)
