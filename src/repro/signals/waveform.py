"""Uniformly-sampled analog waveforms.

:class:`Waveform` is the fundamental data type of the library: a real
voltage trace sampled on a uniform time grid.  Circuit elements consume
and produce waveforms; the analysis layer measures them.

Differential signalling is represented the way a sampling scope with a
differential probe sees it: a single trace holding ``V(p) - V(n)``.  The
:class:`DifferentialPair` helper splits such a trace into explicit
positive/negative legs around a common-mode voltage when a model needs
the physical legs (for example, the resistive attenuator).

:class:`WaveformBatch` is the stacked form: many lanes sampled on one
shared ``(dt, n)`` grid, with a per-lane time origin.  It is what the
batched simulation paths (multi-channel bus acquisition, calibration
sweeps) pass through the kernel layer so N lanes cost one vectorised
pass instead of N sequential ones.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Sequence, Union

import numpy as np

from .. import instrument
from ..errors import SampleRateMismatchError, WaveformError

__all__ = ["Waveform", "WaveformBatch", "DifferentialPair"]

_Number = Union[int, float]


def _audit_sample_dtype(values, where: str) -> None:
    """Reject narrow-float sample arrays before they are silently up-cast.

    Every waveform stores float64, so a float32/float16 input array is
    converted losslessly — but the *producer* of that array already
    threw away mantissa bits, and with picosecond-scale delays riding on
    ~1e-9 s time records, float32's ~7 significant digits are not
    enough.  A silent up-cast would bless the precision loss; failing
    loudly at the boundary points at the producer instead.  Integer and
    float64 inputs (and plain Python lists) are fine.
    """
    dtype = getattr(values, "dtype", None)
    if (
        dtype is not None
        and np.issubdtype(dtype, np.floating)
        and dtype.itemsize < np.dtype(np.float64).itemsize
    ):
        raise WaveformError(
            f"{where} samples arrived as {dtype}; the producer already "
            f"lost precision below float64 and picosecond timing cannot "
            f"survive that — convert the source data, not the waveform"
        )


class Waveform:
    """A real-valued signal sampled on a uniform time grid.

    Parameters
    ----------
    values:
        Sample values in volts.  Converted to a float64 NumPy array.
    dt:
        Sample interval in seconds (must be positive).
    t0:
        Time of the first sample in seconds (defaults to 0).

    Notes
    -----
    Instances are *semantically immutable*: methods return new waveforms
    and never modify ``self``.  The underlying array is not defensively
    copied on construction for performance; callers who mutate the array
    they passed in get what they deserve.
    """

    __slots__ = ("_values", "_dt", "_t0")

    def __init__(self, values: Iterable[float], dt: float, t0: float = 0.0):
        _audit_sample_dtype(values, "Waveform")
        array = np.asarray(values, dtype=np.float64)
        if array.ndim != 1:
            raise WaveformError(
                f"waveform values must be 1-D, got shape {array.shape}"
            )
        if array.size == 0:
            raise WaveformError("waveform must contain at least one sample")
        if not np.isfinite(array).all():
            raise WaveformError("waveform contains non-finite samples")
        if not (dt > 0.0 and math.isfinite(dt)):
            raise WaveformError(f"sample interval must be positive, got {dt}")
        self._values = array
        self._dt = float(dt)
        self._t0 = float(t0)

    # -- basic accessors ----------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """Sample values in volts (do not mutate)."""
        return self._values

    @property
    def dt(self) -> float:
        """Sample interval in seconds."""
        return self._dt

    @property
    def t0(self) -> float:
        """Time of the first sample in seconds."""
        return self._t0

    @property
    def t_end(self) -> float:
        """Time of the last sample in seconds."""
        return self._t0 + (len(self._values) - 1) * self._dt

    @property
    def duration(self) -> float:
        """Time spanned from first to last sample, in seconds."""
        return (len(self._values) - 1) * self._dt

    @property
    def sample_rate(self) -> float:
        """Samples per second."""
        return 1.0 / self._dt

    def times(self) -> np.ndarray:
        """Return the time axis as an array the same length as `values`."""
        return self._t0 + self._dt * np.arange(len(self._values))

    def __len__(self) -> int:
        return len(self._values)

    def __reduce__(self):
        # Pickling a waveform serialises the whole sample record — the
        # very thing the shared-memory IPC path (repro.parallel) exists
        # to avoid.  Counting every pickle lets tests assert that the
        # worker-pool paths move zero waveforms through pickle.
        instrument.count("waveform.pickled")
        return (Waveform, (self._values, self._dt, self._t0))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Waveform(n={len(self._values)}, dt={self._dt:.3e} s, "
            f"t0={self._t0:.3e} s, span=[{self._values.min():.3f}, "
            f"{self._values.max():.3f}] V)"
        )

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_function(
        cls,
        func: Callable[[np.ndarray], np.ndarray],
        duration: float,
        dt: float,
        t0: float = 0.0,
    ) -> "Waveform":
        """Sample ``func(t)`` on a uniform grid covering *duration* seconds."""
        n_samples = int(round(duration / dt)) + 1
        if n_samples < 1:
            raise WaveformError("duration must cover at least one sample")
        t = t0 + dt * np.arange(n_samples)
        return cls(np.asarray(func(t), dtype=np.float64), dt, t0)

    @classmethod
    def constant(
        cls, level: float, duration: float, dt: float, t0: float = 0.0
    ) -> "Waveform":
        """A flat waveform at *level* volts."""
        n_samples = int(round(duration / dt)) + 1
        return cls(np.full(n_samples, float(level)), dt, t0)

    def copy(self) -> "Waveform":
        """Return an independent copy of this waveform."""
        return Waveform(self._values.copy(), self._dt, self._t0)

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        """Write the waveform to a ``.npz`` file.

        The format is a plain NumPy archive with ``values``, ``dt`` and
        ``t0`` arrays, so saved traces are readable without this
        library.
        """
        np.savez(path, values=self._values, dt=self._dt, t0=self._t0)

    @classmethod
    def load(cls, path) -> "Waveform":
        """Read a waveform previously written by :meth:`save`."""
        with np.load(path) as archive:
            try:
                values = archive["values"]
                dt = float(archive["dt"])
                t0 = float(archive["t0"])
            except KeyError as missing:
                raise WaveformError(
                    f"not a waveform archive: missing {missing}"
                ) from missing
        return cls(values, dt, t0)

    # -- arithmetic -----------------------------------------------------------

    def _check_compatible(self, other: "Waveform") -> None:
        if not np.isclose(self._dt, other._dt, rtol=1e-12, atol=0.0):
            raise SampleRateMismatchError(
                f"sample intervals differ: {self._dt} vs {other._dt}"
            )
        if len(self) != len(other):
            raise WaveformError(
                f"waveform lengths differ: {len(self)} vs {len(other)}"
            )

    def __add__(self, other: Union["Waveform", _Number]) -> "Waveform":
        if isinstance(other, Waveform):
            self._check_compatible(other)
            return Waveform(self._values + other._values, self._dt, self._t0)
        return Waveform(self._values + float(other), self._dt, self._t0)

    __radd__ = __add__

    def __sub__(self, other: Union["Waveform", _Number]) -> "Waveform":
        if isinstance(other, Waveform):
            self._check_compatible(other)
            return Waveform(self._values - other._values, self._dt, self._t0)
        return Waveform(self._values - float(other), self._dt, self._t0)

    def __mul__(self, scale: _Number) -> "Waveform":
        return Waveform(self._values * float(scale), self._dt, self._t0)

    __rmul__ = __mul__

    def __neg__(self) -> "Waveform":
        return Waveform(-self._values, self._dt, self._t0)

    def clip(self, low: float, high: float) -> "Waveform":
        """Return a copy with samples clamped to ``[low, high]``."""
        if low > high:
            raise WaveformError(f"clip bounds inverted: {low} > {high}")
        return Waveform(np.clip(self._values, low, high), self._dt, self._t0)

    def map(self, func: Callable[[np.ndarray], np.ndarray]) -> "Waveform":
        """Apply an elementwise function to the samples."""
        return Waveform(
            np.asarray(func(self._values), dtype=np.float64),
            self._dt,
            self._t0,
        )

    # -- time-domain operations ------------------------------------------------

    def value_at(self, time: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Linearly interpolate the waveform at *time* (seconds).

        Times outside the record are clamped to the first/last sample,
        matching how a scope displays a trace.
        """
        index = (np.asarray(time, dtype=np.float64) - self._t0) / self._dt
        result = np.interp(
            index, np.arange(len(self._values)), self._values
        )
        if np.isscalar(time):
            return float(result)
        return result

    def shifted(self, delay: float) -> "Waveform":
        """Return the same samples with the time axis shifted by *delay*.

        This is an exact, lossless delay: only ``t0`` changes.  Use
        :meth:`delayed` when the output must stay on the original grid.
        """
        return Waveform(self._values, self._dt, self._t0 + float(delay))

    def delayed(self, delay: float) -> "Waveform":
        """Return the signal delayed by *delay* seconds on the same grid.

        The delayed trace is re-interpolated back onto the original time
        axis; samples that would come from before the record start hold
        the first value (the line was idle at its initial level).
        Sub-sample delays are honoured via linear interpolation.
        """
        if delay == 0.0:
            return self.copy()
        source_times = self.times() - float(delay)
        values = np.interp(
            source_times,
            self.times(),
            self._values,
            left=self._values[0],
            right=self._values[-1],
        )
        return Waveform(values, self._dt, self._t0)

    def slice_time(self, start: float, stop: float) -> "Waveform":
        """Return the sub-waveform covering ``[start, stop]`` seconds."""
        if stop <= start:
            raise WaveformError(f"empty time slice: [{start}, {stop}]")
        i0 = int(np.ceil((start - self._t0) / self._dt - 1e-9))
        i1 = int(np.floor((stop - self._t0) / self._dt + 1e-9)) + 1
        i0 = max(i0, 0)
        i1 = min(i1, len(self._values))
        if i1 - i0 < 1:
            raise WaveformError(
                f"time slice [{start}, {stop}] contains no samples"
            )
        return Waveform(
            self._values[i0:i1], self._dt, self._t0 + i0 * self._dt
        )

    def resampled(self, new_dt: float) -> "Waveform":
        """Linearly resample onto a grid with interval *new_dt* seconds."""
        if not new_dt > 0:
            raise WaveformError(f"new sample interval must be positive: {new_dt}")
        n_new = int(np.floor(self.duration / new_dt)) + 1
        new_times = self._t0 + new_dt * np.arange(n_new)
        values = np.interp(new_times, self.times(), self._values)
        return Waveform(values, new_dt, self._t0)

    def concatenate(self, other: "Waveform") -> "Waveform":
        """Append *other* in time (its ``t0`` is ignored)."""
        if not np.isclose(self._dt, other._dt, rtol=1e-12, atol=0.0):
            raise SampleRateMismatchError(
                f"sample intervals differ: {self._dt} vs {other._dt}"
            )
        return Waveform(
            np.concatenate([self._values, other._values]),
            self._dt,
            self._t0,
        )

    # -- simple statistics -------------------------------------------------------

    def peak_to_peak(self) -> float:
        """Max minus min sample value, in volts."""
        return float(self._values.max() - self._values.min())

    def mean(self) -> float:
        """Mean sample value, in volts."""
        return float(self._values.mean())

    def rms(self) -> float:
        """Root-mean-square of the samples, in volts."""
        return float(np.sqrt(np.mean(self._values**2)))

    def amplitude(self) -> float:
        """Half the steady-state swing, estimated robustly.

        Uses the 2nd and 98th percentiles so isolated overshoot or
        glitch samples do not inflate the estimate.
        """
        high = float(np.percentile(self._values, 98))
        low = float(np.percentile(self._values, 2))
        return (high - low) / 2.0


class WaveformBatch:
    """A stack of lanes sampled on one shared uniform grid.

    The batch axis is the library's unit of vectorisation: a parallel
    bus acquisition is one batch (one lane per channel), a calibration
    sweep is one batch (one lane per control-voltage point).  All lanes
    share the sample interval and record length; each lane keeps its
    own time origin, because delay elements move ``t0`` rather than
    resampling (see :meth:`Waveform.shifted`).

    Parameters
    ----------
    values:
        Sample values, shape ``(n_lanes, n_samples)``.  Converted to a
        float64 NumPy array.
    dt:
        Shared sample interval in seconds (must be positive).
    t0:
        Time of each lane's first sample: a scalar (shared origin) or
        an array of length ``n_lanes``.
    """

    __slots__ = ("_values", "_dt", "_t0")

    def __init__(
        self,
        values: Iterable[Iterable[float]],
        dt: float,
        t0: Union[float, Iterable[float]] = 0.0,
    ):
        _audit_sample_dtype(values, "WaveformBatch")
        array = np.asarray(values, dtype=np.float64)
        if array.ndim != 2:
            raise WaveformError(
                f"batch values must be 2-D (lanes, samples), got shape "
                f"{array.shape}"
            )
        if array.shape[0] < 1 or array.shape[1] < 1:
            raise WaveformError(
                f"batch needs at least one lane and one sample, got shape "
                f"{array.shape}"
            )
        if not np.isfinite(array).all():
            raise WaveformError("batch contains non-finite samples")
        if not (dt > 0.0 and math.isfinite(dt)):
            raise WaveformError(f"sample interval must be positive, got {dt}")
        origins = np.broadcast_to(
            np.asarray(t0, dtype=np.float64), (array.shape[0],)
        ).copy()
        if not np.isfinite(origins).all():
            raise WaveformError("batch time origins must be finite")
        self._values = array
        self._dt = float(dt)
        self._t0 = origins

    # -- basic accessors ----------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """Sample values, shape ``(n_lanes, n_samples)`` (do not mutate)."""
        return self._values

    @property
    def dt(self) -> float:
        """Shared sample interval in seconds."""
        return self._dt

    @property
    def t0(self) -> np.ndarray:
        """Per-lane time of the first sample, shape ``(n_lanes,)``."""
        return self._t0

    @property
    def n_lanes(self) -> int:
        """Number of lanes in the batch."""
        return self._values.shape[0]

    def __reduce__(self):
        # See Waveform.__reduce__: counted so the zero-pickle contract
        # of the shared-memory IPC path is testable.
        instrument.count("waveform.pickled")
        return (WaveformBatch, (self._values, self._dt, self._t0))

    @property
    def n_samples(self) -> int:
        """Number of samples per lane."""
        return self._values.shape[1]

    def __len__(self) -> int:
        return self.n_lanes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WaveformBatch(lanes={self.n_lanes}, n={self.n_samples}, "
            f"dt={self._dt:.3e} s)"
        )

    # -- construction / decomposition ---------------------------------------

    @classmethod
    def from_waveforms(cls, waveforms: Sequence[Waveform]) -> "WaveformBatch":
        """Stack single-lane waveforms sharing a ``(dt, n)`` grid."""
        if len(waveforms) < 1:
            raise WaveformError("batch needs at least one waveform")
        first = waveforms[0]
        for other in waveforms[1:]:
            if not np.isclose(first.dt, other.dt, rtol=1e-12, atol=0.0):
                raise SampleRateMismatchError(
                    f"sample intervals differ: {first.dt} vs {other.dt}"
                )
            if len(other) != len(first):
                raise WaveformError(
                    f"waveform lengths differ: {len(first)} vs {len(other)}"
                )
        return cls(
            np.stack([w.values for w in waveforms]),
            first.dt,
            np.array([w.t0 for w in waveforms]),
        )

    @classmethod
    def tiled(cls, waveform: Waveform, n_lanes: int) -> "WaveformBatch":
        """Repeat one waveform across *n_lanes* identical lanes.

        This is how a sweep enters the batch axis: the same stimulus on
        every lane, with per-lane controls and noise applied downstream.
        """
        if n_lanes < 1:
            raise WaveformError(f"need at least one lane, got {n_lanes}")
        return cls(
            np.broadcast_to(
                waveform.values, (n_lanes, len(waveform))
            ).copy(),
            waveform.dt,
            waveform.t0,
        )

    def lane(self, index: int) -> Waveform:
        """Return one lane as a standalone :class:`Waveform`."""
        return Waveform(
            self._values[index], self._dt, float(self._t0[index])
        )

    def waveforms(self) -> List[Waveform]:
        """Unstack into per-lane :class:`Waveform` objects."""
        return [self.lane(index) for index in range(self.n_lanes)]

    # -- time-domain operations ----------------------------------------------

    def lane_times(self, index: int) -> np.ndarray:
        """Time axis of one lane (lanes differ only by their origin)."""
        return self._t0[index] + self._dt * np.arange(self.n_samples)

    def shifted(
        self, delay: Union[float, Iterable[float]]
    ) -> "WaveformBatch":
        """Shift lane time axes by *delay* (scalar or per-lane), lossless."""
        return WaveformBatch(
            self._values, self._dt, self._t0 + np.asarray(delay)
        )

    def with_values(self, values: np.ndarray) -> "WaveformBatch":
        """Same grid and origins, new sample values (shape-checked)."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self._values.shape:
            raise WaveformError(
                f"replacement values shape {values.shape} != "
                f"{self._values.shape}"
            )
        return WaveformBatch(values, self._dt, self._t0)


class DifferentialPair:
    """Explicit positive/negative legs of a differential signal.

    The library's convention is to carry differential signals as a single
    ``V(p) - V(n)`` trace; this helper converts to and from physical legs
    when a model needs them.

    Parameters
    ----------
    positive, negative:
        The two legs as :class:`Waveform` objects on identical grids.
    """

    __slots__ = ("positive", "negative")

    def __init__(self, positive: Waveform, negative: Waveform):
        positive._check_compatible(negative)
        if not np.isclose(positive.t0, negative.t0, rtol=0, atol=1e-18):
            raise WaveformError("differential legs must share a time origin")
        self.positive = positive
        self.negative = negative

    @classmethod
    def from_differential(
        cls, diff: Waveform, common_mode: float = 0.0
    ) -> "DifferentialPair":
        """Split a differential trace into legs around *common_mode* volts."""
        half = diff * 0.5
        return cls(half + common_mode, (-half) + common_mode)

    def differential(self) -> Waveform:
        """Return ``V(p) - V(n)`` as a single trace."""
        return self.positive - self.negative

    def common_mode(self) -> Waveform:
        """Return ``(V(p) + V(n)) / 2`` as a single trace."""
        return (self.positive + self.negative) * 0.5

    def swapped(self) -> "DifferentialPair":
        """Return the pair with legs exchanged (polarity inversion)."""
        return DifferentialPair(self.negative, self.positive)

    def map_each(
        self, func: Callable[[Waveform], Waveform]
    ) -> "DifferentialPair":
        """Apply the same single-ended transformation to both legs."""
        return DifferentialPair(func(self.positive), func(self.negative))
