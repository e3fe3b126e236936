"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "UnitError",
    "WaveformError",
    "SampleRateMismatchError",
    "PatternError",
    "CircuitError",
    "ControlRangeError",
    "KernelError",
    "InstrumentError",
    "CampaignError",
    "WorkerError",
    "WorkerProtocolError",
    "CalibrationError",
    "DelayRangeError",
    "MeasurementError",
    "InsufficientEdgesError",
    "DeskewError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class UnitError(ReproError, ValueError):
    """A quantity string or unit suffix could not be interpreted."""


class WaveformError(ReproError, ValueError):
    """A waveform is malformed or incompatible with the requested operation."""


class SampleRateMismatchError(WaveformError):
    """Two waveforms with different sample intervals were combined."""


class PatternError(ReproError, ValueError):
    """A bit-pattern specification is invalid (e.g. unknown PRBS order)."""


class CircuitError(ReproError):
    """Base class for circuit-model configuration and simulation errors."""


class ControlRangeError(CircuitError, ValueError):
    """A control input (Vctrl, select code, ...) is outside its legal range."""


class KernelError(ReproError):
    """A compute-kernel backend name is not ``python``, ``numpy`` or ``auto``."""


class InstrumentError(ReproError, ValueError):
    """An observability artifact (e.g. a run manifest) is malformed."""


class CampaignError(ReproError, ValueError):
    """A campaign spec, cache entry, or report is invalid."""


class WorkerError(ReproError):
    """A remote worker, the worker pool, or their transport failed."""


class WorkerProtocolError(WorkerError):
    """A worker-protocol frame was malformed, oversized, or mistyped."""


class CalibrationError(CircuitError):
    """A calibration table could not be built or inverted."""


class DelayRangeError(CalibrationError, ValueError):
    """A requested delay is outside the achievable range of a delay line."""


class MeasurementError(ReproError):
    """A scope-style measurement could not be completed."""


class InsufficientEdgesError(MeasurementError):
    """A measurement needed more signal transitions than the waveform has."""


class DeskewError(ReproError):
    """Deskew of a parallel bus failed to meet the requested tolerance."""
