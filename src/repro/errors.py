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
    "CampaignCancelled",
    "MasterError",
    "AuthError",
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


class CampaignCancelled(CampaignError):
    """A campaign run was cancelled before every point completed.

    Carries the progress at the moment of cancellation (``done`` /
    ``total`` points) and, when the runner could assemble one, the
    ``partial`` :class:`~repro.campaign.runner.CampaignResult` whose
    per-point statuses mark the points that never ran.  Every point
    that *did* complete was already written to the result cache, so a
    resubmission of the same spec resumes from there.
    """

    def __init__(self, message: str, done: int = 0, total: int = 0,
                 partial=None):
        super().__init__(message)
        self.done = int(done)
        self.total = int(total)
        self.partial = partial


class MasterError(ReproError):
    """The campaign master daemon (or its client protocol) failed."""


class AuthError(MasterError):
    """A request failed the shared-secret (``REPRO_MASTER_TOKEN``) check."""


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
