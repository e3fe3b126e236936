"""The paper's contribution: picosecond variable delay for multi-GHz data.

Fine delay (cascaded variable-gain buffers), coarse delay (selectable
transmission-line taps), the combined circuit, the calibration flow
that turns delay targets into settings, and the jitter injector built
on the same fine line.
"""

from .params import (
    FOUR_STAGE_BUFFER,
    TWO_STAGE_BUFFER,
    IDEAL_WIDEBAND_BUFFER,
    COARSE_STEP,
    COARSE_TAP_ERRORS,
    DEFAULT_FINE_STAGES,
    SOURCE_AMPLITUDE,
    SOURCE_RISE_TIME,
    VCTRL_RANGE,
)
from .fine_delay import FineDelayLine
from .coarse_delay import CoarseDelayLine
from .combined import CombinedDelayLine
from .calibration import (
    CalibrationTable,
    calibration_stimulus,
    calibrate_fine_delay,
    DelaySetting,
    CombinedDelaySolver,
)
from .jitter_injector import JitterInjector
from .event_model import EventDelayModel
from .streaming import StreamProcessor

__all__ = [
    "FOUR_STAGE_BUFFER",
    "TWO_STAGE_BUFFER",
    "IDEAL_WIDEBAND_BUFFER",
    "COARSE_STEP",
    "COARSE_TAP_ERRORS",
    "DEFAULT_FINE_STAGES",
    "SOURCE_AMPLITUDE",
    "SOURCE_RISE_TIME",
    "VCTRL_RANGE",
    "FineDelayLine",
    "CoarseDelayLine",
    "CombinedDelayLine",
    "CalibrationTable",
    "calibration_stimulus",
    "calibrate_fine_delay",
    "DelaySetting",
    "CombinedDelaySolver",
    "JitterInjector",
    "EventDelayModel",
    "StreamProcessor",
]
