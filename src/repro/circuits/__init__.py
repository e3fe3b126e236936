"""Behavioural analog circuit elements.

The building blocks of the paper's prototype: the variable-gain buffer
(whose amplitude-delay coupling is the paper's enabling effect), fixed
full-swing buffers, fanout, multiplexer, transmission-line taps, the
Vctrl DAC, noise sources, and the measurement-path attenuator.
"""

from .element import (
    CircuitElement,
    Chain,
    IdealDelay,
    Gain,
    Inverter,
    spawn_rngs,
)
from .vga_buffer import (
    BufferParams,
    VariableGainBuffer,
    band_limited_noise,
    limiting_stage_batch,
)
from .buffers import OUTPUT_STAGE_PARAMS, OutputBuffer, FanoutBuffer
from .mux import Multiplexer
from .tline import TransmissionLine, ReflectiveStub
from .noise import NoiseSource, ACCoupler, GAUSSIAN_PP_SIGMA_RATIO
from .attenuator import SeriesResistorPad
from .dac import ControlDAC

__all__ = [
    "CircuitElement",
    "Chain",
    "IdealDelay",
    "Gain",
    "Inverter",
    "spawn_rngs",
    "BufferParams",
    "VariableGainBuffer",
    "band_limited_noise",
    "limiting_stage_batch",
    "OUTPUT_STAGE_PARAMS",
    "OutputBuffer",
    "FanoutBuffer",
    "Multiplexer",
    "TransmissionLine",
    "ReflectiveStub",
    "NoiseSource",
    "ACCoupler",
    "GAUSSIAN_PP_SIGMA_RATIO",
    "SeriesResistorPad",
    "ControlDAC",
]
