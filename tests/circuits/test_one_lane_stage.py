"""A buffer stage is a one-stage cascade; a scalar waveform is a one-lane batch.

Every limiting-buffer element — a variable-gain stage, the output
driver, a fanout leg, the mux driver — answers :meth:`process` by
running the waveform as a one-lane batch through its own
:meth:`process_batch`, which plans one cascade stage and runs the
backend's cascade kernel.  So on every backend, ``process(w, rng)`` is
byte-equal to lane 0 of ``process_batch`` on a one-lane batch fed
``[rng]``, and a combined delay line's ``process`` is byte-equal to
its pack of one.
"""

import numpy as np
import pytest

from repro import kernels
from repro.circuits import (
    FanoutBuffer,
    Multiplexer,
    OutputBuffer,
    VariableGainBuffer,
)
from repro.core import CombinedDelayLine, calibration_stimulus
from repro.core.combined import process_lines_pack
from repro.signals import WaveformBatch
from repro.signals.waveform import Waveform


@pytest.fixture(autouse=True)
def _restore_backend():
    backend = kernels.active_backend()
    yield
    kernels.set_backend(backend)


def _stimulus():
    return calibration_stimulus(n_bits=31, dt=1e-12)


def _vctrl_waveform():
    """A slow control-voltage tone across the stimulus record."""
    stimulus = _stimulus()
    times = stimulus.times()
    return Waveform(
        0.75 + 0.4 * np.sin(2 * np.pi * 0.3e9 * times), stimulus.dt, 0.0
    )


ELEMENTS = {
    "vga_scalar_vctrl": lambda: VariableGainBuffer(vctrl=0.9, seed=3),
    "vga_waveform_vctrl": lambda: VariableGainBuffer(
        vctrl=_vctrl_waveform(), seed=3
    ),
    "output_buffer": lambda: OutputBuffer(seed=3),
    "fanout_buffer": lambda: FanoutBuffer(seed=3),
    "mux_port_skew": lambda: _skewed_mux(),
}


def _skewed_mux():
    mux = Multiplexer(port_skews=[0.0, 1.5e-12, 3e-12, 0.5e-12], seed=3)
    mux.select = 2
    return mux


def _assert_same(got: Waveform, expected: Waveform):
    assert got.values.tobytes() == expected.values.tobytes()
    assert got.t0 == expected.t0
    assert got.dt == expected.dt


def _one_lane(waveform):
    return WaveformBatch.from_waveforms([waveform])


@pytest.mark.parametrize("backend", kernels.BACKEND_NAMES)
@pytest.mark.parametrize("name", sorted(ELEMENTS))
def test_process_is_a_one_lane_batch(backend, name):
    kernels.set_backend(backend)
    stimulus = _stimulus()
    element = ELEMENTS[name]()
    scalar = element.process(stimulus, np.random.default_rng(11))
    batched = element.process_batch(
        _one_lane(stimulus), [np.random.default_rng(11)]
    )
    _assert_same(scalar, batched.lane(0))


@pytest.mark.parametrize("backend", kernels.BACKEND_NAMES)
def test_private_generator_is_the_one_lane_generator(backend):
    # ``rng=None`` draws from the element's own generator.
    kernels.set_backend(backend)
    stimulus = _stimulus()
    scalar = OutputBuffer(seed=5).process(stimulus)
    batched = OutputBuffer(seed=5).process_batch(
        _one_lane(stimulus), [np.random.default_rng(5)]
    )
    _assert_same(scalar, batched.lane(0))


@pytest.mark.parametrize("backend", kernels.BACKEND_NAMES)
def test_fanout_copies_draw_legs_in_order(backend):
    kernels.set_backend(backend)
    stimulus = _stimulus()
    fanout = FanoutBuffer(n_outputs=3, seed=3)
    legs = fanout.copies(stimulus, np.random.default_rng(11))
    rng = np.random.default_rng(11)
    assert len(legs) == 3
    for leg in legs:
        expected = fanout.process_batch(_one_lane(stimulus), [rng]).lane(0)
        _assert_same(leg, expected)
    assert legs[0].values.tobytes() != legs[1].values.tobytes()


@pytest.mark.parametrize("backend", kernels.BACKEND_NAMES)
def test_mux_select_input_is_the_selected_port(backend):
    kernels.set_backend(backend)
    stimulus = _stimulus()
    mux = _skewed_mux()
    inputs = [stimulus.shifted(k * 10e-12) for k in range(mux.n_inputs)]
    selected = mux.select_input(inputs, np.random.default_rng(11))
    expected = mux.process_batch(
        _one_lane(inputs[mux.select]), [np.random.default_rng(11)]
    ).lane(0)
    _assert_same(selected, expected)
    assert selected.t0 == inputs[2].t0 + 3e-12 + mux.params.propagation_delay


@pytest.mark.parametrize("backend", kernels.BACKEND_NAMES)
@pytest.mark.parametrize("own_rng", [False, True])
def test_combined_line_is_its_pack_of_one(backend, own_rng):
    kernels.set_backend(backend)
    stimulus = _stimulus()
    line = CombinedDelayLine(seed=21)
    line.select = 1
    line.vctrl = 0.6
    twin = CombinedDelayLine(seed=21)
    twin.select = 1
    twin.vctrl = 0.6
    if own_rng:
        scalar = line.process(stimulus)
        packed = process_lines_pack([twin], _one_lane(stimulus))
    else:
        scalar = line.process(stimulus, np.random.default_rng(11))
        packed = process_lines_pack(
            [twin], _one_lane(stimulus), [np.random.default_rng(11)]
        )
    _assert_same(scalar, packed.lane(0))
