"""Fused-vs-per-stage cascade equivalence: the fusion contract.

Contract (see DESIGN.md §"Pipeline fusion"):

* On every backend the fused cascade is **byte-identical** to the
  per-stage chain — each stage's ``process`` followed by the output
  stage's — identical samples, identical time axes, for scalar and
  batch records, static and time-varying (jitter-injection) control,
  any stage count.
* The ``fine_delay.fused_calls`` counter and the
  ``kernels.fine_delay_cascade`` op counters show the fused kernel ran.
"""

import numpy as np
import pytest

from repro import instrument, kernels
from repro.core import FineDelayLine, calibration_stimulus
from repro.core.fine_delay import cascade_plan_pack
from repro.signals.waveform import Waveform, WaveformBatch

ALL_BACKENDS = kernels.BACKEND_NAMES
STAGE_COUNTS = (1, 2, 3, 4, 5)


@pytest.fixture(autouse=True)
def _restore_backend():
    backend = kernels.active_backend()
    yield
    kernels.set_backend(backend)


def _stimulus(n_bits=63, dt=1e-12):
    return calibration_stimulus(n_bits=n_bits, dt=dt)


def per_stage(line, waveform, rng=None):
    """The per-stage reference: chain every stage's own ``process``."""
    result = waveform
    for stage in line.stages:
        result = stage.process(result, rng)
    return line.output_stage.process(result, rng)


def per_stage_batch(line, batch, rngs, vctrls=None):
    """Batched per-stage reference, lane ``i`` drawing from ``rngs[i]``."""
    result = batch
    for stage in line.stages:
        result = stage.process_batch(result, rngs, vctrl=vctrls)
    return line.output_stage.process_batch(result, rngs)


def _fused_and_unfused(line_seed, waveform, n_stages, rng_seed=None,
                       vctrl=None):
    """Run identical lines through the fused and the per-stage paths."""
    outputs = []
    for run in (FineDelayLine.process, per_stage):
        line = FineDelayLine(n_stages=n_stages, seed=line_seed)
        if vctrl is not None:
            line.vctrl = vctrl
        rng = None if rng_seed is None else np.random.default_rng(rng_seed)
        outputs.append(run(line, waveform, rng))
    return outputs


def _fused_and_unfused_batch(line_seed, batch, n_stages, vctrls=None):
    outputs = []
    for run in (FineDelayLine.process_batch, per_stage_batch):
        line = FineDelayLine(n_stages=n_stages, seed=line_seed)
        rngs = [np.random.default_rng(100 + i) for i in range(batch.n_lanes)]
        outputs.append(run(line, batch, rngs, vctrls))
    return outputs


def _assert_equivalent(fused, unfused):
    """Byte-identical samples on every backend."""
    assert fused.values.shape == unfused.values.shape
    assert fused.values.tobytes() == unfused.values.tobytes()


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("n_stages", STAGE_COUNTS)
def test_scalar_equivalence(backend, n_stages):
    """Fused == unfused for every backend and stage count (shared rng)."""
    kernels.set_backend(backend)
    stimulus = _stimulus()
    fused, unfused = _fused_and_unfused(
        42, stimulus, n_stages, rng_seed=7
    )
    assert fused.t0 == unfused.t0
    assert fused.dt == unfused.dt
    _assert_equivalent(fused, unfused)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_scalar_equivalence_private_rngs(backend):
    """With rng=None each stage draws from its own generator — the fused
    plan must consume the same per-stage streams in the same order."""
    kernels.set_backend(backend)
    stimulus = _stimulus()
    fused, unfused = _fused_and_unfused(99, stimulus, 4, rng_seed=None)
    _assert_equivalent(fused, unfused)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("n_stages", (1, 3, 4))
def test_batch_equivalence(backend, n_stages):
    kernels.set_backend(backend)
    stimulus = _stimulus()
    batch = WaveformBatch(
        np.stack([stimulus.values, -stimulus.values, 0.9 * stimulus.values]),
        stimulus.dt,
        np.array([0.0, 25e-12, 50e-12]),
    )
    fused, unfused = _fused_and_unfused_batch(11, batch, n_stages)
    assert np.array_equal(fused.t0, unfused.t0)
    assert fused.values.tobytes() == unfused.values.tobytes()


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_batch_equivalence_per_lane_vctrls(backend):
    """A calibration sweep collapsed to one batch: per-lane control."""
    kernels.set_backend(backend)
    stimulus = _stimulus()
    batch = WaveformBatch(
        np.stack([stimulus.values] * 4),
        stimulus.dt,
        np.zeros(4),
    )
    vctrls = np.array([0.2, 0.6, 1.0, 1.4])
    fused, unfused = _fused_and_unfused_batch(5, batch, 4, vctrls=vctrls)
    assert fused.values.tobytes() == unfused.values.tobytes()


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_jitter_injection_vctrl_waveform(backend):
    """Time-varying Vctrl (the paper's Sec. 5 jitter-injection mode):
    the fused plan evaluates the control waveform on each stage's own
    delayed time grid, exactly as the per-stage path does."""
    kernels.set_backend(backend)
    stimulus = _stimulus()
    t = stimulus.times()
    vwave = Waveform(
        0.75 + 0.35 * np.sin(2 * np.pi * t / 2e-9),
        stimulus.dt,
        stimulus.t0,
    )
    fused, unfused = _fused_and_unfused(
        3, stimulus, 2, rng_seed=5, vctrl=vwave
    )
    _assert_equivalent(fused, unfused)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_batch_jitter_injection_vctrl_waveform(backend):
    """Batched jitter injection: each lane reads the control waveform on
    its own delayed time grid, so lanes with different ``t0`` see
    different control phases."""
    kernels.set_backend(backend)
    stimulus = _stimulus()
    t = stimulus.times()
    vwave = Waveform(
        0.75 + 0.35 * np.sin(2 * np.pi * t / 2e-9),
        stimulus.dt,
        stimulus.t0,
    )
    batch = WaveformBatch(
        np.stack([stimulus.values, -stimulus.values, 0.9 * stimulus.values]),
        stimulus.dt,
        np.array([0.0, 25e-12, 310e-12]),
    )
    outputs = []
    for run in (FineDelayLine.process_batch, per_stage_batch):
        line = FineDelayLine(n_stages=3, seed=8)
        line.vctrl = vwave
        rngs = [np.random.default_rng(200 + i) for i in range(3)]
        outputs.append(run(line, batch, rngs))
    fused, unfused = outputs
    assert np.array_equal(fused.t0, unfused.t0)
    assert fused.values.tobytes() == unfused.values.tobytes()


# -- observability ----------------------------------------------------------


def test_fused_path_records_cascade_kernel_op():
    stimulus = _stimulus(n_bits=16)
    line = FineDelayLine(n_stages=2, seed=0)
    with instrument.enabled_scope(reset=True) as registry:
        line.process(stimulus, np.random.default_rng(0))
        line.process(stimulus, np.random.default_rng(0))
        counters = registry.snapshot()["counters"]
    assert counters["fine_delay.fused_calls"] == 2
    assert counters.get("kernels.fine_delay_cascade.calls", 0) >= 1


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_cascade_entry_counts_as_its_own_op(backend):
    """``kernels.fine_delay_cascade`` runs the stream kernel on fresh
    state but records only its own op counters, which the benchmark
    layer reads by name."""
    kernels.set_backend(backend)
    stimulus = _stimulus(n_bits=16)
    stages, _ = cascade_plan_pack(
        [FineDelayLine(n_stages=2, seed=0)],
        WaveformBatch.from_waveforms([stimulus]),
        [np.random.default_rng(0)],
    )
    with instrument.enabled_scope(reset=True) as registry:
        kernels.fine_delay_cascade(stimulus.values, stages, stimulus.dt)
        counters = registry.snapshot()["counters"]
    assert counters["kernels.fine_delay_cascade.calls"] == 1
    assert "kernels.fine_delay_cascade_stream.calls" not in counters
