"""Reused chunk buffers: a stream's pushes run without fresh full-length
allocations, and no reuse is visible in any result.

A stream keeps the numpy kernel's scratch arrays with its carry states
(:meth:`CascadeStageState.buffer`) and each stage planner draws its
lanes' noise into one reused block.  The contract:

* an output chunk is never scratch: it keeps its bytes however many
  chunks follow it;
* same-length pushes reuse the same arrays, and a shorter chunk gets
  arrays of its own shape, with the bytes a stream that drops every
  buffer before each push gives;
* the kernel's helpers write only into arrays they own, never into
  their inputs;
* a planner's noise row is, byte for byte and generator state for
  generator state, a fresh :class:`BandLimitedNoise` draw made the
  old way (``rng.normal(0.0, 1.0, n)``, filter, scale).
"""

import copy

import numpy as np
import pytest
from scipy import signal as scipy_signal

from repro import kernels
from repro.circuits.vga_buffer import (
    BandLimitedNoise,
    BufferParams,
    StagePlanner,
)
from repro.core import FineDelayLine, calibration_stimulus
from repro.core.streaming import _CascadeOp
from repro.kernels import numpy_backend
from repro.kernels.cascade import CascadeStageState
from repro.signals.waveform import Waveform

DT = 1e-12


@pytest.fixture(params=kernels.BACKEND_NAMES)
def backend(request):
    with kernels.use_backend(request.param):
        yield request.param


def _record(n_bits=63):
    return calibration_stimulus(n_bits=n_bits, dt=DT)


def _chunks(waveform, size):
    """Equal chunks of *size* samples, the last one shorter."""
    return [
        Waveform(
            waveform.values[a : a + size].copy(),
            waveform.dt,
            waveform.t0 + waveform.dt * a,
        )
        for a in range(0, len(waveform), size)
    ]


def _cascade_ops(processor):
    return [op for op in processor._ops if isinstance(op, _CascadeOp)]


def _held_arrays(processor):
    """Every array the stream keeps from push to push, by name."""
    held = {}
    for i, op in enumerate(_cascade_ops(processor)):
        for j, state in enumerate(op.states):
            for name, array in state.scratch.items():
                held[f"op{i}.state{j}.{name}"] = array
        for j, planner in enumerate(op.planners):
            if planner._noise_block is not None:
                held[f"op{i}.planner{j}.noise"] = planner._noise_block
    return held


def _drop_buffers(processor):
    for op in _cascade_ops(processor):
        for state in op.states:
            state.scratch.clear()
        for planner in op.planners:
            planner._noise_block = None


def test_earlier_outputs_keep_their_bytes(backend):
    record = _record()
    processor = FineDelayLine(seed=21).open_stream()
    chunks = _chunks(record, len(record) // 5)
    outputs, snapshots = [], []
    for chunk in chunks:
        out = processor.push(chunk)
        outputs.append(out)
        snapshots.append(out.values.tobytes())
        for name, array in _held_arrays(processor).items():
            assert not np.shares_memory(out.values, array), name
    for k in range(len(chunks) - 3):
        # Pushes k+1..k+3 (and the rest) ran after output k was taken.
        assert outputs[k].values.tobytes() == snapshots[k]


def test_same_length_pushes_reuse_buffers(backend):
    record = _record()
    size = len(record) // 3 + 11
    chunks = _chunks(record, size)
    assert len(chunks) == 3 and len(chunks[-1]) < size
    processor = FineDelayLine(seed=22).open_stream()

    processor.push(chunks[0])
    first = _held_arrays(processor)
    processor.push(chunks[1])
    second = _held_arrays(processor)
    assert first.keys() == second.keys()
    assert any(name.endswith(".noise") for name in first)
    if backend == "numpy":
        assert any(".state0." in name for name in first)
    for name, array in first.items():
        assert second[name] is array, name

    processor.push(chunks[2])
    for name, array in _held_arrays(processor).items():
        assert array.shape[-1] == len(chunks[2]), name


def test_reuse_gives_the_bytes_of_fresh_buffers(backend):
    record = _record()
    chunks = _chunks(record, len(record) // 3 + 11)
    reused = FineDelayLine(seed=23).open_stream()
    fresh = FineDelayLine(seed=23).open_stream()
    for chunk in chunks:
        _drop_buffers(fresh)
        want = fresh.push(chunk)
        got = reused.push(chunk)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.t0 == want.t0
    for mine, theirs in zip(_cascade_ops(reused), _cascade_ops(fresh)):
        for a, b in zip(mine.states, theirs.states):
            assert a.slew_y.tobytes() == b.slew_y.tobytes()
            assert a.filter_zi.tobytes() == b.filter_zi.tobytes()
        for a, b in zip(mine.rngs, theirs.rngs):
            assert a.bit_generator.state == b.bit_generator.state


def _target_inputs(n_lanes=3, n=400):
    rng = np.random.default_rng(77)
    v_in = np.cumsum(rng.normal(0.0, 0.2, (n_lanes, n)), axis=1)
    floor = np.full((n_lanes, n), 0.1)
    extra = np.abs(np.tanh(v_in)) * 0.4 + 0.05
    return v_in, floor, extra


def test_compressive_target_leaves_its_inputs_alone():
    v_in, floor, extra = _target_inputs()
    before = [a.tobytes() for a in (v_in, floor, extra)]
    for primed in (False, True):
        carry = CascadeStageState()
        carry.freeze_stats(np.full(3, 0.05), np.full(3, 40e-12))
        if primed:
            numpy_backend._compressive_target(
                v_in, floor, extra, DT, 6.2e9, 3, carry
            )
            carry.slew_y = np.zeros(3)
            carry.primed = True
        target, _ = numpy_backend._compressive_target(
            v_in, floor, extra, DT, 6.2e9, 3, carry
        )
        assert [a.tobytes() for a in (v_in, floor, extra)] == before
        for array in (v_in, floor, extra):
            assert not np.shares_memory(target, array)


@pytest.mark.parametrize("max_step", [0.01, np.array([[0.01], [0.2], [0.05]])])
def test_slew_relaxation_leaves_its_inputs_alone(max_step):
    targets, _, _ = _target_inputs()
    initials = np.array([0.0, -1.0, 1.0])
    steps = np.array(max_step)
    before = [a.tobytes() for a in (targets, initials, steps)]
    alone = numpy_backend._slew_limit_relax(targets, max_step, initials)
    out, delta = np.empty_like(targets), np.empty_like(targets)
    held = numpy_backend._slew_limit_relax(
        targets, max_step, initials, out, delta
    )
    assert held is out
    assert held.tobytes() == alone.tobytes()
    assert [a.tobytes() for a in (targets, initials, np.array(max_step))] == (
        before
    )


def test_kernel_leaves_record_and_plan_alone(backend):
    record = _record(31)
    line = FineDelayLine(seed=24)
    processor = line.open_stream()
    op = _cascade_ops(processor)[0]
    processor._bind(record)
    values = record.values.copy()
    stages = [planner.plan(values.size) for planner in op.planners]
    plan_bytes = [
        (np.asarray(s.amplitude).tobytes(), s.noise.tobytes()) for s in stages
    ]
    out = kernels.fine_delay_cascade_stream(values, stages, DT, op.states)
    assert values.tobytes() == record.values.tobytes()
    assert [
        (np.asarray(s.amplitude).tobytes(), s.noise.tobytes()) for s in stages
    ] == plan_bytes
    assert not np.shares_memory(out, values)


def _old_draw(source, n_samples):
    """The noise draw before rows were reused: allocate, filter, scale."""
    if source.sigma == 0.0 or n_samples == 0:
        return np.zeros(n_samples)
    filtered = source.rng.normal(0.0, 1.0, size=n_samples + source._warmup)
    if source._b is not None:
        filtered, source._zi = scipy_signal.lfilter(
            source._b, source._a, filtered, zi=source._zi
        )
        filtered = filtered[source._warmup :]
        source._warmup = 0
    if source.gain is None:
        rms = float(np.sqrt(np.mean(filtered**2)))
        source.gain = 0.0 if rms == 0.0 else source.sigma / rms
    return filtered * source.gain


@pytest.mark.parametrize("noise_bandwidth", [20e9, 600e9])
@pytest.mark.parametrize("sigma", [19e-3, 0.0])
def test_planner_rows_are_old_draws(noise_bandwidth, sigma):
    params = BufferParams(noise_bandwidth=noise_bandwidth, noise_sigma=sigma)
    seeds = (5, 6)
    planner = StagePlanner(
        [params, params],
        [0.4, 0.6],
        [np.random.default_rng(s) for s in seeds],
        DT,
        0.0,
    )
    references = [
        BandLimitedNoise(sigma, noise_bandwidth, DT, np.random.default_rng(s))
        for s in seeds
    ]
    for n in (500, 500, 120):
        noise = planner.plan(n).noise
        if sigma == 0.0:
            assert noise is None
            continue
        for row, reference in zip(noise, references):
            assert row.tobytes() == _old_draw(reference, n).tobytes()
        for source, reference in zip(planner.noise, references):
            assert (
                source.rng.bit_generator.state
                == reference.rng.bit_generator.state
            )
            assert source.gain == reference.gain


def test_fresh_draw_is_the_old_draw():
    for bandwidth in (20e9, 600e9):
        source = BandLimitedNoise(0.02, bandwidth, DT, np.random.default_rng(9))
        reference = copy.deepcopy(source)
        for n in (1, 300, 699):
            assert source.draw(n).tobytes() == _old_draw(reference, n).tobytes()
        assert (
            source.rng.bit_generator.state == reference.rng.bit_generator.state
        )
