"""The one cascade kernel: input shapes, lane independence, numpy rules.

Each backend runs every cascade call — a whole record, a stream chunk,
a batch — through one ``fine_delay_cascade(values, stages, dt, states)``
over a ``(lanes, samples)`` record with per-lane carried state.  This
suite pins what that sharing must preserve:

* every entry refuses an empty record with :class:`CircuitError`;
* lanes never interact: each lane of an L-lane chunked run equals the
  one-lane chunked run of that lane byte for byte on both backends, and
  on these records a chunked run equals the whole-record call byte for
  byte;
* numpy slews every call by frontier relaxation, one lane or many, and
  hands only the lanes whose ramps outlast the sweep cap to the
  reference loop; and the compression seed of every lane is the
  reference's Python-float one.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core import FineDelayLine
from repro.core.fine_delay import cascade_plan_pack
from repro.errors import CircuitError
from repro.kernels import numpy_backend
from repro.kernels.cascade import CascadeStageState, fresh_cascade_state
from repro.signals import WaveformBatch
from repro.signals.nrz import synthesize_nrz

ALL_BACKENDS = kernels.BACKEND_NAMES
DT = 2e-12
BIT_RATE = 2.4e9


@pytest.fixture(autouse=True)
def _restore_backend():
    backend = kernels.active_backend()
    yield
    kernels.set_backend(backend)


def _noiseless_plan(values, n_stages):
    """A *n_stages* cascade plan without noise (shared by any lanes)."""
    line = FineDelayLine(n_stages=3, seed=0)
    stages, _ = cascade_plan_pack(
        [line], WaveformBatch(values[None, :], DT, 0.0),
        [np.random.default_rng(0)],
    )
    return [
        dataclasses.replace(stage, noise=None) for stage in stages[:n_stages]
    ]


# -- empty records -----------------------------------------------------------


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("entry", ["cascade", "stream", "batch"])
def test_empty_record_raises_circuit_error(backend, entry):
    kernels.set_backend(backend)
    stages = _noiseless_plan(np.array([-0.4, 0.4, 0.4, -0.4]), 2)
    calls = {
        "cascade": lambda: kernels.fine_delay_cascade(np.empty(0), stages, DT),
        "stream": lambda: kernels.fine_delay_cascade_stream(
            np.empty(0), stages, DT, fresh_cascade_state(2)
        ),
        "batch": lambda: kernels.fine_delay_cascade_batch(
            np.empty((2, 0)), stages, DT
        ),
    }
    shape = r"\(2, 0\)" if entry == "batch" else r"\(0,\)"
    with pytest.raises(CircuitError, match=shape):
        calls[entry]()


# -- lanes are independent under carried state --------------------------------


def _records(n_lanes, seed):
    """One NRZ record per lane, each with its own random bits."""
    rng = np.random.default_rng(seed)
    return np.stack(
        [
            synthesize_nrz(rng.integers(0, 2, 24), BIT_RATE, DT).values
            for _ in range(n_lanes)
        ]
    )


def _pack_plan(records, n_stages, seed):
    """A noisy plan whose lanes differ in fine control and noise."""
    n_lanes = records.shape[0]
    line = FineDelayLine(n_stages=3, seed=seed)
    vctrls = np.linspace(line.params.vctrl_min, line.params.vctrl_max, n_lanes)
    rngs = [np.random.default_rng([seed, lane]) for lane in range(n_lanes)]
    stages, _ = cascade_plan_pack(
        [line] * n_lanes, WaveformBatch(records, DT, 0.0), rngs, vctrls
    )
    return stages[:n_stages]


def _lane_field(value, lane):
    """Lane *lane* of a plan field; fields shared by all lanes stay."""
    if isinstance(value, np.ndarray) and value.ndim == 2:
        return value[lane]
    return value


def _lane_plan(stages, lane):
    return [
        dataclasses.replace(
            stage,
            amplitude=_lane_field(stage.amplitude, lane),
            amplitude_min=_lane_field(stage.amplitude_min, lane),
            max_step=_lane_field(stage.max_step, lane),
            noise=None if stage.noise is None else stage.noise[lane],
        )
        for stage in stages
    ]


def _chunked(values, stages, cuts):
    """Run the ``(lanes, samples)`` record *values* through the backend
    kernel in chunks split at *cuts*, statistics primed by one
    whole-record pass on throwaway states."""
    kernel = kernels.get_backend().fine_delay_cascade
    twin = fresh_cascade_state(len(stages))
    kernel(values, stages, DT, twin)
    states = fresh_cascade_state(len(stages))
    for state, primed in zip(states, twin):
        if primed.hysteresis is not None:
            state.freeze_stats(primed.hysteresis, primed.initial_interval)
    bounds = [0, *cuts, values.shape[1]]
    outs = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        chunk_stages = [
            dataclasses.replace(
                stage,
                noise=None if stage.noise is None else stage.noise[..., a:b],
            )
            for stage in stages
        ]
        chunk = np.ascontiguousarray(values[:, a:b])
        outs.append(kernel(chunk, chunk_stages, DT, states))
    return np.concatenate(outs, axis=1)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@settings(max_examples=25, deadline=None)
@given(
    n_lanes=st.integers(1, 4),
    n_stages=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    cut_fractions=st.lists(
        st.floats(0.01, 0.99), min_size=0, max_size=4, unique=True
    ),
)
def test_lanes_are_independent_under_carried_state(
    backend, n_lanes, n_stages, seed, cut_fractions
):
    kernels.set_backend(backend)
    records = _records(n_lanes, seed)
    n = records.shape[1]
    cuts = sorted({int(f * n) for f in cut_fractions} - {0})
    stages = _pack_plan(records, n_stages, seed)
    together = _chunked(records, stages, cuts)
    for lane in range(n_lanes):
        lane_stages = _lane_plan(stages, lane)
        alone = _chunked(records[lane : lane + 1], lane_stages, cuts)[0]
        assert together[lane].tobytes() == alone.tobytes()
        whole = kernels.fine_delay_cascade(records[lane], lane_stages, DT)
        assert together[lane].tobytes() == whole.tobytes()


# -- numpy: every call relaxes ------------------------------------------------


def _spy_slew(monkeypatch):
    """Count relaxations and the reference-loop walks they hand lanes
    past the sweep cap to; note walks made outside a relaxation."""
    calls = {"walk": 0, "relax": 0, "walk_outside_relax": 0}
    depth = [0]
    walk, relax = numpy_backend.slew_limit, numpy_backend._slew_limit_relax

    def spy_walk(*args):
        calls["walk"] += 1
        calls["walk_outside_relax"] += depth[0] == 0
        return walk(*args)

    def spy_relax(*args):
        calls["relax"] += 1
        depth[0] += 1
        try:
            return relax(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(numpy_backend, "slew_limit", spy_walk)
    monkeypatch.setattr(numpy_backend, "_slew_limit_relax", spy_relax)
    return calls


def _slow_square(n=100_000, period=50_000):
    """A long record with few edges (long ramps on a slow slew)."""
    return np.where((np.arange(n) // (period // 2)) % 2 == 0, -0.4, 0.4)


def test_one_lane_relaxes_like_many_lanes(monkeypatch):
    kernels.set_backend("numpy")
    values = _slow_square()
    stages = _noiseless_plan(values, 3)
    calls = _spy_slew(monkeypatch)
    kernels.fine_delay_cascade(values, stages, DT)
    relaxed = {"walk": 0, "relax": len(stages), "walk_outside_relax": 0}
    assert calls == relaxed

    calls.update(walk=0, relax=0, walk_outside_relax=0)
    lanes = np.stack([values, -values])
    kernels.fine_delay_cascade_batch(lanes, stages, DT)
    assert calls == relaxed


def test_one_lane_past_the_sweep_cap_walks_inside_the_relaxation(
    monkeypatch,
):
    kernels.set_backend("numpy")
    values = _slow_square()
    stages = _noiseless_plan(values, 1)
    slow = 0.1 / numpy_backend._RELAX_MAX_SWEEPS
    stages = [dataclasses.replace(stages[0], max_step=slow)]
    calls = _spy_slew(monkeypatch)
    kernels.fine_delay_cascade(values, stages, DT)
    assert calls == {"walk": 1, "relax": 1, "walk_outside_relax": 0}


def test_multi_lane_walks_only_lanes_past_the_sweep_cap(monkeypatch):
    kernels.set_backend("numpy")
    values = _slow_square()
    stages = _noiseless_plan(values, 1)
    # Lane 1 slews so slowly that its ramps outlast the sweep cap.
    step = stages[0].max_step
    slow = 0.1 / numpy_backend._RELAX_MAX_SWEEPS
    stages = [
        dataclasses.replace(stages[0], max_step=np.array([[step], [slow]]))
    ]
    calls = _spy_slew(monkeypatch)
    kernels.fine_delay_cascade_batch(np.stack([values, values]), stages, DT)
    assert calls == {"walk": 1, "relax": 1, "walk_outside_relax": 0}


# -- numpy: the compression seed ----------------------------------------------


def test_multi_lane_seed_is_the_one_lane_seed():
    """Lane i of a multi-lane target equals its one-lane target byte for
    byte, and every seed is the reference's Python-float expression
    (``np.power`` can differ from it in the last bit for order 3)."""
    rng = np.random.default_rng(836)
    n_lanes, n = 256, 64
    v_in = np.cumsum(rng.normal(0.0, 0.2, (n_lanes, n)), axis=1)
    floor = np.full((n_lanes, n), 0.1)
    extra = np.abs(np.tanh(v_in)) * 0.4 + 0.05
    hysteresis = rng.uniform(0.0, 0.3, n_lanes)
    intervals = rng.uniform(10e-12, 100e-12, n_lanes)
    corner, order = 6.2e9, 3

    def target(lanes):
        carry = CascadeStageState()
        carry.freeze_stats(hysteresis[lanes], intervals[lanes])
        out, y0 = numpy_backend._compressive_target(
            v_in[lanes], floor[lanes], extra[lanes], DT, corner, order, carry
        )
        return out, y0

    together, _ = target(slice(None))
    inv_2corner = 1.0 / (2.0 * corner)
    for lane in range(n_lanes):
        alone, y0 = target(slice(lane, lane + 1))
        assert together[lane].tobytes() == alone[0].tobytes()
        seed = 1.0 / (1.0 + (inv_2corner / float(intervals[lane])) ** order)
        assert y0[0] == float(floor[lane, 0]) + seed * float(extra[lane, 0])
