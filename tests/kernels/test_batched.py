"""Property tests: batched kernels equal their per-lane counterparts.

Contract (see DESIGN.md, "Kernel layer"):

* On every backend a batched cascade call is **byte-identical** to
  running each lane through the single-lane cascade: numpy relaxes
  every lane the same way, alone or packed, so a lane's bytes do not
  depend on the call it rides in.
* The bare slew steps agree too: numpy's many-lane relaxation is the
  one-lane reference loop byte for byte.
* End-to-end, batched simulation paths give the same bytes and the
  same measured delays on both backends.

The corpora reuse the seeded-grid idiom of
``test_backend_agreement.py``: deterministic, CI-stable, spanning the
signal regimes the simulator produces.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.analysis import measure_delay, measure_delays_batch
from repro.circuits import VariableGainBuffer, limiting_stage_batch, spawn_rngs
from repro.core import calibration_stimulus
from repro.kernels import numpy_backend, python_backend
from repro.kernels.cascade import CascadeStage
from repro.signals import WaveformBatch
from repro.signals.filters import bandwidth_to_time_constant, cascade_filter_plan

ALL_BACKENDS = kernels.BACKEND_NAMES
ALTERNATES = tuple(name for name in ALL_BACKENDS if name != "python")


@pytest.fixture(autouse=True)
def _restore_backend():
    previous = kernels.active_backend()
    yield
    kernels.set_backend(previous)


def _lane_corpus(n_lanes=5, n=700, seed=2026):
    """Seeded stack of lanes mixing the simulator's signal regimes."""
    rng = np.random.default_rng(seed)
    lanes = []
    for lane in range(n_lanes):
        kind = lane % 4
        if kind == 0:
            period = rng.uniform(8, 200)
            v = np.tanh(
                np.sign(np.sin(2 * np.pi * np.arange(n) / period))
                * rng.uniform(0.5, 4.0)
            )
        elif kind == 1:
            v = rng.uniform(0.1, 1.0) * np.sin(
                2 * np.pi * np.arange(n) / rng.uniform(50, 600)
            )
        elif kind == 2:
            v = np.cumsum(rng.normal(0, rng.uniform(0.01, 0.3), n))
        else:
            v = rng.normal(0, rng.uniform(0.1, 1.0), n)
        lanes.append(v)
    return np.asarray(lanes)


def _compressive_stage(n_lanes, seed=1964):
    """A one-stage compressive plan: per-lane amplitude, shared physics.

    Returns the many-lane stage and, per lane, the same stage with that
    lane's amplitude (what the lane's one-lane call runs).
    """
    rng = np.random.default_rng(seed)
    dt = 1e-12
    b, a, zi_unit = cascade_filter_plan(
        dt, bandwidth_to_time_constant(float(rng.uniform(8e9, 20e9)))
    )
    amplitudes = rng.uniform(0.1, 0.75, n_lanes)
    stage = CascadeStage(
        amplitude=amplitudes[:, None],
        amplitude_min=float(rng.uniform(0.05, 0.2)),
        v_linear=float(rng.uniform(0.02, 0.5)),
        max_step=float(rng.uniform(0.01, 0.3)),
        corner=float(rng.uniform(1e9, 20e9)),
        order=int(rng.integers(1, 5)),
        b=b,
        a=a,
        zi_unit=zi_unit,
    )
    lanes = [
        dataclasses.replace(stage, amplitude=np.asarray(amplitude))
        for amplitude in amplitudes
    ]
    return stage, lanes, dt


def _slew_steps(backend):
    """The backend's many-lane slew step and its one-lane slew loop."""
    if backend == "python":
        return python_backend.slew_limit_batch, python_backend.slew_limit
    return numpy_backend._slew_limit_relax, numpy_backend.slew_limit


class TestSlewLimitBatch:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_matches_per_lane(self, backend):
        values = _lane_corpus()
        max_step = 0.07
        initial = np.linspace(-0.5, 0.5, values.shape[0])
        batch_step, lane_step = _slew_steps(backend)
        batched = batch_step(values, max_step, initial)
        lanes = [
            lane_step(values[i], max_step, float(initial[i]))
            for i in range(values.shape[0])
        ]
        for i, lane in enumerate(lanes):
            assert batched[i].tobytes() == lane.tobytes()

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_default_initial_is_first_sample(self, backend):
        values = _lane_corpus(n_lanes=3, n=200, seed=9)
        batch_step, _ = _slew_steps(backend)
        batched = batch_step(values, 0.05, values[:, 0].copy())
        np.testing.assert_array_equal(batched[:, 0], values[:, 0])

    def test_batched_python_is_reference_for_numpy(self):
        # Cross-backend: batched numpy is batched python, byte for byte.
        values = _lane_corpus(seed=31)
        initials = values[:, 0].copy()
        reference = python_backend.slew_limit_batch(values, 0.04, initials)
        vectorised = numpy_backend._slew_limit_relax(values, 0.04, initials)
        assert vectorised.tobytes() == reference.tobytes()


def _sequential(targets, step, initial):
    """The slew recurrence as a plain-Python loop."""
    y = initial
    out = []
    for t in targets:
        y = y + min(max(t - y, -step), step)
        out.append(y)
    return np.array(out, dtype=np.float64)


def _settles(targets, step, initial):
    """Whether Jacobi sweeps from ``y = t`` stop changing any bit
    within the numpy kernel's sweep cap (else the reference loop
    finishes the lane)."""
    y = list(targets)
    for _ in range(min(len(y), numpy_backend._RELAX_MAX_SWEEPS)):
        before = [initial] + y[:-1]
        swept = [p + min(max(t - p, -step), step) for t, p in zip(targets, before)]
        if np.array(swept).tobytes() == np.array(y).tobytes():
            return True
        y = swept
    return False


_level = st.floats(min_value=-1.0, max_value=1.0)


@st.composite
def _slew_batches(draw):
    """``(targets, max_step, initials)``: scalar or per-lane step."""
    n_lanes = draw(st.integers(1, 4))
    n = draw(st.integers(0, 40))
    rows = draw(
        st.lists(
            st.lists(_level, min_size=n, max_size=n),
            min_size=n_lanes,
            max_size=n_lanes,
        )
    )
    step = st.floats(min_value=1e-3, max_value=1.5)
    if draw(st.booleans()):
        max_step = draw(step)
    else:
        max_step = np.array(
            draw(st.lists(step, min_size=n_lanes, max_size=n_lanes))
        )
    initials = draw(st.lists(_level, min_size=n_lanes, max_size=n_lanes))
    return (
        np.array(rows, dtype=np.float64).reshape(n_lanes, n),
        max_step,
        np.array(initials, dtype=np.float64),
    )


class TestFrontierRelaxation:
    """The numpy batch slew limiter is the sequential recurrence, bit for bit."""

    @given(_slew_batches())
    @settings(max_examples=150, deadline=None)
    def test_settled_lanes_equal_the_sequential_loop(self, batch):
        # Every lane: settled by the sweeps, or finished by the
        # reference loop.
        targets, max_step, initials = batch
        out = numpy_backend._slew_limit_relax(targets, max_step, initials)
        assert out.shape == targets.shape
        steps = np.broadcast_to(max_step, initials.shape)
        for lane in range(targets.shape[0]):
            args = (list(targets[lane]), float(steps[lane]), float(initials[lane]))
            assert out[lane].tobytes() == _sequential(*args).tobytes()

    @given(_slew_batches())
    @settings(max_examples=100, deadline=None)
    def test_lanes_are_independent(self, batch):
        targets, max_step, initials = batch
        out = numpy_backend._slew_limit_relax(targets, max_step, initials)
        for lane in range(targets.shape[0]):
            step = max_step
            if isinstance(max_step, np.ndarray):
                step = max_step[lane : lane + 1]
            alone = numpy_backend._slew_limit_relax(
                targets[lane : lane + 1], step, initials[lane : lane + 1]
            )
            assert out[lane].tobytes() == alone[0].tobytes()

    def test_corpus_lanes_settle_and_match(self):
        # At this step every corpus lane catches its target within the
        # cap, so none of them leans on the reference loop.
        values = _lane_corpus()
        initials = np.linspace(-0.5, 0.5, values.shape[0])
        out = numpy_backend._slew_limit_relax(values, 0.15, initials)
        for lane in range(values.shape[0]):
            args = (list(values[lane]), 0.15, float(initials[lane]))
            assert _settles(*args)
            assert out[lane].tobytes() == _sequential(*args).tobytes()

    def test_ramp_past_the_cap_takes_the_walk(self, monkeypatch):
        cap = numpy_backend._RELAX_MAX_SWEEPS
        step = 0.004  # a 0 -> 1 ramp spans 250 samples, beyond the cap
        ramp = np.concatenate([np.zeros(20), np.ones(cap + 200)])
        flat = np.full_like(ramp, 0.25)
        targets = np.stack([flat, ramp])
        walked = []
        walk = numpy_backend.slew_limit  # the python reference loop

        def spy(values, max_step, initial):
            walked.append(values.size)
            return walk(values, max_step, initial)

        monkeypatch.setattr(numpy_backend, "slew_limit", spy)
        out = numpy_backend._slew_limit_relax(targets, step, np.zeros(2))
        assert walked == [ramp.size]
        assert out[1].tobytes() == walk(ramp, step, 0.0).tobytes()
        assert out[1].tobytes() == _sequential(list(ramp), step, 0.0).tobytes()
        assert out[0].tobytes() == _sequential(list(flat), step, 0.0).tobytes()


class TestCompressiveSlewLimitBatch:
    """A many-lane one-stage compressive cascade against its lanes."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_matches_per_lane(self, backend):
        values = _lane_corpus()
        stage, lane_stages, dt = _compressive_stage(values.shape[0])
        with kernels.use_backend(backend):
            batched = kernels.fine_delay_cascade_batch(values, [stage], dt)
            lanes = [
                kernels.fine_delay_cascade(values[i], [lane_stage], dt)
                for i, lane_stage in enumerate(lane_stages)
            ]
        for i, lane in enumerate(lanes):
            assert batched[i].tobytes() == lane.tobytes()

    def test_cross_backend_agreement(self):
        values = _lane_corpus(seed=47)
        stage, _, dt = _compressive_stage(values.shape[0], seed=3)
        with kernels.use_backend("python"):
            reference = kernels.fine_delay_cascade_batch(values, [stage], dt)
        for backend in ALTERNATES:
            with kernels.use_backend(backend):
                other = kernels.fine_delay_cascade_batch(values, [stage], dt)
            assert other.tobytes() == reference.tobytes()


class TestRaggedKernelBatches:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_match_edges_batch_matches_per_lane(self, backend):
        rng = np.random.default_rng(777)
        ref = np.sort(rng.uniform(0, 20e-9, 50))
        out_sets = [
            np.sort(rng.uniform(0, 20e-9, int(rng.integers(10, 80))))
            for _ in range(6)
        ]
        coarses = rng.normal(0, 200e-12, 6)
        window = 400e-12
        with kernels.use_backend(backend):
            batched = kernels.match_edges_batch(ref, out_sets, coarses, window)
            lanes = [
                kernels.match_edges(ref, out_sets[i], float(coarses[i]), window)
                for i in range(6)
            ]
        assert len(batched) == 6
        for got, expected in zip(batched, lanes):
            np.testing.assert_array_equal(got, expected)


class TestBatchedStageEquivalence:
    """Batched circuit stages vs per-lane sequential, per-lane streams."""

    @pytest.mark.parametrize("backend", kernels.BACKEND_NAMES)
    def test_limiting_stage_batch_bit_exact(self, backend):
        """``limiting_stage_batch`` and ``VariableGainBuffer.process_batch``
        equal per-lane ``process`` calls byte for byte."""
        stimulus = calibration_stimulus(n_bits=31, dt=1e-12)
        buffer = VariableGainBuffer(vctrl=0.8, seed=5)
        n_lanes = 3
        batch = WaveformBatch.tiled(stimulus, n_lanes)
        entries = {
            "limiting_stage_batch": lambda rngs: limiting_stage_batch(
                batch, buffer.params.amplitude_from_vctrl(0.8),
                buffer.params, rngs
            ),
            "process_batch": lambda rngs: buffer.process_batch(batch, rngs),
        }
        with kernels.use_backend(backend):
            rngs = spawn_rngs(np.random.default_rng(11), n_lanes)
            lanes = [buffer.process(stimulus, rngs[i]) for i in range(n_lanes)]
            for name, entry in entries.items():
                batched = entry(spawn_rngs(np.random.default_rng(11), n_lanes))
                for i, lane in enumerate(lanes):
                    assert (
                        batched.lane(i).values.tobytes()
                        == lane.values.tobytes()
                    ), name
                    assert batched.lane(i).t0 == lane.t0, name

    def test_limiting_stage_batch_numpy_tolerance(self):
        # Redundant: test_limiting_stage_batch_bit_exact checks these
        # bytes on numpy too.
        stimulus = calibration_stimulus(n_bits=31, dt=1e-12)
        buffer = VariableGainBuffer(vctrl=0.8, seed=5)
        n_lanes = 3
        batch = WaveformBatch.tiled(stimulus, n_lanes)
        with kernels.use_backend("numpy"):
            rngs = spawn_rngs(np.random.default_rng(11), n_lanes)
            batched = buffer.process_batch(batch, rngs)
            rngs = spawn_rngs(np.random.default_rng(11), n_lanes)
            lanes = [buffer.process(stimulus, rngs[i]) for i in range(n_lanes)]
        for i, lane in enumerate(lanes):
            np.testing.assert_allclose(
                batched.lane(i).values, lane.values, atol=1e-9, rtol=0
            )


class TestBatchedDelayContract:
    """The cross-backend byte contract holds on batched paths."""

    def _batched_delays(self, backend):
        with kernels.use_backend(backend):
            stimulus = calibration_stimulus(n_bits=63, dt=1e-12)
            buffer = VariableGainBuffer(vctrl=0.9, seed=7)
            batch = WaveformBatch.tiled(stimulus, 3)
            rngs = spawn_rngs(np.random.default_rng(3), 3)
            out = buffer.process_batch(batch, rngs)
            return [m.delay for m in measure_delays_batch(stimulus, out)]

    def test_batched_delay_measurement_across_backends(self):
        reference = self._batched_delays("python")
        for backend in ALTERNATES:
            delays = self._batched_delays(backend)
            assert delays == reference

    def test_measure_delays_batch_equals_measure_delay(self):
        stimulus = calibration_stimulus(n_bits=63, dt=1e-12)
        buffer = VariableGainBuffer(vctrl=0.7, seed=2)
        rngs = spawn_rngs(np.random.default_rng(8), 3)
        outputs = [buffer.process(stimulus, rngs[i]) for i in range(3)]
        batched = measure_delays_batch(stimulus, outputs)
        for lane, result in zip(outputs, batched):
            single = measure_delay(stimulus, lane)
            assert result.delay == single.delay
            assert result.std == single.std
            assert result.n_edges == single.n_edges
