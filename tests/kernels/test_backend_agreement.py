"""Property tests: every kernel backend computes the same bytes.

Contract (see :mod:`repro.kernels` and DESIGN.md, "Kernel layer"):
``numpy`` and ``python`` give byte-identical results, kernel by kernel
and end to end (delay measurements included), so every comparison here
is exact.

The corpus is a seeded grid (deterministic, CI-stable) spanning the
regimes the simulator actually produces — tanh-limited data edges,
slow sine targets, random walks, white noise, constants — plus
hypothesis sweeps for the scalar-parameter spaces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.analysis import measure_delay
from repro.kernels import numpy_backend, python_backend
from repro.kernels.cascade import CascadeStageState
from repro.circuits import VariableGainBuffer
from repro.core import EventDelayModel, FineDelayLine, calibration_stimulus
from repro.signals import crossing_times_hysteresis, synthesize_nrz

ALTERNATES = tuple(name for name in kernels.BACKEND_NAMES if name != "python")


@pytest.fixture(autouse=True)
def _restore_backend():
    previous = kernels.active_backend()
    yield
    kernels.set_backend(previous)


def _target_corpus():
    """Seeded grid of (values, max_step, initial) slew-limiter cases."""
    rng = np.random.default_rng(2008)
    cases = []
    for trial in range(60):
        n = int(rng.integers(2, 4000))
        kind = trial % 5
        if kind == 0:  # tanh-limited data edges (the simulator's diet)
            period = rng.uniform(8, 200)
            v = np.tanh(
                np.sign(np.sin(2 * np.pi * np.arange(n) / period))
                * rng.uniform(0.5, 4.0)
            )
        elif kind == 1:  # slow sine
            v = rng.uniform(0.1, 1.0) * np.sin(
                2 * np.pi * np.arange(n) / rng.uniform(50, 2000)
            )
        elif kind == 2:  # random walk
            v = np.cumsum(rng.normal(0, rng.uniform(0.001, 0.3), n))
        elif kind == 3:  # white noise
            v = rng.normal(0, rng.uniform(0.1, 1.0), n)
        else:  # constant
            v = np.full(n, rng.normal())
        max_step = float(rng.uniform(0.002, 0.8))
        initial = None if trial % 2 else float(rng.normal())
        cases.append((v, max_step, initial))
    return cases


def _compressive_corpus():
    rng = np.random.default_rng(1964)
    cases = []
    for trial in range(40):
        n = int(rng.integers(2, 4000))
        period = rng.uniform(10, 400)
        v = np.sin(2 * np.pi * np.arange(n) / period)
        v += rng.normal(0, 0.2, n)
        floor = np.full(n, rng.uniform(0.05, 0.2))
        extra = np.abs(np.tanh(v)) * rng.uniform(0.1, 0.6)
        cases.append(
            dict(
                v_in=v,
                target_floor=floor,
                target_extra=extra,
                max_step=float(rng.uniform(0.01, 0.3)),
                dt=1e-12,
                hysteresis=float(rng.uniform(0.0, 0.4)),
                corner=float(rng.uniform(1e9, 20e9)),
                order=int(rng.integers(1, 5)),
                initial_interval=float(rng.uniform(20e-12, 1.0)),
            )
        )
    return cases


def _edge_corpus():
    rng = np.random.default_rng(777)
    cases = []
    for _ in range(60):
        n_ref = int(rng.integers(1, 80))
        n_out = int(rng.integers(1, 80))
        ref = np.sort(rng.uniform(0, 20e-9, n_ref))
        out = np.sort(rng.uniform(0, 20e-9, n_out))
        coarse = float(rng.normal(0, 200e-12))
        window = float(rng.uniform(5e-12, 2e-9))
        cases.append((ref, out, coarse, window))
    return cases


def _run_on(backend, func, *args, **kwargs):
    with kernels.use_backend(backend):
        return func(*args, **kwargs)


def _slew_limit(values, max_step, initial=None):
    """The active backend's slew loop.  numpy's is the reference loop
    itself, which its relaxation falls back to past the sweep cap, so
    the slew-loop agreement tests compare one function with itself."""
    start = float(values[0]) if initial is None else float(initial)
    return kernels.get_backend().slew_limit(values, max_step, start)


def _compressive_slew_limit(
    v_in,
    target_floor,
    target_extra,
    max_step,
    dt,
    hysteresis,
    corner,
    order,
    initial_interval,
):
    """One fresh record through the active backend's compressive stage
    internals: the python reference loop, or numpy's comparator target
    builder followed by the frontier relaxation."""
    if kernels.active_backend() == "python":
        return python_backend.compressive_slew_limit_carry(
            v_in, target_floor, target_extra, max_step, dt, hysteresis,
            corner, order, initial_interval, 0, 0, 0.0, 1.0, 0.0, False,
        )[0]
    carry = CascadeStageState()
    carry.freeze_stats([hysteresis], [initial_interval])
    target, y_start = numpy_backend._compressive_target(
        v_in[None, :],
        target_floor[None, :],
        target_extra[None, :],
        dt,
        corner,
        order,
        carry,
    )
    return numpy_backend._slew_limit_relax(target, max_step, y_start)[0]


class TestSlewLimitAgreement:
    @pytest.mark.parametrize("backend", ALTERNATES)
    def test_corpus_agreement(self, backend):
        for v, max_step, initial in _target_corpus():
            reference = _run_on("python", _slew_limit, v, max_step, initial)
            other = _run_on(backend, _slew_limit, v, max_step, initial)
            assert other.tobytes() == reference.tobytes()

    @given(
        st.floats(min_value=0.005, max_value=0.5),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_walks_agree(self, max_step, seed):
        rng = np.random.default_rng(seed)
        v = np.cumsum(rng.normal(0, 0.1, 400))
        reference = _run_on("python", _slew_limit, v, max_step)
        vectorised = _run_on("numpy", _slew_limit, v, max_step)
        assert vectorised.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("backend", ALTERNATES)
    def test_slew_constraint_holds(self, backend):
        # Whatever the backend, the defining invariant must hold.
        rng = np.random.default_rng(5)
        v = rng.normal(0, 1, 1000)
        out = _run_on(backend, _slew_limit, v, 0.05)
        assert np.max(np.abs(np.diff(out))) <= 0.05 + 1e-12


class TestCompressiveAgreement:
    @pytest.mark.parametrize("backend", ALTERNATES)
    def test_corpus_agreement(self, backend):
        for case in _compressive_corpus():
            reference = _run_on(
                "python", _compressive_slew_limit, **case
            )
            other = _run_on(backend, _compressive_slew_limit, **case)
            assert other.tobytes() == reference.tobytes()


class TestEdgeKernelAgreement:
    @pytest.mark.parametrize("backend", ALTERNATES)
    def test_match_edges_corpus(self, backend):
        for ref, out, coarse, window in _edge_corpus():
            reference = _run_on(
                "python", kernels.match_edges, ref, out, coarse, window
            )
            other = _run_on(
                backend, kernels.match_edges, ref, out, coarse, window
            )
            assert other.shape == reference.shape
            assert other.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("backend", ALTERNATES)
    def test_hysteresis_corpus(self, backend):
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(2, 3000))
            v = np.sin(2 * np.pi * np.arange(n) / rng.uniform(10, 400))
            v += rng.normal(0, 0.3, n)
            hysteresis = float(rng.uniform(0.01, 1.2))
            ref_pos, ref_rising = _run_on(
                "python", kernels.hysteresis_crossings, v, hysteresis
            )
            pos, rising = _run_on(
                backend, kernels.hysteresis_crossings, v, hysteresis
            )
            np.testing.assert_array_equal(pos, ref_pos)
            np.testing.assert_array_equal(rising, ref_rising)

    @pytest.mark.parametrize("backend", ALTERNATES)
    def test_nearest_margin_corpus(self, backend):
        rng = np.random.default_rng(314)
        for _ in range(40):
            probe = np.sort(rng.uniform(0, 1e-8, int(rng.integers(1, 50))))
            data = np.sort(rng.uniform(0, 1e-8, int(rng.integers(1, 50))))
            a = _run_on("python", kernels.nearest_edge_margin, probe, data)
            b = _run_on(backend, kernels.nearest_edge_margin, probe, data)
            assert a == b


class TestEndToEndAgreement:
    """The acceptance contract: delay measurements agree exactly."""

    def _measured_delay(self, backend):
        with kernels.use_backend(backend):
            stimulus = calibration_stimulus(n_bits=63, dt=1e-12)
            buffer = VariableGainBuffer(vctrl=0.9, seed=7)
            out = buffer.process(stimulus, np.random.default_rng(3))
            return measure_delay(stimulus, out).delay

    def test_buffer_delay_measurement_across_backends(self):
        reference = self._measured_delay("python")
        for backend in ALTERNATES:
            assert self._measured_delay(backend) == reference

    def test_hysteresis_extraction_on_noisy_buffer_output(self):
        stimulus = calibration_stimulus(n_bits=31, dt=1e-12)
        buffer = VariableGainBuffer(vctrl=0.75, seed=1)
        out = buffer.process(stimulus, np.random.default_rng(9))
        results = {}
        for backend in ("python",) + ALTERNATES:
            with kernels.use_backend(backend):
                results[backend] = crossing_times_hysteresis(
                    out, threshold=0.0, hysteresis=0.05
                )
        reference = results["python"]
        assert reference.size > 10
        for backend in ALTERNATES:
            assert results[backend].shape == reference.shape
            assert results[backend].tobytes() == reference.tobytes()

    def test_fine_delay_line_vs_event_model_after_kernel_swap(self):
        # The documented waveform-vs-event tolerance (25 ps, see
        # tests/core/test_event_model.py) must survive the kernel swap
        # on every backend.
        stimulus = synthesize_nrz(
            [0, 1, 1, 0, 1, 0, 0, 1] * 4, 2.4e9, 1e-12
        )
        model = EventDelayModel()
        for backend in ("python",) + ALTERNATES:
            with kernels.use_backend(backend):
                line = FineDelayLine(seed=11)
                line.vctrl = 0.75
                out = line.process(stimulus, np.random.default_rng(2))
                measured = measure_delay(stimulus, out).delay
            predicted = model.total_delay(0.75, half_period=1 / 2.4e9)
            assert predicted == pytest.approx(measured, abs=25e-12)


class TestDroppedEdgeRobustness:
    @pytest.mark.parametrize("backend", ("python",) + ALTERNATES)
    def test_unique_matching_on_all_backends(self, backend):
        # Out trace misses one edge; the duplicate-grant bias must be
        # gone on every backend.
        period = 100e-12
        ref = period * np.arange(10)
        delay = 40e-12
        out = np.delete(ref + delay, 5)
        with kernels.use_backend(backend):
            offsets = kernels.match_edges(ref, out, delay, 1.5 * period)
        assert offsets.size == 9
        np.testing.assert_allclose(offsets, delay, atol=1e-18)
