"""Microbenchmarks of the simulation hot paths.

Unlike the figure benchmarks (single-shot experiments), these are true
repeated-measurement microbenchmarks tracking the cost of the inner
loops: slew tracking, one full buffer stage, waveform synthesis, and
the edge-matched delay measurement.

The hot loops dispatch through :mod:`repro.kernels`, so the kernel
benchmarks are parametrised over both backends (``python`` reference
and ``numpy`` array-vectorised).  Compare with::

    PYTHONPATH=src python -m pytest benchmarks/test_micro_performance.py \
        --benchmark-group-by=func

The end-to-end benchmark runs the paper's headline application — an
8-channel bus deskewed to < 5 ps — under the default (numpy) backend.
"""

import time

import numpy as np
import pytest

from repro import kernels
from repro.analysis import measure_delay
from repro.ate import DeskewController, ParallelBus
from repro.circuits import VariableGainBuffer
from repro.core import FineDelayLine, calibrate_fine_delay, calibration_stimulus
from repro.kernels import numpy_backend, python_backend
from repro.signals import prbs_sequence, synthesize_nrz

BACKENDS = kernels.BACKEND_NAMES


@pytest.fixture(scope="module")
def stimulus():
    return calibration_stimulus(n_bits=127, dt=1e-12)


@pytest.fixture(params=BACKENDS)
def backend(request):
    """Run the benchmark under each available kernel backend."""
    with kernels.use_backend(request.param) as name:
        yield name


def test_perf_slew_limit(benchmark, backend):
    target = np.sin(np.linspace(0, 300.0, 50_000)) * 0.4
    benchmark.extra_info["kernel_backend"] = backend
    # The backend's slew step on one lane, as the cascade runs it: the
    # reference recurrence on python, the frontier relaxation on numpy.
    if backend == "numpy":
        slew = numpy_backend._slew_limit_relax
        args = (target[None, :], 0.05, target[:1])
    else:
        slew = python_backend.slew_limit
        args = (target, 0.05, float(target[0]))
    result = benchmark(slew, *args)
    assert result.size == target.size


def test_perf_buffer_stage(benchmark, backend, stimulus):
    buffer = VariableGainBuffer(vctrl=0.75, seed=1)
    benchmark.extra_info["kernel_backend"] = backend

    def run():
        return buffer.process(stimulus, np.random.default_rng(2))

    out = benchmark(run)
    assert out.amplitude() > 0.1


def test_perf_nrz_synthesis(benchmark):
    bits = prbs_sequence(7, 500)
    out = benchmark(synthesize_nrz, bits, 6.4e9, 1e-12)
    assert len(out) > 0


def test_perf_measure_delay(benchmark, backend, stimulus):
    shifted = stimulus.shifted(40e-12)
    benchmark.extra_info["kernel_backend"] = backend
    result = benchmark(measure_delay, stimulus, shifted)
    assert result.delay == pytest.approx(40e-12, abs=1e-15)


def test_perf_hysteresis_extraction(benchmark, backend, stimulus):
    from repro.signals import crossing_times_hysteresis

    buffer = VariableGainBuffer(vctrl=0.75, seed=1)
    out = buffer.process(stimulus, np.random.default_rng(2))
    benchmark.extra_info["kernel_backend"] = backend
    edges = benchmark(crossing_times_hysteresis, out, 0.0, 0.05)
    assert edges.size > 10


def test_perf_deskew_8_channels(benchmark):
    """End-to-end: calibrate and deskew the paper's 8-channel bus.

    Exercises every layer at once — NRZ synthesis, the buffer chain
    per channel, edge extraction, delay measurement, and the iterated
    correction loop — under the default (numpy) kernel backend.
    """
    with kernels.use_backend("auto"):
        bus = ParallelBus(n_channels=8, seed=42)
        bus.calibrate_delay_lines(n_points=5)
        controller = DeskewController(bus, n_bits=40, max_iterations=2)

        def run():
            return controller.deskew(rng=np.random.default_rng(7))

        report = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report.final_spread < 200e-12


def _best_of(fn, repeats: int = 7) -> float:
    """Smallest wall-clock time of *repeats* calls, in seconds.

    Minimum (not mean) so that scheduler noise on a shared CI box
    cannot inflate either side of a speedup ratio.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_perf_batched_bus_acquire_speedup():
    """Rendering all 8 bus channels as one batch beats the channel loop.

    The sequential loop pays the Python-level call and kernel-dispatch
    overhead of every circuit stage once per channel; the batched path
    pays it once per stage, sharing each array pass across the lanes.
    The PR 2 acceptance bar is a >= 3x speedup on the numpy backend at
    scope-grade sampling.
    """
    with kernels.use_backend("numpy"):
        bus = ParallelBus(n_channels=8, skew_spread=150e-12, seed=7)
        pattern = bus.training_bits(63)

        def batched():
            bus.acquire(
                pattern, rng=np.random.default_rng(3), dt=1e-11, batch=True
            )

        def looped():
            bus.acquire(
                pattern, rng=np.random.default_rng(3), dt=1e-11, batch=False
            )

        batched()
        looped()
        batch_time = _best_of(batched)
        loop_time = _best_of(looped)
    speedup = loop_time / batch_time
    print(
        f"\nacquire 8ch: loop {loop_time * 1e3:.1f} ms, "
        f"batch {batch_time * 1e3:.1f} ms, {speedup:.2f}x"
    )
    assert speedup >= 3.0, (
        f"batched acquire only {speedup:.2f}x faster than the loop "
        f"({batch_time * 1e3:.1f} ms vs {loop_time * 1e3:.1f} ms)"
    )


def test_perf_batched_calibration_sweep_speedup():
    """One batched 13-point Vctrl sweep beats the point-by-point loop.

    Same acceptance bar as the bus acquisition: >= 3x on the numpy
    backend.  The batch renders the whole control-voltage grid as one
    WaveformBatch pass and measures every lane against the stimulus
    from a single batched record.
    """
    with kernels.use_backend("numpy"):
        stimulus = calibration_stimulus(n_bits=24, dt=1e-11)
        line = FineDelayLine(seed=3)

        def batched():
            calibrate_fine_delay(
                line,
                stimulus=stimulus,
                n_points=13,
                rng=np.random.default_rng(2),
                batch=True,
            )

        def looped():
            calibrate_fine_delay(
                line,
                stimulus=stimulus,
                n_points=13,
                rng=np.random.default_rng(2),
                batch=False,
            )

        batched()
        looped()
        batch_time = _best_of(batched)
        loop_time = _best_of(looped)
    speedup = loop_time / batch_time
    print(
        f"\ncalibrate 13pt: loop {loop_time * 1e3:.1f} ms, "
        f"batch {batch_time * 1e3:.1f} ms, {speedup:.2f}x"
    )
    assert speedup >= 3.0, (
        f"batched calibration only {speedup:.2f}x faster than the loop "
        f"({batch_time * 1e3:.1f} ms vs {loop_time * 1e3:.1f} ms)"
    )
