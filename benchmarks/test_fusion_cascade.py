"""Fused-cascade benchmarks: the PR 5 tentpole acceptance numbers.

The fused ``fine_delay_cascade`` kernel runs the whole N-stage buffer
chain in one call, eliminating the per-stage Waveform round-trips,
filter-state solves, duplicate percentile passes and kernel dispatch of
the per-stage chain (each stage's own ``process``).  Both paths slew
by the same kernel (on numpy, frontier relaxation), so the gain is
the overhead removed, not a different slew strategy.

Acceptance bar: **>= 2x** for the fused 4-stage cascade vs the
per-stage chain on the numpy backend, on an edge-dense record (a PRBS9
pattern at scope-grade sampling — the regime campaigns actually run).
"""

import time

import numpy as np
import pytest

from repro import kernels
from repro.core import FineDelayLine
from repro.signals import prbs_sequence, synthesize_nrz

BACKENDS = kernels.BACKEND_NAMES


def _per_stage(line, waveform, rng):
    """The per-stage reference: chain every stage's own ``process``."""
    result = waveform
    for stage in line.stages:
        result = stage.process(result, rng)
    return line.output_stage.process(result, rng)


def _per_stage_batch(line, batch, rngs, vctrls):
    result = batch
    for stage in line.stages:
        result = stage.process_batch(result, rngs, vctrl=vctrls)
    return line.output_stage.process_batch(result, rngs)


def _best_of(fn, repeats: int = 7) -> float:
    """Smallest wall-clock of *repeats* calls (CI-noise-resistant)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.fixture(scope="module")
def prbs9_stimulus():
    """An edge-dense record: PRBS9 at 4 Gbps, 16 samples per bit."""
    return synthesize_nrz(prbs_sequence(9, 511), 4e9, 1.0 / (4e9 * 16))


@pytest.fixture(params=BACKENDS)
def backend(request):
    with kernels.use_backend(request.param) as name:
        yield name


def test_perf_fused_cascade(benchmark, backend, prbs9_stimulus):
    """Track the fused 4-stage cascade's absolute cost per backend."""
    line = FineDelayLine(n_stages=4, seed=42)
    benchmark.extra_info["kernel_backend"] = backend

    def run():
        return line.process(prbs9_stimulus, np.random.default_rng(1))

    out = benchmark(run)
    assert len(out) == len(prbs9_stimulus)


def test_perf_fused_cascade_speedup_numpy(prbs9_stimulus):
    """The acceptance bar: fused >= 2x the per-stage chain on numpy."""
    with kernels.use_backend("numpy"):
        line = FineDelayLine(n_stages=4, seed=42)

        def fused():
            line.process(prbs9_stimulus, np.random.default_rng(1))

        def unfused():
            _per_stage(line, prbs9_stimulus, np.random.default_rng(1))

        fused()
        unfused()
        fused_time = _best_of(fused)
        unfused_time = _best_of(unfused)
    speedup = unfused_time / fused_time
    print(
        f"\ncascade 4-stage: per-stage {unfused_time * 1e3:.1f} ms, "
        f"fused {fused_time * 1e3:.1f} ms, {speedup:.2f}x"
    )
    assert speedup >= 2.0, (
        f"fused cascade only {speedup:.2f}x faster than the per-stage "
        f"path ({fused_time * 1e3:.1f} ms vs {unfused_time * 1e3:.1f} ms)"
    )


def test_perf_fused_cascade_batch_speedup_numpy(prbs9_stimulus):
    """Fusion composes with the batch axis: a 4-lane batched cascade
    through the fused kernel vs the per-stage batched path."""
    from repro.signals.waveform import WaveformBatch

    values = np.stack([prbs9_stimulus.values] * 4)
    batch = WaveformBatch(values, prbs9_stimulus.dt, np.zeros(4))
    vctrls = np.array([0.2, 0.6, 1.0, 1.4])
    with kernels.use_backend("numpy"):
        line = FineDelayLine(n_stages=4, seed=42)

        def rngs():
            return [np.random.default_rng(i) for i in range(4)]

        def fused():
            line.process_batch(batch, rngs(), vctrls=vctrls)

        def unfused():
            _per_stage_batch(line, batch, rngs(), vctrls)

        fused()
        unfused()
        fused_time = _best_of(fused, repeats=5)
        unfused_time = _best_of(unfused, repeats=5)
    speedup = unfused_time / fused_time
    print(
        f"\ncascade 4-stage x4 lanes: per-stage {unfused_time * 1e3:.1f} ms, "
        f"fused {fused_time * 1e3:.1f} ms, {speedup:.2f}x"
    )
    # The batched per-stage path already amortises dispatch and array
    # passes across lanes, so fusion's win here is the Waveform churn
    # and filter-state solves only (~1.1x measured).  The bar is
    # no-regression, with headroom for timer noise on a busy CI box.
    assert speedup >= 0.9, (
        f"fused batched cascade regressed: {speedup:.2f}x"
    )
