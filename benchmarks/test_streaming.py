"""Streaming-engine benchmarks: the PR 6 tentpole acceptance numbers.

The streaming path exists for memory, not speed: it runs the same
kernels chunk by chunk while carrying recurrence state, so its cost per
sample should track the monolithic path with a bounded state-carry
overhead.  These benchmarks pin that contract:

* the chunked fine-delay stream completes within **2.5x** the
  monolithic wall-clock on the numpy backend (the state carry,
  per-chunk noise draws and plan rebuilds are the only extras);
* the chunked NRZ source renders within **3x** of the one-shot
  ``synthesize_nrz`` (it re-renders one Gaussian guard band per chunk).

Both also publish absolute timings to the ``--bench-json`` artifact so
``compare_bench.py`` gates build-over-build regressions.
"""

import time

import pytest

from repro import kernels
from repro.core import FineDelayLine
from repro.signals import NRZStreamSource, prbs_sequence, synthesize_nrz
from repro.signals.waveform import Waveform

BACKENDS = kernels.BACKEND_NAMES


def _best_of(fn, repeats: int = 7) -> float:
    """Smallest wall-clock of *repeats* calls (CI-noise-resistant)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _interleaved_best(first, second, calls: int = 1000):
    """Smallest wall-clock of each of two functions over *calls* calls
    apiece, timed in turn so both see the same phases of a busy box."""
    best = [float("inf"), float("inf")]
    for _ in range(calls):
        for k, fn in enumerate((first, second)):
            start = time.perf_counter()
            fn()
            best[k] = min(best[k], time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def prbs9_stimulus():
    """An edge-dense record: PRBS9 at 4 Gbps, 16 samples per bit."""
    return synthesize_nrz(prbs_sequence(9, 511), 4e9, 1.0 / (4e9 * 16))


def _chunks(waveform, size):
    n = len(waveform)
    return [
        Waveform(
            waveform.values[a : a + size],
            waveform.dt,
            waveform.t0 + waveform.dt * a,
        )
        for a in range(0, n, size)
    ]


@pytest.fixture(params=BACKENDS)
def backend(request):
    with kernels.use_backend(request.param) as name:
        yield name


def test_perf_streamed_cascade(benchmark, backend, prbs9_stimulus):
    """Track the absolute cost of a chunked 4-stage stream per backend."""
    line = FineDelayLine(n_stages=4, seed=42)
    chunks = _chunks(prbs9_stimulus, 1024)
    benchmark.extra_info["kernel_backend"] = backend

    def run():
        processor = line.open_stream()
        return [processor.push(c) for c in chunks]

    outs = benchmark(run)
    assert sum(len(o) for o in outs) == len(prbs9_stimulus)


def test_perf_streaming_overhead_numpy(prbs9_stimulus):
    """The tentpole bound: chunked <= 2.5x monolithic wall-clock."""
    with kernels.use_backend("numpy"):
        chunks = _chunks(prbs9_stimulus, 1024)
        line = FineDelayLine(n_stages=4, seed=42)

        def monolithic():
            line.process(prbs9_stimulus)

        def streamed():
            processor = line.open_stream()
            for chunk in chunks:
                processor.push(chunk)

        monolithic()
        streamed()
        mono_time = _best_of(monolithic)
        stream_time = _best_of(streamed)
    overhead = stream_time / mono_time
    print(
        f"\nstream 4-stage x{len(chunks)} chunks: monolithic "
        f"{mono_time * 1e3:.1f} ms, streamed {stream_time * 1e3:.1f} ms, "
        f"{overhead:.2f}x"
    )
    assert overhead <= 2.5, (
        f"streamed cascade costs {overhead:.2f}x the monolithic path "
        f"({stream_time * 1e3:.1f} ms vs {mono_time * 1e3:.1f} ms)"
    )


def test_perf_nrz_stream_source_overhead():
    """Chunked NRZ synthesis <= 3x the one-shot renderer (guard-band
    re-rendering is the only duplicated work)."""
    bits = prbs_sequence(9, 511)
    dt = 1.0 / (4e9 * 16)

    def monolithic():
        synthesize_nrz(bits, 4e9, dt)

    def streamed():
        for _ in NRZStreamSource(bits, 4e9, dt, chunk_samples=1024):
            pass

    # Each call takes a fraction of a millisecond, so a best of a few
    # calls swings with the box; the minima of many interleaved calls
    # do not.
    mono_time, stream_time = _interleaved_best(monolithic, streamed)
    overhead = stream_time / mono_time
    print(
        f"\nNRZ source: one-shot {mono_time * 1e3:.2f} ms, chunked "
        f"{stream_time * 1e3:.2f} ms, {overhead:.2f}x"
    )
    assert overhead <= 3.0, (
        f"chunked NRZ synthesis costs {overhead:.2f}x the one-shot path"
    )
