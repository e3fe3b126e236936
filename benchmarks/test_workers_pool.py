"""Benchmarks of the distributed worker pool.

Two claims are measured on a compute-bound campaign spec:

* sharding across 2 spawned workers beats 1 worker by >= 1.8x
  wall-clock (the scheduler keeps both busy and the tail is
  rebalanced by work stealing) — asserted only on multi-core hosts,
  recorded everywhere;
* the sharded results are byte-identical to the single-worker run
  (per-point identity seeding makes the schedule invisible).

Worker-process boot (python + numpy import) is excluded from the
timed region: the pool is started and fully connected before the
clock starts, matching how a long campaign amortises startup.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.campaign.spec import CampaignSpec, expand_points
from repro.signals.waveform import WaveformBatch
from repro.workers import WorkerPool
from repro.workers.protocol import decode_tree, encode_tree

#: Compute-bound: 8 points x ~0.25 s each, no caching anywhere.
SPEC = {
    "name": "bench-workers",
    "scenario": "range",
    "seed": 177,
    "n_instances": 4,
    "base": {"n_bits": 48, "n_points": 5, "measure_jitter": False},
    "sweeps": [{"name": "bit_rate", "values": ["2.4 Gbps", "4.8 Gbps"]}],
}


def run_sharded(workers_spec, points):
    """Time pool.run only (workers already booted and connected)."""
    got = {}
    with WorkerPool(workers_spec, deadline=120.0) as pool:
        pool.start()
        pool.wait_for_workers(timeout=120)
        t0 = time.perf_counter()
        pool.run(
            points,
            on_result=lambda p, m, d, s: got.__setitem__(p.index, m),
        )
        elapsed = time.perf_counter() - t0
    return elapsed, got


def test_perf_two_spawn_workers_throughput():
    points = expand_points(CampaignSpec.from_dict(SPEC))
    one_t, one_got = run_sharded("spawn://1", points)
    two_t, two_got = run_sharded("spawn://2", points)
    assert sorted(one_got) == sorted(two_got) == [p.index for p in points]
    assert json.dumps(one_got, sort_keys=True) == json.dumps(
        two_got, sort_keys=True
    )
    speedup = one_t / two_t
    print(
        f"\n  spawn://1: {one_t:.2f} s   spawn://2: {two_t:.2f} s   "
        f"speedup: {speedup:.2f}x  (cores: {os.cpu_count()})"
    )
    if (os.cpu_count() or 1) >= 2:
        # On a multi-core host two workers must nearly halve the
        # wall-clock of a compute-bound campaign.
        assert speedup >= 1.8, (
            f"2 spawned workers only {speedup:.2f}x over 1 "
            f"(want >= 1.8x): {one_t:.2f}s -> {two_t:.2f}s"
        )


def test_perf_wire_codec_round_trip(benchmark):
    """Serialized result codec on a waveform-heavy payload."""
    rng = np.random.default_rng(3)
    payload = {
        "batch": WaveformBatch(
            rng.normal(size=(8, 4096)), 1e-12, t0=np.zeros(8)
        ),
        "metrics": {"total_range_s": 1.47e-10, "points": 9},
    }

    def round_trip():
        frames = []
        encoded = encode_tree(payload, frames)
        return decode_tree(encoded, frames)

    decoded = benchmark.pedantic(round_trip, rounds=5, iterations=2)
    assert np.array_equal(
        decoded["batch"].values, payload["batch"].values
    )
