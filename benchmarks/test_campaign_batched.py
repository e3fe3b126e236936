"""Benchmarks of lane-packed campaign evaluation.

Three claims are measured on a 64-point range campaign:

* packing amortises fused-kernel dispatch: one ``--batch-lanes auto``
  run issues at least 3x fewer fused cascade calls than the scalar
  run it replaces (64 points collapse into 4 packs: ~16x on one CPU,
  ~8x on two, where each pack's calibration dispatches once per CPU
  block),
* the packed run's metrics match the scalar run's per point — byte
  for byte on the python backend, within the 0.01 ps drift budget on
  the array backends (the lane-parallel relaxation rounds differently
  from the scalar event walk in the last ulp), and
* packing never costs wall-clock: the packed run finishes within
  noise of the scalar run.  On host numpy the scalar path is already
  sweep-fused per point, so packing is wall-clock-neutral there.

The end-to-end variant drives ``python -m repro.campaign run`` the
way CI and users do, comparing ``--batch-lanes 1`` against ``auto``
report payloads.
"""

import json
import math
import subprocess
import sys
import time

import pytest

from repro import instrument
from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.spec import canonical_json
from repro.kernels import active_backend

#: Absolute drift budget for delay-like metrics on array backends —
#: the campaign engine's cross-backend guarantee (0.01 ps).
DRIFT_TOL = 1e-14

#: Packed wall-clock must stay within this factor of scalar.  The
#: claim is "never slower"; the margin absorbs CI timer noise.
WALL_CLOCK_SLACK = 1.5

SPEC = {
    "name": "bench-batched",
    "scenario": "range",
    "seed": 77,
    "n_instances": 16,
    "base": {"n_bits": 32, "n_points": 5, "measure_jitter": False},
    "sweeps": [
        {
            "name": "bit_rate",
            "values": ["2.0 Gbps", "2.4 Gbps", "3.2 Gbps", "4.0 Gbps"],
        }
    ],
}


@pytest.fixture(scope="module")
def spec():
    return CampaignSpec.from_dict(SPEC)


def _values_match(a, b) -> bool:
    """Equal up to the cross-backend drift budget on floats."""
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=DRIFT_TOL)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _values_match(a[k], b[k]) for k in a
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            _values_match(x, y) for x, y in zip(a, b)
        )
    return a == b


def assert_metrics_match(packed, scalar) -> None:
    if active_backend() == "python":
        assert canonical_json(packed) == canonical_json(scalar)
    else:
        assert _values_match(packed, scalar), (
            "packed metrics drifted past the 0.01 ps budget"
        )


def _timed_run(spec, batch_lanes):
    registry = instrument.Registry()
    start = time.perf_counter()
    with instrument.registry_scope(registry):
        result = run_campaign(spec, batch_lanes=batch_lanes)
    elapsed = time.perf_counter() - start
    return result, elapsed, registry.snapshot()["counters"]


def test_perf_campaign_batched_dispatch_amortization(benchmark, spec):
    """Packed 64-point campaign: >= 3x fewer fused kernel dispatches,
    matching metrics, wall-clock within noise of scalar."""
    scalar, scalar_time, scalar_counters = _timed_run(spec, 1)
    holder = {}

    def packed_run():
        holder["packed"] = _timed_run(spec, "auto")
        return holder["packed"][0]

    benchmark.pedantic(packed_run, rounds=1, iterations=1)
    packed, packed_time, packed_counters = holder["packed"]

    assert_metrics_match(packed.metrics, scalar.metrics)

    scalar_calls = scalar_counters.get("fine_delay.fused_calls", 0)
    packed_calls = packed_counters.get("fine_delay.fused_calls", 0)
    packs = packed_counters.get("campaign.packs.evaluated", 0)
    lanes = packed_counters.get("campaign.pack_lanes", 0)
    ratio = packed_time and scalar_time / packed_time
    print(
        f"\ncampaign {spec.n_points()} points: scalar {scalar_time:.2f} s "
        f"({scalar_calls} fused calls), packed {packed_time:.2f} s "
        f"({packed_calls} fused calls, {packs} packs, {lanes} lanes), "
        f"wall-clock {ratio:.2f}x, dispatch amortization "
        f"{scalar_calls / max(1, packed_calls):.0f}x"
    )
    if active_backend() == "python":
        # Packing resolves to scalar on the pure-python backend (no
        # batch axis to fuse over) — nothing to amortise.
        assert packs == 0
        return
    assert packs >= 1
    assert lanes == spec.n_points()
    assert scalar_counters.get("campaign.packs.evaluated", 0) == 0
    assert scalar_calls >= 3 * packed_calls, (
        f"packing only amortised {scalar_calls}/{packed_calls} fused "
        "dispatches; expected >= 3x"
    )
    assert packed_time <= WALL_CLOCK_SLACK * scalar_time, (
        f"packed run {packed_time:.2f} s is slower than scalar "
        f"{scalar_time:.2f} s beyond the {WALL_CLOCK_SLACK}x noise margin"
    )


def test_perf_campaign_batched_end_to_end(spec, tmp_path):
    """``campaign run --batch-lanes auto`` reproduces ``--batch-lanes 1``
    payloads without costing wall-clock."""
    spec_path = tmp_path / "spec.json"
    spec.save(spec_path)

    def cli_run(lanes: str):
        report_path = tmp_path / f"report-{lanes}.json"
        start = time.perf_counter()
        subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.campaign",
                "run",
                str(spec_path),
                "--batch-lanes",
                lanes,
                "--report",
                str(report_path),
                "--quiet",
            ],
            check=True,
        )
        elapsed = time.perf_counter() - start
        with open(report_path) as handle:
            return json.load(handle)["payload"], elapsed

    scalar_payload, scalar_time = cli_run("1")
    packed_payload, packed_time = cli_run("auto")
    ratio = scalar_time / packed_time
    print(
        f"\nend-to-end campaign run: --batch-lanes 1 {scalar_time:.2f} s, "
        f"auto {packed_time:.2f} s, {ratio:.2f}x"
    )
    assert_metrics_match(packed_payload, scalar_payload)
    assert packed_time <= WALL_CLOCK_SLACK * scalar_time, (
        f"packed CLI run {packed_time:.2f} s vs scalar {scalar_time:.2f} s "
        f"exceeds the {WALL_CLOCK_SLACK}x noise margin"
    )
