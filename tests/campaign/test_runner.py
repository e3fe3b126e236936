"""Tests for the campaign execution engine.

Compute budgets matter here: every spec uses short records (48-bit
PRBS, 5 calibration points) so a point costs ~0.25 s and the whole
module stays test-tier fast.
"""

import glob
import multiprocessing
import time

import numpy as np
import pytest

from repro import instrument
from repro.campaign import (
    CampaignSpec,
    ResultCache,
    evaluate_point,
    expand_points,
    run_campaign,
)
from repro.campaign import runner
from repro.campaign.report import build_report, format_report
from repro.campaign.spec import canonical_json
from repro.errors import CampaignError

TINY = {
    "name": "runner-tiny",
    "scenario": "range",
    "seed": 21,
    "n_instances": 2,
    "base": {"n_bits": 48, "n_points": 5, "measure_jitter": False},
    "sweeps": [{"name": "bit_rate", "values": ["2.4 Gbps", "4.8 Gbps"]}],
}


def tiny_spec(**overrides) -> CampaignSpec:
    data = dict(TINY)
    data.update(overrides)
    return CampaignSpec.from_dict(data)


@pytest.fixture(scope="module")
def cold_result():
    """One shared cold run of the tiny spec (deterministic)."""
    return run_campaign(tiny_spec(), jobs=1)


class TestEvaluatePoint:
    def test_range_metrics(self, cold_result):
        metrics = cold_result.metrics[0]
        assert metrics["total_range_s"] > 100e-12
        assert metrics["fine_range_s"] > 0
        assert "variation" in metrics

    def test_deterministic(self):
        point = expand_points(tiny_spec())[0]
        assert canonical_json(evaluate_point(point)) == canonical_json(
            evaluate_point(point)
        )

    def test_unknown_scenario_rejected(self):
        point = expand_points(tiny_spec())[0]
        bad = type(point)(
            scenario="warp",
            params=point.params,
            instance=0,
            spec_seed=0,
            variation=point.variation,
            index=0,
        )
        with pytest.raises(CampaignError, match="unknown scenario"):
            evaluate_point(bad)

    def test_unknown_parameter_rejected(self):
        spec = tiny_spec(base={"n_bits": 48, "warp_factor": 9}, sweeps=[])
        with pytest.raises(CampaignError, match="warp_factor"):
            evaluate_point(expand_points(spec)[0])

    def test_deskew_metrics(self):
        spec = CampaignSpec.from_dict(
            {
                "name": "dsk",
                "scenario": "deskew",
                "seed": 5,
                "base": {
                    "n_channels": 2,
                    "n_bits": 48,
                    "n_cal_points": 5,
                    "measurement": "event",
                },
            }
        )
        metrics = evaluate_point(expand_points(spec)[0])
        assert metrics["final_spread_s"] < metrics["initial_spread_s"]
        assert metrics["converged"] is True
        assert metrics["total_range_s"] > 100e-12
        assert len(metrics["variation"]) == 2

    def test_deskew_rejects_bad_measurement(self):
        spec = CampaignSpec.from_dict(
            {
                "name": "dsk",
                "scenario": "deskew",
                "base": {"measurement": "oscilloscope"},
            }
        )
        with pytest.raises(CampaignError, match="measurement"):
            evaluate_point(expand_points(spec)[0])


class TestRunCampaign:
    def test_jobs_do_not_change_results(self, cold_result):
        parallel = run_campaign(tiny_spec(), jobs=2)
        assert canonical_json(parallel.metrics) == canonical_json(
            cold_result.metrics
        )

    def test_runtime_records_the_pool_workers(self, cold_result):
        pooled = run_campaign(tiny_spec(), workers="spawn://2")
        assert pooled.jobs == 2
        report = build_report(pooled)
        assert report["runtime"]["jobs"] == 2
        assert "with 2 job(s)" in format_report(report).splitlines()[0]
        assert cold_result.jobs == 1

    def test_metrics_align_with_points(self, cold_result):
        assert len(cold_result.metrics) == len(cold_result.points) == 4
        assert cold_result.computed == 4
        assert cold_result.cached == 0

    def test_rejects_bad_jobs(self):
        with pytest.raises(CampaignError):
            run_campaign(tiny_spec(), jobs=0)

    def test_progress_callback_sees_every_point(self):
        seen = []
        run_campaign(
            tiny_spec(n_instances=1),
            jobs=1,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[-1] == (2, 2)


class TestCaching:
    def test_warm_rerun_is_all_hits(self, tmp_path, cold_result):
        cache_dir = tmp_path / "cache"
        first = run_campaign(tiny_spec(), jobs=1, cache_dir=cache_dir)
        second = run_campaign(tiny_spec(), jobs=1, cache_dir=cache_dir)
        assert first.computed == 4 and first.cached == 0
        assert second.computed == 0 and second.cached == 4
        assert second.cache_stats["hits"] == 4
        assert second.cache_stats["misses"] == 0
        assert canonical_json(second.metrics) == canonical_json(
            cold_result.metrics
        )

    def test_killed_campaign_resumes_missing_points_only(self, tmp_path):
        """Half-run the campaign, then restart: the acceptance test."""
        spec = tiny_spec()
        cache = ResultCache(tmp_path / "cache")
        points = expand_points(spec)
        # Simulate a campaign killed halfway: two of four points landed.
        for point in points[:2]:
            cache.put(point, evaluate_point(point))

        instrument.get_registry().reset()
        instrument.enable()
        try:
            resumed = run_campaign(spec, jobs=1, cache=cache)
            counters = instrument.get_registry().snapshot()["counters"]
        finally:
            instrument.disable()
        assert counters["campaign.points.total"] == 4
        assert counters["campaign.points.cached"] == 2
        assert counters["campaign.points.evaluated"] == 2
        assert counters["campaign.cache.hits"] == 2
        assert counters["campaign.cache.misses"] == 2
        # And the resumed result matches a single cold run bit for bit.
        cold = run_campaign(spec, jobs=1)
        assert canonical_json(resumed.metrics) == canonical_json(
            cold.metrics
        )

    def test_extending_a_sweep_recomputes_only_new_points(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_campaign(tiny_spec(), jobs=1, cache_dir=cache_dir)
        extended = tiny_spec(
            sweeps=[
                {
                    "name": "bit_rate",
                    "values": ["2.4 Gbps", "4.8 Gbps", "3.2 Gbps"],
                }
            ]
        )
        result = run_campaign(extended, jobs=1, cache_dir=cache_dir)
        assert result.cached == 4
        assert result.computed == 2

    def test_parallel_run_fills_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = run_campaign(tiny_spec(), jobs=2, cache_dir=cache_dir)
        second = run_campaign(tiny_spec(), jobs=2, cache_dir=cache_dir)
        assert first.computed == 4
        assert second.computed == 0
        # The warm run computes nothing, so it starts no pool.
        assert (first.jobs, second.jobs) == (2, 1)


# -- failure draining --------------------------------------------------------

# Evaluator stand-ins for the drain tests.  The parent swaps them in
# for ``runner.evaluate_point`` via monkeypatch; the pool's workers are
# forked after the patch, so they inherit it.  Point 0 fails after the
# other workers are mid-flight (sleeps stagger the schedule
# deterministically).


def _drain_worker(point):
    if point.index == 0:
        time.sleep(0.25)
        raise RuntimeError("injected point failure")
    time.sleep(0.5)
    return {"delay_ps": float(point.index)}


def _trace(index):
    # 64 KiB of distinct float64 values, so a byte slip shows.
    return np.random.default_rng(index).normal(size=8192)


def _array_drain_worker(point):
    if point.index == 0:
        time.sleep(0.25)
        raise RuntimeError("injected point failure")
    time.sleep(0.5)
    return {"delay_ps": float(point.index), "trace": _trace(point.index)}


class _ArrayCache(ResultCache):
    """A result cache that stores ndarray metrics as JSON lists."""

    def put(self, point, metrics):
        return super().put(
            point,
            {
                key: value.tolist() if isinstance(value, np.ndarray) else value
                for key, value in metrics.items()
            },
        )


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="drain stand-ins rely on fork inheritance",
)


@fork_only
class TestFailureDrain:
    def test_failure_names_point_and_caches_survivors(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(runner, "evaluate_point", _drain_worker)
        cache = ResultCache(tmp_path / "cache")
        spec = tiny_spec()
        with pytest.raises(
            CampaignError, match=r"point 0 \(scenario='range'"
        ) as exc_info:
            run_campaign(spec, jobs=2, cache=cache)
        assert "injected point failure" in str(exc_info.value)

        points = expand_points(spec)
        assert cache.get(points[0]) is None
        # Point 1 was mid-flight when point 0 failed: the drain decoded
        # and cached it instead of abandoning it with the pool.
        assert cache.get(points[1]) == {"delay_ps": 1.0}
        survivors = [
            point.index
            for point in points[1:]
            if cache.get(point) is not None
        ]
        assert survivors, "no completed point survived into the cache"

    def test_failure_drains_inflight_array_into_cache(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(runner, "evaluate_point", _array_drain_worker)
        before = set(glob.glob("/dev/shm/psm_*"))
        cache = _ArrayCache(tmp_path / "cache")
        spec = tiny_spec()
        with pytest.raises(CampaignError, match="point 0"):
            run_campaign(spec, jobs=2, cache=cache)
        # Point 1 was mid-flight when point 0 failed: its array crossed
        # the wire as a binary frame and the drain cached it intact.
        cached = cache.get(expand_points(spec)[1])
        assert cached is not None, "the in-flight point was not drained"
        assert np.array(cached["trace"]).tobytes() == _trace(1).tobytes()
        # Results travel as frames: no shared-memory block is created.
        created = set(glob.glob("/dev/shm/psm_*")) - before
        assert not created, f"shared-memory blocks created: {sorted(created)}"


class TestSequentialFailure:
    def test_failure_names_point_and_keeps_survivors(
        self, tmp_path, monkeypatch
    ):
        def boom(point):
            if point.index == 1:
                raise RuntimeError("evaluator exploded")
            return {"delay_ps": float(point.index)}

        monkeypatch.setattr(runner, "evaluate_point", boom)
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(
            CampaignError, match=r"point 1 \(scenario='range'"
        ) as exc_info:
            run_campaign(tiny_spec(), jobs=1, cache=cache)
        assert "evaluator exploded" in str(exc_info.value)
        points = expand_points(tiny_spec())
        assert cache.get(points[0]) == {"delay_ps": 0.0}
        assert cache.get(points[1]) is None


# -- per-point statuses ------------------------------------------------------


class TestPointStatuses:
    def test_full_run_is_all_computed(self, cold_result):
        assert cold_result.statuses == ["computed"] * 4
        assert cold_result.complete
        assert cold_result.missing_indices() == []

    def test_warm_run_is_all_cached(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_campaign(tiny_spec(), jobs=1, cache_dir=cache_dir)
        warm = run_campaign(tiny_spec(), jobs=1, cache_dir=cache_dir)
        assert warm.statuses == ["cached"] * 4
        assert warm.complete
