"""Tests for lane-packed campaign evaluation.

The packing contract under test: ``batch_lanes`` is a pure scheduling
knob.  Packed runs must produce metrics bit-for-bit identical to
scalar runs on every kernel backend (a lane's bytes do not depend on
its pack-mates), write byte-identical cache entries, and preserve
kill-resume, ``--jobs``, and ``--workers`` semantics unchanged.  Same
compute budget discipline as ``test_runner.py``: short records keep
every spec test-tier fast.
"""

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
from repro.campaign.packing import (
    AUTO_LANES,
    plan_packs,
    resolve_batch_lanes,
    validate_batch_lanes,
)
from repro.campaign.runner import evaluate_pack
from repro.campaign.spec import PACK_STRUCTURAL_PARAMS, canonical_json
from repro.errors import CampaignError
from repro.kernels import active_backend

TINY = {
    "name": "packing-tiny",
    "scenario": "range",
    "seed": 21,
    "n_instances": 2,
    "base": {"n_bits": 48, "n_points": 5, "measure_jitter": False},
    "sweeps": [{"name": "bit_rate", "values": ["2.4 Gbps", "4.8 Gbps"]}],
}

DESKEW = {
    "name": "packing-deskew",
    "scenario": "deskew",
    "seed": 7,
    "n_instances": 3,
    "base": {
        "n_channels": 2,
        "n_bits": 48,
        "n_cal_points": 5,
        "measurement": "event",
    },
}


def tiny_spec(**overrides) -> CampaignSpec:
    data = dict(TINY)
    data.update(overrides)
    return CampaignSpec.from_dict(data)


def deskew_spec(**overrides) -> CampaignSpec:
    data = dict(DESKEW)
    data.update(overrides)
    return CampaignSpec.from_dict(data)


def assert_equivalent(packed, scalar):
    """Packed-vs-scalar metric contract: byte-identical on every backend."""
    assert canonical_json(packed) == canonical_json(scalar)


@pytest.fixture(scope="module")
def cold_result():
    """One shared scalar (batch_lanes=1) run of the tiny range spec."""
    return run_campaign(tiny_spec(), jobs=1)


@pytest.fixture(scope="module")
def cold_deskew():
    """One shared scalar run of the tiny deskew spec."""
    return run_campaign(deskew_spec(), jobs=1)


# -- flag validation ---------------------------------------------------------


class TestValidateBatchLanes:
    @pytest.mark.parametrize(
        "value,expected",
        [("auto", "auto"), (" AUTO ", "auto"), (8, 8), ("8", 8), (1, 1)],
    )
    def test_accepts(self, value, expected):
        assert validate_batch_lanes(value) == expected

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "0", "-3", "x", None, ""])
    def test_rejects_and_names_the_flag(self, bad):
        with pytest.raises(CampaignError, match="--batch-lanes"):
            validate_batch_lanes(bad)

    def test_custom_flag_name_in_message(self):
        with pytest.raises(CampaignError, match="batch_lanes"):
            validate_batch_lanes(0, flag="batch_lanes")

    def test_run_campaign_rejects_bad_lanes(self):
        with pytest.raises(CampaignError, match="batch_lanes"):
            run_campaign(tiny_spec(), jobs=1, batch_lanes=0)

    def test_resolve_explicit_int_passes_through(self):
        assert resolve_batch_lanes(4) == 4

    def test_resolve_auto_matches_backend_table(self):
        expected = AUTO_LANES.get(active_backend(), 1)
        assert resolve_batch_lanes("auto") == expected

    def test_unknown_scenario_error_lists_packable(self):
        point = expand_points(tiny_spec())[0]
        bad = type(point)(
            scenario="warp",
            params=point.params,
            instance=0,
            spec_seed=0,
            variation=point.variation,
            index=0,
        )
        with pytest.raises(CampaignError, match="lane-packable") as info:
            evaluate_point(bad)
        assert "deskew" in str(info.value) and "range" in str(info.value)


# -- the pack planner --------------------------------------------------------


class TestPlanPacks:
    @staticmethod
    def plan(items, lanes, weight=1):
        return plan_packs(
            items,
            lanes,
            key_of=lambda item: item[0] if item[0] != "-" else None,
            weight_of=lambda item: weight,
        )

    def test_lanes_one_is_all_singletons(self):
        items = ["a1", "a2", "b1"]
        assert self.plan(items, 1) == [["a1"], ["a2"], ["b1"]]

    def test_groups_by_key_in_first_member_order(self):
        items = ["a1", "b1", "a2", "a3", "b2"]
        assert self.plan(items, 2) == [["a1", "a2"], ["b1", "b2"], ["a3"]]

    def test_unpackable_key_none_stays_singleton(self):
        items = ["a1", "-x", "a2", "-y"]
        assert self.plan(items, 8) == [["a1", "a2"], ["-x"], ["-y"]]

    def test_weight_closes_packs_early(self):
        items = ["a1", "a2", "a3"]
        # Weight-4 members in 8 lanes: two per pack, leftover alone.
        assert self.plan(items, 8, weight=4) == [["a1", "a2"], ["a3"]]

    def test_oversized_member_still_packs_alone(self):
        assert self.plan(["a1", "a2"], 2, weight=5) == [["a1"], ["a2"]]

    def test_campaign_pack_keys_split_on_structural_params(self):
        # bit_rate is structural for the range scenario: the tiny spec
        # (2 instances x 2 bit rates) must plan as 2 packs of 2, with
        # only variation draws and seeds differing within each pack.
        points = expand_points(tiny_spec())
        units = plan_packs(points, 64, runner._pack_key, lambda p: 1)
        assert sorted(len(unit) for unit in units) == [2, 2]
        for unit in units:
            keys = {runner._pack_key(point) for point in unit}
            assert len(keys) == 1

    def test_deskew_points_plan_as_singletons(self):
        points = expand_points(deskew_spec())
        assert all(runner._pack_key(point) is None for point in points)
        for lanes in (2, 4, 64):
            units = plan_packs(
                points, lanes, runner._pack_key, lambda p: 1
            )
            assert units == [[point] for point in points]


# -- packed-vs-scalar equivalence --------------------------------------------


class TestPackEquivalence:
    @pytest.mark.parametrize("lanes", [3, 64])
    def test_range_matches_scalar(self, lanes, cold_result):
        packed = run_campaign(tiny_spec(), jobs=1, batch_lanes=lanes)
        assert_equivalent(packed.metrics, cold_result.metrics)
        assert packed.statuses == ["computed"] * 4

    def test_deskew_matches_scalar(self, cold_deskew):
        packed = run_campaign(deskew_spec(), jobs=1, batch_lanes=64)
        assert_equivalent(packed.metrics, cold_deskew.metrics)

    def test_jitter_path_matches_scalar(self):
        spec = tiny_spec(
            name="packing-jitter",
            base={"n_bits": 48, "n_points": 5, "measure_jitter": True},
            sweeps=[],
        )
        scalar = run_campaign(spec, jobs=1)
        packed = run_campaign(spec, jobs=1, batch_lanes=64)
        assert_equivalent(packed.metrics, scalar.metrics)
        assert all(
            "added_jitter_s" in metrics for metrics in packed.metrics
        )

    def test_jobs_and_lanes_cross_product(self, cold_result):
        packed = run_campaign(tiny_spec(), jobs=2, batch_lanes=3)
        assert_equivalent(packed.metrics, cold_result.metrics)

    def test_evaluate_pack_matches_evaluate_point(self):
        points = expand_points(tiny_spec(sweeps=[]))
        assert len(points) > 1
        packed = evaluate_pack(points)
        alone = [evaluate_pack([point])[0] for point in points]
        assert_equivalent(packed, alone)

    def test_auto_lanes_run_completes(self, cold_result):
        auto = run_campaign(tiny_spec(), jobs=1, batch_lanes="auto")
        assert_equivalent(auto.metrics, cold_result.metrics)


# -- counters ----------------------------------------------------------------


def _counters_for(spec, **kwargs):
    instrument.get_registry().reset()
    instrument.enable()
    try:
        result = run_campaign(spec, **kwargs)
        counters = instrument.get_registry().snapshot()["counters"]
    finally:
        instrument.disable()
    return result, counters


class TestCounters:
    def test_packed_run_counts_packs_and_lanes(self):
        _result, counters = _counters_for(
            tiny_spec(), jobs=1, batch_lanes=64
        )
        assert counters["campaign.packs.evaluated"] == 2
        assert counters["campaign.pack_lanes"] == 4
        assert counters["campaign.points.evaluated"] == 4
        assert "campaign.pack_fallback_scalar" not in counters

    def test_deskew_never_packs_nor_counts_fallbacks(self):
        _result, counters = _counters_for(
            deskew_spec(), jobs=1, batch_lanes=64
        )
        assert "campaign.packs.evaluated" not in counters
        assert "campaign.pack_fallback_scalar" not in counters
        assert counters["campaign.points.evaluated"] == 3

    def test_scalar_run_has_no_pack_counters(self):
        _result, counters = _counters_for(
            tiny_spec(), jobs=1, batch_lanes=1
        )
        assert "campaign.packs.evaluated" not in counters
        assert counters["campaign.points.evaluated"] == 4


# -- cache interoperability and kill-resume ----------------------------------


class TestCacheInterop:
    def test_packed_entries_are_byte_identical_to_scalar(self, tmp_path):
        scalar_cache = ResultCache(tmp_path / "scalar")
        packed_cache = ResultCache(tmp_path / "packed")
        run_campaign(tiny_spec(), jobs=1, cache=scalar_cache)
        run_campaign(
            tiny_spec(), jobs=1, cache=packed_cache, batch_lanes=64
        )
        for point in expand_points(tiny_spec()):
            assert canonical_json(
                packed_cache.get(point)
            ) == canonical_json(scalar_cache.get(point))

    def test_scalar_run_hits_pack_filled_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        packed = run_campaign(
            tiny_spec(), jobs=1, cache=cache, batch_lanes=64
        )
        warm = run_campaign(tiny_spec(), jobs=1, cache=cache)
        assert packed.computed == 4
        assert warm.cached == 4 and warm.computed == 0
        assert canonical_json(warm.metrics) == canonical_json(
            packed.metrics
        )

    def test_kill_resume_mid_pack(self, tmp_path, cold_result):
        """Pre-seed one lane of a would-be pack; the resumed packed run
        recomputes only the missing points, still packs the compatible
        remainder, and matches the scalar cold run."""
        spec = tiny_spec()
        cache = ResultCache(tmp_path / "cache")
        points = expand_points(spec)
        cache.put(points[0], evaluate_point(points[0]))

        instrument.get_registry().reset()
        instrument.enable()
        try:
            resumed = run_campaign(
                spec, jobs=1, cache=cache, batch_lanes=64
            )
            counters = instrument.get_registry().snapshot()["counters"]
        finally:
            instrument.disable()
        assert counters["campaign.points.total"] == 4
        assert counters["campaign.points.cached"] == 1
        assert counters["campaign.points.evaluated"] == 3
        # 2 keys over the 3 pending points: one pack of 2 plus a
        # singleton, so packing survives a partial cache.
        assert counters["campaign.packs.evaluated"] == 1
        assert counters["campaign.pack_lanes"] == 2
        assert resumed.statuses.count("cached") == 1
        assert resumed.statuses.count("computed") == 3
        assert_equivalent(resumed.metrics, cold_result.metrics)


# -- scalar fallback and failure attribution ---------------------------------


def _exploding_pack(points):
    """A range evaluator whose fused multi-point call always fails."""
    if len(points) > 1:
        raise RuntimeError("pack kernel exploded")
    return runner._evaluate_range(points)


def _explode_range_packs(monkeypatch):
    monkeypatch.setitem(
        runner._EVALUATORS,
        "range",
        runner._EVALUATORS["range"]._replace(evaluate=_exploding_pack),
    )


class TestFallback:
    def test_pack_failure_falls_back_to_scalar(
        self, monkeypatch, cold_result
    ):
        _explode_range_packs(monkeypatch)
        instrument.get_registry().reset()
        instrument.enable()
        try:
            result = run_campaign(tiny_spec(), jobs=1, batch_lanes=64)
            counters = instrument.get_registry().snapshot()["counters"]
        finally:
            instrument.disable()
        assert canonical_json(result.metrics) == canonical_json(
            cold_result.metrics
        )
        assert counters["campaign.pack_fallback_scalar"] == 4
        assert "campaign.packs.evaluated" not in counters

    def test_unpackable_scenario_falls_back(self, monkeypatch):
        monkeypatch.delitem(PACK_STRUCTURAL_PARAMS, "range")
        result = run_campaign(tiny_spec(), jobs=1, batch_lanes=64)
        assert result.statuses == ["computed"] * 4

    def test_fallback_failure_names_the_failing_lane(self, monkeypatch):
        _explode_range_packs(monkeypatch)
        real = evaluate_point

        def boom(point):
            if point.index == 2:
                raise RuntimeError("lane 2 evaluator exploded")
            return real(point)

        monkeypatch.setattr(runner, "evaluate_point", boom)
        with pytest.raises(
            CampaignError, match=r"point 2 \(scenario='range'"
        ) as info:
            run_campaign(tiny_spec(), jobs=1, batch_lanes=64)
        assert "lane 2 evaluator exploded" in str(info.value)

    def test_pack_point_failure_survives_pickling(self):
        import pickle

        exc = runner.PackPointFailure("lane broke", 7)
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.index == 7
        assert str(clone) == "lane broke"


# -- distributed workers -----------------------------------------------------


class TestWorkers:
    def test_spawn_workers_with_lanes_match_scalar(self, cold_result):
        packed = run_campaign(
            tiny_spec(), workers="spawn://2", batch_lanes=4
        )
        assert_equivalent(packed.metrics, cold_result.metrics)
        assert packed.statuses == ["computed"] * 4
