"""Tests for the declarative campaign spec layer."""

import json

import pytest

from repro.campaign import CampaignSpec, SweepAxis, expand_points
from repro.campaign.spec import canonical_json
from repro.campaign.variation import VariationModel
from repro.errors import CampaignError


def small_spec(**overrides) -> CampaignSpec:
    data = {
        "name": "unit",
        "scenario": "range",
        "seed": 9,
        "n_instances": 2,
        "base": {"n_bits": 48},
        "sweeps": [{"name": "bit_rate", "values": ["2.4 Gbps", "4.8 Gbps"]}],
    }
    data.update(overrides)
    return CampaignSpec.from_dict(data)


class TestResolution:
    def test_quantity_strings_resolve_to_si(self):
        spec = small_spec(base={"skew_spread": "200 ps", "n_bits": 48})
        assert spec.base["skew_spread"] == pytest.approx(200e-12)

    def test_plain_words_stay_strings(self):
        spec = small_spec(base={"measurement": "event"})
        assert spec.base["measurement"] == "event"

    def test_numbers_and_bools_pass_through(self):
        spec = small_spec(base={"n_bits": 48, "measure_jitter": False})
        assert spec.base["n_bits"] == 48
        assert spec.base["measure_jitter"] is False


class TestSweepAxis:
    def test_values_list_resolves_quantities(self):
        axis = SweepAxis.from_dict(
            {"name": "bit_rate", "values": ["1.6 Gbps", "6.4 Gbps"]}
        )
        assert axis.values == pytest.approx((1.6e9, 6.4e9))

    def test_linspace_includes_endpoints(self):
        axis = SweepAxis.from_dict(
            {"name": "temperature_c", "linspace": {"start": 0, "stop": 70, "num": 3}}
        )
        assert axis.values == pytest.approx((0.0, 35.0, 70.0))

    def test_linspace_with_quantity_endpoints(self):
        axis = SweepAxis.from_dict(
            {
                "name": "skew_spread",
                "linspace": {"start": "100 ps", "stop": "300 ps", "num": 2},
            }
        )
        assert axis.values == pytest.approx((100e-12, 300e-12))

    @pytest.mark.parametrize(
        "bad",
        [
            {"name": "x"},
            {"name": "x", "values": [1], "linspace": {"start": 0, "stop": 1, "num": 2}},
            {"name": "x", "values": []},
            {"name": "x", "linspace": {"start": 0, "stop": 1}},
            {"name": "x", "linspace": {"start": 0, "stop": 1, "num": 1}},
            {"name": "x", "linspace": {"start": "event", "stop": 1, "num": 2}},
        ],
    )
    def test_rejects_malformed_axes(self, bad):
        with pytest.raises(CampaignError):
            SweepAxis.from_dict(bad)


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = small_spec()
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_json_file_round_trip(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        assert CampaignSpec.load(path) == spec
        # The saved file is plain JSON, readable by anything.
        assert json.loads(path.read_text())["name"] == "unit"

    def test_variation_round_trips(self):
        spec = small_spec(variation={"slew_rate_sigma": 0.2})
        assert spec.variation.slew_rate_sigma == pytest.approx(0.2)
        assert CampaignSpec.from_dict(spec.to_dict()) == spec


class TestValidation:
    def test_rejects_unknown_spec_keys(self):
        with pytest.raises(CampaignError, match="unknown campaign spec keys"):
            CampaignSpec.from_dict({"name": "x", "scenario": "range", "bogus": 1})

    def test_rejects_unknown_scenario(self):
        with pytest.raises(CampaignError, match="unknown scenario"):
            small_spec(scenario="warp")

    def test_rejects_duplicate_axes(self):
        with pytest.raises(CampaignError, match="duplicate sweep axis"):
            small_spec(
                sweeps=[
                    {"name": "bit_rate", "values": [1]},
                    {"name": "bit_rate", "values": [2]},
                ]
            )

    def test_rejects_bad_instances(self):
        with pytest.raises(CampaignError, match="n_instances"):
            small_spec(n_instances=0)

    def test_rejects_invalid_json(self):
        with pytest.raises(CampaignError, match="not valid JSON"):
            CampaignSpec.from_json("{nope")

    def test_rejects_unknown_variation_keys(self):
        with pytest.raises(CampaignError, match="unknown variation model"):
            small_spec(variation={"sigma_of_everything": 1.0})


class TestExpansion:
    def test_point_count(self):
        spec = small_spec()
        points = expand_points(spec)
        assert len(points) == spec.n_points() == 4

    def test_grid_major_instance_minor_order(self):
        points = expand_points(small_spec())
        rates = [p.params["bit_rate"] for p in points]
        instances = [p.instance for p in points]
        assert rates == pytest.approx([2.4e9, 2.4e9, 4.8e9, 4.8e9])
        assert instances == [0, 1, 0, 1]
        assert [p.index for p in points] == [0, 1, 2, 3]

    def test_limit_truncates(self):
        for limit in (0, 1, 3):
            assert len(expand_points(small_spec(), limit=limit)) == limit

    def test_axis_overrides_base(self):
        spec = small_spec(base={"bit_rate": "1 Gbps", "n_bits": 48})
        points = expand_points(spec)
        assert all(p.params["bit_rate"] != 1e9 for p in points)


class TestIdentity:
    def test_identity_excludes_name_and_position(self):
        a = expand_points(small_spec())
        b = expand_points(small_spec(name="renamed"))
        assert [p.digest() for p in a] == [p.digest() for p in b]

    def test_extending_a_sweep_keeps_existing_digests(self):
        base = expand_points(small_spec())
        extended = expand_points(
            small_spec(
                sweeps=[
                    {
                        "name": "bit_rate",
                        "values": ["2.4 Gbps", "4.8 Gbps", "6.4 Gbps"],
                    }
                ]
            )
        )
        assert {p.digest() for p in base} < {p.digest() for p in extended}

    def test_seed_changes_with_instance_and_spec_seed(self):
        points = expand_points(small_spec())
        assert points[0].seed() != points[1].seed()
        reseeded = expand_points(small_spec(seed=10))
        assert points[0].seed() != reseeded[0].seed()

    def test_seed_is_deterministic(self):
        a = expand_points(small_spec())[0]
        b = expand_points(small_spec())[0]
        assert a.seed() == b.seed()
        assert a.digest() == b.digest()


class TestCanonicalJson:
    def test_key_order_does_not_matter(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_rejects_nan(self):
        with pytest.raises(CampaignError):
            canonical_json({"x": float("nan")})

    def test_rejects_unserialisable(self):
        with pytest.raises(CampaignError):
            canonical_json({"x": VariationModel()})
