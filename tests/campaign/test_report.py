"""Tests for the campaign yield-report layer."""

import json

import pytest

from repro.campaign import (
    CAMPAIGN_REPORT_SCHEMA,
    CAMPAIGN_REPORT_VERSION,
    SPEC_LINES,
    CampaignSpec,
    build_report,
    format_report,
    run_campaign,
    validate_report,
    write_report,
)
from repro.campaign.report import SpecLine, _percentile
from repro.campaign.runner import CampaignResult
from repro.campaign.spec import canonical_json, expand_points
from repro.errors import CampaignError


@pytest.fixture(scope="module")
def result():
    spec = CampaignSpec.from_dict(
        {
            "name": "report-tiny",
            "scenario": "range",
            "seed": 31,
            "n_instances": 2,
            "base": {"n_bits": 48, "n_points": 5, "measure_jitter": False},
            "sweeps": [
                {"name": "bit_rate", "values": ["2.4 Gbps", "4.8 Gbps"]}
            ],
        }
    )
    return run_campaign(spec, jobs=1)


@pytest.fixture(scope="module")
def report(result):
    return build_report(result)


class TestSpecLines:
    def test_paper_limits(self):
        by_name = {line.name: line for line in SPEC_LINES}
        assert by_name["skew"].limit == pytest.approx(5e-12)
        assert by_name["added_jitter"].limit == pytest.approx(5e-12)
        assert by_name["range"].limit == pytest.approx(120e-12)

    def test_pass_direction(self):
        maximum = SpecLine("m", "x", 5e-12, "max", "")
        minimum = SpecLine("n", "x", 120e-12, "min", "")
        assert maximum.passes(4e-12) and not maximum.passes(6e-12)
        assert minimum.passes(140e-12) and not minimum.passes(100e-12)


class TestPercentile:
    def test_interpolates(self):
        assert _percentile([0.0, 10.0], 50.0) == pytest.approx(5.0)

    def test_endpoints(self):
        values = [1.0, 2.0, 3.0]
        assert _percentile(values, 0.0) == 1.0
        assert _percentile(values, 100.0) == 3.0

    def test_single_sample(self):
        assert _percentile([7.0], 99.0) == 7.0


class TestBuildReport:
    def test_schema_and_version(self, report):
        assert report["schema"] == CAMPAIGN_REPORT_SCHEMA
        assert report["version"] == CAMPAIGN_REPORT_VERSION
        validate_report(report)

    def test_yield_section(self, report):
        lines = {entry["name"]: entry for entry in report["payload"]["spec_lines"]}
        range_line = lines["range"]
        assert range_line["n_evaluated"] == 4
        assert 0.0 <= range_line["yield_fraction"] <= 1.0
        assert range_line["worst"]["index"] in range(4)
        # No deskew metrics in a range campaign: line not evaluated.
        assert lines["skew"]["n_evaluated"] == 0
        assert lines["skew"]["yield_fraction"] is None

    def test_percentiles_sorted(self, report):
        entry = report["payload"]["percentiles"]["total_range_s"]
        assert entry["min"] <= entry["p50"] <= entry["p90"] <= entry["max"]
        assert entry["n"] == 4

    def test_by_sweep_grouping(self, report):
        groups = report["payload"]["by_sweep"]["bit_rate"]
        assert len(groups) == 2
        for entries in groups.values():
            assert entries["range"]["n_evaluated"] == 2

    def test_points_in_expansion_order(self, report):
        indices = [p["index"] for p in report["payload"]["points"]]
        assert indices == sorted(indices)

    def test_incomplete_campaign_rejected(self, result):
        """A partial result keeps alignment and is rejected by name."""
        partial = type(result)(
            spec=result.spec,
            points=result.points,
            metrics=result.metrics[:-1] + [None],
            computed=result.computed - 1,
            cached=result.cached,
            duration_s=result.duration_s,
            jobs=result.jobs,
        )
        # The missing point is explicit, not silently compacted: the
        # metrics list keeps its slot and the status says why.
        assert len(partial.metrics) == len(partial.points)
        assert not partial.complete
        assert partial.statuses[-1] == "missing"
        assert partial.missing_indices() == [partial.points[-1].index]
        with pytest.raises(CampaignError, match="incomplete") as excinfo:
            build_report(partial)
        assert str(partial.points[-1].index) in str(excinfo.value)

    def test_misaligned_result_rejected(self, result):
        """Dropping a metrics slot is a construction-time error now."""
        with pytest.raises(CampaignError, match="misaligned"):
            type(result)(
                spec=result.spec,
                points=result.points,
                metrics=result.metrics[:-1],
                computed=result.computed,
                cached=result.cached,
                duration_s=result.duration_s,
                jobs=result.jobs,
            )

    def test_payload_is_runtime_free(self, result, report):
        """Same metrics, different wall time: payloads must match."""
        slower = type(result)(
            spec=result.spec,
            points=result.points,
            metrics=result.metrics,
            computed=0,
            cached=len(result.points),
            duration_s=result.duration_s * 100,
            jobs=8,
            cache_stats={"hits": 4, "misses": 0, "writes": 0, "evictions": 0},
        )
        assert canonical_json(build_report(slower)["payload"]) == (
            canonical_json(report["payload"])
        )


class TestValidation:
    def test_rejects_wrong_schema(self, report):
        bad = dict(report, schema="other")
        with pytest.raises(CampaignError, match="schema"):
            validate_report(bad)

    def test_rejects_wrong_version(self, report):
        bad = dict(report, version=99)
        with pytest.raises(CampaignError, match="version"):
            validate_report(bad)

    def test_rejects_point_count_mismatch(self, report):
        payload = dict(report["payload"], n_points=99)
        with pytest.raises(CampaignError, match="99 points"):
            validate_report(dict(report, payload=payload))

    def test_rejects_missing_sections(self):
        with pytest.raises(CampaignError):
            validate_report(
                {
                    "schema": CAMPAIGN_REPORT_SCHEMA,
                    "version": CAMPAIGN_REPORT_VERSION,
                }
            )


class TestWriteAndFormat:
    def test_write_round_trips(self, tmp_path, report):
        path = tmp_path / "report.json"
        write_report(path, report)
        loaded = json.loads(path.read_text())
        validate_report(loaded)
        assert canonical_json(loaded["payload"]) == canonical_json(
            report["payload"]
        )

    def test_write_validates_first(self, tmp_path):
        with pytest.raises(CampaignError):
            write_report(tmp_path / "bad.json", {"schema": "nope"})
        assert not (tmp_path / "bad.json").exists()

    def test_format_mentions_yield_and_percentiles(self, report):
        text = format_report(report)
        assert "total_range_s" in text
        assert "%" in text
        assert "p99" in text.lower() or "p99" in text


class TestDeskewFormat:
    """A deskew report mixes seconds metrics with counts."""

    @pytest.fixture(scope="class")
    def deskew_report(self):
        spec = CampaignSpec.from_dict(
            {
                "name": "report-deskew",
                "scenario": "deskew",
                "seed": 909,
                "n_instances": 2,
                "base": {"n_channels": 2},
                "sweeps": [],
            }
        )
        points = expand_points(spec)
        metrics = [
            {
                "initial_spread_s": 150e-12 + 10e-12 * point.index,
                "final_spread_s": 2e-12 + 1e-12 * point.index,
                "converged": True,
                "iterations": 2 + point.index,
                "total_range_s": 130e-12,
                "variation": [],
            }
            for point in points
        ]
        result = CampaignResult(
            spec=spec,
            points=points,
            metrics=metrics,
            computed=len(points),
            cached=0,
            duration_s=1.0,
            jobs=1,
        )
        return build_report(result)

    def rows(self, report):
        return {
            line.split()[0]: line.split()
            for line in format_report(report).splitlines()
            if line.strip()
        }

    def test_counts_print_as_plain_numbers(self, deskew_report):
        entry = deskew_report["payload"]["percentiles"]["iterations"]
        expected = [f"{entry[key]:g}" for key in ("p50", "p90", "p99", "max")]
        assert self.rows(deskew_report)["iterations"] == [
            "iterations",
            str(entry["n"]),
            *expected,
        ]

    def test_seconds_print_in_ps(self, deskew_report):
        row = self.rows(deskew_report)["final_spread_s"]
        # name, n, then four "<value> ps" columns.
        assert len(row) == 10
        assert row[2:] == ["2.50", "ps", "2.90", "ps", "2.99", "ps", "3.00", "ps"]
        skew = self.rows(deskew_report)["skew"]
        assert skew[2:4] == ["5.00", "ps"]
