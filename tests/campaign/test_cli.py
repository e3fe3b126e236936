"""Tests for the ``python -m repro.campaign`` command line."""

import json

import pytest

from repro import instrument
from repro.campaign.__main__ import main
from repro.instrument import validate_manifest

TINY = {
    "name": "cli-tiny",
    "scenario": "range",
    "seed": 41,
    "n_instances": 1,
    "base": {"n_bits": 48, "n_points": 5, "measure_jitter": False},
    "sweeps": [{"name": "bit_rate", "values": ["2.4 Gbps", "4.8 Gbps"]}],
}


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(TINY))
    return path


class TestRun:
    def test_run_prints_yield_tables(self, spec_path, capsys):
        exit_code = main(["run", str(spec_path), "--quiet"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "cli-tiny" in captured.out
        assert "total_range_s" in captured.out

    def test_run_writes_report_and_uses_cache(
        self, spec_path, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        report1 = tmp_path / "r1.json"
        report2 = tmp_path / "r2.json"
        common = ["run", str(spec_path), "--quiet", "--cache-dir", str(cache_dir)]
        assert main(common + ["--report", str(report1)]) == 0
        assert main(common + ["--report", str(report2)]) == 0
        capsys.readouterr()
        first = json.loads(report1.read_text())
        second = json.loads(report2.read_text())
        assert first["payload"] == second["payload"]
        assert second["runtime"]["cached"] == 2
        assert second["runtime"]["cache_stats"]["hits"] == 2

    def test_metrics_json_writes_valid_manifest(
        self, spec_path, tmp_path, capsys
    ):
        path = tmp_path / "metrics.json"
        exit_code = main(
            ["run", str(spec_path), "--quiet", "--metrics-json", str(path)]
        )
        capsys.readouterr()
        assert exit_code == 0
        data = json.loads(path.read_text())
        validate_manifest(data)
        assert data["experiments"][0]["id"] == "campaign.cli-tiny"
        assert data["counters"]["campaign.points.total"] == 2
        assert "campaign.run" in data["spans"]
        # The CLI restores the disabled default.
        assert not instrument.enabled()

    def test_missing_spec_is_a_clean_error(self, tmp_path, capsys):
        exit_code = main(["run", str(tmp_path / "nope.json"), "--quiet"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err

    def test_invalid_spec_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "scenario": "warp"}))
        exit_code = main(["run", str(path), "--quiet"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "unknown scenario" in captured.err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_rejects_bad_jobs(self, spec_path, capsys, jobs):
        exit_code = main(["run", str(spec_path), "--jobs", jobs])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert f"error: --jobs must be >= 1, got {jobs}" in captured.err

    def test_rejects_bad_workers_spec(self, spec_path, capsys):
        exit_code = main(
            ["run", str(spec_path), "--quiet", "--workers", "carrier://2"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "carrier://2" in captured.err


class TestExpand:
    def test_expand_previews_points(self, spec_path, capsys):
        exit_code = main(["expand", str(spec_path)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "2 points" in captured.out
        assert "digest=" in captured.out

    def test_expand_limit(self, spec_path, capsys):
        for limit in (0, 1):
            exit_code = main(["expand", str(spec_path), "--limit", str(limit)])
            captured = capsys.readouterr()
            assert exit_code == 0
            assert f"showing {limit}" in captured.out
            assert captured.out.count("digest=") == limit
        exit_code = main(["expand", str(spec_path), "--limit", "-5"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error: --limit must be >= 0, got -5" in captured.err
        assert "digest=" not in captured.out


class TestReport:
    def test_rerenders_written_report(self, spec_path, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert (
            main(
                ["run", str(spec_path), "--quiet", "--report", str(report_path)]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["report", str(report_path)]) == 0
        captured = capsys.readouterr()
        assert "cli-tiny" in captured.out

    def test_rejects_non_report_json(self, tmp_path, capsys):
        path = tmp_path / "not-report.json"
        path.write_text("{}")
        exit_code = main(["report", str(path)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err
