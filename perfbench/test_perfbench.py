"""Tests for the benchmark's own code.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import sys
import types

import pytest

import run
import stats
from layers import METRICS
from spantrace import Span, Tracer, layer_totals, self_times
from workloads import DELAY_TOLERANCE_S, WORKLOADS, compare_points

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The benchmark contract's rules for metric names and units.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- the percentile rule ----------------------------------------------------


def test_percentile_needs_ten_samples_above_its_rank():
    # Nearest rank of p50 over 19 samples is 10: only 9 lie above it.
    assert stats.percentile(range(19), 50) is None
    assert stats.percentile(range(20), 50) == 9.0
    # p95 over 199 samples: rank 190, 9 above; over 200: rank 190, 10 above.
    assert stats.percentile(range(199), 95) is None
    assert stats.percentile(range(200), 95) == 189.0


def test_percentile_ignores_input_order_and_rejects_bad_q():
    values = list(range(300))[::-1]
    assert stats.percentile(values, 95) == 284.0
    assert stats.percentile([], 50) is None
    with pytest.raises(ValueError):
        stats.percentile(values, 100)


# -- self time --------------------------------------------------------------


def test_self_time_subtracts_the_children():
    spans = [
        Span(0, None, "parent", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 3.0),
        Span(2, 0, "b", 4.0, 6.0),
        Span(3, 1, "leaf", 1.5, 2.5),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 2.0 - 2.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)
    totals = layer_totals(spans)
    assert totals["parent"] == {"calls": 1, "s": 10.0, "self_s": pytest.approx(6.0)}


def test_tracer_wraps_every_binding_and_restores_them():
    def leaf(x):
        return x + 1

    def outer(x):
        return pkg_sub.leaf(x) * 2

    pkg = types.ModuleType("fakepkg")
    pkg_sub = types.ModuleType("fakepkg.sub")
    pkg.leaf = leaf
    pkg_sub.leaf = leaf
    pkg_sub.outer = outer
    sys.modules.update({"fakepkg": pkg, "fakepkg.sub": pkg_sub})
    try:
        tracer = Tracer("run-1")
        assert tracer.wrap_function(leaf, "leaf", package="fakepkg") == 2
        assert tracer.wrap_function(outer, "outer", package="fakepkg") == 1
        assert pkg_sub.outer(1) == 4
        assert pkg.leaf(1) == 2
        tracer.restore()
        assert pkg.leaf is leaf and pkg_sub.leaf is leaf and pkg_sub.outer is outer
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.sub"]
    names = [(s.name, s.parent) for s in tracer.spans]
    outer_span = next(s for s in tracer.spans if s.name == "outer")
    assert names.count(("leaf", outer_span.id)) == 1
    assert names.count(("leaf", None)) == 1
    assert layer_totals(tracer.spans)["leaf"]["calls"] == 2


def test_tracer_does_not_nest_a_layer_inside_itself():
    class Thing:
        def work(self, depth):
            return depth if depth == 0 else self.work(depth - 1)

    tracer = Tracer("run-2")
    tracer.wrap_method(Thing, "work", "thing.work")
    assert Thing().work(3) == 0
    tracer.restore()
    assert [s.name for s in tracer.spans] == ["thing.work"]


# -- output checks ----------------------------------------------------------


def test_compare_points_tolerates_a_hundredth_of_a_picosecond_only():
    want = [{"d_s": 1e-10, "ok": True, "n": 2}]
    close = [{"d_s": 1e-10 + 0.9 * DELAY_TOLERANCE_S, "ok": True, "n": 2}]
    assert compare_points(close, want, ("d_s", "ok", "n"), "x") == []
    far = [{"d_s": 1e-10 + 2 * DELAY_TOLERANCE_S, "ok": True, "n": 2}]
    assert len(compare_points(far, want, ("d_s",), "x")) == 1
    flipped = [{"d_s": 1e-10, "ok": 1, "n": 2.0}]
    assert len(compare_points(flipped, want, ("ok", "n"), "x")) == 2
    assert compare_points([], want, ("d_s",), "x") == ["x: 0 points, expected 1"]


def test_legs_name_known_workloads_and_emitted_metrics():
    for cls in WORKLOADS.values():
        for name, _workers, prefixes in cls.legs:
            assert name in WORKLOADS
            for prefix in prefixes:
                assert any(metric.startswith(prefix) for metric in METRICS), prefix


# -- names and the BENCHMARK.json schema -----------------------------------


def _emitted():
    return {
        **run.END_TO_END_UNITS,
        **METRICS,
        **run.TRACE_ONLY_UNITS,
    }


def test_every_emitted_metric_name_and_unit_is_valid():
    for name, unit in _emitted().items():
        assert NAME_RE.fullmatch(name), name
        assert UNIT_RE.fullmatch(unit), (name, unit)


@pytest.fixture(scope="module")
def bench():
    path = os.path.join(ROOT, "BENCHMARK.json")
    assert os.path.getsize(path) <= 64 * 1024
    with open(path) as handle:
        return json.load(handle)


def test_benchmark_json_top_level(bench):
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert 1 <= len(bench["paths"]) <= 16
    for path in bench["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path)
        assert not path.startswith("/") and ".." not in path.split("/")
        assert os.path.isdir(os.path.join(ROOT, path))
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60


def test_benchmark_json_workloads(bench):
    workloads = bench["workloads"]
    assert 2 <= len(workloads) <= 8
    for entry in workloads:
        assert set(entry) == {"name", "why"}
        assert entry["name"] in WORKLOADS
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200
    # A full round of 4 + 22 runs per workload must fit in 3420 s even
    # if each run did nothing but measure.
    assert (4 + 22 * len(workloads)) * bench["run_seconds"] < 3420


def test_benchmark_json_metrics_match_what_the_benchmark_emits(bench):
    names = []
    for entry in bench["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert entry["better"] in ("lower", "higher")
        assert 0 < entry["bound"] <= 0.25
        assert run.END_TO_END_UNITS[entry["name"]] == entry["unit"]
        names.append(entry["name"])
    assert 1 <= len(bench["end_to_end"]) <= 16
    setup = next(e for e in bench["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in bench["end_to_end"])
    assert set(names) == set(run.END_TO_END_UNITS)
    layer = {**METRICS, **run.TRACE_ONLY_UNITS}
    for entry in bench["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        assert layer[entry["name"]] == entry["unit"]
        names.append(entry["name"])
    assert 1 <= len(bench["per_layer"]) <= 128
    assert {e["name"] for e in bench["per_layer"]} == set(layer)
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) for n in names)
