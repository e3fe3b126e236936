"""Tests for the observability core: registry, spans, counters."""

import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import instrument, kernels
from repro.instrument import Registry
from repro.kernels.cascade import CascadeStage

#: A noiseless one-stage cascade plan (a standalone buffer).
ONE_STAGE = [
    CascadeStage(
        amplitude=np.asarray(0.4),
        amplitude_min=0.1,
        v_linear=0.03,
        max_step=0.05,
        corner=np.inf,
        order=3,
        b=np.array([0.5, 0.5]),
        a=np.array([1.0, 0.0]),
        zi_unit=np.array([0.5]),
    )
]


@pytest.fixture(autouse=True)
def _clean_instrument_state():
    """Every test starts disabled with an empty global registry."""
    instrument.disable()
    instrument.get_registry().reset()
    yield
    instrument.disable()
    instrument.get_registry().reset()


class TestEnableDisable:
    def test_disabled_by_default(self):
        assert not instrument.enabled()

    def test_disabled_records_nothing(self):
        instrument.count("never", 5)
        with instrument.span("ghost"):
            pass
        snap = instrument.get_registry().snapshot()
        assert snap == {"counters": {}, "spans": {}}

    def test_enable_records(self):
        instrument.enable()
        instrument.count("widgets", 2)
        instrument.count("widgets")
        with instrument.span("work"):
            pass
        snap = instrument.get_registry().snapshot()
        assert snap["counters"]["widgets"] == 3
        assert snap["spans"]["work"]["calls"] == 1
        assert snap["spans"]["work"]["total_s"] >= 0.0

    def test_disable_stops_recording(self):
        instrument.enable()
        instrument.count("widgets")
        instrument.disable()
        instrument.count("widgets")
        snap = instrument.get_registry().snapshot()
        assert snap["counters"]["widgets"] == 1

    def test_enabled_scope_restores(self):
        with instrument.enabled_scope(reset=True) as registry:
            assert instrument.enabled()
            instrument.count("inside")
        assert not instrument.enabled()
        assert registry.snapshot()["counters"]["inside"] == 1

    def test_disabled_span_is_shared_noop(self):
        assert instrument.span("a") is instrument.span("b")


class TestNestedSpans:
    def test_nesting_builds_paths(self):
        instrument.enable()
        with instrument.span("outer"):
            with instrument.span("inner"):
                pass
            with instrument.span("inner"):
                pass
        spans = instrument.get_registry().snapshot()["spans"]
        assert spans["outer"]["calls"] == 1
        assert spans["outer/inner"]["calls"] == 2
        assert "inner" not in spans

    def test_same_name_at_different_depths(self):
        instrument.enable()
        with instrument.span("stage"):
            with instrument.span("stage"):
                pass
        spans = instrument.get_registry().snapshot()["spans"]
        assert set(spans) == {"stage", "stage/stage"}

    def test_parent_time_covers_child(self):
        instrument.enable()
        with instrument.span("parent"):
            with instrument.span("child"):
                pass
        spans = instrument.get_registry().snapshot()["spans"]
        assert spans["parent"]["total_s"] >= spans["parent/child"]["total_s"]

    def test_span_records_on_exception(self):
        instrument.enable()
        with pytest.raises(RuntimeError):
            with instrument.span("fails"):
                raise RuntimeError("boom")
        spans = instrument.get_registry().snapshot()["spans"]
        assert spans["fails"]["calls"] == 1
        # The stack unwound, so a new span is recorded at top level.
        with instrument.span("after"):
            pass
        assert "after" in instrument.get_registry().snapshot()["spans"]


class TestRegistryMerge:
    def test_merge_adds_counters_and_spans(self):
        a = Registry()
        b = Registry()
        a.count("shared", 1)
        b.count("shared", 2)
        b.count("only_b", 5)
        with a.span("stage"):
            pass
        with b.span("stage"):
            pass
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["shared"] == 3
        assert snap["counters"]["only_b"] == 5
        assert snap["spans"]["stage"]["calls"] == 2

    def test_merge_empty_snapshot_is_noop(self):
        a = Registry()
        a.count("x")
        before = a.snapshot()
        a.merge({"counters": {}, "spans": {}})
        assert a.snapshot() == before

    def test_reset_clears(self):
        a = Registry()
        a.count("x")
        with a.span("y"):
            pass
        a.reset()
        assert a.snapshot() == {"counters": {}, "spans": {}}

    def test_thread_safety_of_counters(self):
        registry = Registry()

        def hammer():
            for _ in range(1000):
                registry.count("hits")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.snapshot()["counters"]["hits"] == 4000


def _pool_worker(n: int) -> dict:
    """Top-level so the process pool can pickle it (mirrors the
    experiment runner's worker-side collection)."""
    from repro import instrument as worker_instrument

    worker_instrument.get_registry().reset()
    worker_instrument.enable()
    worker_instrument.count("pool.items", n)
    with worker_instrument.span("pool_work"):
        pass
    return worker_instrument.get_registry().snapshot()


class TestProcessPoolAggregation:
    def test_counters_aggregate_across_workers(self):
        values = [1, 2, 3, 4]
        parent = Registry()
        with ProcessPoolExecutor(max_workers=2) as pool:
            for snapshot in pool.map(_pool_worker, values):
                parent.merge(snapshot)
        snap = parent.snapshot()
        assert snap["counters"]["pool.items"] == sum(values)
        assert snap["spans"]["pool_work"]["calls"] == len(values)


class TestKernelDispatchCounters:
    @pytest.fixture(params=kernels.BACKEND_NAMES)
    def backend(self, request):
        with kernels.use_backend(request.param) as name:
            yield name

    def test_records_op_samples_and_backend(self, backend):
        x = np.sin(np.linspace(0.0, 30.0, 500))
        with instrument.enabled_scope(reset=True) as registry:
            kernels.fine_delay_cascade(x, ONE_STAGE, 1e-12)
        counters = registry.snapshot()["counters"]
        assert counters["kernels.fine_delay_cascade.calls"] == 1
        assert counters["kernels.fine_delay_cascade.samples"] == 500
        assert counters["kernels.fine_delay_cascade.seconds"] > 0.0
        assert counters[f"kernels.backend.{backend}.calls"] == 1

    def test_disabled_dispatch_records_nothing(self, backend):
        x = np.sin(np.linspace(0.0, 30.0, 500))
        kernels.fine_delay_cascade(x, ONE_STAGE, 1e-12)
        assert instrument.get_registry().snapshot()["counters"] == {}

    def test_counters_agree_across_backends(self):
        """Same workload -> identical call/sample tallies per backend."""
        x = np.sin(np.linspace(0.0, 40.0, 800))
        ref_edges = np.arange(10, dtype=np.float64)
        out_edges = ref_edges + 0.25
        tallies = {}
        for name in kernels.BACKEND_NAMES:
            with kernels.use_backend(name):
                with instrument.enabled_scope(reset=True) as registry:
                    kernels.fine_delay_cascade(x, ONE_STAGE, 1e-12)
                    kernels.match_edges(ref_edges, out_edges, 0.25, 1.0)
                    kernels.hysteresis_crossings(x, 0.02)
                counters = registry.snapshot()["counters"]
            tallies[name] = {
                key: value
                for key, value in counters.items()
                if key.endswith(".calls") or key.endswith(".samples")
                if not key.startswith("kernels.backend.")
            }
        reference = tallies[kernels.BACKEND_NAMES[0]]
        for name, tally in tallies.items():
            assert tally == reference, f"{name} disagrees: {tally}"


class TestRegistryScope:
    """The per-run scoping hook the campaign master daemon uses."""

    def test_counts_land_in_the_scoped_registry(self):
        private = Registry()
        before = instrument.get_registry()
        with instrument.registry_scope(private) as scoped:
            assert scoped is private
            assert instrument.get_registry() is private
            instrument.count("scope.test", 3)
        assert private.snapshot()["counters"] == {"scope.test": 3}
        # The previous registry is restored untouched.
        assert instrument.get_registry() is before
        assert "scope.test" not in before.snapshot()["counters"]

    def test_fresh_registry_by_default(self):
        with instrument.registry_scope() as scoped:
            instrument.count("scope.fresh")
            assert scoped.snapshot()["counters"] == {"scope.fresh": 1}

    def test_enabled_flag_restored(self):
        assert not instrument.enabled()
        with instrument.registry_scope():
            assert instrument.enabled()
        assert not instrument.enabled()

    def test_record_false_keeps_recording_off(self):
        with instrument.registry_scope(record=False) as scoped:
            instrument.count("scope.silent")
        assert scoped.snapshot()["counters"] == {}

    def test_scopes_isolate_sequential_runs(self):
        """Two runs, two registries, no cross-talk (the master's use)."""
        tallies = []
        for value in (2, 5):
            with instrument.registry_scope() as scoped:
                instrument.count("run.metric", value)
                tallies.append(
                    scoped.snapshot()["counters"]["run.metric"]
                )
        assert tallies == [2, 5]
