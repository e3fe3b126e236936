"""Which ``repro`` functions the traced run wraps, and the per-layer metrics.

:class:`LayerProbe` installs wrappers around the public functions of
each ``src/repro`` module (see :data:`SPANS`), plus a few counting
hooks on the campaign planner and the worker pool, and turns the spans
and the counters ``repro.instrument`` already records into the
``<module>.<what>`` metrics listed in ``perfbench/README.md``.

Everything is per traced iteration (one campaign, or one streamed
record), so the numbers do not depend on how many iterations fit into
a run.  Spans are taken in the benchmark's process only: work done
inside ``spawn://`` workers shows through the instrument counters the
workers ship back (kernel calls, samples and seconds), not as spans.
"""

from __future__ import annotations

import collections
import importlib
import time
from typing import Dict

from spantrace import Tracer, layer_totals

#: (module, function or ``Class.method``, span name).
SPANS = [
    ("repro.kernels", "fine_delay_cascade", "kernels.cascade"),
    ("repro.kernels", "fine_delay_cascade_batch", "kernels.cascade_batch"),
    ("repro.kernels", "fine_delay_cascade_stream", "kernels.cascade_stream"),
    ("repro.core.combined", "calibrate_lines_pack", "core.calibrate"),
    ("repro.core.combined", "CombinedDelayLine.calibrate", "core.calibrate"),
    ("repro.core.streaming", "StreamProcessor.push", "core.stream_push"),
    ("repro.signals.nrz", "synthesize_nrz", "signals.render"),
    ("repro.signals.nrz", "NRZStreamSource.__next__", "signals.render"),
    ("repro.analysis.measurements", "measure_delay", "analysis.measure_delay"),
    ("repro.analysis.measurements", "measure_delays_batch", "analysis.measure_delay"),
    ("repro.ate.deskew", "DeskewController.deskew", "ate.deskew"),
    ("repro.ate.bus", "ParallelBus.calibrate_delay_lines", "ate.bus_calibrate"),
    ("repro.ate.bert", "StreamingBitSampler.push", "ate.sampler"),
    ("repro.ate.bert", "ErrorCounter.add", "ate.counter"),
    ("repro.campaign.runner", "run_campaign", "campaign.run"),
    ("repro.campaign.spec", "expand_points", "campaign.expand"),
    ("repro.campaign.cache", "ResultCache.get", "campaign.cache_get"),
    ("repro.campaign.cache", "ResultCache.put", "campaign.cache_put"),
    ("repro.campaign.report", "build_report", "campaign.report"),
    ("repro.workers.pool", "WorkerPool.start", "workers.connect"),
    ("repro.workers.pool", "WorkerPool.wait_for_workers", "workers.connect"),
    ("repro.workers.protocol", "decode_tree", "parallel.decode"),
    ("repro.parallel", "decode_payload", "parallel.decode"),
]

#: Kernel ops reported one by one, by their short layer name.
KERNEL_OPS = {
    "cascade": "fine_delay_cascade",
    "cascade_batch": "fine_delay_cascade_batch",
    "cascade_stream": "fine_delay_cascade_stream",
}

#: Every metric :meth:`LayerProbe.metrics` returns, with its unit.
METRICS = {
    **{
        f"kernels.{short}.{what}": unit
        for short in KERNEL_OPS
        for what, unit in (("calls", "count"), ("s", "s"), ("samples_per_s", "1/s"))
    },
    "kernels.self_frac": "ratio",
    "core.calibrate.calls": "count",
    "core.calibrate.s": "s",
    "core.calibrate.self_s": "s",
    "core.stream_push_self_s": "s",
    "signals.render_s": "s",
    "analysis.measure_delay.calls": "count",
    "analysis.measure_delay.s": "s",
    "ate.deskew_s": "s",
    "ate.bus_calibrate_s": "s",
    "ate.sampler_s": "s",
    "ate.counter_s": "s",
    "campaign.run_self_s": "s",
    "campaign.expand_s": "s",
    "campaign.packs": "count",
    "campaign.pack_fill": "ratio",
    "campaign.pack_fallback": "count",
    "campaign.cache_put_s": "s",
    "campaign.cache_get_s": "s",
    "campaign.report_s": "s",
    "workers.connect_s": "s",
    "workers.busy_frac": "ratio",
    "workers.dispatched": "count",
    "workers.revokes": "count",
    "workers.steal_requested": "count",
    "workers.steal_useful_frac": "ratio",
    "workers.dead": "count",
    "workers.requeued": "count",
    "workers.units_per_worker_max": "count",
    "workers.units_per_worker_min": "count",
    "parallel.decode_s": "s",
}


def _resolve(module_name: str, qualname: str):
    owner = importlib.import_module(module_name)
    *classes, attr = qualname.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


class LayerProbe:
    """Wrap the layers for traced iterations; derive per-layer metrics."""

    def __init__(self, run_id: str):
        self.tracer = Tracer(run_id)
        self.tally: Dict[str, float] = collections.Counter()

    def install(self) -> None:
        tracer = self.tracer
        for module_name, qualname, name in SPANS:
            owner, attr = _resolve(module_name, qualname)
            if isinstance(owner, type):
                tracer.wrap_method(owner, attr, name)
            elif tracer.wrap_function(getattr(owner, attr), name) == 0:
                raise RuntimeError(f"no binding of {module_name}.{attr} to trace")
        self._install_hooks()

    def restore(self) -> None:
        self.tracer.restore()

    def _install_hooks(self) -> None:
        """Counting wrappers that need the arguments or the result."""
        from repro.campaign import runner
        from repro.workers import pool

        tally, tracer = self.tally, self.tracer
        units: Dict[str, int] = collections.Counter()  # per worker, one pool
        plan_packs = runner.plan_packs

        def planned(points, lanes, key_of, weight_of):
            plan = plan_packs(points, lanes, key_of, weight_of)
            packed = [unit for unit in plan if len(unit) > 1]
            tally["packs"] += len(packed)
            tally["lanes_used"] += sum(weight_of(p) for unit in packed for p in unit)
            tally["lane_budget"] += lanes * len(packed)
            return plan

        tracer.install(runner, "plan_packs", planned)

        send = pool._WorkerHandle.send

        def counted_send(handle, obj, frames=()):
            if obj.get("type") == "batch":
                grouped = obj.get("packs", [])
                loose = len(obj["points"]) - sum(len(group) for group in grouped)
                units[handle.name] += len(grouped) + loose
            return send(handle, obj, frames)

        tracer.install(pool._WorkerHandle, "send", counted_send)

        # A revoke spin can send 1e5 revokes per campaign; count them
        # rather than keep a span each.
        revoke = pool.WorkerPool._revoke

        def counted_revoke(worker_pool, handle, indices):
            tally["revokes"] += 1
            return revoke(worker_pool, handle, indices)

        tracer.install(pool.WorkerPool, "_revoke", counted_revoke)

        run = pool.WorkerPool.run

        def timed_run(worker_pool, points, *, on_result, **kwargs):
            def on_point(point, metrics, duration_s, snapshot):
                tally["busy_s"] += duration_s
                return on_result(point, metrics, duration_s, snapshot)

            units.clear()
            start = time.perf_counter()
            try:
                return tracer.call(
                    "workers.run", run, (worker_pool, points), dict(kwargs, on_result=on_point)
                )
            finally:
                live = [handle.name for handle in worker_pool.live_workers()]
                tally["worker_s"] += max(1, len(live)) * (time.perf_counter() - start)
                # Placement: units (packs or single points) sent to the
                # busiest and the idlest worker of this pool.
                placed = [units[name] for name in set(live) | set(units)]
                tally["units_max"] += max(placed, default=0)
                tally["units_min"] += min(placed, default=0)

        tracer.install(pool.WorkerPool, "run", timed_run)

    def metrics(self, counters: Dict[str, float], iterations: int, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics per traced iteration.

        *counters* are the instrument counters recorded over the traced
        iterations; *wall_s* is their summed wall time.
        """
        layers = layer_totals(self.tracer.spans)
        per = 1.0 / iterations
        tally = self.tally

        def inclusive(name):
            return layers.get(name, {}).get("s", 0.0) * per

        def self_s(name):
            return layers.get(name, {}).get("self_s", 0.0) * per

        def calls(name):
            return layers.get(name, {}).get("calls", 0) * per

        def ratio(num, den):
            return num / den if den else 0.0

        out: Dict[str, float] = {}
        for short, op in KERNEL_OPS.items():
            seconds = counters.get(f"kernels.{op}.seconds", 0.0)
            out[f"kernels.{short}.calls"] = counters.get(f"kernels.{op}.calls", 0) * per
            out[f"kernels.{short}.s"] = seconds * per
            out[f"kernels.{short}.samples_per_s"] = ratio(
                counters.get(f"kernels.{op}.samples", 0), seconds
            )
        kernel_s = sum(
            value
            for name, value in counters.items()
            if name.startswith("kernels.") and name.endswith(".seconds")
        )
        out["kernels.self_frac"] = ratio(kernel_s, wall_s)
        out["core.calibrate.calls"] = calls("core.calibrate")
        out["core.calibrate.s"] = inclusive("core.calibrate")
        out["core.calibrate.self_s"] = self_s("core.calibrate")
        out["core.stream_push_self_s"] = self_s("core.stream_push")
        out["signals.render_s"] = inclusive("signals.render")
        out["analysis.measure_delay.calls"] = calls("analysis.measure_delay")
        out["analysis.measure_delay.s"] = inclusive("analysis.measure_delay")
        out["ate.deskew_s"] = inclusive("ate.deskew")
        out["ate.bus_calibrate_s"] = inclusive("ate.bus_calibrate")
        out["ate.sampler_s"] = inclusive("ate.sampler")
        out["ate.counter_s"] = inclusive("ate.counter")
        out["campaign.run_self_s"] = self_s("campaign.run")
        out["campaign.expand_s"] = inclusive("campaign.expand")
        out["campaign.packs"] = tally["packs"] * per
        out["campaign.pack_fill"] = ratio(tally["lanes_used"], tally["lane_budget"])
        out["campaign.pack_fallback"] = counters.get("campaign.pack_fallback_scalar", 0) * per
        out["campaign.cache_put_s"] = inclusive("campaign.cache_put")
        out["campaign.cache_get_s"] = inclusive("campaign.cache_get")
        out["campaign.report_s"] = inclusive("campaign.report")
        dispatched = counters.get("workers.points.dispatched", 0)
        stolen = counters.get("workers.points.stolen", 0)
        requeued = counters.get("workers.points.requeued", 0)
        # Each scheduled point is dispatched once; every further dispatch
        # re-sends a point that a steal (or a dead worker) gave back.
        scheduled = counters.get("campaign.points.scheduled", 0)
        out["workers.connect_s"] = inclusive("workers.connect")
        out["workers.busy_frac"] = ratio(tally["busy_s"], tally["worker_s"])
        out["workers.dispatched"] = dispatched * per
        out["workers.revokes"] = tally["revokes"] * per
        out["workers.steal_requested"] = stolen * per
        out["workers.steal_useful_frac"] = ratio(
            max(0.0, dispatched - scheduled - requeued), stolen
        )
        out["workers.dead"] = counters.get("workers.dead", 0) * per
        out["workers.requeued"] = requeued * per
        out["workers.units_per_worker_max"] = tally["units_max"] * per
        out["workers.units_per_worker_min"] = tally["units_min"] * per
        out["parallel.decode_s"] = inclusive("parallel.decode")
        return out
