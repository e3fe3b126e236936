"""The repository benchmark: one command, one workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload range_mc --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:
``setup_s`` is the median of several fresh interpreters that import,
build the workload and make one warm-up call; then the workload is
called in a closed loop (one caller, one call at a time) until
``--seconds`` have passed, and every timing is a median over those
calls.  ``--trace 1`` is the separate traced run: it makes the
workload's extra traced calls (its ``legs``), times fresh-interpreter
imports, then alternates untraced and traced calls until ``--seconds``
have passed since it began, and reports the per-layer metrics of
``layers.py``, the stream chunk latencies and the tracing overhead.
The spans of a traced run are written to ``.perfbench/``.

Every call's outputs are checked (see ``workloads.py``).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import uuid

import stats
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")

#: Fresh interpreters timed per set-up figure (median taken).
PROBES = 5
#: Fresh interpreters timed per import figure of the traced run.
IMPORT_PROBES = 3
#: Calls per timed run, at least, however long they take.
MIN_CALLS = 3
#: Modules whose fresh-interpreter import time the traced run reports.
IMPORTS = {
    "import.scipy_signal_s": "scipy.signal",
    "import.repro_s": "repro",
    "import.campaign_cli_s": "repro.campaign.__main__",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "first_result_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
}
TRACE_ONLY_UNITS = {
    **{name: "s" for name in IMPORTS},
    "instrument.overhead_frac": "ratio",
    "stream.chunk_p50_ms": "ms",
    "stream.chunk_p95_ms": "ms",
    "stream.chunks": "count",
    "run.failed_frac": "ratio",
}


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    return env


def _timed_child(argv) -> float:
    """Wall time of one fresh interpreter running *argv* to completion."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, *argv],
        env=_child_env(),
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def _import_time(module: str) -> float:
    """Seconds one fresh interpreter spends importing *module*."""
    code = (
        "import time, sys\n"
        "t = time.perf_counter()\n"
        f"import {module}\n"
        "sys.stderr.write(repr(time.perf_counter() - t))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=_child_env(),
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    return float(done.stderr.strip().splitlines()[-1])


def _rusage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    # Linux reports ru_maxrss in KiB.
    return cpu, max(own.ru_maxrss, children.ru_maxrss) / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def timed_run(workload, args) -> tuple:
    setup = [
        _timed_child([__file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"])
        for _ in range(PROBES)
    ]
    cpu0, _ = _rusage()
    calls = []
    start = time.perf_counter()
    # Stop before a call that would likely end past --seconds.
    while len(calls) < MIN_CALLS or (
        time.perf_counter() - start + calls[-1].wall_s < args.seconds
    ):
        calls.append(workload.run_once())
    cpu1, peak_rss = _rusage()
    wall = stats.median([c.wall_s for c in calls])
    metrics = {
        "setup_s": stats.median(setup),
        "wall_s": wall,
        "items_per_s": calls[0].items / wall,
        "first_result_s": stats.median([c.first_result_s for c in calls]),
        "cpu_s": (cpu1 - cpu0) / len(calls),
        "peak_rss_mib": peak_rss,
    }
    return calls, {name: _metric(v, END_TO_END_UNITS[name]) for name, v in metrics.items()}


def _traced_call(workload, probe, registry):
    """One call with the layer wrappers installed and counters recorded."""
    from repro import instrument

    try:
        probe.install()
        with instrument.registry_scope(registry):
            return workload.run_once()
    finally:
        probe.restore()


def _leg(name: str, workers, prefixes, args, run_id: str) -> tuple:
    """One traced call of workload *name* over *workers*.

    Only the metrics starting with one of *prefixes* are taken from it:
    they measure layers the traced workload's own calls do not reach.
    An in-process leg makes one untraced warm-up call first, as set-up
    does.
    """
    from layers import LayerProbe
    from repro import instrument

    workload = WORKLOADS[name](args.seed, WORK_DIR)
    workload.workers = workers
    if workers is None:
        workload.warm_up()
    probe, registry = LayerProbe(f"{run_id}-{name}"), instrument.Registry()
    call = _traced_call(workload, probe, registry)
    metrics = probe.metrics(registry.snapshot()["counters"], 1, call.wall_s)
    return call, {k: v for k, v in metrics.items() if k.startswith(prefixes)}, probe.tracer


def traced_run(workload, args) -> tuple:
    from layers import METRICS, LayerProbe
    from repro import instrument

    deadline = time.perf_counter() + args.seconds
    run_id = uuid.uuid4().hex
    calls, leg_metrics, tracers = [], {}, {}
    for name, workers, prefixes in workload.legs:
        call, metrics, tracers[f"-{name}-leg"] = _leg(name, workers, prefixes, args, run_id)
        calls.append(call)
        leg_metrics.update(metrics)
    metrics = {
        name: stats.median([_import_time(module) for _ in range(IMPORT_PROBES)])
        for name, module in IMPORTS.items()
    }
    probe = LayerProbe(run_id)
    registry = instrument.Registry()
    untraced, traced = [], []
    while not traced or time.perf_counter() < deadline:
        untraced.append(workload.run_once())
        traced.append(_traced_call(workload, probe, registry))
    counters = registry.snapshot()["counters"]
    metrics.update(
        probe.metrics(counters, len(traced), sum(c.wall_s for c in traced))
    )
    metrics.update(leg_metrics)
    metrics["instrument.overhead_frac"] = (
        stats.median([c.wall_s for c in traced])
        / stats.median([c.wall_s for c in untraced])
        - 1.0
    )
    chunks = [s for c in untraced for s in c.chunk_s]
    for q in (50, 95):
        value = stats.percentile(chunks, q)
        # No samples (a campaign workload) or too few above the rank.
        metrics[f"stream.chunk_p{q}_ms"] = 0.0 if value is None else 1e3 * value
    metrics["stream.chunks"] = len(chunks)
    calls += untraced + traced
    tracers[""] = probe.tracer
    metrics["run.failed_frac"] = sum(c.failed for c in calls) / sum(c.items for c in calls)
    for suffix, tracer in tracers.items():
        tracer.dump(
            os.path.join(WORK_DIR, f"trace-{args.workload}-seed{args.seed}-{run_id}{suffix}.json")
        )
    units = {**METRICS, **TRACE_ONLY_UNITS}
    return calls, {name: _metric(v, units[name]) for name, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = _child_env()["PYTHONPATH"]
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    if args.seed is None:
        args.seed = DEFAULT_SEED
    os.makedirs(WORK_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, WORK_DIR)
    workload.warm_up()
    if args.setup_probe:
        return 0

    run = traced_run if args.trace else timed_run
    calls, metrics = run(workload, args)
    for c in calls:
        print(f"call: wall {c.wall_s:.4f} s, first result {c.first_result_s:.4f} s", file=sys.stderr)
    problems = sorted({p for c in calls for p in c.problems})
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(c.items for c in calls),
                "failed": sum(c.failed for c in calls),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
