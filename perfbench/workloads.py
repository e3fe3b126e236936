"""The benchmark's workloads: inputs from a seed, one timed call, checks.

Each workload builds its inputs from ``--seed`` in ``__init__``, makes
one discarded warm-up call in :meth:`warm_up`, and times one iteration
per :meth:`run_once` call, returning an :class:`Iteration` that carries
its own output-check failures.  The program is reached only through
module attributes (``runner.run_campaign``, ``report.build_report``),
so the traced run's wrappers see every call.

Why each workload exists is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: The seed whose outputs ``reference.json`` stores.
DEFAULT_SEED = 1
#: Delay metrics may drift by this much across kernel paths (0.01 ps).
DELAY_TOLERANCE_S = 1e-14
#: The campaign CLI's default lane budget.
BATCH_LANES = "auto"


@dataclass
class Iteration:
    """One timed call: its timings, item counts and check failures."""

    wall_s: float
    first_result_s: float
    items: int
    failed: int
    chunk_s: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def compare_points(got: List[dict], want: List[dict], keys, label: str) -> List[str]:
    """Delay metrics (``*_s``) within 0.01 ps; anything else exactly."""
    if len(got) != len(want):
        return [f"{label}: {len(got)} points, expected {len(want)}"]
    problems = []
    for index, (mine, theirs) in enumerate(zip(got, want)):
        for key in keys:
            a, b = mine.get(key), theirs.get(key)
            if key.endswith("_s") and isinstance(a, float) and isinstance(b, float):
                ok = abs(a - b) <= DELAY_TOLERANCE_S
            else:
                ok = a == b and type(a) is type(b)
            if not ok:
                problems.append(f"{label}: point {index} {key} = {a!r}, expected {b!r}")
    return problems


class CampaignWorkload:
    """A campaign run through ``run_campaign`` with a fresh cache per call."""

    name = ""
    workers: Optional[str] = None
    #: Extra traced calls of the traced run, for layers the workload's
    #: own calls do not reach: (workload, workers, metric prefixes).
    legs: tuple = ()
    keys: tuple = ()

    def __init__(self, seed: int, work_dir: str):
        from repro.campaign import report, runner, spec

        self.work_dir = work_dir
        self.runner = runner
        self.report = report
        self.spec = spec.CampaignSpec.from_dict(self.spec_dict(seed))
        self.n_points = self.spec.n_points()
        self.reference = None
        if seed == DEFAULT_SEED:
            self.reference = load_reference()[self.name]["points"]
        self.first_outputs: Optional[List[dict]] = None

    @classmethod
    def spec_dict(cls, seed: int) -> dict:
        raise NotImplementedError

    def warm_up(self) -> None:
        points = self.spec.expand()
        self.runner.evaluate_pack(points[:2])

    def run_once(self) -> Iteration:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.work_dir)
        first: List[float] = []
        try:
            start = time.perf_counter()

            def progress(done: int, total: int) -> None:
                if not first:
                    first.append(time.perf_counter() - start)

            result = self.runner.run_campaign(
                self.spec,
                cache_dir=cache_dir,
                progress=progress,
                workers=self.workers,
                batch_lanes=BATCH_LANES,
            )
            built = self.report.build_report(result)
            wall = time.perf_counter() - start
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        failed = sum(1 for status in result.statuses if status != "computed")
        outputs = [m or {} for m in result.metrics]
        problems = self.check(result, built, outputs)
        return Iteration(
            wall_s=wall,
            first_result_s=first[0] if first else wall,
            items=self.n_points,
            failed=failed,
            problems=problems,
        )

    def check(self, result, built: dict, outputs: List[dict]) -> List[str]:
        problems = []
        try:
            self.report.validate_report(built)
        except Exception as error:  # any rejection is a failed check
            problems.append(f"report rejected: {error}")
        if not result.complete or result.computed != self.n_points:
            problems.append(
                f"{result.computed}/{self.n_points} points computed, "
                f"missing {result.missing_indices()}"
            )
        for index, metrics in enumerate(outputs):
            problems.extend(f"point {index}: {p}" for p in self.invariants(metrics))
        if self.reference is not None:
            problems.extend(compare_points(outputs, self.reference, self.keys, "reference"))
        # Every call computes the same points: later iterations must
        # reproduce the first one (whatever the seed).
        if self.first_outputs is None:
            self.first_outputs = outputs
        else:
            problems.extend(
                compare_points(outputs, self.first_outputs, self.keys, "repeat")
            )
        return problems

    def invariants(self, metrics: dict) -> List[str]:
        raise NotImplementedError


class RangeMC(CampaignWorkload):
    """Range-scenario Monte-Carlo: 16 instances at one bit rate, in-process.

    The per-point shape and the 16 instances per bit rate are those of
    the 64-point spec in ``benchmarks/test_campaign_batched.py``, so a
    pack is as wide (16 lanes) as there; one bit rate of its four keeps
    a call short enough for a run to time several.
    """

    name = "range_mc"
    keys = ("total_range_s", "fine_range_s")
    legs = (
        # The worker pool, on this spec over two spawned workers.
        ("range_mc", "spawn://2", ("workers.", "parallel.")),
        # The deskew layers and the scalar cascade, in-process.
        ("deskew_spawn2", None, ("ate.deskew", "ate.bus_calibrate", "kernels.cascade.")),
    )

    @classmethod
    def spec_dict(cls, seed: int) -> dict:
        return {
            "name": "bench-range-mc",
            "scenario": "range",
            "seed": seed,
            "n_instances": 16,
            "base": {"n_bits": 32, "n_points": 5, "measure_jitter": False},
            "sweeps": [{"name": "bit_rate", "values": ["3.2 Gbps"]}],
        }

    def invariants(self, metrics: dict) -> List[str]:
        total = metrics.get("total_range_s")
        fine = metrics.get("fine_range_s")
        if not all(isinstance(v, float) and math.isfinite(v) for v in (total, fine)):
            return [f"non-finite ranges {total!r}, {fine!r}"]
        if not 0.0 < fine <= total:
            return [f"ranges out of order: fine {fine!r}, total {total!r}"]
        return []


class DeskewSpawn2(CampaignWorkload):
    """Deskew-scenario campaign over two spawned workers."""

    name = "deskew_spawn2"
    workers = "spawn://2"
    keys = ("initial_spread_s", "final_spread_s", "total_range_s", "converged", "iterations")
    tolerance_s = 5e-12
    max_iterations = 4

    @classmethod
    def spec_dict(cls, seed: int) -> dict:
        return {
            "name": "bench-deskew-spawn2",
            "scenario": "deskew",
            "seed": seed,
            "n_instances": 8,
            "base": {
                "n_channels": 2,
                "n_bits": 48,
                "n_cal_points": 5,
                "measurement": "event",
                "tolerance": "5 ps",
                "max_iterations": cls.max_iterations,
            },
            "sweeps": [],
        }

    def invariants(self, metrics: dict) -> List[str]:
        final = metrics.get("final_spread_s")
        if not (isinstance(final, float) and final >= 0.0):
            return [f"bad final spread {final!r}"]
        problems = []
        if metrics.get("converged") is not (final <= self.tolerance_s):
            problems.append(f"converged={metrics.get('converged')!r} with spread {final!r}")
        # Event measurement adds one waveform-measured trim pass.
        if not 0 <= metrics.get("iterations", -1) <= self.max_iterations + 1:
            problems.append(f"iterations {metrics.get('iterations')!r}")
        if not metrics.get("total_range_s", 0.0) > 0.0:
            problems.append(f"total range {metrics.get('total_range_s')!r}")
        return problems


class StreamBert:
    """A 2**20-bit chunked BERT through ``FineDelayLine.open_stream()``.

    The loop is the public one (``NRZStreamSource`` -> ``push`` ->
    ``StreamingBitSampler`` -> ``ErrorCounter``), driven here so every
    chunk is timed: a chunk's service time covers rendering it, pushing
    it through the line, sampling and counting its bits.
    """

    name = "stream_bert"
    legs: tuple = ()
    bit_rate = 6.4e9
    samples_per_ui = 8
    prbs_order = 7
    chunk_bits = 4096
    total_bits = 2 ** 20

    def __init__(self, seed: int, work_dir: str):
        from repro.ate import bert
        from repro.core.fine_delay import FineDelayLine
        from repro.signals import nrz, patterns

        self.bert = bert
        self.nrz = nrz
        self.patterns = patterns
        self.unit_interval = 1.0 / self.bit_rate
        self.dt = self.unit_interval / self.samples_per_ui
        self.pattern = patterns.prbs_sequence(self.prbs_order, 2 ** self.prbs_order - 1)
        self.line = FineDelayLine(seed=seed)
        self.delay_s = self.calibrate(self.line)
        self.problems: List[str] = []
        if not (math.isfinite(self.delay_s) and self.delay_s > 0.0):
            self.problems.append(f"calibrated delay {self.delay_s!r}")
        if seed == DEFAULT_SEED:
            want = load_reference()[self.name]["delay_s"]
            if abs(self.delay_s - want) > DELAY_TOLERANCE_S:
                self.problems.append(f"calibrated delay {self.delay_s!r}, expected {want!r}")

    @classmethod
    def calibrate(cls, line) -> float:
        """The line's delay on a short monolithic record.

        The sampler strobes at bit centre plus this delay, as the
        stream_bert experiment calibrates its decision instant.
        """
        from repro.analysis.measurements import measure_delay
        from repro.signals.nrz import synthesize_nrz
        from repro.signals.patterns import prbs_sequence

        dt = 1.0 / cls.bit_rate / cls.samples_per_ui
        bits = prbs_sequence(cls.prbs_order, 2 * (2 ** cls.prbs_order - 1))
        cal_input = synthesize_nrz(bits, cls.bit_rate, dt)
        return measure_delay(cal_input, line.process(cal_input)).delay

    def _pipeline(self, n_bits: int):
        source = self.nrz.NRZStreamSource(
            self.patterns.PRBSGenerator(self.prbs_order).take,
            self.bit_rate,
            self.dt,
            chunk_samples=self.chunk_bits * self.samples_per_ui,
            n_bits=n_bits,
        )
        sampler = self.bert.StreamingBitSampler(
            self.unit_interval, 0.5 * self.unit_interval + self.delay_s
        )
        return source, self.line.open_stream(), sampler, self.bert.ErrorCounter(self.pattern)

    def warm_up(self) -> None:
        source, processor, sampler, counter = self._pipeline(self.chunk_bits)
        counter.add(sampler.push(processor.push(next(iter(source)))))

    def run_once(self) -> Iteration:
        source, processor, sampler, counter = self._pipeline(self.total_bits)
        chunks = iter(source)
        chunk_s: List[float] = []
        first = None
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            chunk = next(chunks, None)
            if chunk is None:
                break
            bits = sampler.push(processor.push(chunk))
            # The record's trailing pad holds the last level past the
            # final bit; strobes landing there are not pattern bits.
            remaining = self.total_bits - counter.n_bits
            if remaining > 0:
                counter.add(bits[:remaining])
            now = time.perf_counter()
            chunk_s.append(now - t0)
            if first is None:
                first = now - start
        wall = time.perf_counter() - start
        problems = list(self.problems)
        if counter.n_bits != self.total_bits:
            problems.append(f"{counter.n_bits}/{self.total_bits} bits compared")
        if counter.n_errors:
            problems.append(f"{counter.n_errors} bit errors")
        return Iteration(
            wall_s=wall,
            first_result_s=first if first is not None else wall,
            items=self.total_bits,
            failed=self.total_bits - counter.n_bits + counter.n_errors,
            chunk_s=chunk_s,
            problems=problems,
        )


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (RangeMC, DeskewSpawn2, StreamBert)
}
