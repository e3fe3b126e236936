"""The campaign execution engine: expand, schedule, cache, collect.

:func:`run_campaign` expands a :class:`~repro.campaign.spec.CampaignSpec`
into points, satisfies as many as possible from the content-addressed
cache, and schedules the rest on one of two paths: an in-process loop
(``jobs=1``) or a :class:`~repro.workers.pool.WorkerPool` (``jobs=N``
is spelled ``spawn://N``; ``workers`` names any endpoint spec).  Both
paths settle results through the same function — metrics, status,
instrument snapshot, cache write, progress — so failure attribution,
failure drain and kill-resume behave alike.  Every point is evaluated
with a seed derived from its own identity, so results are bit-for-bit
identical regardless of worker count or completion order, and every
computed point is written to the cache as soon as it finishes — a
killed campaign resumes from exactly where it died.

Scenario evaluators
-------------------
``range``
    One combined coarse+fine delay line per instance, its physics
    drawn from the variation model, calibrated through the full path;
    metrics are the calibrated total range and (optionally) the added
    peak-to-peak jitter of a PRBS run at mid delay — the paper's
    >= 120 ps and < 5 ps claims (Figs. 10, 12, 15).
``deskew``
    One parallel bus per instance with per-channel device variation,
    calibrated and deskewed; metrics are the initial/final bus skew
    spread, convergence, and the weakest channel's calibrated range —
    the paper's < 5 ps deskew claim (Sec. 1/6) as a yield number.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from .. import instrument
from ..ate.bus import ParallelBus
from ..ate.deskew import DeskewController
from ..core.calibration import calibration_stimulus
from ..core.combined import (
    CombinedDelayLine,
    calibrate_lines_pack,
    process_lines_pack,
)
from ..core.params import (
    COARSE_TAP_ERRORS,
    FOUR_STAGE_BUFFER,
    SOURCE_RISE_TIME,
)
from ..errors import CampaignError
from ..parallel import validate_jobs
from ..experiments.common import WARMUP_TIME, steady_state
from ..signals.patterns import prbs_sequence
from ..signals.nrz import synthesize_nrz
from ..signals.waveform import WaveformBatch
from ..analysis.measurements import peak_to_peak_jitter
from .cache import ResultCache
from .packing import plan_packs, resolve_batch_lanes
from .spec import (
    PACK_STRUCTURAL_PARAMS,
    CampaignPoint,
    CampaignSpec,
    expand_points,
)

__all__ = [
    "CampaignResult",
    "PackPointFailure",
    "POINT_STATUSES",
    "evaluate_pack",
    "evaluate_point",
    "run_campaign",
]


# -- scenario evaluators ----------------------------------------------------

#: Per-scenario parameter defaults; a point may only set these keys.
_RANGE_DEFAULTS: Dict[str, object] = {
    "bit_rate": 2.4e9,
    "n_bits": 127,
    "dt": 1e-12,
    "n_points": 9,
    "n_stages": 4,
    "temperature_c": 25.0,
    "measure_jitter": True,
}

_DESKEW_DEFAULTS: Dict[str, object] = {
    "n_channels": 8,
    "bit_rate": 6.4e9,
    "n_bits": 127,
    "dt": 1e-12,
    "n_cal_points": 9,
    "skew_spread": 200e-12,
    "measurement": "event",
    "tolerance": 5e-12,
    "max_iterations": 4,
    "temperature_c": 25.0,
}

_INT_PARAMS = frozenset(
    {
        "n_bits",
        "n_points",
        "n_stages",
        "n_channels",
        "n_cal_points",
        "max_iterations",
    }
)


def _resolve_params(point: CampaignPoint, defaults: Dict[str, object]) -> dict:
    """Defaults overlaid with the point's params; unknown keys rejected."""
    unknown = sorted(set(point.params) - set(defaults))
    if unknown:
        raise CampaignError(
            f"scenario {point.scenario!r} does not take parameters "
            f"{unknown}; known: {sorted(defaults)}"
        )
    params = dict(defaults)
    params.update(point.params)
    for name in _INT_PARAMS & set(params):
        params[name] = int(round(float(params[name])))
    return params


def _evaluate_range(points: Sequence[CampaignPoint]) -> List[dict]:
    """Calibrated total range (and added jitter) of each device instance.

    One fused pass per phase over the whole pack: phase A builds every
    lane's device instance from its own seed spawns and variation
    draws; phase B runs all calibrations as one fused sweep
    (:func:`repro.core.combined.calibrate_lines_pack`); phase C renders
    every lane's mid-delay PRBS run as one fused pass.  Lane ``i``'s
    metrics are those of ``points[i]`` evaluated alone — bit-exactly on
    the python kernel backend.
    """
    resolved = [_resolve_params(p, _RANGE_DEFAULTS) for p in points]
    lines: List[CombinedDelayLine] = []
    stimuli = []
    spawned = []
    variations = []
    for point, params in zip(points, resolved):
        children = np.random.SeedSequence(point.seed()).spawn(3)
        variation = point.variation.draw(
            children[0], temperature_c=float(params["temperature_c"])
        )
        lines.append(
            CombinedDelayLine(
                seed=int(children[1].generate_state(1)[0]),
                buffer_params=variation.buffer_params(FOUR_STAGE_BUFFER),
                tap_errors=variation.tap_errors(COARSE_TAP_ERRORS),
                n_stages=params["n_stages"],
            )
        )
        stimuli.append(
            calibration_stimulus(
                bit_rate=float(params["bit_rate"]),
                n_bits=params["n_bits"],
                dt=float(params["dt"]),
                rise_time=variation.rise_time(SOURCE_RISE_TIME),
            )
        )
        spawned.append(children)
        variations.append(variation)
    solvers = calibrate_lines_pack(
        lines, stimuli, n_points=resolved[0]["n_points"]
    )
    results: List[dict] = [
        {
            "total_range_s": float(solver.total_range),
            "fine_range_s": float(solver.fine_table.range),
            "variation": variation.summary(),
        }
        for solver, variation in zip(solvers, variations)
    ]
    if resolved[0]["measure_jitter"]:
        # Added jitter at mid delay, fig12-style: clean PRBS in, total
        # peak-to-peak jitter out minus the (near-zero) input residue.
        # All structural parameters agree across the pack, so the
        # PRBS grid is shared; only the rise time varies per lane.
        params0 = resolved[0]
        ui = 1.0 / float(params0["bit_rate"])
        n_bits = max(
            params0["n_bits"], int(np.ceil(2 * WARMUP_TIME / ui)) + 16
        )
        bits = prbs_sequence(7, n_bits)
        patterns = [
            synthesize_nrz(
                bits,
                float(params0["bit_rate"]),
                float(params0["dt"]),
                rise_time=variation.rise_time(SOURCE_RISE_TIME),
            )
            for variation in variations
        ]
        for line, solver in zip(lines, solvers):
            line.set_delay(0.5 * solver.total_range)
        rngs = [
            np.random.default_rng(children[2]) for children in spawned
        ]
        outs = process_lines_pack(
            lines, WaveformBatch.from_waveforms(patterns), rngs
        )
        for k, result in enumerate(results):
            tj_in = peak_to_peak_jitter(steady_state(patterns[k]), ui)
            tj_out = peak_to_peak_jitter(steady_state(outs.lane(k)), ui)
            result["added_jitter_s"] = float(tj_out - tj_in)
    return results


def _evaluate_deskew(points: Sequence[CampaignPoint]) -> List[dict]:
    """Deskew one bus of varied device instances per point; report the
    residual.

    Points run one at a time: fusing several buses' calibrations into
    one lane pack measured slower on numpy than this loop.
    """
    results: List[dict] = []
    for point in points:
        params = _resolve_params(point, _DESKEW_DEFAULTS)
        n_channels = params["n_channels"]
        if params["measurement"] not in ("waveform", "event"):
            raise CampaignError(
                "deskew 'measurement' must be 'waveform' or 'event': "
                f"{params['measurement']!r}"
            )
        children = np.random.SeedSequence(point.seed()).spawn(
            n_channels + 2
        )
        temperature = float(params["temperature_c"])
        variations = [
            point.variation.draw(children[2 + i], temperature_c=temperature)
            for i in range(n_channels)
        ]
        bus = ParallelBus(
            n_channels=n_channels,
            bit_rate=float(params["bit_rate"]),
            skew_spread=float(params["skew_spread"]),
            seed=int(children[0].generate_state(1)[0]),
            buffer_params=[
                v.buffer_params(FOUR_STAGE_BUFFER) for v in variations
            ],
            tap_errors=[
                v.tap_errors(COARSE_TAP_ERRORS) for v in variations
            ],
            rise_times=[v.rise_time(SOURCE_RISE_TIME) for v in variations],
        )
        stimulus = calibration_stimulus(
            n_bits=params["n_bits"], dt=float(params["dt"])
        )
        bus.calibrate_delay_lines(
            stimulus=stimulus, n_points=params["n_cal_points"]
        )
        controller = DeskewController(
            bus,
            tolerance=float(params["tolerance"]),
            max_iterations=params["max_iterations"],
            dt=float(params["dt"]),
            n_bits=params["n_bits"],
            measurement=params["measurement"],
        )
        report = controller.deskew(np.random.default_rng(children[1]))
        results.append(
            {
                "initial_spread_s": float(report.initial_spread),
                "final_spread_s": float(report.final_spread),
                "converged": bool(report.converged),
                "iterations": int(report.iterations),
                # The paper's range requirement applied to the weakest
                # channel.
                "total_range_s": float(
                    min(line.total_range for line in bus.delay_lines)
                ),
                "variation": [v.summary() for v in variations],
            }
        )
    return results


class _Scenario(NamedTuple):
    """A scenario's parameter defaults and its evaluator.

    The evaluator takes a list of points and returns one metrics dict
    per point; a single point is a pack of one.
    """

    defaults: Dict[str, object]
    evaluate: Callable[[Sequence[CampaignPoint]], List[dict]]


_EVALUATORS: Dict[str, _Scenario] = {
    "range": _Scenario(_RANGE_DEFAULTS, _evaluate_range),
    "deskew": _Scenario(_DESKEW_DEFAULTS, _evaluate_deskew),
}


class PackPointFailure(CampaignError):
    """One lane of a pack failed; ``index`` names the failing point.

    Packs evaluate many points per call, so a bare exception could not
    say *which* point broke.  Only the in-process loop attributes it
    (a pool worker re-runs a failed pack lane by lane and reports the
    failing lane as a protocol frame); nothing pickles it any more.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message, index)
        self.message = message
        self.index = index

    def __str__(self) -> str:
        return self.message


def _pack_key(point: CampaignPoint) -> Optional[str]:
    """The point's lane-packing compatibility key (None: unpackable)."""
    scenario = _EVALUATORS.get(point.scenario)
    if scenario is None:
        return None
    try:
        resolved = _resolve_params(point, scenario.defaults)
    except CampaignError:
        # Let the point's own evaluation raise the precise error.
        return None
    return point.pack_key(resolved)


def _one_by_one(points: Sequence[CampaignPoint]) -> List[dict]:
    """Evaluate a pack's points each as a pack of one."""
    results = []
    for point in points:
        try:
            results.append(evaluate_point(point))
        except Exception as exc:
            raise PackPointFailure(str(exc), point.index) from exc
    return results


def evaluate_pack(points: Sequence[CampaignPoint]) -> List[dict]:
    """Evaluate a pack of compatible points; one metrics dict per lane.

    Deterministic: each result is a pure function of its point's
    identity (the point's seed derives from it), so any worker, any
    schedule, any ``--jobs`` width and any pack width produce the same
    metrics — bit-for-bit on the python kernel backend, within the
    kernel layer's 0.01 ps delay contract elsewhere; the pack merely
    fuses the kernel work.  A multi-point pack whose fused evaluation
    fails is retried one point at a time; a point that then still
    fails raises :class:`PackPointFailure` naming the lane, so
    schedulers can attribute the failure.
    """
    points = list(points)
    if not points:
        return []
    name = points[0].scenario
    scenario = _EVALUATORS.get(name)
    if scenario is None:
        raise CampaignError(
            f"unknown scenario {name!r}; known: {sorted(_EVALUATORS)} "
            f"(lane-packable: {sorted(PACK_STRUCTURAL_PARAMS)})"
        )
    # The scenario span splits wall-clock out by evaluator
    # ("campaign.point/range", "campaign.pack/range", ...), so a
    # --metrics-json manifest attributes time to evaluation, distinct
    # from the runner's cache_lookup and ipc.decode spans.
    if len(points) == 1:
        instrument.count("campaign.points.evaluated")
        with instrument.span(name):
            return scenario.evaluate(points)
    try:
        with instrument.span(name):
            results = scenario.evaluate(points)
    except Exception:
        instrument.count("campaign.pack_fallback_scalar", len(points))
        return _one_by_one(points)
    instrument.count("campaign.packs.evaluated")
    instrument.count("campaign.pack_lanes", len(points))
    instrument.count("campaign.points.evaluated", len(points))
    return results


def evaluate_point(point: CampaignPoint) -> dict:
    """Evaluate one campaign point: a pack of one (see :func:`evaluate_pack`)."""
    return evaluate_pack([point])[0]


def _failing_point(exc: BaseException, unit: Sequence[CampaignPoint]):
    """Which of the unit's points an evaluation exception belongs to."""
    if isinstance(exc, PackPointFailure):
        for point in unit:
            if point.index == exc.index:
                return point
    return unit[0]


# -- the engine -------------------------------------------------------------

#: Per-point outcome labels carried by :class:`CampaignResult`.
POINT_STATUSES = ("cached", "computed", "missing")


def _describe_point(point: CampaignPoint) -> str:
    """Human-readable point identity for error messages."""
    params = ", ".join(
        f"{name}={value!r}" for name, value in sorted(point.params.items())
    )
    return (
        f"point {point.index} (scenario={point.scenario!r}, "
        f"instance={point.instance}, {params or 'no params'})"
    )


@dataclass
class CampaignResult:
    """Everything one :func:`run_campaign` call produced.

    ``metrics[i]`` corresponds to ``points[i]`` (campaign expansion
    order) — the alignment is never compacted.  A point that was not
    evaluated keeps ``None`` in ``metrics`` and the explicit status
    ``"missing"`` in ``statuses``; satisfied points carry ``"cached"``
    or ``"computed"``.  ``computed`` / ``cached`` count the points by
    how they were satisfied; ``cache_stats`` is the cache's tally dict
    (empty when no cache directory was used).
    """

    spec: CampaignSpec
    points: List[CampaignPoint]
    metrics: List[Optional[dict]]
    computed: int
    cached: int
    duration_s: float
    jobs: int
    cache_stats: Dict[str, int] = field(default_factory=dict)
    statuses: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.statuses:
            # Back-compat construction (tests, report fixtures): infer
            # statuses from the metrics alignment.
            self.statuses = [
                "missing" if m is None else "computed" for m in self.metrics
            ]
        if len(self.statuses) != len(self.points) or len(
            self.metrics
        ) != len(self.points):
            raise CampaignError(
                f"campaign result misaligned: {len(self.points)} points, "
                f"{len(self.metrics)} metrics, {len(self.statuses)} statuses"
            )
        bad = sorted(set(self.statuses) - set(POINT_STATUSES))
        if bad:
            raise CampaignError(
                f"unknown point statuses {bad}; known: {POINT_STATUSES}"
            )

    @property
    def complete(self) -> bool:
        """True when every point was satisfied (no ``missing`` status)."""
        return "missing" not in self.statuses

    def missing_indices(self) -> List[int]:
        """Indices of points that were never evaluated."""
        return [
            index
            for index, status in enumerate(self.statuses)
            if status == "missing"
        ]


def run_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    workers: Optional[str] = None,
    batch_lanes: Union[int, str] = 1,
) -> CampaignResult:
    """Run every point of *spec*, reusing cached results where possible.

    Parameters
    ----------
    spec:
        The campaign to run.
    jobs:
        Local worker processes; ``1`` runs in-process.  ``N > 1`` with
        more than one pending point is ``workers="spawn://N"``: the
        same :class:`~repro.workers.pool.WorkerPool` path, not a second
        scheduler.  Results do not depend on this (per-point seeding is
        schedule-independent).
    batch_lanes:
        Lane-packing width: structurally-compatible pending points are
        grouped into packs of up to this many kernel lanes and each
        pack is evaluated as one fused multi-lane kernel pass
        (:func:`evaluate_pack`).  ``"auto"`` picks the active kernel
        backend's sweet spot; ``1`` (the default here; the CLIs
        default to ``"auto"``) keeps the scalar per-point path.
        Results do not depend on this either — every lane keeps its
        own per-point seed stream, and the cache stores plain
        per-point entries, so packed and scalar runs interoperate.
    workers:
        Optional :mod:`repro.workers` endpoint spec (e.g.
        ``"spawn://2"`` or ``"tcp://0.0.0.0:8761"``).  When given, the
        pending points are sharded across a
        :class:`~repro.workers.pool.WorkerPool` with heartbeat
        liveness and fault-tolerant requeue; *jobs* is then ignored
        for execution.  Results are still bit-for-bit identical —
        per-point seeding is schedule-independent and the wire format
        round-trips floats exactly.
    cache_dir:
        Directory for the content-addressed result cache; ``None``
        (and no *cache*) disables caching.
    cache:
        An existing :class:`~repro.campaign.cache.ResultCache` to use
        instead of constructing one from *cache_dir*.
    progress:
        Optional callback ``(done, total)`` invoked after each point.

    Raises
    ------
    CampaignError
        When one point's evaluation fails.  Already-completed points
        are still decoded and written to the cache first, so a rerun
        after the fix recomputes only what is genuinely missing, and
        the exception names the failing point.
    """
    jobs = validate_jobs(jobs, flag="jobs")
    lanes = resolve_batch_lanes(batch_lanes, flag="batch_lanes")
    if workers is not None:
        # Parse eagerly so a bad endpoint spec fails before any
        # compute, even when every point turns out to be cached.
        from ..workers.pool import parse_workers_spec

        parse_workers_spec(workers)
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)
    t0 = time.perf_counter()

    with instrument.span("campaign.run"):
        points = expand_points(spec)
        total = len(points)
        metrics: List[Optional[dict]] = [None] * total
        statuses: List[str] = ["missing"] * total
        pending: List[CampaignPoint] = []
        with instrument.span("cache_lookup"):
            for point in points:
                hit = None if cache is None else cache.get(point)
                if hit is not None:
                    metrics[point.index] = hit
                    statuses[point.index] = "cached"
                else:
                    pending.append(point)
        cached = total - len(pending)
        done = cached

        def settle(point, value, _duration_s=0.0, snapshot=None) -> None:
            """Record one computed point; the pool's ``on_result`` too."""
            nonlocal done
            metrics[point.index] = value
            statuses[point.index] = "computed"
            if snapshot is not None:
                instrument.get_registry().merge(snapshot)
            if cache is not None:
                cache.put(point, value)
            done += 1
            if progress is not None:
                progress(done, total)

        def failed(point, exc) -> CampaignError:
            return CampaignError(
                f"campaign {spec.name!r}: "
                f"{_describe_point(point)} failed: {exc}"
            )

        instrument.count("campaign.points.total", total)
        instrument.count("campaign.points.cached", cached)
        instrument.count("campaign.points.scheduled", len(pending))
        if progress is not None and done:
            progress(done, total)

        if lanes > 1:
            keys = {point.index: _pack_key(point) for point in pending}
            units = plan_packs(
                pending, lanes, lambda p: keys[p.index], lambda p: 1
            )
            # A fallback is a point of a packable scenario that runs
            # alone (unpackable params, or a leftover); scenarios that
            # never pack, such as deskew, are not counted.
            alone = sum(
                1
                for unit in units
                if len(unit) == 1
                and unit[0].scenario in PACK_STRUCTURAL_PARAMS
            )
            if alone:
                instrument.count("campaign.pack_fallback_scalar", alone)
        else:
            units = [[point] for point in pending]

        if workers is None and jobs > 1 and len(pending) > 1:
            # --jobs N is spelled spawn://N: one scheduler, one drain.
            workers = f"spawn://{jobs}"
        if workers is not None and pending:
            from ..workers.pool import PointFailure, WorkerPool

            packs = [
                [point.index for point in unit]
                for unit in units
                if len(unit) > 1
            ]
            # Keyword passed only when packing actually grouped lanes:
            # a scalar campaign drives the pool with the pre-packing
            # call shape.
            pack_kwargs = {"packs": packs} if packs else {}
            with WorkerPool(workers) as pool:
                try:
                    pool.run(
                        pending,
                        collect=instrument.enabled(),
                        on_result=settle,
                        **pack_kwargs,
                    )
                except PointFailure as exc:
                    raise failed(exc.point, exc) from exc
        else:
            for unit in units:
                try:
                    if len(unit) == 1:
                        with instrument.span("campaign.point"):
                            results = [evaluate_point(unit[0])]
                    else:
                        with instrument.span("campaign.pack"):
                            results = evaluate_pack(unit)
                except Exception as exc:
                    raise failed(_failing_point(exc, unit), exc) from exc
                for point, value in zip(unit, results):
                    settle(point, value)
    return CampaignResult(
        spec=spec,
        points=points,
        metrics=metrics,
        statuses=statuses,
        computed=statuses.count("computed"),
        cached=cached,
        duration_s=time.perf_counter() - t0,
        jobs=jobs,
        cache_stats={} if cache is None else cache.stats(),
    )
