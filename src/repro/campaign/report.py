"""Yield reports: campaign metrics scored against the paper's spec lines.

A campaign produces one metrics dict per point; this module reduces
them to the numbers a test-floor review would ask for — what fraction
of instances meet each of the paper's headline requirements, where the
distribution tails sit, and which corner is worst — and serialises the
whole thing as a versioned ``repro.campaign-report`` JSON document.

The report separates a ``payload`` section (a pure function of the
spec and the deterministic per-point metrics, so a cold run and a
fully cached re-run produce byte-identical payloads) from a
``runtime`` section (wall time, worker count, cache tallies — true
facts about *this* run that must not participate in any equality
check).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import CampaignError
from .spec import canonical_json

__all__ = [
    "CAMPAIGN_REPORT_SCHEMA",
    "CAMPAIGN_REPORT_VERSION",
    "SPEC_LINES",
    "SpecLine",
    "build_report",
    "format_report",
    "validate_report",
    "write_report",
]

#: Schema identifier embedded in every report.
CAMPAIGN_REPORT_SCHEMA = "repro.campaign-report"

#: Bump when the payload layout changes incompatibly.
CAMPAIGN_REPORT_VERSION = 1


@dataclass(frozen=True)
class SpecLine:
    """One pass/fail requirement taken from the paper.

    ``kind`` is ``"max"`` (metric must stay below *limit*) or
    ``"min"`` (metric must reach *limit*).  A point that lacks the
    metric simply isn't evaluated against the line — a range-only
    campaign has no deskew residual to score.
    """

    name: str
    metric: str
    limit: float
    kind: str
    description: str

    def passes(self, value: float) -> bool:
        """Does *value* meet this requirement?"""
        if self.kind == "max":
            return value < self.limit
        return value >= self.limit


#: The paper's headline requirements, scored against campaign metrics.
SPEC_LINES = (
    SpecLine(
        name="skew",
        metric="final_spread_s",
        limit=5e-12,
        kind="max",
        description=(
            "bus skew after deskew < 5 ps (paper Sec. 1: "
            "channel-to-channel deskew to picosecond accuracy)"
        ),
    ),
    SpecLine(
        name="added_jitter",
        metric="added_jitter_s",
        limit=5e-12,
        kind="max",
        description=(
            "added peak-to-peak jitter < 5 ps (paper Fig. 12: "
            "delay circuit adds ~2 ps to a 4.8 Gbps eye)"
        ),
    ),
    SpecLine(
        name="range",
        metric="total_range_s",
        limit=120e-12,
        kind="min",
        description=(
            "calibrated delay range >= 120 ps (paper Sec. 2 "
            "requirement; the measured part delivers ~140 ps)"
        ),
    ),
)

_PERCENTILES = (50.0, 90.0, 99.0)


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending sample.

    Hand-rolled (rather than ``np.percentile``) so the payload floats
    come from pure Python arithmetic on round-tripped JSON numbers —
    one less dependency on array dtype details for byte-stability.
    """
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    position = (q / 100.0) * (n - 1)
    low = int(position)
    high = min(low + 1, n - 1)
    fraction = position - low
    return (
        sorted_values[low] * (1.0 - fraction)
        + sorted_values[high] * fraction
    )


def _metric_values(
    points: List[dict], metric: str
) -> List[tuple]:
    """(value, point) pairs for every point that reports *metric*."""
    pairs = []
    for point in points:
        value = point["metrics"].get(metric)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            pairs.append((float(value), point))
    return pairs


def _spec_line_entry(line: SpecLine, points: List[dict]) -> dict:
    """Yield + worst corner of one requirement over the campaign."""
    pairs = _metric_values(points, line.metric)
    entry: Dict[str, object] = {
        "name": line.name,
        "metric": line.metric,
        "limit": line.limit,
        "kind": line.kind,
        "description": line.description,
        "n_evaluated": len(pairs),
        "n_pass": sum(1 for value, _ in pairs if line.passes(value)),
    }
    if pairs:
        entry["yield_fraction"] = entry["n_pass"] / len(pairs)
        worst_value, worst_point = (
            max(pairs, key=lambda pair: pair[0])
            if line.kind == "max"
            else min(pairs, key=lambda pair: pair[0])
        )
        entry["worst"] = {
            "value": worst_value,
            "index": worst_point["index"],
            "instance": worst_point["instance"],
            "params": worst_point["params"],
        }
    else:
        entry["yield_fraction"] = None
        entry["worst"] = None
    return entry


def _percentile_entry(points: List[dict], metric: str) -> Optional[dict]:
    """Distribution summary of one metric, or None when absent."""
    values = sorted(value for value, _ in _metric_values(points, metric))
    if not values:
        return None
    entry = {"n": len(values), "min": values[0], "max": values[-1]}
    for q in _PERCENTILES:
        entry[f"p{int(q)}"] = _percentile(values, q)
    return entry


def _by_sweep(points: List[dict], axes: Sequence[str]) -> dict:
    """Per-axis-value spec-line yields (the shmoo view of a sweep)."""
    grouped: Dict[str, dict] = {}
    for axis in axes:
        buckets: Dict[str, List[dict]] = {}
        for point in points:
            if axis not in point["params"]:
                continue
            key = json.dumps(point["params"][axis], sort_keys=True)
            buckets.setdefault(key, []).append(point)
        grouped[axis] = {
            key: {
                line.name: _spec_line_entry(line, bucket)
                for line in SPEC_LINES
                if _metric_values(bucket, line.metric)
            }
            for key, bucket in sorted(buckets.items())
        }
    return grouped


def build_report(result) -> dict:
    """Build the ``repro.campaign-report`` document for *result*.

    *result* is a :class:`~repro.campaign.runner.CampaignResult`.  The
    ``payload`` section depends only on the spec and the (per-point
    deterministic) metrics — re-running the same spec from a warm
    cache reproduces it byte for byte.
    """
    if len(result.metrics) != len(result.points):
        raise CampaignError(
            f"campaign result misaligned: {len(result.metrics)} metric "
            f"sets for {len(result.points)} points"
        )
    missing = [
        point.index
        for point, metrics in zip(result.points, result.metrics)
        if metrics is None
    ]
    if missing:
        shown = ", ".join(str(index) for index in missing[:8])
        if len(missing) > 8:
            shown += ", ..."
        raise CampaignError(
            f"campaign incomplete: {len(missing)} of {len(result.points)} "
            f"points have no metrics (missing point indices: {shown}); "
            "a report covers only fully-evaluated campaigns — resubmit "
            "the spec to finish the missing points from cache"
        )
    points = [
        {
            "index": point.index,
            "instance": point.instance,
            "params": dict(sorted(point.params.items())),
            "metrics": metrics,
        }
        for point, metrics in zip(result.points, result.metrics)
    ]
    metric_names = sorted(
        {
            name
            for point in points
            for name, value in point["metrics"].items()
            if isinstance(value, (int, float))
            and not isinstance(value, bool)
        }
    )
    axes = [axis.name for axis in result.spec.sweeps]
    payload = {
        "spec": result.spec.to_dict(),
        "n_points": len(points),
        "spec_lines": [
            _spec_line_entry(line, points) for line in SPEC_LINES
        ],
        "percentiles": {
            name: entry
            for name in metric_names
            if (entry := _percentile_entry(points, name)) is not None
        },
        "by_sweep": _by_sweep(points, axes),
        "points": points,
    }
    return {
        "schema": CAMPAIGN_REPORT_SCHEMA,
        "version": CAMPAIGN_REPORT_VERSION,
        "payload": payload,
        "runtime": {
            "duration_s": result.duration_s,
            "jobs": result.jobs,
            "computed": result.computed,
            "cached": result.cached,
            "cache_stats": dict(result.cache_stats),
        },
    }


def validate_report(report: dict) -> None:
    """Raise :class:`~repro.errors.CampaignError` on a malformed report."""
    if not isinstance(report, dict):
        raise CampaignError("report must be a dict")
    if report.get("schema") != CAMPAIGN_REPORT_SCHEMA:
        raise CampaignError(
            f"not a campaign report: schema={report.get('schema')!r}"
        )
    if report.get("version") != CAMPAIGN_REPORT_VERSION:
        raise CampaignError(
            f"unsupported report version {report.get('version')!r} "
            f"(expected {CAMPAIGN_REPORT_VERSION})"
        )
    payload = report.get("payload")
    if not isinstance(payload, dict):
        raise CampaignError("report payload must be a dict")
    for key in ("spec", "n_points", "spec_lines", "percentiles", "points"):
        if key not in payload:
            raise CampaignError(f"report payload is missing {key!r}")
    if payload["n_points"] != len(payload["points"]):
        raise CampaignError(
            f"report says {payload['n_points']} points but carries "
            f"{len(payload['points'])}"
        )
    runtime = report.get("runtime")
    if not isinstance(runtime, dict):
        raise CampaignError("report runtime must be a dict")
    # Canonical-JSON encodability doubles as a NaN/Inf guard.
    try:
        canonical_json(payload)
    except (TypeError, ValueError) as error:
        raise CampaignError(
            f"report payload is not canonically serialisable: {error}"
        ) from error


def write_report(path, report: dict) -> None:
    """Validate and write *report* as JSON (atomic same-dir rename)."""
    validate_report(report)
    directory = os.path.dirname(os.path.abspath(os.fspath(path)))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".campaign-report-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _format_value(metric: str, value: float) -> str:
    """Seconds metrics (``*_s``) in ps; counts and flags as plain numbers."""
    if metric.endswith("_s"):
        return f"{value * 1e12:.2f} ps"
    return f"{value:g}"


def format_report(report: dict) -> str:
    """Render a report as the text tables the CLI prints."""
    validate_report(report)
    payload = report["payload"]
    runtime = report["runtime"]
    spec = payload["spec"]
    lines = [
        f"campaign {spec['name']!r} ({spec['scenario']}): "
        f"{payload['n_points']} points, "
        f"{runtime['computed']} computed / {runtime['cached']} cached, "
        f"{runtime['duration_s']:.2f} s with {runtime['jobs']} job(s)",
        "",
        "spec line      metric           limit      yield            worst",
        "-" * 72,
    ]
    for entry in payload["spec_lines"]:
        if not entry["n_evaluated"]:
            continue
        yield_text = (
            f"{entry['n_pass']}/{entry['n_evaluated']} "
            f"({100.0 * entry['yield_fraction']:.1f}%)"
        )
        worst = entry["worst"]
        lines.append(
            f"{entry['name']:<14}"
            f"{entry['metric']:<17}"
            f"{_format_value(entry['metric'], entry['limit']):<11}"
            f"{yield_text:<17}"
            f"{_format_value(entry['metric'], worst['value'])} "
            f"@ point {worst['index']}"
        )
    lines.append("")
    lines.append("metric             n      p50        p90        p99        worst")
    lines.append("-" * 66)
    for name, entry in payload["percentiles"].items():
        worst = entry["max"] if name != "total_range_s" else entry["min"]
        lines.append(
            f"{name:<19}"
            f"{entry['n']:<7}"
            f"{_format_value(name, entry['p50']):<11}"
            f"{_format_value(name, entry['p90']):<11}"
            f"{_format_value(name, entry['p99']):<11}"
            f"{_format_value(name, worst)}"
        )
    return "\n".join(lines)
