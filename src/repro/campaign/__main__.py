"""Run sweep / Monte-Carlo campaigns: ``python -m repro.campaign``.

Subcommands
-----------
``run SPEC.json``
    Expand the spec, run every point (``--jobs N`` processes), and
    print the yield tables.  ``--cache-dir DIR`` enables the
    content-addressed result cache (re-runs and extended sweeps only
    compute missing points); ``--report PATH`` writes the versioned
    ``repro.campaign-report`` JSON; ``--metrics-json PATH`` writes a
    standard instrumented run manifest.
``expand SPEC.json``
    Preview the expansion: print each point's index, parameters, and
    cache digest without running anything.
``report REPORT.json``
    Re-render a previously written report's tables.
"""

from __future__ import annotations

import argparse
import sys

from .. import instrument, parallel
from ..errors import CampaignError, ReproError
from ..kernels import active_backend
from .packing import validate_batch_lanes
from .report import build_report, format_report, validate_report, write_report
from .runner import run_campaign
from .spec import CampaignSpec, expand_points


def _cmd_run(args) -> int:
    parallel.validate_jobs(args.jobs, flag="--jobs")
    validate_batch_lanes(args.batch_lanes, flag="--batch-lanes")
    spec = CampaignSpec.load(args.spec)
    collect = bool(args.metrics_json)
    previously_enabled = instrument.enabled()
    if collect:
        instrument.get_registry().reset()
        instrument.enable()
    try:
        progress = None
        if not args.quiet:

            def progress(done: int, total: int) -> None:
                print(f"\r{done}/{total} points", end="", file=sys.stderr)
                if done == total:
                    print(file=sys.stderr)

        result = run_campaign(
            spec,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            progress=progress,
            workers=args.workers,
            batch_lanes=args.batch_lanes,
        )
        report = build_report(result)
        if args.report:
            write_report(args.report, report)
        if args.metrics_json:
            snapshot = instrument.get_registry().snapshot()
            manifest = instrument.build_manifest(
                [
                    {
                        "id": f"campaign.{spec.name}",
                        "title": f"campaign {spec.name!r} "
                        f"({spec.scenario} scenario)",
                        "duration_s": result.duration_s,
                        "checks_passed": True,
                        "failed_checks": [],
                        "n_rows": len(result.points),
                    }
                ],
                fast=False,
                jobs=args.jobs,
                backend=active_backend(),
                snapshot=snapshot,
                duration_s=result.duration_s,
            )
            instrument.write_manifest(args.metrics_json, manifest)
    finally:
        if collect and not previously_enabled:
            instrument.disable()
    print(format_report(report))
    return 0


def _cmd_expand(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise CampaignError(f"--limit must be >= 0, got {args.limit}")
    spec = CampaignSpec.load(args.spec)
    points = expand_points(spec, limit=args.limit)
    total = spec.n_points()
    print(
        f"campaign {spec.name!r}: {total} points"
        + (f" (showing {len(points)})" if len(points) < total else "")
    )
    for point in points:
        params = ", ".join(
            f"{name}={value}" for name, value in sorted(point.params.items())
        )
        print(
            f"  [{point.index}] instance={point.instance} {params} "
            f"digest={point.digest()[:12]}"
        )
    return 0


def _cmd_report(args) -> int:
    import json

    with open(args.report, "r") as handle:
        report = json.load(handle)
    validate_report(report)
    print(format_report(report))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Declarative sweep / Monte-Carlo campaign engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a campaign spec")
    run_parser.add_argument("spec", help="path to the campaign spec JSON")
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "evaluate up to N points in parallel local worker processes; "
            "same as --workers spawn://N (default: 1, in-process)"
        ),
    )
    run_parser.add_argument(
        "--workers",
        default=None,
        metavar="SPEC",
        help=(
            "shard points across a worker pool (overrides --jobs): "
            "spawn://N starts N local worker processes, "
            "tcp://HOST:PORT listens for remote ones "
            "(python -m repro.workers serve); comma-separate to mix"
        ),
    )
    run_parser.add_argument(
        "--batch-lanes",
        default="auto",
        metavar="N",
        help=(
            "pack up to N compatible points per fused kernel call; "
            "'auto' picks the active backend's sweet spot, 1 disables "
            "packing (default: auto; results are identical either way)"
        ),
    )
    run_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed result cache directory (default: none)",
    )
    run_parser.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the campaign report JSON to PATH",
    )
    run_parser.add_argument(
        "--metrics-json",
        default=None,
        metavar="PATH",
        help="write an instrumented run manifest (JSON) to PATH",
    )
    run_parser.add_argument(
        "--quiet", action="store_true", help="no progress output"
    )

    expand_parser = sub.add_parser(
        "expand", help="preview a spec's point expansion"
    )
    expand_parser.add_argument("spec", help="path to the campaign spec JSON")
    expand_parser.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="show only the first N points",
    )

    report_parser = sub.add_parser(
        "report", help="re-render a written report"
    )
    report_parser.add_argument("report", help="path to a campaign report JSON")

    args = parser.parse_args(argv)
    commands = {"run": _cmd_run, "expand": _cmd_expand, "report": _cmd_report}
    try:
        return commands[args.command](args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
