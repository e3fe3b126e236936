"""Run manifests: the JSON artifact an instrumented run writes.

A manifest is the machine-readable record of one
``python -m repro.experiments`` invocation: which experiments ran (and
whether their shape checks passed), which kernel backend served them,
how long each stage took, and how many kernel calls/samples were
processed.  CI validates and archives these files, so the schema is
versioned and :func:`validate_manifest` is deliberately strict.

Schema (version 1)::

    {
      "schema": "repro.run-manifest",
      "schema_version": 1,
      "python": "3.12.3",            # interpreter version
      "platform": "Linux-...",       # platform.platform()
      "kernel_backend": "numpy",     # resolved repro.kernels backend
      "fast": true,                  # --fast flag
      "jobs": 1,                     # --jobs N
      "duration_s": 12.3,            # whole-run wall time
      "experiments": [
        {"id": "fig07", "title": "...", "fast": true,
         "duration_s": 1.9, "checks_passed": true,
         "failed_checks": [], "n_rows": 13}
      ],
      "counters": {"kernels.fine_delay_cascade.calls": 65, ...},
      "spans": {"experiment.fig07/fine_delay": {"calls": 65,
                                                "total_s": 0.8}, ...},
      "kernels": {
        "ops": {"fine_delay_cascade": {"calls": 65,
                                       "samples": 4_000_000,
                                       "seconds": 0.7}, ...},
        "backend_calls": {"numpy": 130}
      }
    }
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
from typing import Dict, List, Sequence

from ..errors import InstrumentError

__all__ = [
    "MANIFEST_SCHEMA",
    "MANIFEST_VERSION",
    "kernel_stats",
    "build_manifest",
    "validate_manifest",
    "write_manifest",
    "profile_table",
]

MANIFEST_SCHEMA = "repro.run-manifest"
MANIFEST_VERSION = 1

_KERNEL_FIELDS = ("calls", "samples", "seconds")


def kernel_stats(counters: Dict[str, float]) -> dict:
    """Fold ``kernels.*`` counters into per-op and per-backend tables.

    The kernel dispatcher emits flat counters
    (``kernels.<op>.calls/samples/seconds`` and
    ``kernels.backend.<name>.calls``); this groups them into the
    manifest's ``kernels`` section.
    """
    ops: Dict[str, Dict[str, float]] = {}
    backends: Dict[str, int] = {}
    for name, value in counters.items():
        parts = name.split(".")
        if parts[0] != "kernels" or len(parts) != 4 and len(parts) != 3:
            continue
        if len(parts) == 4 and parts[1] == "backend" and parts[3] == "calls":
            backends[parts[2]] = int(value)
        elif len(parts) == 3 and parts[2] in _KERNEL_FIELDS:
            ops.setdefault(parts[1], {})[parts[2]] = value
    return {"ops": ops, "backend_calls": backends}


def build_manifest(
    experiments: Sequence[dict],
    *,
    fast: bool,
    jobs: int,
    backend: str,
    snapshot: dict,
    duration_s: float,
) -> dict:
    """Assemble a schema-version-1 manifest from a registry snapshot.

    Parameters
    ----------
    experiments:
        One entry per experiment run, each with ``id``, ``title``,
        ``duration_s``, ``checks_passed``, ``failed_checks``,
        ``n_rows`` (missing keys are defaulted).
    fast / jobs / backend:
        Run configuration: the ``--fast`` flag, the ``--jobs`` pool
        width, and the resolved kernel backend name.
    snapshot:
        A :meth:`~repro.instrument.registry.Registry.snapshot` covering
        the whole run (already merged across workers when ``jobs > 1``).
    duration_s:
        Whole-run wall time, seconds.
    """
    entries: List[dict] = []
    for entry in experiments:
        entries.append(
            {
                "id": str(entry["id"]),
                "title": str(entry.get("title", "")),
                "fast": bool(fast),
                "duration_s": float(entry.get("duration_s", 0.0)),
                "checks_passed": bool(entry.get("checks_passed", False)),
                "failed_checks": [
                    str(name) for name in entry.get("failed_checks", [])
                ],
                "n_rows": int(entry.get("n_rows", 0)),
            }
        )
    counters = dict(snapshot.get("counters", {}))
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "schema_version": MANIFEST_VERSION,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "kernel_backend": str(backend),
        "fast": bool(fast),
        "jobs": int(jobs),
        "duration_s": float(duration_s),
        "experiments": entries,
        "counters": counters,
        "spans": {
            path: dict(stat)
            for path, stat in snapshot.get("spans", {}).items()
        },
        "kernels": kernel_stats(counters),
    }
    return manifest


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InstrumentError(f"invalid run manifest: {message}")


def validate_manifest(data: dict) -> dict:
    """Check *data* against the version-1 manifest schema.

    Returns *data* unchanged on success; raises
    :class:`~repro.errors.InstrumentError` naming the first problem
    otherwise.  CI runs this over every uploaded manifest.
    """
    _require(isinstance(data, dict), f"expected a dict, got {type(data)}")
    _require(
        data.get("schema") == MANIFEST_SCHEMA,
        f"schema is {data.get('schema')!r}, expected {MANIFEST_SCHEMA!r}",
    )
    version = data.get("schema_version")
    _require(
        isinstance(version, int) and version >= 1,
        f"schema_version must be a positive int, got {version!r}",
    )
    for key in ("python", "platform", "kernel_backend"):
        _require(
            isinstance(data.get(key), str) and data[key],
            f"{key!r} must be a non-empty string",
        )
    _require(isinstance(data.get("fast"), bool), "'fast' must be a bool")
    _require(
        isinstance(data.get("jobs"), int) and data["jobs"] >= 1,
        "'jobs' must be an int >= 1",
    )
    _require(
        isinstance(data.get("duration_s"), (int, float))
        and data["duration_s"] >= 0,
        "'duration_s' must be a non-negative number",
    )
    experiments = data.get("experiments")
    _require(isinstance(experiments, list), "'experiments' must be a list")
    for entry in experiments:
        _require(isinstance(entry, dict), "experiment entries must be dicts")
        _require(
            isinstance(entry.get("id"), str) and entry["id"],
            "experiment 'id' must be a non-empty string",
        )
        _require(
            isinstance(entry.get("duration_s"), (int, float))
            and entry["duration_s"] >= 0,
            f"experiment {entry.get('id')!r}: 'duration_s' must be >= 0",
        )
        _require(
            isinstance(entry.get("checks_passed"), bool),
            f"experiment {entry.get('id')!r}: 'checks_passed' must be a bool",
        )
        _require(
            isinstance(entry.get("failed_checks"), list),
            f"experiment {entry.get('id')!r}: 'failed_checks' must be a list",
        )
    counters = data.get("counters")
    _require(isinstance(counters, dict), "'counters' must be a dict")
    for name, value in counters.items():
        _require(
            isinstance(name, str) and isinstance(value, (int, float)),
            f"counter {name!r} must map a string to a number",
        )
    spans = data.get("spans")
    _require(isinstance(spans, dict), "'spans' must be a dict")
    for path, stat in spans.items():
        _require(
            isinstance(stat, dict)
            and isinstance(stat.get("calls"), int)
            and stat["calls"] >= 1
            and isinstance(stat.get("total_s"), (int, float))
            and stat["total_s"] >= 0,
            f"span {path!r} must have calls >= 1 and total_s >= 0",
        )
    kernels = data.get("kernels")
    _require(isinstance(kernels, dict), "'kernels' must be a dict")
    _require(
        isinstance(kernels.get("ops"), dict)
        and isinstance(kernels.get("backend_calls"), dict),
        "'kernels' must hold 'ops' and 'backend_calls' dicts",
    )
    return data


def write_manifest(path, manifest: dict) -> None:
    """Validate and write *manifest* as JSON (atomic same-dir rename)."""
    validate_manifest(manifest)
    directory = os.path.dirname(os.path.abspath(os.fspath(path)))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".manifest-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def profile_table(snapshot: dict, limit: int = 25) -> str:
    """Render a sorted hot-spot table from a registry snapshot.

    Spans first (descending total time), then kernel ops; this is what
    ``python -m repro.experiments --profile`` prints.
    """
    lines = ["-- profile: stage spans (hottest first) --"]
    spans = sorted(
        snapshot.get("spans", {}).items(),
        key=lambda item: item[1]["total_s"],
        reverse=True,
    )
    if not spans:
        lines.append("  (no spans recorded)")
    width = max((len(path) for path, _ in spans[:limit]), default=0)
    for path, stat in spans[:limit]:
        calls = int(stat["calls"])
        total = float(stat["total_s"])
        per_call = total / calls if calls else 0.0
        lines.append(
            f"  {path.ljust(width)}  {total * 1e3:10.2f} ms"
            f"  {calls:8d} calls  {per_call * 1e6:10.1f} us/call"
        )
    if len(spans) > limit:
        lines.append(f"  ... {len(spans) - limit} more spans")
    stats = kernel_stats(snapshot.get("counters", {}))
    if stats["ops"]:
        lines.append("-- profile: kernel ops --")
        ops = sorted(
            stats["ops"].items(),
            key=lambda item: item[1].get("seconds", 0.0),
            reverse=True,
        )
        op_width = max(len(op) for op, _ in ops)
        for op, fields in ops:
            lines.append(
                f"  {op.ljust(op_width)}"
                f"  {float(fields.get('seconds', 0.0)) * 1e3:10.2f} ms"
                f"  {int(fields.get('calls', 0)):8d} calls"
                f"  {int(fields.get('samples', 0)):12d} samples"
            )
        if stats["backend_calls"]:
            backends = ", ".join(
                f"{name}={count}"
                for name, count in sorted(stats["backend_calls"].items())
            )
            lines.append(f"  backend calls: {backends}")
    return "\n".join(lines)
