"""Lane packing: group compatible campaign points for batched kernels.

A campaign's points usually differ only in swept values, Monte-Carlo
variation draws, and seeds — the expensive simulation underneath is
structurally identical (same time grid, same stimulus length, same
stage count).  The pack planner groups such points into **packs** of
up to ``--batch-lanes`` lanes; the runner evaluates each pack with one
fused multi-lane kernel pass per simulation phase instead of one pass
per point (see :func:`repro.campaign.runner.evaluate_pack`), which is
where the batched numpy backend earns its keep.

Packing is a pure scheduling transform: every lane keeps its own
per-point seed stream, so packed metrics are byte-identical to scalar
evaluation on either kernel backend (and the two backends agree byte
for byte, see :mod:`repro.kernels`).  Points that cannot pack —
scenarios that never pack (deskew), structural mismatches, leftovers —
run alone as packs of one, never as an error.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

from ..errors import CampaignError
from ..kernels import active_backend

__all__ = [
    "AUTO_LANES",
    "plan_packs",
    "resolve_batch_lanes",
    "validate_batch_lanes",
]

#: ``--batch-lanes auto`` resolution per kernel backend.  The python
#: backend runs packs at interpreted speed (no win, and packing buys
#: nothing over the scalar loop); the vectorised numpy backend
#: saturates around 64 lanes.
AUTO_LANES = {"python": 1, "numpy": 64}


def validate_batch_lanes(
    lanes: Union[int, str], flag: str = "--batch-lanes"
) -> Union[int, str]:
    """Validate a lane budget: ``"auto"`` or an integer >= 1.

    The lane-count twin of :func:`repro.parallel.validate_jobs`: every
    surface that accepts a pack width funnels through here so ``0``,
    negative, and non-integer values fail the same way — a
    :class:`~repro.errors.CampaignError` naming *flag*.  Numeric
    strings are accepted (the CLI flag must admit ``auto``, so it
    arrives untyped); returns ``"auto"`` or the validated int.
    """
    value = lanes
    if isinstance(value, str):
        text = value.strip().lower()
        if text == "auto":
            return "auto"
        try:
            value = int(text)
        except ValueError:
            value = None
    try:
        count = int(value)
    except (TypeError, ValueError):
        count = None
    if count is None or count != value or count < 1:
        raise CampaignError(
            f"{flag} must be 'auto' or an integer >= 1, got {lanes!r}"
        )
    return count


def resolve_batch_lanes(
    lanes: Union[int, str], flag: str = "--batch-lanes"
) -> int:
    """Resolve a ``--batch-lanes`` value to a concrete lane budget.

    ``"auto"`` picks the active kernel backend's sweet spot
    (:data:`AUTO_LANES`).
    """
    value = validate_batch_lanes(lanes, flag=flag)
    if value == "auto":
        return AUTO_LANES.get(active_backend(), 1)
    return value


def plan_packs(
    points: Sequence[object],
    lanes: int,
    key_of: Callable[[object], Optional[str]],
    weight_of: Callable[[object], int],
) -> List[list]:
    """Group *points* into evaluation units of at most *lanes* weight.

    Greedy and order-stable: units come out in the order of their
    first member, and every unit preserves campaign order internally,
    so scheduling (and therefore progress and cache write order) stays
    deterministic.  ``key_of`` returns a point's compatibility key
    (``None`` marks it unpackable — it becomes its own singleton
    unit); ``weight_of`` returns how many kernel lanes the point
    occupies (the campaign runner weighs every point 1: a packable
    point is one lane).  An open pack
    closes when the next same-key point would push its weight past
    *lanes*; a later same-key point then opens a fresh pack, so
    leftovers simply form smaller packs (or singletons), never errors.
    """
    if lanes <= 1:
        return [[point] for point in points]
    units: List[list] = []
    open_packs: dict = {}  # key -> [members, weight]
    for point in points:
        key = key_of(point)
        if key is None:
            units.append([point])
            continue
        weight = max(1, int(weight_of(point)))
        entry = open_packs.get(key)
        if entry is not None and entry[1] + weight > lanes:
            del open_packs[key]
            entry = None
        if entry is None:
            members = [point]
            open_packs[key] = [members, weight]
            units.append(members)
        else:
            entry[0].append(point)
            entry[1] += weight
    return units
