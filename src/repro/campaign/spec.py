"""The declarative campaign description and its point expansion.

A campaign is a **base scenario** (which simulation to run and with
what parameters) plus **sweep axes** (parameters varied over explicit
value lists or a ``linspace``) and a number of **Monte-Carlo
instances** per sweep point (device instances drawn from the
:mod:`~repro.campaign.variation` model).  The spec round-trips through
a plain dict / JSON file, so campaigns live in version control next to
the code that runs them.

Values anywhere in the spec may be engineering-notation strings —
``"6.4 Gbps"``, ``"33 ps"``, ``"750 mV"`` — which are resolved to SI
floats through :func:`repro.units.parse_quantity` at load time, so a
spec file reads like the paper's text.

Example::

    {
      "name": "range-vs-rate",
      "scenario": "range",
      "seed": 1234,
      "n_instances": 20,
      "base": {"n_bits": 127, "n_points": 9},
      "sweeps": [
        {"name": "bit_rate",
         "linspace": {"start": "1.6 Gbps", "stop": "6.4 Gbps", "num": 4}}
      ],
      "variation": {"slew_rate_sigma": 0.06}
    }

Expansion (:func:`expand_points`) takes the cartesian product of the
sweep axes, then replicates each grid cell ``n_instances`` times.  Each
resulting :class:`CampaignPoint` carries a **canonical identity** — the
scenario, the fully-resolved parameters, the instance index, the spec
seed, and the variation model — from which both its deterministic
random seed and its cache key derive.  Neither depends on the point's
position in the expansion order or on the worker that evaluates it, so
results are independent of ``--jobs`` and of sweep-axis edits that
leave a point's own parameters unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Tuple

from ..errors import CampaignError, UnitError
from ..units import parse_quantity
from .variation import VariationModel

__all__ = [
    "SCENARIOS",
    "PACK_STRUCTURAL_PARAMS",
    "SweepAxis",
    "CampaignSpec",
    "CampaignPoint",
    "canonical_json",
    "expand_points",
]

#: Scenario names the runner knows how to evaluate.
SCENARIOS = ("range", "deskew")

#: Per lane-packable scenario: the resolved parameters that fix a
#: point's *structure* — time grid, stimulus length, stage count,
#: measurement plan.  Points agreeing on all of these can share one
#: fused multi-lane kernel pass (their remaining parameters only vary
#: per-lane physics: swept analog values, variation draws, seeds).
#: Lane packing (:mod:`repro.campaign.packing`) groups points by these.
#: ``deskew`` is absent: its points always run one at a time, because
#: packing several buses' calibrations measured slower on numpy.
PACK_STRUCTURAL_PARAMS = {
    "range": (
        "bit_rate",
        "n_bits",
        "dt",
        "n_points",
        "n_stages",
        "measure_jitter",
    ),
}


def _resolve_value(value: object) -> object:
    """Resolve one spec value: quantity strings to SI floats.

    Numbers, bools, and None pass through; strings are parsed as
    engineering-notation quantities; anything else (and unparseable
    strings that are not plain keywords) raises.  Plain words such as
    ``"event"`` (a measurement-backend choice) are kept as strings.
    """
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            return parse_quantity(value)
        except UnitError:
            return value
    raise CampaignError(
        f"spec values must be numbers or strings, got {type(value).__name__}"
    )


def canonical_json(data: object) -> str:
    """The canonical serialisation used for seeds and cache keys.

    Sorted keys, no whitespace, NaN/Infinity rejected — two
    structurally equal dicts always serialise to the same bytes.
    """
    try:
        return json.dumps(
            data, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as exc:
        raise CampaignError(f"value is not canonically serialisable: {exc}")


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: a name and its resolved values.

    Construct from a dict with either an explicit value list::

        {"name": "bit_rate", "values": ["4.8 Gbps", "6.4 Gbps"]}

    or a ``linspace``::

        {"name": "temperature_c", "linspace": {"start": 0, "stop": 70,
                                               "num": 8}}
    """

    name: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise CampaignError(f"axis name must be a string: {self.name!r}")
        if not self.values:
            raise CampaignError(f"axis {self.name!r} has no values")

    @classmethod
    def from_dict(cls, data: dict) -> "SweepAxis":
        if not isinstance(data, dict):
            raise CampaignError(
                f"sweep axis must be a dict, got {type(data).__name__}"
            )
        name = data.get("name")
        has_values = "values" in data
        has_linspace = "linspace" in data
        if has_values == has_linspace:
            raise CampaignError(
                f"axis {name!r} needs exactly one of 'values' or 'linspace'"
            )
        if has_values:
            raw = data["values"]
            if not isinstance(raw, (list, tuple)):
                raise CampaignError(
                    f"axis {name!r}: 'values' must be a list"
                )
            values = tuple(_resolve_value(v) for v in raw)
        else:
            lin = data["linspace"]
            if not isinstance(lin, dict) or set(lin) != {
                "start",
                "stop",
                "num",
            }:
                raise CampaignError(
                    f"axis {name!r}: 'linspace' needs exactly "
                    "'start', 'stop', 'num'"
                )
            num = lin["num"]
            if not isinstance(num, int) or num < 2:
                raise CampaignError(
                    f"axis {name!r}: linspace 'num' must be an int >= 2"
                )
            start = _resolve_value(lin["start"])
            stop = _resolve_value(lin["stop"])
            if not isinstance(start, (int, float)) or not isinstance(
                stop, (int, float)
            ):
                raise CampaignError(
                    f"axis {name!r}: linspace endpoints must be numeric"
                )
            step = (stop - start) / (num - 1)
            values = tuple(start + i * step for i in range(num))
        return cls(name=str(name), values=values)

    def to_dict(self) -> dict:
        return {"name": self.name, "values": list(self.values)}


@dataclass(frozen=True)
class CampaignSpec:
    """A full campaign description (see the module docstring).

    Attributes
    ----------
    name:
        Human-readable campaign identifier (reports carry it; the
        cache identity deliberately does *not*, so renaming a campaign
        keeps its cached points).
    scenario:
        Which point evaluator to run — one of :data:`SCENARIOS`.
    seed:
        Master seed all per-point randomness derives from.
    n_instances:
        Monte-Carlo device instances evaluated at every sweep point.
    base:
        Base scenario parameters (resolved to SI units); sweep axes
        override entries of this dict point by point.
    sweeps:
        The sweep axes; their cartesian product forms the grid.
    variation:
        The process-variation model instances are drawn from.
    """

    name: str
    scenario: str
    seed: int = 0
    n_instances: int = 1
    base: Dict[str, object] = field(default_factory=dict)
    sweeps: Tuple[SweepAxis, ...] = ()
    variation: VariationModel = field(default_factory=VariationModel)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise CampaignError(f"campaign name must be a string: {self.name!r}")
        if self.scenario not in SCENARIOS:
            raise CampaignError(
                f"unknown scenario {self.scenario!r}; known: {SCENARIOS}"
            )
        if not isinstance(self.seed, int):
            raise CampaignError(f"seed must be an int: {self.seed!r}")
        if not isinstance(self.n_instances, int) or self.n_instances < 1:
            raise CampaignError(
                f"n_instances must be an int >= 1: {self.n_instances!r}"
            )
        names = [axis.name for axis in self.sweeps]
        if len(set(names)) != len(names):
            raise CampaignError(f"duplicate sweep axis names: {names}")

    # -- dict / JSON round-trip -------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        if not isinstance(data, dict):
            raise CampaignError(
                f"campaign spec must be a dict, got {type(data).__name__}"
            )
        known = {
            "name",
            "scenario",
            "seed",
            "n_instances",
            "base",
            "sweeps",
            "variation",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise CampaignError(
                f"unknown campaign spec keys: {unknown}; known: "
                f"{sorted(known)}"
            )
        base = data.get("base", {})
        if not isinstance(base, dict):
            raise CampaignError("'base' must be a dict")
        sweeps = data.get("sweeps", [])
        if not isinstance(sweeps, (list, tuple)):
            raise CampaignError("'sweeps' must be a list")
        return cls(
            name=data.get("name", ""),
            scenario=data.get("scenario", ""),
            seed=data.get("seed", 0),
            n_instances=data.get("n_instances", 1),
            base={str(k): _resolve_value(v) for k, v in base.items()},
            sweeps=tuple(SweepAxis.from_dict(s) for s in sweeps),
            variation=VariationModel.from_dict(data.get("variation", {})),
        )

    def to_dict(self) -> dict:
        """JSON-friendly form; ``from_dict`` of it reproduces the spec."""
        return {
            "name": self.name,
            "scenario": self.scenario,
            "seed": self.seed,
            "n_instances": self.n_instances,
            "base": dict(self.base),
            "sweeps": [axis.to_dict() for axis in self.sweeps],
            "variation": self.variation.to_dict(),
        }

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignError(f"campaign spec is not valid JSON: {exc}")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path) -> "CampaignSpec":
        """Read a spec from a JSON file."""
        with open(path, "r") as handle:
            return cls.from_json(handle.read())

    def save(self, path) -> None:
        """Write the spec as JSON (atomic same-directory rename)."""
        directory = os.path.dirname(os.path.abspath(os.fspath(path)))
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=".spec-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    # -- expansion ---------------------------------------------------------

    def n_points(self) -> int:
        """Total point count: grid cells times Monte-Carlo instances."""
        cells = 1
        for axis in self.sweeps:
            cells *= len(axis.values)
        return cells * self.n_instances

    def expand(self) -> List["CampaignPoint"]:
        """All points, in deterministic (grid-major) order."""
        return expand_points(self)


@dataclass(frozen=True)
class CampaignPoint:
    """One fully-resolved simulation point of a campaign.

    ``params`` holds the base parameters with this grid cell's axis
    values substituted; ``instance`` is the Monte-Carlo replicate
    index within the cell.  The identity (and everything derived from
    it — the random seed, the cache key) is a pure function of the
    point's own contents, never of its position in the campaign.
    """

    scenario: str
    params: Dict[str, object]
    instance: int
    spec_seed: int
    variation: VariationModel
    index: int

    def identity(self) -> dict:
        """The canonical identity dict (seed and cache-key material)."""
        return {
            "scenario": self.scenario,
            "params": dict(self.params),
            "instance": self.instance,
            "spec_seed": self.spec_seed,
            "variation": self.variation.to_dict(),
        }

    def digest(self) -> str:
        """SHA-256 hex digest of the canonical identity."""
        return hashlib.sha256(
            canonical_json(self.identity()).encode("utf-8")
        ).hexdigest()

    def seed(self) -> int:
        """Deterministic per-point seed, independent of schedule order."""
        digest = hashlib.sha256(
            (canonical_json(self.identity()) + "/seed").encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big")

    def pack_key(self, resolved_params: Dict[str, object]) -> Optional[str]:
        """Lane-packing compatibility key, or ``None`` if unpackable.

        Two points with equal keys are structurally identical — same
        scenario and same values for every
        :data:`PACK_STRUCTURAL_PARAMS` entry, with *resolved_params*
        supplying scenario defaults for parameters the spec left out —
        so the runner may evaluate them as lanes of one fused kernel
        pass.  Everything else about the points (swept analog values,
        variation draws, seeds) is free to differ per lane.
        """
        structural = PACK_STRUCTURAL_PARAMS.get(self.scenario)
        if structural is None:
            return None
        return canonical_json(
            {
                "scenario": self.scenario,
                "structural": {
                    name: resolved_params[name] for name in structural
                },
            }
        )


def expand_points(
    spec: CampaignSpec, limit: Optional[int] = None
) -> List[CampaignPoint]:
    """Expand *spec* into its list of :class:`CampaignPoint`.

    The order is deterministic — sweep axes vary slowest-first in the
    order declared, instances fastest — but nothing downstream depends
    on it: every point's seed and cache key derive from its own
    identity.  *limit* truncates the expansion (used by tests and the
    CLI's preview mode).
    """
    axes = spec.sweeps
    grids: List[Tuple[Tuple[str, object], ...]] = [
        tuple((axis.name, value) for value in axis.values) for axis in axes
    ]
    points: List[CampaignPoint] = []
    index = 0
    for combo in product(*grids) if grids else [()]:
        params = dict(spec.base)
        for name, value in combo:
            params[name] = value
        for instance in range(spec.n_instances):
            points.append(
                CampaignPoint(
                    scenario=spec.scenario,
                    params=params,
                    instance=instance,
                    spec_seed=spec.seed,
                    variation=spec.variation,
                    index=index,
                )
            )
            index += 1
            if limit is not None and index >= limit:
                return points
    return points
