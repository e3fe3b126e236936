"""Golden fingerprint of cached campaign metrics, keyed by the cache salt.

A cache entry's key is the point identity plus
:data:`repro.campaign.CACHE_SALT`, so a change that alters what a
metric evaluates to must bump the salt, or a warm cache keeps serving
the old numbers as current.  This test makes a forgotten bump fail:
it evaluates a tiny canonical point set on the python (reference)
kernel backend, hashes the metrics, and compares the hash with the one
committed in ``golden_fingerprint.json`` under the current salt.

When the hash changes on purpose, bump ``CACHE_SALT`` and add the new
salt's hash (printed by the failure) to the JSON file.
"""

import hashlib
import json
from pathlib import Path

from repro import kernels
from repro.campaign import (
    CACHE_SALT,
    CampaignSpec,
    evaluate_point,
    expand_points,
)
from repro.campaign.spec import canonical_json

GOLDEN = Path(__file__).with_name("golden_fingerprint.json")

#: Two range points (one per bit rate, jitter measured) and one
#: 2-channel deskew point measured on waveforms, with short records.
CANONICAL_SPECS = (
    {
        "name": "golden-range",
        "scenario": "range",
        "seed": 2024,
        "base": {"n_bits": 32, "n_points": 3, "measure_jitter": True},
        "sweeps": [
            {"name": "bit_rate", "values": ["2.4 Gbps", "4.8 Gbps"]}
        ],
    },
    {
        "name": "golden-deskew",
        "scenario": "deskew",
        "seed": 2024,
        "base": {
            "n_channels": 2,
            "n_bits": 32,
            "n_cal_points": 3,
            "measurement": "waveform",
            "max_iterations": 2,
        },
    },
)

#: Floats are hashed at this many significant digits: far coarser than
#: the last-ulp differences between platforms' math libraries, far
#: finer than any change in what a metric means.
SIGNIFICANT_DIGITS = 9


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.{SIGNIFICANT_DIGITS}g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


def canonical_metrics():
    """Metrics of the canonical points, in spec then point order."""
    with kernels.use_backend("python"):
        return [
            evaluate_point(point)
            for spec in CANONICAL_SPECS
            for point in expand_points(CampaignSpec.from_dict(spec))
        ]


def fingerprint(metrics) -> str:
    return hashlib.sha256(
        canonical_json(_rounded(metrics)).encode("utf-8")
    ).hexdigest()


def test_metrics_match_golden_fingerprint_for_cache_salt():
    golden = json.loads(GOLDEN.read_text())
    actual = fingerprint(canonical_metrics())
    assert CACHE_SALT in golden, (
        f"no golden fingerprint for CACHE_SALT={CACHE_SALT!r}; add "
        f'"{CACHE_SALT}": "{actual}" to {GOLDEN.name}'
    )
    assert actual == golden[CACHE_SALT], (
        f"campaign metrics changed but CACHE_SALT is still "
        f"{CACHE_SALT!r}: bump the salt in repro/campaign/cache.py and "
        f'add "<new salt>": "{actual}" to {GOLDEN.name}'
    )
