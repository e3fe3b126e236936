"""Regenerate ``reference.json``: the default seed's outputs.

The campaign references come from the scalar path (``batch_lanes=1``,
in-process), so the benchmark's packed and worker-pool runs are checked
against an independent evaluation.  Run from the root of a checkout::

    python3 perfbench/make_reference.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.campaign.runner import run_campaign  # noqa: E402
from repro.campaign.spec import CampaignSpec  # noqa: E402
from repro.core.fine_delay import FineDelayLine  # noqa: E402

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    REFERENCE_PATH,
    DeskewSpawn2,
    RangeMC,
    StreamBert,
)


def campaign_reference(cls) -> dict:
    spec = CampaignSpec.from_dict(cls.spec_dict(DEFAULT_SEED))
    result = run_campaign(spec, batch_lanes=1)
    return {
        "points": [
            {key: metrics[key] for key in cls.keys} for metrics in result.metrics
        ]
    }


def main() -> None:
    reference = {
        "seed": DEFAULT_SEED,
        RangeMC.name: campaign_reference(RangeMC),
        DeskewSpawn2.name: campaign_reference(DeskewSpawn2),
    }
    line = FineDelayLine(seed=DEFAULT_SEED)
    reference[StreamBert.name] = {"delay_s": StreamBert.calibrate(line)}
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
