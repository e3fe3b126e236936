"""Medians and the percentile rule used by the benchmark.

Kept free of any ``repro`` import so the rules can be tested without
the program under test.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: A percentile is reported only with at least this many samples above it.
MIN_TAIL = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank *q*-percentile (0 < q < 100), or ``None``.

    ``None`` unless at least :data:`MIN_TAIL` samples lie above the
    percentile's rank; a p95 of 19 samples is the maximum in disguise.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100): {q}")
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL:
        return None
    return float(ordered[rank - 1])
