"""Bathtub curves and BER-vs-sampling-position estimation.

A bathtub curve plots the bit error ratio against the sampling instant
within the unit interval.  Under the dual-Dirac model it is the sum of
two Gaussian tail probabilities, one from each eye crossing.  The
deskew application uses bathtubs to translate residual skew into
receiver timing margin at a target BER.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import MeasurementError
from ..jitter.decomposition import DualDiracModel, q_ber

__all__ = [
    "BathtubCurve",
    "BathtubAccumulator",
    "bathtub_from_dual_dirac",
    "eye_opening_at_ber",
]


def _gaussian_tail(x: np.ndarray) -> np.ndarray:
    """One-sided Gaussian tail probability Q(x)."""
    from scipy import special

    return 0.5 * special.erfc(x / math.sqrt(2.0))


def _widest_true_run(mask: np.ndarray) -> tuple:
    """Return (start, end) indices of the widest contiguous True run.

    Ties go to the earliest run.  *mask* must contain at least one True.
    """
    padded = np.concatenate([[False], mask, [False]])
    edges = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1  # inclusive
    widest = int(np.argmax(ends - starts))
    return int(starts[widest]), int(ends[widest])


@dataclass(frozen=True)
class BathtubCurve:
    """BER as a function of sampling position within the UI.

    Attributes
    ----------
    positions:
        Sampling instants across the UI, seconds (0 = left crossing).
    ber:
        Estimated bit error ratio at each position.
    unit_interval:
        The UI, seconds.
    """

    positions: np.ndarray
    ber: np.ndarray
    unit_interval: float

    def opening(self, target_ber: float = 1e-12) -> float:
        """Width of the widest contiguous region below *target_ber*.

        Returns 0 if the eye is closed at the target BER.

        A measured (non-monotone) curve can dip below the target at
        stray positions outside the eye — a noise notch near a crossing,
        or a zero-error cell that simply saw too few bits.  Spanning the
        first and last below-target indices would count the closed
        region between such outliers as open; only the widest contiguous
        below-target run is the eye.
        """
        if not 0.0 < target_ber < 0.5:
            raise MeasurementError(
                f"target BER must be in (0, 0.5): {target_ber}"
            )
        below = self.ber < target_ber
        if not np.any(below):
            return 0.0
        start, end = _widest_true_run(below)
        return float(self.positions[end] - self.positions[start])

    def centre(self, target_ber: float = 1e-12) -> float:
        """Optimal sampling instant (middle of the widest open run)."""
        below = self.ber < target_ber
        if not np.any(below):
            raise MeasurementError("eye is closed at the target BER")
        start, end = _widest_true_run(below)
        return float((self.positions[start] + self.positions[end]) / 2.0)


def bathtub_from_dual_dirac(
    model: DualDiracModel,
    unit_interval: float,
    transition_density: float = 0.5,
    n_points: int = 501,
) -> BathtubCurve:
    """Construct the dual-Dirac bathtub for one eye.

    The left crossing population sits at ``0 + mu_right`` /
    ``0 + mu_left`` (the two Diracs straddling the nominal crossing)
    and the right crossing population one UI later; each Dirac carries
    a Gaussian of ``rj_sigma``.

    Parameters
    ----------
    model:
        Fitted dual-Dirac parameters.
    unit_interval:
        UI, seconds.
    transition_density:
        Probability that a bit boundary carries a transition (0.5 for
        random data).
    """
    if unit_interval <= 0:
        raise MeasurementError(
            f"unit interval must be positive: {unit_interval}"
        )
    if model.rj_sigma <= 0:
        raise MeasurementError(
            "bathtub requires a positive RJ sigma (add noise to the model)"
        )
    x = np.linspace(0.0, unit_interval, n_points)
    # Left crossing: latest-arriving population is the right Dirac.
    left = 0.5 * (
        _gaussian_tail((x - model.mu_left) / model.rj_sigma)
        + _gaussian_tail((x - model.mu_right) / model.rj_sigma)
    )
    right = 0.5 * (
        _gaussian_tail((unit_interval + model.mu_left - x) / model.rj_sigma)
        + _gaussian_tail((unit_interval + model.mu_right - x) / model.rj_sigma)
    )
    ber = transition_density * (left + right)
    return BathtubCurve(positions=x, ber=ber, unit_interval=unit_interval)


class BathtubAccumulator:
    """Fold per-chunk error counts into a measured bathtub curve.

    Streaming BERT runs cannot hold a billion sampled bits; this
    accumulator keeps only two ``int64`` tallies per sampling position
    (bits counted, errors seen), so a 1e9-bit bathtub costs a few
    hundred bytes regardless of run length.  Chunk results from
    different workers can be combined with :meth:`merge`.
    """

    def __init__(self, positions: np.ndarray, unit_interval: float):
        positions = np.asarray(positions, dtype=np.float64)
        if positions.size == 0:
            raise MeasurementError("need at least one sampling position")
        if unit_interval <= 0:
            raise MeasurementError(
                f"unit interval must be positive: {unit_interval}"
            )
        self.positions = positions
        self.unit_interval = float(unit_interval)
        self.bits = np.zeros(positions.size, dtype=np.int64)
        self.errors = np.zeros(positions.size, dtype=np.int64)

    def add(self, position_index: int, n_bits: int, n_errors: int) -> None:
        """Fold one chunk's tally at one sampling position."""
        if n_bits < 0 or n_errors < 0 or n_errors > n_bits:
            raise MeasurementError(
                f"invalid chunk tally: {n_errors} errors in {n_bits} bits"
            )
        self.bits[position_index] += n_bits
        self.errors[position_index] += n_errors

    def merge(self, other: "BathtubAccumulator") -> None:
        """Fold another accumulator (e.g. from a parallel worker)."""
        if not np.array_equal(other.positions, self.positions):
            raise MeasurementError(
                "cannot merge accumulators with different position grids"
            )
        self.bits += other.bits
        self.errors += other.errors

    @property
    def total_bits(self) -> int:
        return int(self.bits.sum())

    def curve(self) -> BathtubCurve:
        """Snapshot the accumulated tallies as a :class:`BathtubCurve`.

        Positions that saw no bits report BER 1.0 (pessimistic: an
        unmeasured position is not evidence of an open eye).
        """
        ber = np.ones(self.positions.size, dtype=np.float64)
        np.divide(self.errors, self.bits, out=ber, where=self.bits > 0)
        return BathtubCurve(
            positions=self.positions.copy(),
            ber=ber,
            unit_interval=self.unit_interval,
        )


def eye_opening_at_ber(
    model: DualDiracModel,
    unit_interval: float,
    target_ber: float = 1e-12,
) -> float:
    """Closed-form horizontal opening at a target BER.

    ``UI - DJ(dd) - 2 Q(BER) RJ_sigma``, floored at zero.
    """
    opening = unit_interval - model.dj_pp - 2.0 * q_ber(target_ber) * model.rj_sigma
    return max(opening, 0.0)
