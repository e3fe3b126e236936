"""Dual-Dirac jitter decomposition and total-jitter extrapolation.

The dual-Dirac model (the standard model behind scope "RJ/DJ
separation") treats the jitter distribution as deterministic jitter
collapsed to two Dirac impulses separated by ``DJ(dd)``, each convolved
with the same Gaussian of width ``RJ sigma``.  Total jitter at a bit
error ratio then extrapolates as::

    TJ(BER) = DJ(dd) + 2 * Q(BER) * RJ_sigma

where ``Q(BER)`` is the one-sided Gaussian quantile of the BER.

The fit here uses the quantile (tail-fit) method: each tail of the
observed TIE distribution is matched to a Gaussian tail through two
quantile levels, giving the tail sigma and the position of the
corresponding Dirac.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientEdgesError, MeasurementError

__all__ = [
    "DualDiracModel",
    "q_ber",
    "fit_dual_dirac",
    "total_jitter_at_ber",
]


def q_ber(ber: float) -> float:
    """One-sided Gaussian quantile ``Q`` for a bit error ratio.

    ``Q(1e-12) ≈ 7.03``; this is the multiplier in the TJ(BER) formula.
    """
    if not 0.0 < ber < 0.5:
        raise MeasurementError(f"BER must be in (0, 0.5), got {ber}")
    from scipy import special

    return math.sqrt(2.0) * float(special.erfcinv(2.0 * ber))


@dataclass(frozen=True)
class DualDiracModel:
    """Fitted dual-Dirac parameters (seconds).

    Attributes
    ----------
    rj_sigma:
        Random-jitter sigma (average of left/right tail sigmas).
    dj_pp:
        Dual-Dirac deterministic jitter: separation of the two Diracs.
    mu_left, mu_right:
        Fitted Dirac positions relative to the TIE mean.
    """

    rj_sigma: float
    dj_pp: float
    mu_left: float
    mu_right: float

    def total_jitter(self, ber: float = 1e-12) -> float:
        """TJ(BER) = DJ(dd) + 2 Q(BER) RJ_sigma."""
        return self.dj_pp + 2.0 * q_ber(ber) * self.rj_sigma


def _fit_tail(
    sorted_tie: np.ndarray, p_outer: float, p_inner: float, right: bool
) -> tuple:
    """Fit one Gaussian tail through two quantiles.

    Returns ``(mu, sigma)`` of the Gaussian whose tail passes through
    the observed quantiles at probabilities *p_outer* < *p_inner*.
    """
    from scipy import special

    n = sorted_tie.size
    if right:
        x_outer = float(np.quantile(sorted_tie, 1.0 - p_outer))
        x_inner = float(np.quantile(sorted_tie, 1.0 - p_inner))
    else:
        x_outer = float(np.quantile(sorted_tie, p_outer))
        x_inner = float(np.quantile(sorted_tie, p_inner))
    z_outer = math.sqrt(2.0) * float(special.erfcinv(2.0 * p_outer))
    z_inner = math.sqrt(2.0) * float(special.erfcinv(2.0 * p_inner))
    denom = z_outer - z_inner
    if denom <= 0:
        raise MeasurementError("tail quantile levels must differ")
    if right:
        sigma = (x_outer - x_inner) / denom
        mu = x_outer - sigma * z_outer
    else:
        sigma = (x_inner - x_outer) / denom
        mu = x_outer + sigma * z_outer
    return mu, max(sigma, 0.0)


def fit_dual_dirac(
    tie: np.ndarray,
    p_outer: float | None = None,
    p_inner: float = 0.05,
) -> DualDiracModel:
    """Fit a dual-Dirac model to a TIE sample by tail matching.

    Parameters
    ----------
    tie:
        TIE sample, seconds.  Needs at least ~100 edges for the tails
        to be meaningful.
    p_outer:
        Outer tail probability used in the fit.  Defaults to
        ``max(2/N, 0.005)`` so the outer quantile stays inside the
        observed sample.
    p_inner:
        Inner tail probability (must exceed *p_outer*).
    """
    tie = np.asarray(tie, dtype=np.float64)
    if tie.size < 100:
        raise InsufficientEdgesError(
            f"dual-Dirac fit needs >= 100 edges, got {tie.size}"
        )
    centred = np.sort(tie - tie.mean())
    if p_outer is None:
        p_outer = max(2.0 / tie.size, 0.005)
    if not 0.0 < p_outer < p_inner < 0.5:
        raise MeasurementError(
            f"need 0 < p_outer < p_inner < 0.5, got {p_outer}, {p_inner}"
        )
    mu_right, sigma_right = _fit_tail(centred, p_outer, p_inner, right=True)
    mu_left, sigma_left = _fit_tail(centred, p_outer, p_inner, right=False)
    rj_sigma = (sigma_left + sigma_right) / 2.0
    dj_pp = max(mu_right - mu_left, 0.0)
    return DualDiracModel(
        rj_sigma=rj_sigma, dj_pp=dj_pp, mu_left=mu_left, mu_right=mu_right
    )


def total_jitter_at_ber(tie: np.ndarray, ber: float = 1e-12) -> float:
    """Convenience: fit dual-Dirac and extrapolate TJ at *ber*."""
    return fit_dual_dirac(tie).total_jitter(ber)
