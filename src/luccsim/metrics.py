"""Goodness-of-fit between observed and simulated series, and summaries.

Magnitude fit is RMSE and its observed-mean-relative form v; ordinal fit
follows ordinal pattern analysis: over all index pairs whose observed
values differ, count whether the simulated pair is ordered the same way,
then PM = matches / (matches + mismatches) and IOF = 2*PM - 1. Tie
handling is fixed so results are reproducible: observed ties are excluded
from the pair set, and a simulated tie against a strictly ordered observed
pair counts as a mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import MetricUndefinedError

__all__ = [
    "FitReport",
    "DistributionSummary",
    "rmse_and_v",
    "ordinal_fit",
    "fit_report",
    "distribution_summary",
]


@dataclass(frozen=True)
class FitReport:
    rmse: float
    v: float
    pm: float
    iof: float


@dataclass(frozen=True)
class DistributionSummary:
    min: float
    q25: float
    median: float
    q75: float
    max: float
    mean: float
    cv: Optional[float]  # percent; population standard deviation over |mean|, None at mean 0


def _check_pair(observed: Sequence[float], simulated: Sequence[float]) -> None:
    if len(observed) != len(simulated):
        raise MetricUndefinedError(
            f"series lengths differ ({len(observed)} vs {len(simulated)})"
        )
    if len(observed) < 2:
        raise MetricUndefinedError("series need at least two points")


def rmse_and_v(
    observed: Sequence[float], simulated: Sequence[float]
) -> tuple[float, float]:
    """Root-mean-square error and its ratio to the observed mean."""
    _check_pair(observed, simulated)
    obs = np.asarray(observed, dtype=float)
    sim = np.asarray(simulated, dtype=float)
    rmse = float(np.sqrt(np.mean((obs - sim) ** 2)))
    mean_obs = float(np.mean(obs))
    if mean_obs == 0.0:
        raise MetricUndefinedError("v is undefined: observed mean is zero")
    return rmse, rmse / mean_obs


def ordinal_fit(
    observed: Sequence[float], simulated: Sequence[float]
) -> tuple[float, float]:
    """Probability of an ordinal match (PM) and the index of observed fit."""
    _check_pair(observed, simulated)
    matches = 0
    mismatches = 0
    n = len(observed)
    for i in range(n - 1):
        for j in range(i + 1, n):
            d_obs = observed[i] - observed[j]
            if d_obs == 0:
                continue
            d_sim = simulated[i] - simulated[j]
            if d_sim == 0:
                mismatches += 1
            elif (d_obs > 0) == (d_sim > 0):
                matches += 1
            else:
                mismatches += 1
    total = matches + mismatches
    if total == 0:
        raise MetricUndefinedError(
            "ordinal fit is undefined: all observed pairs are tied"
        )
    pm = matches / total
    return pm, 2.0 * pm - 1.0


def fit_report(
    observed: Sequence[float], simulated: Sequence[float]
) -> FitReport:
    rmse, v = rmse_and_v(observed, simulated)
    pm, iof = ordinal_fit(observed, simulated)
    return FitReport(rmse=rmse, v=v, pm=pm, iof=iof)


def distribution_summary(values: Sequence[float]) -> DistributionSummary:
    """Quartiles (inclusive linear interpolation), mean, and percent CV (None at a zero mean)."""
    if not len(values):
        raise MetricUndefinedError("distribution summary needs values")
    arr = np.asarray(values, dtype=float)
    mean = float(np.mean(arr))
    q25, median, q75 = (
        float(np.percentile(arr, q, method="linear")) for q in (25, 50, 75)
    )
    return DistributionSummary(
        min=float(np.min(arr)),
        q25=q25,
        median=median,
        q75=q75,
        max=float(np.max(arr)),
        mean=mean,
        cv=100.0 * float(np.std(arr)) / abs(mean) if mean != 0.0 else None,
    )
