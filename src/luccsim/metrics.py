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

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import MetricUndefinedError
from .numeric import sequential_sum

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


def _check_pair(observed: Sequence[float], simulated: Sequence[float]) -> tuple[np.ndarray, ...]:
    """The two series as float arrays, if they are as long as each other, finite, and not single."""
    if len(observed) != len(simulated):
        raise MetricUndefinedError(
            f"series lengths differ ({len(observed)} vs {len(simulated)})"
        )
    if len(observed) < 2:
        raise MetricUndefinedError("series need at least two points")
    obs = np.asarray(observed, dtype=float)
    sim = np.asarray(simulated, dtype=float)
    if not (np.isfinite(obs).all() and np.isfinite(sim).all()):
        raise MetricUndefinedError("series values must be finite")
    return obs, sim


def rmse_and_v(
    observed: Sequence[float], simulated: Sequence[float]
) -> tuple[float, float]:
    """Root-mean-square error and its ratio to the observed mean, both sums left to right."""
    obs, sim = _check_pair(observed, simulated)
    with np.errstate(over="ignore"):  # an overflow is refused below, not warned of
        diff = obs - sim
        rmse = math.sqrt(sequential_sum(diff ** 2) / len(obs))
        mean_obs = sequential_sum(obs) / len(obs)
    largest = np.max(np.abs(diff))
    if 0.0 < largest < 2.0**-511:  # every square is subnormal or zero
        raise MetricUndefinedError(f"rmse underflows (largest difference {largest.item()!r})")
    if mean_obs == 0.0:
        raise MetricUndefinedError("v is undefined: observed mean is zero")
    v = rmse / mean_obs
    if not all(map(math.isfinite, (rmse, mean_obs, v))):
        raise MetricUndefinedError(f"rmse or v overflows (rmse={rmse}, observed mean={mean_obs})")
    return rmse, v


def ordinal_fit(
    observed: Sequence[float], simulated: Sequence[float]
) -> tuple[float, float]:
    """Probability of an ordinal match (PM) and the index of observed fit."""
    obs, sim = _check_pair(observed, simulated)
    total = matches = 0
    with np.errstate(over="ignore"):  # a difference that overflows keeps its sign
        for i in range(len(obs) - 1):  # the pairs (i, j > i)
            d_obs = np.sign(obs[i] - obs[i + 1:])
            total += np.count_nonzero(d_obs)  # observed ties are not counted
            matches += np.count_nonzero(d_obs * np.sign(sim[i] - sim[i + 1:]) > 0)
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


def _quartile(arr: np.ndarray, q: float) -> float:
    """np.percentile(arr, 100 * q, method="linear"), by the same float operations.

    Each call partitions its own copy at numpy's kth set, as each
    np.percentile call does: where equal values (such as -0.0 and 0.0) land
    depends on the partition, so sharing one would change the sign of a zero.
    np.percentile finds that set with np.unique, which imports numpy.ma.
    """
    n = len(arr)
    virtual = (n - 1) * q
    lo = hi = -1  # beyond the last index, numpy takes the last value
    if virtual < n - 1:
        lo = math.floor(virtual)
        hi = lo + 1
    part = arr.copy()
    part.partition(sorted({0, -1, lo, hi}))
    if math.isnan(part[-1]):
        return math.nan
    below, above, gamma = part[lo].item(), part[hi].item(), virtual - lo
    diff = above - below
    if gamma >= 0.5:  # numpy's two-branch lerp
        return above - diff * (1 - gamma)
    return below + diff * gamma


def distribution_summary(values: Sequence[float]) -> DistributionSummary:
    """Quartiles (inclusive linear interpolation), mean, and percent CV (None at a zero mean)."""
    if not len(values):
        raise MetricUndefinedError("distribution summary needs values")
    arr = np.asarray(values, dtype=float)
    mean = float(np.mean(arr))
    return DistributionSummary(
        min=float(np.min(arr)),
        q25=_quartile(arr, 0.25),
        median=_quartile(arr, 0.5),
        q75=_quartile(arr, 0.75),
        max=float(np.max(arr)),
        mean=mean,
        cv=100.0 * float(np.std(arr)) / abs(mean) if mean != 0.0 else None,
    )
