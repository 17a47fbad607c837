"""Two-gate signal/noise screen.

Gate 1 is a Wald-Wolfowitz runs test about the sample median: a record
the runs test calls random is discarded as noise and never reaches the
ACF.  Gate 2 computes the circular ACF to lag N/2 and demands enough
lags outside the +-z/sqrt(N) significance bounds, with excursions on
both sides of zero (a cosine-shaped ACF swings both ways; a one-sided
pattern is a trend, not a periodicity).  The gate-2 rule is a documented
stand-in and is meant to be replaceable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .acf import circular_acf
from .model import TimeSeries
from .normal import normal_quantile

MIN_SAMPLES = 20

VERDICT_SIGNAL = "signal"
VERDICT_NOISE = "noise"


@dataclass(frozen=True)
class ScreeningDecision:
    """Per-gate statistics and the final signal/noise verdict."""

    runs_statistic: float
    runs_count: int
    n_above: int
    n_below: int
    acf_exceedances: int
    acf_bound: float
    far: float
    verdict: str
    gate_failed: str  # "none", "gate1", or "gate2"


def _gate1_threshold(n: int, far: float) -> float:
    """Runs-test threshold z_{1-far/2}; divided by sqrt(n) it is the ACF bound."""
    if not 0.0 < far < 0.5:
        raise ValueError("false-alarm rate must lie in (0, 0.5)")
    if n < MIN_SAMPLES:
        raise ValueError(f"screening needs at least {MIN_SAMPLES} samples")
    return normal_quantile(1.0 - far / 2.0)


def check_finite(record: TimeSeries) -> None:
    """Reject records with NaN or infinite samples, which no gate can judge."""
    if not np.all(np.isfinite(record.samples)):
        raise ValueError("record has non-finite (NaN or inf) samples")


def _runs_statistics(record: TimeSeries) -> tuple[float, int, int, int]:
    """z-score, runs count, and above/below counts for a median split."""
    check_finite(record)
    x = record.samples
    median = float(np.median(x))
    above = x > median
    below = x < median
    keep = above | below  # samples equal to the median are dropped
    signs = above[keep]
    n1 = int(np.count_nonzero(signs))
    n2 = signs.size - n1
    if n1 == 0 or n2 == 0:
        raise ValueError("degenerate dichotomy: all samples on one side of the median")
    runs = 1 + int(np.count_nonzero(signs[1:] != signs[:-1]))
    n = n1 + n2
    mu = 2.0 * n1 * n2 / n + 1.0
    var = 2.0 * n1 * n2 * (2.0 * n1 * n2 - n) / (n * n * (n - 1.0))
    z = (runs - mu) / math.sqrt(var)
    return z, runs, n1, n2


def runs_test(record: TimeSeries, far: float) -> tuple[float, bool]:
    """Two-sided runs test; returns (z, is_random).

    The record is dichotomized about its median (ties dropped) and the
    run count compared with the normal approximation, which is why at
    least 20 samples are required.
    """
    threshold = _gate1_threshold(len(record), far)
    z, _, _, _ = _runs_statistics(record)
    return z, abs(z) < threshold


def acf_bounds(n: int, far: float) -> float:
    """Symmetric significance bound z_{1-far/2}/sqrt(n) for ACF lag values."""
    return _gate1_threshold(n, far) / math.sqrt(n)


def required_exceedances(n_lags: int) -> int:
    """Minimum number of significant lags gate 2 demands."""
    return max(2, math.ceil(0.05 * n_lags))


def _gate2_passes(lag_values: np.ndarray, bound: float) -> tuple[bool, int]:
    """Apply the gate-2 rule to ACF values at lags 1..L."""
    outside = np.abs(lag_values) > bound
    count = int(np.count_nonzero(outside))
    if count < required_exceedances(lag_values.size):
        return False, count
    significant = lag_values[outside]
    both_signs = bool(np.any(significant > 0)) and bool(np.any(significant < 0))
    return both_signs, count


def screen(record: TimeSeries, far: float = 0.01) -> ScreeningDecision:
    """Run both gates in order and report the verdict.

    Gate-1 failure (the runs test calls the record random) stops
    processing: the ACF is never computed and ``acf_exceedances`` stays 0.
    """
    n = len(record)
    threshold = _gate1_threshold(n, far)
    z, runs, n1, n2 = _runs_statistics(record)
    bound = threshold / math.sqrt(n)

    if abs(z) < threshold:
        return ScreeningDecision(z, runs, n1, n2, 0, bound, far,
                                 VERDICT_NOISE, "gate1")

    acf = circular_acf(record, max_lag=n // 2)
    passed, count = _gate2_passes(acf.values[1:], bound)
    if not passed:
        return ScreeningDecision(z, runs, n1, n2, count, bound, far,
                                 VERDICT_NOISE, "gate2")
    return ScreeningDecision(z, runs, n1, n2, count, bound, far,
                             VERDICT_SIGNAL, "none")
