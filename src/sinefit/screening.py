"""Two-gate signal/noise screen.

Gate 1 is a Wald-Wolfowitz runs test about the sample median: a record
the runs test calls random is discarded as noise and never reaches the
ACF.  Gate 2 computes the record's one forward DFT and, from it, the
full-lag circular ACF, judges lags 1..N/2 and demands enough of them
outside the +-z/sqrt(N) significance bounds, with excursions on both
sides of zero (a cosine-shaped ACF swings both ways; a one-sided pattern
is a trend, not a periodicity).  The decision keeps both the DFT bins
and the ACF for the estimator and the ACF writers.  The gate-2 rule is a
documented stand-in and is meant to be replaceable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .acf import AcfSeries, _circular_acf, circular_acf
from .model import TimeSeries, check_finite
from .normal import normal_quantile
from .spectrum import _dft

MIN_SAMPLES = 20

VERDICT_SIGNAL = "signal"
VERDICT_NOISE = "noise"


@dataclass(frozen=True)
class ScreeningDecision:
    """Per-gate statistics, the verdict, and what gate 2 computed, if it ran.

    ``dft`` is the record's one-sided DFT, ``np.fft.rfft(x)`` (read-only),
    and ``acf`` the full-lag circular ACF taken from it.  Both are None
    after a gate-1 reject.  Neither takes part in ``==``, ``hash`` or
    ``repr``: they are per-record intermediates, not statistics.
    """

    runs_statistic: float
    runs_count: int
    n_above: int
    n_below: int
    acf_exceedances: int
    acf_bound: float
    far: float
    verdict: str
    gate_failed: str  # "none", "gate1", or "gate2"
    acf: AcfSeries | None = field(default=None, compare=False, repr=False)
    dft: np.ndarray | None = field(default=None, compare=False, repr=False)


@functools.lru_cache(maxsize=64)
def _two_sided_quantile(far: float) -> float:
    return normal_quantile(1.0 - far / 2.0)


def _gate1_threshold(n: int, far: float) -> float:
    """Runs-test threshold z_{1-far/2}; divided by sqrt(n) it is the ACF bound.

    Both arguments are checked on every call.  The quantile depends on
    ``far`` alone, which a screening job rarely changes, so it is kept per
    ``far`` (the 64 most recent) and each record after the first costs a
    lookup.
    """
    if not 0.0 < far < 0.5:
        raise ValueError("false-alarm rate must lie in (0, 0.5)")
    if n < MIN_SAMPLES:
        raise ValueError(f"screening needs at least {MIN_SAMPLES} samples")
    return _two_sided_quantile(far)


def _median(x: np.ndarray) -> float:
    """Median of a finite 1-D array from one partial sort."""
    n = x.size
    part = np.partition(x, [(n - 1) // 2, n // 2])
    if n % 2:
        return float(part[n // 2])
    return float((part[n // 2 - 1] + part[n // 2]) / 2.0)


def _runs_statistics(record: TimeSeries) -> tuple[float, int, int, int]:
    """z-score, runs count, and above/below counts for a median split.

    The median is the middle order statistic for odd n and ``(a + b) / 2.0``
    of the two middle ones for even n, taken from ``np.partition``.  That
    is the arithmetic ``np.median`` applies to the same partition (the mean
    of one or two elements), so on the finite records that reach it (its
    callers run ``check_finite`` first) the value is identical, without
    ``np.median``'s generic reduction set-up or its import of ``numpy.ma``.
    """
    x = record.samples
    median = _median(x)
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
    check_finite(record)
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
    processing: no transform is computed (``dft`` and ``acf`` are None),
    ``acf_exceedances`` is 0.  Otherwise the decision keeps the record's
    DFT bins and the full-lag ACF, so no later stage transforms it again.
    Records with NaN, infinite or too-large samples are rejected (see
    ``check_finite``), after the checks on ``far`` and the record length.
    """
    _gate1_threshold(len(record), far)
    check_finite(record)
    return _screen(record, far)


def _screen(record: TimeSeries, far: float) -> ScreeningDecision:
    """``screen`` for a record its caller has already put through ``check_finite``."""
    n = len(record)
    threshold = _gate1_threshold(n, far)
    z, runs, n1, n2 = _runs_statistics(record)
    bound = threshold / math.sqrt(n)

    if abs(z) < threshold:
        return ScreeningDecision(z, runs, n1, n2, 0, bound, far,
                                 VERDICT_NOISE, "gate1")

    dft = _dft(record)
    dft.setflags(write=False)
    acf = _circular_acf(record, dft, n - 1)
    passed, count = _gate2_passes(acf.values[1:n // 2 + 1], bound)
    if not passed:
        return ScreeningDecision(z, runs, n1, n2, count, bound, far,
                                 VERDICT_NOISE, "gate2", acf, dft)
    return ScreeningDecision(z, runs, n1, n2, count, bound, far,
                             VERDICT_SIGNAL, "none", acf, dft)


def record_acf(record: TimeSeries, decision: ScreeningDecision | None) -> AcfSeries:
    """The full-lag circular ACF of ``record``: the one ``decision`` kept, or
    a fresh one when the screen stopped before gate 2 (or never ran)."""
    if decision is not None and decision.acf is not None:
        return decision.acf
    return circular_acf(record)
