"""Two-gate signal/noise screen.

Gate 1 is a Wald-Wolfowitz runs test about the sample median: a record
the runs test calls random is discarded as noise and never reaches the
ACF.  Gate 2 reads the full-lag circular ACF from the record's working
set (``acf._Record``), judges lags 1..N/2 and demands enough of them
outside the +-z/sqrt(N) significance bounds, with excursions on both
sides of zero (a cosine-shaped ACF swings both ways; a one-sided pattern
is a trend, not a periodicity).  The estimator hands ``_screen`` the
working set its spectrum and ACF cross-checks then read, so the record
is transformed once.  The gate-2 rule is a documented stand-in and is
meant to be replaceable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .acf import _Record
from .model import TimeSeries, _adopt, _count_nonzero, check_finite
from .normal import normal_quantile

MIN_SAMPLES = 20

VERDICT_SIGNAL = "signal"
VERDICT_NOISE = "noise"


@dataclass(frozen=True)
class ScreeningDecision:
    """Per-gate statistics and the verdict."""

    runs_statistic: float
    runs_count: int
    n_above: int
    n_below: int
    acf_exceedances: int
    acf_bound: float
    far: float
    verdict: str
    gate_failed: str  # "none", "gate1", or "gate2"


def _check_far(far: float) -> None:
    """Reject a false-alarm rate outside (0, 0.5): the one check of that
    range, for the screen and ``PipelineConfig`` alike."""
    if not 0.0 < far < 0.5:
        raise ValueError("false-alarm rate must lie in (0, 0.5)")


@functools.lru_cache(maxsize=64)
def _gate_constants(n: int, far: float) -> tuple[float, float, int]:
    """What the screen of an n-sample record at false-alarm rate ``far``
    reads that depends on nothing else: the runs-test threshold
    z_{1-far/2}, the ACF bound z_{1-far/2}/sqrt(n) and the count of
    significant lags gate 2 requires of its n//2 judged lags.

    Both arguments are checked on every call (a call that raises keeps
    nothing).  A screening job rarely changes N or ``far``, so the 64 most
    recent pairs are kept and each record after the first costs one
    lookup.
    """
    _check_far(far)
    if n < MIN_SAMPLES:
        raise ValueError(f"screening needs at least {MIN_SAMPLES} samples")
    threshold = normal_quantile(1.0 - far / 2.0)
    return threshold, threshold / math.sqrt(n), required_exceedances(n // 2)


def _partitioned(x: np.ndarray, kth: int) -> np.ndarray:
    """A copy of ``x`` partitioned at ``kth``: ``np.partition``'s copy and
    selection, called as the ndarray method without its Python wrapper."""
    part = x.copy()
    part.partition(kth)
    return part


def _middle_pair(x: np.ndarray) -> tuple[float, float]:
    """The lower and upper middle order statistics of a finite 1-D array,
    as Python floats.

    One single-kth selection, ``_partitioned(x, n // 2)``, places the
    upper middle one at ``n // 2`` with every smaller-indexed element no
    larger, so for even n the lower middle one is the largest of
    ``part[:n // 2]``; for odd n both are the middle sample.  One
    selection gives both, at a fraction of the cost of a two-kth
    partition, since numpy's partition with two kth values does far more
    than two selections.
    """
    n = x.size
    half = n // 2
    part = _partitioned(x, half)
    upper = float(part[half])
    if n % 2:
        return upper, upper
    return float(np.maximum.reduce(part[:half])), upper


def _runs_statistics(record: TimeSeries) -> tuple[float, int, int, int]:
    """z-score, runs count, and above/below counts for a median split.

    The median ``(lower + upper) / 2.0`` of the middle pair is the
    arithmetic of ``np.median``, done in Python floats: a zero median may
    carry either sign, which no comparison sees, and for odd n it is the
    middle sample, since samples that pass ``check_finite`` are far too
    small for ``2 * upper`` to overflow.  So on the finite records that
    reach it (``runs_test`` and the working set run ``check_finite``
    first) the value is the same, without ``np.median``'s generic
    reduction set-up or its import of ``numpy.ma``.  Samples equal to the
    median are dropped.  The partition decides the split on most records:
    when ``lower < median < upper`` (even n, no tie at the middle and
    middle values that are not adjacent floats) no sample equals the
    median, each side holds n/2 >= 10 samples and the kept signs are the
    ``x > median`` mask itself.  Otherwise both sides are counted and the
    kept signs gathered when some sample equals the median.  A split with
    no sample on one side, or with one sample on each (whose runs
    variance is 0), raises the "degenerate dichotomy" ``ValueError``.
    """
    x = record.samples
    lower, upper = _middle_pair(x)
    median = (lower + upper) / 2.0
    above = x > median
    if lower < median < upper:
        n1 = n2 = x.size // 2
        signs = above
    else:
        below = x < median
        n1 = int(_count_nonzero(above))
        n2 = int(_count_nonzero(below))
        if n1 == 0 or n2 == 0:
            raise ValueError("degenerate dichotomy: all samples on one side of the median")
        if n1 + n2 == 2:
            raise ValueError("degenerate dichotomy: one sample on each side of the median "
                             "leaves the runs count no variance")
        signs = above if n1 + n2 == x.size else above[above | below]
    n = n1 + n2
    runs = 1 + int(_count_nonzero(signs[1:] != signs[:-1]))
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
    threshold = _gate_constants(len(record), far)[0]
    check_finite(record)
    z, _, _, _ = _runs_statistics(record)
    return z, abs(z) < threshold


def acf_bounds(n: int, far: float) -> float:
    """Symmetric significance bound z_{1-far/2}/sqrt(n) for ACF lag values."""
    return _gate_constants(n, far)[1]


def required_exceedances(n_lags: int) -> int:
    """Minimum number of significant lags gate 2 demands."""
    return max(2, math.ceil(0.05 * n_lags))


def _gate2_passes(lag_values: np.ndarray, bound: float, required: int) -> tuple[bool, int]:
    """Apply the gate-2 rule to the finite ACF values at lags 1..L: at
    least ``required`` (``required_exceedances(L)``) of them outside
    +-``bound``, on both sides of zero.

    Since ``bound`` is positive, |v| > bound is v > bound or v < -bound,
    never both, so the count is the sum of two one-sided counts, and
    "both sides of zero" is both counts above zero: no |v| temporary and
    no max or min reduction.
    """
    above = int(_count_nonzero(lag_values > bound))
    below = int(_count_nonzero(lag_values < -bound))
    count = above + below
    return count >= required and above > 0 and below > 0, count


def screen(record: TimeSeries, far: float = 0.01) -> ScreeningDecision:
    """Run both gates in order and report the verdict.

    Gate-1 failure (the runs test calls the record random) stops
    processing: no transform is computed and ``acf_exceedances`` is 0.
    Records with NaN, infinite or too-large samples are rejected (see
    ``check_finite``), after the checks on ``far`` and the record length.
    """
    _gate_constants(len(record), far)
    return _screen(_Record(record), far)


def _screen(work: _Record, far: float) -> ScreeningDecision:
    """``screen`` on a record's working set; only gate 2 reads its ACF."""
    record = work.record
    n = record.samples.size
    threshold, bound, required = _gate_constants(n, far)
    z, runs, n1, n2 = _runs_statistics(record)

    if abs(z) < threshold:
        count, verdict, gate_failed = 0, VERDICT_NOISE, "gate1"
    else:
        passed, count = _gate2_passes(work.acf.values[1:n // 2 + 1], bound, required)
        verdict, gate_failed = (VERDICT_SIGNAL, "none") if passed else (VERDICT_NOISE, "gate2")
    return _adopt(ScreeningDecision, runs_statistic=z, runs_count=runs, n_above=n1, n_below=n2,
                  acf_exceedances=count, acf_bound=bound, far=far, verdict=verdict,
                  gate_failed=gate_failed)
