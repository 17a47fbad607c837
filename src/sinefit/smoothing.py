"""Moving-average FIR smoothing and the range-based amplitude read."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SinusoidParams, TimeSeries, _adopt, _correlate, _count, evaluate


@dataclass(frozen=True, eq=False)
class SmoothedSeries:
    """Result of an MA-k pass: the filtered record plus its provenance.

    The window is trailing (causal): output sample i averages input
    samples i..i+k-1 and carries the time of input sample i+k-1.  Times
    read off the smoothed record therefore lag the underlying signal by
    ``group_delay`` seconds.  Only the window and the filtered record are
    stored; ``source_len``, the length of the input record, follows from
    them.
    """

    window_k: int
    series: TimeSeries

    group_delay = property(lambda self: (self.window_k - 1) / 2.0 * self.series.dt)
    source_len = property(lambda self: len(self.series) + self.window_k - 1)


def _check_window(k: int, n: int) -> None:
    """Reject an MA-k window, an int of at least 1, that an N-sample record
    cannot take."""
    if k > n:
        raise ValueError(f"window {k} exceeds record length {n}")
    if n - k + 1 < 2:
        raise ValueError(f"window {k} leaves fewer than two samples")


# The all-ones MA-k kernel of any k up to 4,096 is a slice of this read-only
# array (32 KiB), itself read-only; a longer window builds its own.
_ONES = np.ones(4096)
_ONES.setflags(write=False)


def moving_average(record: TimeSeries, k: int) -> SmoothedSeries:
    """MA-k smoothing with a trailing window; k = 1 is the identity.

    The window must be a Python or NumPy integer (a bool is not one) of at
    least 1 that leaves at least two samples.  Window sizes that divide
    the period evenly preserve the waveform best, but the optimal size is
    data dependent and left to the caller.  The smoothed samples are the
    filter's fresh array, divided by k in place and frozen, not copied.
    The window sums are the correlation of the record with the all-ones
    kernel, for k up to 4,096 the first k elements of one read-only array
    built at import (``_ONES``), taken by the C core
    ``multiarray.correlate2`` that ``np.correlate`` calls
    (``np.correlate`` itself on numpy < 2): ``np.convolve`` only reverses
    the kernel and calls the same core, so the bits are the same.
    """
    k = _count("window", k)
    _check_window(k, record.samples.size)
    return _moving_average(record, k)


def _moving_average(record: TimeSeries, k: int) -> SmoothedSeries:
    """``moving_average`` with no window check: the caller has checked that
    k is an int that ``_check_window(k, N)`` accepts."""
    kernel = _ONES[:k] if k <= _ONES.size else np.ones(k)
    smoothed = _correlate(record.samples, kernel, "valid")
    smoothed /= k
    smoothed.setflags(write=False)
    start = record.start_time + (k - 1) * record.dt  # no later than the last time, so finite
    series = _adopt(TimeSeries, start_time=start, dt=record.dt, samples=smoothed)
    return _adopt(SmoothedSeries, window_k=k, series=series)


def rms_error(smoothed: SmoothedSeries, reference: SinusoidParams) -> float:
    """RMS deviation of the smoothed record from a reference sinusoid.

    The reference is evaluated at the smoothed record's own (trailing)
    sample times, so filter lag counts against the fit.
    """
    t = smoothed.series.times()
    residual = smoothed.series.samples - evaluate(reference, t)
    return float(np.sqrt(np.mean(residual ** 2)))


def _span(s: np.ndarray) -> float:
    """The range max - min of the samples ``s``, as a Python float: the one
    owner of the smoothed range (``amplitude_estimate``, the pipeline's
    amplitude and the crossing scan's hysteresis read it)."""
    return float(np.maximum.reduce(s)) - float(np.minimum.reduce(s))


def amplitude_estimate(smoothed: SmoothedSeries) -> float:
    """Half the range (max - min)/2 of the smoothed samples."""
    return _span(smoothed.series.samples) / 2.0


def ma_attenuation(k: int, frequency: float, dt: float = 1.0) -> float:
    """Amplitude gain of MA-k at the given frequency.

    An MA-k pass maps A*sin(w*t + phi) to a sinusoid of the same
    frequency with amplitude |sin(pi*f*k*dt) / (k*sin(pi*f*dt))| * A,
    delayed by (k-1)/2*dt.
    """
    k = _count("window", k)
    x = math.pi * frequency * dt
    denom = k * math.sin(x)
    if denom == 0:
        return 1.0
    return abs(math.sin(k * x) / denom)


def recommended_windows(period_samples: float) -> list[int]:
    """Window sizes from 2 to half the period that divide the period into a
    whole number of chunks.

    A heuristic only: picking the best smoothing window is an open
    problem, so nothing here is enforced.
    """
    period = int(round(period_samples))
    if period < 2:
        return []
    return [k for k in range(2, period // 2 + 1) if period % k == 0]
