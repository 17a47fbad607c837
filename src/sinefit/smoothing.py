"""Moving-average FIR smoothing and the range-based amplitude read."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SinusoidParams, TimeSeries, _adopt, evaluate


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
    """Reject an MA-k window that an N-sample record cannot take."""
    if k < 1:
        raise ValueError("window must be at least 1")
    if k > n:
        raise ValueError(f"window {k} exceeds record length {n}")
    if n - k + 1 < 2:
        raise ValueError(f"window {k} leaves fewer than two samples")


def moving_average(record: TimeSeries, k: int) -> SmoothedSeries:
    """MA-k smoothing with a trailing window; k = 1 is the identity.

    Window sizes that divide the period evenly preserve the waveform
    best, but the optimal size is data dependent and left to the caller.
    The smoothed samples are the filter's fresh array, frozen, not copied.
    """
    _check_window(k, len(record))
    smoothed = np.convolve(record.samples, np.ones(k), mode="valid") / k
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


def amplitude_estimate(smoothed: SmoothedSeries) -> float:
    """Half the range (max - min)/2 of the smoothed samples."""
    s = smoothed.series.samples
    return float((s.max() - s.min()) / 2.0)


def ma_attenuation(k: int, frequency: float, dt: float = 1.0) -> float:
    """Amplitude gain of MA-k at the given frequency.

    An MA-k pass maps A*sin(w*t + phi) to a sinusoid of the same
    frequency with amplitude |sin(pi*f*k*dt) / (k*sin(pi*f*dt))| * A,
    delayed by (k-1)/2*dt.
    """
    if k < 1:
        raise ValueError("window must be at least 1")
    x = math.pi * frequency * dt
    denom = k * math.sin(x)
    if denom == 0:
        return 1.0
    return abs(math.sin(k * x) / denom)


def recommended_windows(period_samples: float, limit: int | None = None) -> list[int]:
    """Window sizes that divide the period into a whole number of chunks.

    A heuristic only: picking the best smoothing window is an open
    problem, so nothing here is enforced.
    """
    period = int(round(period_samples))
    if period < 2:
        return []
    top = limit if limit is not None else period // 2
    return [k for k in range(2, top + 1) if period % k == 0]
