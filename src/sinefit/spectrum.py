"""Discrete Fourier magnitude spectrum and fundamental-frequency pick."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import NON_FINITE_SAMPLES, TimeSeries


@dataclass(frozen=True, eq=False)
class Spectrum:
    """One-sided magnitude spectrum: bin m covers frequency m*df."""

    df: float
    magnitudes: np.ndarray

    def __post_init__(self):
        mags = np.array(self.magnitudes, dtype=float)
        mags.setflags(write=False)
        object.__setattr__(self, "magnitudes", mags)

    def frequencies(self) -> np.ndarray:
        return self.df * np.arange(self.magnitudes.size)


def dft_magnitude(record: TimeSeries) -> Spectrum:
    """|DFT| for bins 0..floor(N/2); bin m maps to m/(N*dt) Hz.

    No windowing or zero padding is applied here; callers that need an
    off-grid peak can pad the input record first.  A record with a NaN
    or infinite sample makes the DC magnitude |sum(x)| non-finite and is
    rejected on it.
    """
    x = record.samples
    with np.errstate(invalid="ignore"):  # inf - inf inside the transform
        mags = np.abs(np.fft.rfft(x))
    if not math.isfinite(mags[0]):
        raise ValueError(NON_FINITE_SAMPLES)
    return Spectrum(1.0 / (x.size * record.dt), mags)


def fundamental_frequency(spec: Spectrum) -> float:
    """Frequency of the largest non-DC bin; ties go to the lower bin.

    DC is excluded because the model has no vertical offset, so any
    energy at bin 0 is residual mean, not signal.
    """
    if spec.magnitudes.size < 2:
        raise ValueError("spectrum needs at least two bins")
    m = 1 + int(np.argmax(spec.magnitudes[1:]))
    return m * spec.df
