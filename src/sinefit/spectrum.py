"""Discrete Fourier magnitude spectrum and fundamental-frequency pick."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SAMPLES_TOO_LARGE, TimeSeries, check_finite


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


def _dft(record: TimeSeries) -> np.ndarray:
    """The record's one-sided DFT, ``np.fft.rfft(x)``: bins 0..floor(N/2).

    The one forward transform a record needs: ``dft_magnitude`` takes its
    modulus, the circular ACF the inverse transform of its power.  A NaN
    or infinite sample makes the DC bin sum(x) non-finite, and the record
    is rejected on that one value, with no extra pass over the data.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, huge inputs
        dft = np.fft.rfft(record.samples)
    if not math.isfinite(dft[0].real):
        check_finite(record)  # raises the message that fits
        raise ValueError(SAMPLES_TOO_LARGE)
    return dft


def dft_magnitude(record: TimeSeries) -> Spectrum:
    """|DFT| for bins 0..floor(N/2); bin m maps to m/(N*dt) Hz.

    No windowing or zero padding is applied here; callers that need an
    off-grid peak can pad the input record first.  Records with NaN or
    infinite samples are rejected on the DC bin (see ``_dft``).
    """
    return Spectrum(1.0 / (len(record) * record.dt), np.abs(_dft(record)))


def fundamental_frequency(spec: Spectrum) -> float:
    """Frequency of the largest non-DC bin; ties go to the lower bin.

    DC is excluded because the model has no vertical offset, so any
    energy at bin 0 is residual mean, not signal.
    """
    return _peak_bin(spec) * spec.df


def _peak_bin(spec: Spectrum) -> int:
    """Index of the largest non-DC bin; ties go to the lower bin."""
    if spec.magnitudes.size < 2:
        raise ValueError("spectrum needs at least two bins")
    return 1 + int(np.argmax(spec.magnitudes[1:]))
