"""Discrete Fourier magnitude spectrum and fundamental-frequency pick.

The spectrum is the |X| the circular ACF squares: both read it from the
record's working set (``acf._Record``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acf import _Record
from .model import TimeSeries, _adopt


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
    off-grid peak can pad the input record first.  Records with NaN,
    infinite or too-large samples are rejected first (``check_finite``).
    The magnitudes are the record's working set's |X| (see ``acf._Record``),
    frozen, not copied.
    """
    magnitudes = _Record(record).magnitudes
    return _adopt(Spectrum, df=1.0 / (len(record) * record.dt), magnitudes=magnitudes)


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
    return 1 + int(spec.magnitudes[1:].argmax())
