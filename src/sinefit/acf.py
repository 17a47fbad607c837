"""Autocorrelation machinery.

Three ACF flavors live here:

* the discrete circular (wrap-around) serial correlation of a sampled
  record, normalized by its lag-0 value and symmetric about lag N/2;
* the closed-form "full model" ACF of A*sin(w*t + phi) obtained by
  integrating the sine product over one period in t, which keeps all
  three parameters in play;
* the "reduced model" ACF cos(w*tau) obtained by integrating over a
  random phase instead, which inverts cleanly to a frequency.

The closed forms work in lag-sample units: when lags count samples, the
angular frequency fed to them must be radians per sample (fold dt into
the frequency before constructing the parameter object).

A record's DFT, |DFT| and circular ACF come from its working set,
``_Record``, which every consumer of them builds or reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (SinusoidParams, TimeSeries, TWO_PI, _adopt, _count, _irfft, _is_integer,
                    _on_first_read, _rfft, check_finite)


class DegenerateParametersError(ValueError):
    """The analytic normalization denominator vanished for these parameters."""


# How far outside [-1, 1] a correlation value may sit before it is treated
# as a non-correlation input rather than roundoff.
_CLAMP_SLACK = 1e-6

# Once bin 0 is zeroed, a constant record leaves only the transform's
# rounding in the lag-0 sum: at most (0.19*eps*|sum(x)|)^2, measured on
# constant records of N = 2..600 and of sizes up to 1e6.  A lag-0 sum at or
# below (4*eps*|sum(x)|)^2 counts as zero variance.
_ROUNDING_FLOOR = 4.0 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class AcfSeries:
    """Lag-indexed correlation values; values[tau] is the value at lag tau."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def max_lag(self) -> int:
        return self.values.size - 1


@dataclass(frozen=True)
class IntegralParams:
    """Arguments of the definite integral of sin(a*x + b)*sin(a*x + d) over [u, v]."""

    a: float
    b: float
    d: float
    u: float
    v: float

    def __post_init__(self):
        if self.v < self.u:
            raise ValueError("upper limit v must be >= lower limit u")


@dataclass(frozen=True, eq=False, init=False)
class _Record:
    """One record's working set: the record, its one stored field, put
    through ``check_finite`` once on construction, and what the pipeline
    reads of its one forward and one inverse transform.

    ``dft`` is the one-sided DFT X of ``np.fft.rfft(x)`` (bins
    0..floor(N/2)), ``magnitudes`` its modulus |X| and ``acf`` the
    full-lag circular ACF, ``np.fft.irfft(|X|^2, N)`` divided by its lag
    0.  Both transforms are ``model._rfft`` and ``model._irfft``: numpy's
    pocketfft gufuncs, each into an ``np.empty`` output, where numpy (2.0
    on) has every C entry point the library calls, and ``np.fft``
    otherwise: the same bits either way.  Each is computed on
    first read (``model._on_first_read``) and kept read-only, so a record
    nothing asks to transform (a gate-1 reject) costs no transform; X and
    |X| are one step, which the first read of either (or of the ACF, as
    gate 2's) takes and which keeps both.  ``df``, the
    bin width 1/(N*dt) (bin m sits at m*df Hz), is the one place the
    spectrum's bin frequencies come from.  With every |x| <=
    sqrt(float max)/(2N) no bin, no |X|^2 and no sum of the inverse
    transform can overflow, so neither transform needs a floating-point
    error guard.
    """

    record: TimeSeries

    def __init__(self, record: TimeSeries):
        check_finite(record)
        self.__dict__["record"] = record

    df = property(lambda self: 1.0 / (self.record.samples.size * self.record.dt))

    @_on_first_read
    def dft(self) -> np.ndarray:
        self.magnitudes  # keeps X with |X|
        return self.__dict__["dft"]

    @_on_first_read
    def magnitudes(self) -> np.ndarray:
        # X and |X| in one step: the first read of either keeps both
        dft = _rfft(self.record.samples)
        magnitudes = np.abs(dft)
        dft.setflags(write=False)
        magnitudes.setflags(write=False)
        self.__dict__.setdefault("dft", dft)
        return magnitudes

    @_on_first_read
    def acf(self) -> AcfSeries:
        # |X| squares to |X|^2 bit for bit and magnitudes[0] is |sum(x)|;
        # the inverse transform's output is divided in place, not copied
        magnitudes = self.magnitudes
        power = magnitudes ** 2
        power[0] = 0.0
        sums = _irfft(power, self.record.samples.size)
        lag0 = float(sums[0])
        if not lag0 > 0.0 or math.sqrt(lag0) <= _ROUNDING_FLOOR * float(magnitudes[0]):
            raise ValueError("constant record has zero variance")
        sums /= lag0
        sums.setflags(write=False)
        return _adopt(AcfSeries, values=sums)


def circular_acf(record: TimeSeries, max_lag: int | None = None) -> AcfSeries:
    """Mean-centered circular serial correlation, normalized at lag 0.

    values[tau] = sum_i y_i * y_{(i+tau) mod N} / sum_i y_i^2 with
    y = x - mean(x).  By the Wiener-Khinchin theorem the circular sums
    for all lags are the inverse DFT of the power spectrum |DFT(y)|^2,
    and |DFT(y)|^2 is |DFT(x)|^2 with bin 0 (the mean) set to zero.  So
    the ACF costs the record's one forward transform and modulus, the
    same ones ``dft_magnitude`` reports, plus one inverse, O(N log N),
    divided by the lag-0 term.  The full-lag version (max_lag = N-1, the
    default) satisfies values[tau] == values[N - tau]: the fold-over
    symmetry that makes lags beyond N/2 redundant.  ``max_lag`` must be a
    Python or NumPy integer (a bool is not one) in [1, N-1].  Records with
    NaN, infinite or too-large samples are rejected first
    (``check_finite``).
    """
    n = len(record)
    if max_lag is None:
        max_lag = n - 1
    elif not _is_integer(max_lag):
        raise ValueError(f"max_lag must be an integer, got {max_lag!r}")
    if not 1 <= max_lag <= n - 1:
        raise ValueError(f"max_lag must be in [1, {n - 1}]")
    values = _Record(record).acf.values
    return _adopt(AcfSeries, values=values[:max_lag + 1])


def sine_product_integral(p: IntegralParams) -> float:
    """Closed form of the definite integral of sin(a*x + b)*sin(a*x + d).

    Over [u, v] this equals
    (v-u)/2 * cos(b-d) - sin(a*(v-u)) * cos(a*(u+v) + b + d) / (2*a).
    """
    if p.a == 0:
        raise ValueError("a must be non-zero")
    span = p.v - p.u
    return (span / 2.0 * math.cos(p.b - p.d)
            - math.sin(p.a * span) * math.cos(p.a * (p.u + p.v) + p.b + p.d)
            / (2.0 * p.a))


def _coupling_and_denominator(w: float, phi: float) -> tuple[float, float]:
    """(c, D) of the full-model ACF at angular frequency ``w`` (rad per lag)
    and phase ``phi``; a D within 1e-12 of zero raises
    ``DegenerateParametersError``.  O(1), and it never reads the amplitude."""
    two_pi_w = TWO_PI * w
    coupling = math.sin(two_pi_w) / two_pi_w
    denominator = 1.0 - coupling * math.cos(two_pi_w + 2.0 * phi)
    if abs(denominator) < 1e-12:
        raise DegenerateParametersError(
            "normalization denominator vanishes for these parameters")
    return coupling, denominator


def normalizing_constant(params: SinusoidParams) -> float:
    """Normalizing constant of the full-model ACF, C = (2/A^2) * D.

    D = 1 - sin(2*pi*w)*cos(2*pi*w + 2*phi)/(2*pi*w) is the lag-0 value of
    the raw one-period sine-product integral divided by A^2/2 (it is also
    the denominator that scales the full-model ACF to 1 at lag 0).
    Dividing the raw integral by C*(A^2/2)^2 reproduces ``model_acf_full``.
    An amplitude so small that C overflows (below about 1e-154 when D is
    near 1) raises ``ValueError``.
    """
    _, denominator = _coupling_and_denominator(params.omega(), params.phase_rad)
    a_squared = params.amplitude ** 2
    constant = 2.0 / a_squared * denominator if a_squared > 0.0 else math.inf
    if math.isinf(constant):
        raise ValueError(f"normalizing constant 2*D/A^2 overflows for amplitude "
                         f"{params.amplitude!r}")
    return constant


def model_acf_full(params: SinusoidParams, max_lag: int) -> AcfSeries:
    """Closed-form ACF of the sinusoid with all three parameters retained.

    values[tau] = [cos(w*tau) - c*cos((2*pi + tau)*w + 2*phi)] / D with
    c = sin(2*pi*w)/(2*pi*w) and D = 1 - c*cos(2*pi*w + 2*phi), so
    values[0] = 1 exactly.  Not an even function of tau in general, unlike
    the reduced model.  ``max_lag`` must be a Python or NumPy integer (a
    bool is not one) of at least 1, here and in ``model_acf_reduced``.
    """
    max_lag = _count("max_lag", max_lag)
    w = params.omega()
    phi = params.phase_rad
    coupling, denominator = _coupling_and_denominator(w, phi)
    taus = np.arange(max_lag + 1, dtype=float)
    values = (np.cos(w * taus)
              - coupling * np.cos((TWO_PI + taus) * w + 2.0 * phi)) / denominator
    return AcfSeries(values)


def model_acf_reduced(params: SinusoidParams, max_lag: int) -> AcfSeries:
    """Random-phase ACF cos(w*tau); the A^2/2 scale is dropped outright."""
    taus = np.arange(_count("max_lag", max_lag) + 1, dtype=float)
    return AcfSeries(np.cos(params.omega() * taus))


def frequency_from_acf(r_value: float, tau: int) -> float:
    """Invert the reduced-model ACF: f = arccos(r)/(2*pi*tau).

    tau counts lags, so the result is in cycles per lag unit; divide by dt
    for Hz when lags are samples.  r is clamped into [-1, 1] when it is
    within 1e-6 of the interval; anything farther out is rejected as not
    being a correlation value.  r = 1 maps to 0, which carries no
    frequency information, and callers must treat it that way.
    """
    if tau < 1:
        raise ValueError("tau must be at least 1")
    if not -1.0 - _CLAMP_SLACK <= r_value <= 1.0 + _CLAMP_SLACK:
        raise ValueError(f"{r_value} is too far outside [-1, 1] to be an ACF value")
    r = min(1.0, max(-1.0, r_value))
    return math.acos(r) / (TWO_PI * tau)
