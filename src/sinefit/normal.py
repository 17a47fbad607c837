"""Standard normal quantile function (inverse CDF).

Uses Acklam's rational approximation, which is accurate to better than
1.2e-9 in absolute error over the whole open unit interval.  That is more
than enough for the small false-alarm rates used by the screening gates
(e.g. 0.001) and for inverse-CDF sampling of Gaussian noise.
"""

from __future__ import annotations

import numpy as np

_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)

_P_LOW = 0.02425
_P_HIGH = 1.0 - _P_LOW


# Horner coefficients, highest degree first, each a (2, 1) column: the
# numerator's over the denominator's.  The tail denominator is one degree
# lower, so it leads with 0 (0*q + D0 = D0 for the finite q >= 0 it meets).
_CENTRAL = tuple(np.array([_A, _B + (1.0,)]).T[:, :, None])
_TAIL = tuple(np.array([_C, (0.0,) + _D + (1.0,)]).T[:, :, None])


def _horner(columns, x):
    """Both polynomials of ``columns`` at the 1-D array ``x``, as a (2, n) array."""
    first, *middle, last = columns
    acc = first * x
    for column in middle:
        acc += column
        acc *= x
    acc += last
    return acc


def normal_quantile(p):
    """Return z such that P(Z <= z) = p for a standard normal Z.

    Accepts a scalar or an array of probabilities strictly inside (0, 1);
    returns a float for scalar (0-d) input, an ndarray of the input's
    shape otherwise.  Every element takes the same IEEE operations in the
    same order as Acklam's three-branch formula: the central rational runs
    over the whole array in one stacked numerator-and-denominator pass,
    and both tails run together in a second pass over the gathered tail
    elements, the upper tail through 1 - p and negated.  So the numpy call
    count does not grow with the size, and a scalar costs about as much as
    a short array; the screening gates ask for one threshold per
    false-alarm rate and keep it.
    """
    arr = np.asarray(p, dtype=float)
    x = arr.reshape(-1)
    # minimum/maximum propagate NaN; initial=0.5 lets an empty array through
    if not (np.minimum.reduce(x, initial=0.5) > 0.0
            and np.maximum.reduce(x, initial=0.5) < 1.0):
        raise ValueError("probability must lie strictly inside (0, 1)")

    out = x - 0.5
    num, den = _horner(_CENTRAL, out * out)
    out *= num
    out /= den

    tail = np.flatnonzero((x < _P_LOW) | (x > _P_HIGH))
    t = x[tail]
    num, den = _horner(_TAIL, np.sqrt(-2.0 * np.log(np.minimum(t, 1.0 - t))))
    num /= den
    np.negative(num, out=num, where=t > _P_HIGH)
    out[tail] = num
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)
