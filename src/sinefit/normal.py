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


# Horner coefficients, highest degree first, each a (4, 1) column: the
# central and the tail numerator's over the central and the tail
# denominator's.  The tail denominator is one degree lower, so it leads
# with 0 (0*q + D0 = D0 for the finite q >= 0 it meets).  The rows of one
# rational at a time are (2, 1) columns.
_BOTH = tuple(np.array([_A, _C, _B + (1.0,), (0.0,) + _D + (1.0,)]).T[:, :, None])
_CENTRAL = tuple(np.ascontiguousarray(column[::2]) for column in _BOTH)
_TAIL = tuple(np.ascontiguousarray(column[1::2]) for column in _BOTH)

# Below this many elements ``_quantile`` evaluates both rationals on every
# element in one pass; from it on, the tail rational runs only on the
# gathered tail elements.  ``synthesize`` with one layout over the other,
# alternating batches on a 2-core VM (median of 30 pairs): 0.96x at 500
# samples, 0.99x at 600, 1.00x at 640, 1.05x at 700 and 1.06x at 800.
_ONE_PASS_BELOW = 640


def _horner(columns, x):
    """The polynomials of ``columns`` at the array ``x``, their rows stacked
    along a new leading axis (the columns broadcast against ``x``)."""
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
    same order as Acklam's three-branch formula, in one of two layouts
    (``_quantile``) split at ``_ONE_PASS_BELOW`` = 640 elements, about
    where their timings cross.  Below it, one Horner pass over a (4, n)
    stack evaluates the central and the tail rational, numerator and
    denominator, on every element, and keeps the tail value where p lies
    in a tail: about 25 numpy calls.  From it on, the central rational
    runs over the whole array as a (2, n) pass, and both tails together
    as a second (2, k) pass over the k gathered tail elements: about 40
    calls, but the tail rational's work grows with k, not n.  Either way
    the numpy call count does not grow with the size, and a scalar costs
    about as much as a short array; the screening gates ask for one
    threshold per false-alarm rate and keep it.
    """
    arr = np.asarray(p, dtype=float)
    x = arr.reshape(-1)
    # minimum/maximum propagate NaN; initial=0.5 lets an empty array through
    if not (np.minimum.reduce(x, initial=0.5) > 0.0
            and np.maximum.reduce(x, initial=0.5) < 1.0):
        raise ValueError("probability must lie strictly inside (0, 1)")
    out = _quantile(x)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _quantile(x):
    """``normal_quantile`` of the 1-D float array ``x``, unchecked: the
    caller vouches that every element lies strictly inside (0, 1).

    The tail rational runs on sqrt(-2*log(min(p, 1 - p))), and its value
    is negative before the upper tail negates it, so a tail element's
    value is the tail rational with the sign of p - 0.5.
    """
    q = x - 0.5
    if x.size < _ONE_PASS_BELOW:
        # rows: (p - 0.5)**2 and sqrt(-2*log(min(p, 1 - p))), then both again
        y = np.empty((4, x.size))
        r, t = y[:2]
        np.multiply(q, q, out=r)
        np.subtract(1.0, x, out=t)
        np.minimum(x, t, out=t)
        np.log(t, out=t)
        t *= -2.0
        np.sqrt(t, out=t)
        y[2:] = y[:2]
        acc = _horner(_BOTH, y)
        acc[0] *= q
        acc[:2] /= acc[2:]
        central, tail = acc[:2]
        np.copysign(tail, q, out=central, where=(x < _P_LOW) | (x > _P_HIGH))
        return central

    num, den = _horner(_CENTRAL, q * q)
    q *= num
    q /= den
    tail = np.flatnonzero((x < _P_LOW) | (x > _P_HIGH))
    t = x[tail]
    num, den = _horner(_TAIL, np.sqrt(-2.0 * np.log(np.minimum(t, 1.0 - t))))
    num /= den
    np.negative(num, out=num, where=t > _P_HIGH)
    q[tail] = num
    return q
