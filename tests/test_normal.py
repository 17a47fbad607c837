import math

import numpy as np
import pytest
from scipy.stats import norm

from sinefit import normal, normal_quantile
from sinefit.model import standard_normal_draws
from test_gate1 import _probability_sweep


def test_matches_scipy_ppf_everywhere():
    p = np.concatenate([
        np.logspace(-9, -2, 40),
        np.linspace(0.01, 0.99, 99),
        1.0 - np.logspace(-9, -2, 40),
    ])
    ours = normal_quantile(p)
    ref = norm.ppf(p)
    assert np.max(np.abs(ours - ref)) < 1e-8 * np.maximum(1.0, np.abs(ref)).max()


def test_scalar_input_returns_float():
    z = normal_quantile(0.995)
    assert isinstance(z, float)
    assert abs(z - 2.5758293035489004) < 1e-8


def test_antisymmetry():
    p = np.linspace(1e-6, 0.5, 200)
    assert np.allclose(normal_quantile(p), -normal_quantile(1.0 - p), atol=1e-8)


def test_monotonic():
    p = np.linspace(1e-9, 1 - 1e-9, 1000)
    z = normal_quantile(p)
    assert np.all(np.diff(z) > 0)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1, float("nan")])
def test_rejects_out_of_domain(bad):
    with pytest.raises(ValueError):
        normal_quantile(bad)


# The three-branch implementation that ``normal_quantile`` replaced: a
# mask, a gather and a scatter per branch, and each rational as its own
# numerator and denominator.  The stacked passes must give the same bytes.
_A, _B, _C, _D = normal._A, normal._B, normal._C, normal._D


def _masked_central(p):
    q = p - 0.5
    r = q * q
    num = ((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]
    den = ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
    return num * q / den


def _masked_tail(p):
    q = np.sqrt(-2.0 * np.log(p))
    num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
    den = (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
    return num / den


def masked_reference(p):
    arr = np.asarray(p, dtype=float)
    if np.any((arr <= 0.0) | (arr >= 1.0)) or np.any(~np.isfinite(arr)):
        raise ValueError("probability must lie strictly inside (0, 1)")
    out = np.empty_like(arr)
    low = arr < normal._P_LOW
    high = arr > normal._P_HIGH
    mid = ~(low | high)
    if np.any(mid):
        out[mid] = _masked_central(arr[mid])
    if np.any(low):
        out[low] = _masked_tail(arr[low])
    if np.any(high):
        out[high] = -_masked_tail(1.0 - arr[high])
    return float(out) if out.ndim == 0 else out


def assert_same_bytes(ours, reference):
    assert type(ours) is type(reference)
    if isinstance(reference, float):
        assert np.float64(ours).tobytes() == np.float64(reference).tobytes()
    else:
        assert ours.dtype == reference.dtype and ours.shape == reference.shape
        assert ours.tobytes() == reference.tobytes()


CUT = normal._ONE_PASS_BELOW  # below it the one-pass layout, from it on the gathered tails
AROUND_THE_CUT = [1, 20, CUT - 1, CUT, CUT + 1]


class TestSameBytesAsTheMaskedReference:
    def test_probability_sweep(self):
        p = _probability_sweep()
        assert p.size >= CUT  # the gathered-tail layout
        assert_same_bytes(normal_quantile(p), masked_reference(p))

    @pytest.mark.parametrize("size", [1, 20, CUT - 1])
    def test_probability_sweep_in_slices_below_the_cut(self, size):
        p = _probability_sweep()
        for lo in range(0, p.size, size):
            assert_same_bytes(normal_quantile(p[lo:lo + size]), masked_reference(p[lo:lo + size]))

    @pytest.mark.parametrize("n", sorted({0, 1, 2, 3, 100, 1000, 10_000, 100_000, *AROUND_THE_CUT}))
    def test_seeded_uniforms(self, n):
        u = np.random.default_rng(n).random(n)
        assert_same_bytes(normal_quantile(u), masked_reference(u))

    @pytest.mark.parametrize("kind", [float, np.float64, np.array], ids=["float", "float64", "0-d"])
    def test_scalar_kinds(self, kind):
        for v in _probability_sweep()[::20].tolist():
            assert_same_bytes(normal_quantile(kind(v)), masked_reference(kind(v)))

    def test_two_dimensional(self):
        p = _probability_sweep()
        p = p[:p.size - p.size % 10].reshape(-1, 10)
        assert_same_bytes(normal_quantile(p), masked_reference(p))

    def test_strided_view(self):
        p = _probability_sweep()
        p = p[:p.size - p.size % 10].reshape(-1, 10)[::3, 1::4]
        assert not p.flags.c_contiguous
        assert_same_bytes(normal_quantile(p), masked_reference(p))

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
    def test_empty(self, shape):
        p = np.empty(shape)
        assert_same_bytes(normal_quantile(p), masked_reference(p))

    @pytest.mark.parametrize("n", sorted({100, 1000, *AROUND_THE_CUT}))
    def test_standard_normal_draws(self, n):
        for seed in range(50):
            u = np.maximum(np.random.default_rng(seed).random(n), 2.0 ** -54)
            assert_same_bytes(standard_normal_draws(seed, n), masked_reference(u))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("wrap", [float, np.array, lambda v: np.array([0.3, v, 0.7])],
                             ids=["float", "0-d", "array"])
    def test_same_domain_error(self, bad, wrap):
        with pytest.raises(ValueError) as reference:
            masked_reference(wrap(bad))
        with pytest.raises(ValueError) as ours:
            normal_quantile(wrap(bad))
        assert str(ours.value) == str(reference.value)
