import numpy as np
import pytest
from hypothesis import given, strategies as st

import sinefit as sf
from conftest import NON_FINITE, with_non_finite


def direct_dft_magnitude(x):
    """Independent O(N^2) oracle for the one-sided magnitude spectrum."""
    n = len(x)
    m = np.arange(n // 2 + 1)
    kernel = np.exp(-2j * np.pi * np.outer(m, np.arange(n)) / n)
    return np.abs(kernel @ x)


class TestDftMagnitude:
    def test_constant_record_is_dc_only(self):
        ts = sf.TimeSeries(0.0, 1.0, np.full(64, 3.0))
        spec = sf.dft_magnitude(ts)
        assert spec.magnitudes[0] == pytest.approx(64 * 3.0)
        assert np.max(spec.magnitudes[1:]) < 1e-9 * spec.magnitudes[0]

    def test_on_grid_peak_lands_in_bin_five(self, demo_params):
        ts = sf.synthesize(demo_params, sf.NoiseSpec(sigma=0, seed=0), 100)
        spec = sf.dft_magnitude(ts)
        assert spec.df == pytest.approx(0.01)
        assert int(np.argmax(spec.magnitudes[1:])) + 1 == 5

    def test_matches_direct_dft(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=64)
        spec = sf.dft_magnitude(sf.TimeSeries(0.0, 0.5, x))
        oracle = direct_dft_magnitude(x)
        assert np.max(np.abs(spec.magnitudes - oracle)) < 1e-9 * np.max(oracle)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=8, max_size=64))
    def test_parseval(self, values):
        x = np.asarray(values)
        if 0.0 < np.abs(x).max() < 2.0 ** -511:  # below check_finite's lower limit
            with pytest.raises(ValueError, match="samples too small"):
                sf.dft_magnitude(sf.TimeSeries(0.0, 1.0, x))
            return
        full = np.fft.fft(x)
        assert np.sum(np.abs(full) ** 2) == pytest.approx(
            len(x) * np.sum(x ** 2), rel=1e-9, abs=1e-6)
        spec = sf.dft_magnitude(sf.TimeSeries(0.0, 1.0, x))
        assert np.allclose(spec.magnitudes, np.abs(full[:len(x) // 2 + 1]),
                           rtol=1e-9, atol=1e-9)

    def test_circular_shift_leaves_magnitudes_unchanged(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=100)
        a = sf.dft_magnitude(sf.TimeSeries(0.0, 1.0, x)).magnitudes
        b = sf.dft_magnitude(sf.TimeSeries(0.0, 1.0, np.roll(x, 17))).magnitudes
        assert np.max(np.abs(a - b)) < 1e-9 * (1 + np.max(a))

    def test_noisy_peak_stays_in_bin_five(self, noisy_series):
        hits = 0
        for seed in range(100):
            f = sf.fundamental_frequency(sf.dft_magnitude(noisy_series(seed)))
            hits += abs(f - 0.05) < 1e-12
        assert hits >= 95


    @pytest.mark.parametrize("n", [64, 65])
    @pytest.mark.parametrize("kind", NON_FINITE)
    def test_rejects_non_finite_samples(self, kind, n):
        with pytest.raises(ValueError, match="non-finite"):
            sf.dft_magnitude(with_non_finite(kind, n))


class TestFundamentalFrequency:
    def test_single_nonzero_bin(self):
        spec = sf.Spectrum(0.25, [0.0, 0.0, 0.0, 7.0, 0.0])
        assert sf.fundamental_frequency(spec) == pytest.approx(3 * 0.25)

    def test_dc_is_excluded(self):
        spec = sf.Spectrum(0.1, [100.0, 1.0, 2.0])
        assert sf.fundamental_frequency(spec) == pytest.approx(0.2)

    def test_tie_breaks_to_the_lower_bin(self):
        spec = sf.Spectrum(0.1, [0.0, 3.0, 3.0, 1.0])
        assert sf.fundamental_frequency(spec) == pytest.approx(0.1)

    def test_noise_free_demo_is_exact(self, demo_params):
        ts = sf.synthesize(demo_params, sf.NoiseSpec(sigma=0, seed=0), 100)
        assert sf.fundamental_frequency(sf.dft_magnitude(ts)) == pytest.approx(
            0.05, abs=1e-12)

    def test_rejects_tiny_spectra(self):
        with pytest.raises(ValueError):
            sf.fundamental_frequency(sf.Spectrum(0.1, [1.0]))
