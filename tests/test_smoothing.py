import math

import numpy as np
import pytest

import sinefit as sf
from conftest import AMPLITUDE, FREQUENCY, PHASE


def series(values, dt=1.0, start=0.0):
    return sf.TimeSeries(start, dt, values)


class TestMovingAverage:
    def test_window_of_one_is_identity(self, noisy_series):
        ts = noisy_series(0)
        out = sf.moving_average(ts, 1)
        assert np.array_equal(out.series.samples, ts.samples)
        assert out.series.start_time == ts.start_time

    def test_constant_stays_constant(self):
        out = sf.moving_average(series(np.full(30, 4.25)), 7)
        assert np.allclose(out.series.samples, 4.25, atol=0)

    def test_lengths_and_times(self):
        ts = series(np.arange(10.0))
        out = sf.moving_average(ts, 4)
        assert len(out.series) == 7
        assert out.source_len == 10
        assert out.window_k == 4
        # trailing window: output sample 0 carries the time of input sample 3
        assert out.series.times()[0] == pytest.approx(3.0)
        assert out.group_delay == pytest.approx(1.5)

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    @pytest.mark.parametrize("n", [10, 101])
    def test_source_len_is_the_input_length(self, k, n):
        out = sf.moving_average(series(np.arange(float(n))), k)
        assert out.source_len == n
        assert "source_len" not in vars(out)

    def test_window_means(self):
        ts = series(np.array([1.0, 2.0, 4.0, 8.0]))
        out = sf.moving_average(ts, 2)
        assert np.allclose(out.series.samples, [1.5, 3.0, 6.0], atol=0)

    @pytest.mark.parametrize("k", [0, -1, 11, 10])
    def test_rejects_bad_windows(self, k):
        # k = N would leave a single sample, which is not a record.
        with pytest.raises(ValueError):
            sf.moving_average(series(np.arange(10.0)), k)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        a, b = 2.5, -1.25
        left = sf.moving_average(series(a * x + b * y), 6).series.samples
        right = a * sf.moving_average(series(x), 6).series.samples \
            + b * sf.moving_average(series(y), 6).series.samples
        assert np.max(np.abs(left - right)) < 1e-12

    def test_preserves_mean_of_constant_and_ramp(self):
        const = series(np.full(40, 3.5))
        assert sf.moving_average(const, 8).series.samples.mean() == 3.5
        ramp = series(0.5 * np.arange(41.0) + 1.0)
        # symmetric edges: the mean of a smoothed ramp equals the input mean
        out = sf.moving_average(ramp, 5)
        assert out.series.samples.mean() == pytest.approx(ramp.samples.mean(), abs=1e-12)

    def test_sinusoid_attenuation_factor(self, demo_params):
        ts = sf.synthesize(demo_params, sf.NoiseSpec(sigma=0, seed=0), 200)
        for k in (3, 5, 10):
            out = sf.moving_average(ts, k)
            gain = sf.ma_attenuation(k, demo_params.frequency_hz, ts.dt)
            # the smoothed record is the attenuated sinusoid delayed by the
            # group delay, sampled at the trailing (carried) times
            t = out.series.times() - out.group_delay
            expected = gain * sf.evaluate(demo_params, t)
            assert np.max(np.abs(out.series.samples - expected)) < 1e-6

    def test_noisy_peak_magnitude_band(self, noisy_series):
        # Band chosen from the seeded oracle run; centered near 2.1.
        peaks = [np.max(np.abs(sf.moving_average(noisy_series(seed), 5).series.samples))
                 for seed in range(20)]
        assert all(1.8 <= p <= 2.7 for p in peaks)
        assert 1.9 <= np.mean(peaks) <= 2.3


class TestRmsError:
    def test_zero_for_exact_match(self, demo_params):
        ts = sf.synthesize(demo_params, sf.NoiseSpec(sigma=0, seed=0), 100)
        assert sf.rms_error(sf.moving_average(ts, 1), demo_params) == pytest.approx(0.0, abs=1e-12)

    def test_constant_against_tiny_reference(self):
        # reference amplitude ~0 is not allowed, so compare against a
        # negligibly small sinusoid: the error is the constant itself.
        tiny = sf.SinusoidParams(1e-300, 1.0, 0.0)
        out = sf.moving_average(series(np.full(25, -3.0)), 5)
        assert sf.rms_error(out, tiny) == pytest.approx(3.0)

    def test_ma5_beats_ma10_in_a_majority_of_seeds(self, demo_params, noisy_series):
        wins = 0
        for seed in range(20):
            ts = noisy_series(seed)
            if sf.rms_error(sf.moving_average(ts, 5), demo_params) <= \
               sf.rms_error(sf.moving_average(ts, 10), demo_params):
                wins += 1
        assert wins > 10


class TestAmplitudeEstimate:
    def test_full_period_noise_free(self, demo_params):
        ts = sf.synthesize(demo_params, sf.NoiseSpec(sigma=0, seed=0), 400, dt=0.1)
        est = sf.amplitude_estimate(sf.moving_average(ts, 1))
        assert est == pytest.approx(AMPLITUDE, rel=0.01)

    def test_constant_gives_zero(self):
        out = sf.moving_average(series(np.full(10, 2.0)), 3)
        assert sf.amplitude_estimate(out) == 0.0

    def test_noisy_band(self, noisy_series):
        values = [sf.amplitude_estimate(sf.moving_average(noisy_series(seed), 5))
                  for seed in range(20)]
        assert all(1.8 <= v <= 2.4 for v in values)


class TestHelpers:
    def test_attenuation_known_values(self):
        assert sf.ma_attenuation(1, 0.05) == pytest.approx(1.0)
        expected = abs(math.sin(math.pi * 0.05 * 5) / (5 * math.sin(math.pi * 0.05)))
        assert sf.ma_attenuation(5, 0.05) == pytest.approx(expected)

    def test_recommended_windows_divide_the_period(self):
        assert sf.recommended_windows(20) == [2, 4, 5, 10]
        assert sf.recommended_windows(3) == []
