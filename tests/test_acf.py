import math

import numpy as np
import pytest
from scipy.integrate import quad

import sinefit as sf
from conftest import AMPLITUDE, FREQUENCY, PHASE, PHASE_EXACT

TWO_PI = 2.0 * math.pi

# Half-period comparison columns for f = 0.05, phi = 0.6109: the
# closed-form full model against cos(w*tau).
FULL_MODEL_TABLE = [1.0, 0.9457, 0.7989, 0.5739, 0.2922, -0.0172,
                    -0.3254, -0.6017, -0.8191, -0.9564, -1.0]
REDUCED_TABLE = [1.0, 0.9511, 0.8090, 0.5878, 0.3090, 0.0,
                 -0.3090, -0.5878, -0.8090, -0.9511, -1.0]


def quad_sine_product(a, b, d, u, v):
    value, _ = quad(lambda x: math.sin(a * x + b) * math.sin(a * x + d),
                    u, v, limit=300, epsabs=1e-12, epsrel=1e-12)
    return value


def shifted_dot_product_acf(x, max_lag):
    """The circular ACF by its definition: one shifted dot product per lag."""
    y = x - x.mean()
    denom = float(y @ y)
    return np.array([float(y @ np.roll(y, -tau)) / denom
                     for tau in range(max_lag + 1)])


class TestCircularAcf:
    def test_matches_shifted_dot_products(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            n = int(rng.integers(20, 301))
            x = rng.normal(size=n) * rng.uniform(0.1, 10.0) + rng.uniform(-5, 5)
            record = sf.TimeSeries(0.0, 1.0, x)
            reference = shifted_dot_product_acf(x, n - 1)
            for max_lag in range(1, n):
                v = sf.circular_acf(record, max_lag=max_lag).values
                assert v.size == max_lag + 1
                assert v[0] == 1.0
                assert np.max(np.abs(v - reference[:max_lag + 1])) <= 1e-12

    def test_lag_zero_is_one(self, noisy_series):
        acf = sf.circular_acf(noisy_series(0), max_lag=10)
        assert acf.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_fold_over_symmetry_demo(self, noisy_series):
        acf = sf.circular_acf(noisy_series(1))  # default max_lag = N-1
        v = acf.values
        n = len(v)
        for tau in range(1, n):
            assert v[tau] == pytest.approx(v[(n - tau) % n], abs=1e-12)

    def test_fold_over_symmetry_random_inputs(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(24, 120))
            x = rng.normal(size=n) + rng.uniform(-2, 2)
            v = sf.circular_acf(sf.TimeSeries(0.0, 1.0, x)).values
            worst = max(abs(v[tau] - v[n - tau]) for tau in range(1, n))
            assert worst < 1e-12

    def test_period_lag_is_a_local_maximum_near_one(self, demo_params):
        ts = sf.synthesize(demo_params, sf.NoiseSpec(sigma=0, seed=0), 100)
        v = sf.circular_acf(ts, max_lag=50).values
        assert v[20] > v[19] - 1e-12 and v[20] > v[21] - 1e-12
        assert v[20] == pytest.approx(1.0, abs=1e-6)

    def test_values_bounded(self, noisy_series):
        v = sf.circular_acf(noisy_series(2)).values
        assert np.all(np.abs(v) <= 1.0 + 1e-9)

    def test_rejects_constant_input(self):
        with pytest.raises(ValueError):
            sf.circular_acf(sf.TimeSeries(0.0, 1.0, np.full(30, 1.5)))

    @pytest.mark.parametrize("max_lag", [0, 100, -3])
    def test_rejects_bad_max_lag(self, noisy_series, max_lag):
        with pytest.raises(ValueError):
            sf.circular_acf(noisy_series(0), max_lag=max_lag)


class TestSineProductIntegral:
    def test_empty_interval(self):
        p = sf.IntegralParams(a=1.3, b=0.2, d=-0.4, u=2.0, v=2.0)
        assert sf.sine_product_integral(p) == 0.0

    def test_one_period_same_phase(self):
        w = TWO_PI * 0.05
        p = sf.IntegralParams(a=w, b=PHASE, d=PHASE, u=0.0, v=TWO_PI / w)
        assert sf.sine_product_integral(p) == pytest.approx(math.pi / w, abs=1e-9)

    def test_matches_quadrature_over_random_draws(self):
        rng = np.random.default_rng(41)
        for _ in range(120):
            a = rng.uniform(0.05, 5.0) * rng.choice([-1.0, 1.0])
            b = rng.uniform(-math.pi, math.pi)
            d = rng.uniform(-math.pi, math.pi)
            u = rng.uniform(-5.0, 5.0)
            v = u + rng.uniform(0.0, 10.0)
            p = sf.IntegralParams(a=a, b=b, d=d, u=u, v=v)
            assert sf.sine_product_integral(p) == pytest.approx(
                quad_sine_product(a, b, d, u, v), abs=1e-9)

    def test_rejects_zero_a(self):
        with pytest.raises(ValueError):
            sf.sine_product_integral(sf.IntegralParams(a=0.0, b=0, d=0, u=0, v=1))

    def test_rejects_reversed_limits(self):
        with pytest.raises(ValueError):
            sf.IntegralParams(a=1.0, b=0, d=0, u=1.0, v=0.0)


class TestNormalizingConstant:
    def test_demo_value(self):
        # 35 degrees exactly; the rounded 0.6109 misses the 1e-6 band.
        params = sf.SinusoidParams(AMPLITUDE, FREQUENCY, PHASE_EXACT)
        c = sf.normalizing_constant(params)
        assert c * params.amplitude ** 2 / 2 == pytest.approx(1.465315522, abs=1e-6)
        assert c == pytest.approx(0.7326577, abs=1e-6)

    def test_collapses_when_coupling_vanishes(self):
        # 2*pi*w = 4*pi for f = 1/pi, so sin(2*pi*w) ~ 0 and C ~ 2/A^2
        params = sf.SinusoidParams(3.0, 1.0 / math.pi, 0.4)
        assert sf.normalizing_constant(params) == pytest.approx(2.0 / 9.0, rel=1e-12)

    def test_full_model_is_unit_at_lag_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            params = sf.SinusoidParams(rng.uniform(0.5, 3.0),
                                       rng.uniform(0.02, 0.45),
                                       rng.uniform(-math.pi, math.pi))
            acf = sf.model_acf_full(params, max_lag=5)
            assert acf.values[0] == pytest.approx(1.0, abs=1e-12)


class TestModelAcfFull:
    def test_validation_points(self):
        acf = sf.model_acf_full(sf.SinusoidParams(AMPLITUDE, FREQUENCY, PHASE),
                                max_lag=20)
        assert acf.values[0] == pytest.approx(1.0, abs=1e-6)
        assert acf.values[5] == pytest.approx(-0.017, abs=2e-3)
        assert acf.values[10] == pytest.approx(-1.0, abs=1e-6)
        assert acf.values[20] == pytest.approx(1.0, abs=1e-6)

    def test_half_period_table(self):
        acf = sf.model_acf_full(sf.SinusoidParams(AMPLITUDE, FREQUENCY, PHASE),
                                max_lag=10)
        for tau, expected in enumerate(FULL_MODEL_TABLE):
            assert acf.values[tau] == pytest.approx(expected, abs=1e-3)

    def test_agreement_with_reduced_model(self):
        params = sf.SinusoidParams(AMPLITUDE, FREQUENCY, PHASE)
        full = sf.model_acf_full(params, max_lag=10).values
        reduced = sf.model_acf_reduced(params, max_lag=10).values
        assert np.corrcoef(full, reduced)[0, 1] >= 0.999
        assert np.mean(np.abs(full - reduced)) <= 0.03

    def test_matches_one_period_quadrature(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            amplitude = rng.uniform(0.5, 3.0)
            f = rng.uniform(0.02, 0.45)
            phi = rng.uniform(-math.pi, math.pi)
            tau = int(rng.integers(0, 30))
            params = sf.SinusoidParams(amplitude, f, phi)
            w = params.omega()
            raw = amplitude ** 2 / TWO_PI * quad_sine_product(
                w, phi, w * tau + phi, 0.0, TWO_PI)
            raw0 = amplitude ** 2 / TWO_PI * quad_sine_product(
                w, phi, phi, 0.0, TWO_PI)
            acf = sf.model_acf_full(params, max_lag=max(tau, 1))
            assert acf.values[tau] == pytest.approx(raw / raw0, abs=1e-9)

    def test_periodic_in_integer_period(self):
        acf = sf.model_acf_full(sf.SinusoidParams(AMPLITUDE, FREQUENCY, PHASE),
                                max_lag=40)
        for tau in range(0, 21):
            assert acf.values[tau + 20] == pytest.approx(acf.values[tau], abs=1e-3)

    def test_range_on_demo_configuration(self):
        acf = sf.model_acf_full(sf.SinusoidParams(AMPLITUDE, FREQUENCY, PHASE),
                                max_lag=99)
        assert np.all(np.abs(acf.values) <= 1.0 + 1e-9)

    def test_rejects_bad_max_lag(self):
        with pytest.raises(ValueError):
            sf.model_acf_full(sf.SinusoidParams(1, 0.1, 0), max_lag=0)


class TestModelAcfReduced:
    def test_exact_quarter_points(self):
        acf = sf.model_acf_reduced(sf.SinusoidParams(AMPLITUDE, FREQUENCY, PHASE),
                                   max_lag=20)
        assert acf.values[0] == pytest.approx(1.0, abs=1e-12)
        assert acf.values[5] == pytest.approx(0.0, abs=1e-12)
        assert acf.values[10] == pytest.approx(-1.0, abs=1e-12)
        assert acf.values[20] == pytest.approx(1.0, abs=1e-12)

    def test_lag_two_value(self):
        acf = sf.model_acf_reduced(sf.SinusoidParams(AMPLITUDE, FREQUENCY, PHASE),
                                   max_lag=2)
        assert acf.values[2] == pytest.approx(0.8090, abs=1e-4)

    def test_half_period_table(self):
        acf = sf.model_acf_reduced(sf.SinusoidParams(AMPLITUDE, FREQUENCY, PHASE),
                                   max_lag=10)
        for tau, expected in enumerate(REDUCED_TABLE):
            assert acf.values[tau] == pytest.approx(expected, abs=1e-3)

    def test_phase_is_irrelevant(self):
        a = sf.model_acf_reduced(sf.SinusoidParams(1.0, 0.07, 0.3), 15).values
        b = sf.model_acf_reduced(sf.SinusoidParams(1.0, 0.07, -2.1), 15).values
        assert np.array_equal(a, b)

    def test_matches_random_phase_quadrature(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            amplitude = rng.uniform(0.5, 3.0)
            f = rng.uniform(0.02, 0.45)
            t = rng.uniform(0.0, 40.0)
            tau = int(rng.integers(0, 25))
            params = sf.SinusoidParams(amplitude, f, 0.0)
            w = params.omega()

            def sin_integrand(phi):
                return (amplitude * math.sin(w * t + phi)
                        * amplitude * math.sin(w * (t + tau) + phi))

            def cos_integrand(phi):
                return (amplitude * math.cos(w * t + phi)
                        * amplitude * math.cos(w * (t + tau) + phi))

            expected = sf.model_acf_reduced(params, max_lag=max(tau, 1)).values[tau]
            for integrand in (sin_integrand, cos_integrand):
                value, _ = quad(integrand, 0.0, TWO_PI, limit=300,
                                epsabs=1e-12, epsrel=1e-12)
                normalized = value / TWO_PI / (amplitude ** 2 / 2.0)
                assert normalized == pytest.approx(expected, abs=1e-9)

    def test_periodicity(self):
        acf = sf.model_acf_reduced(sf.SinusoidParams(1.0, FREQUENCY, 0.0),
                                   max_lag=60)
        for tau in range(0, 41):
            assert acf.values[tau + 20] == pytest.approx(acf.values[tau], abs=1e-6)


class TestFrequencyFromAcf:
    def test_demo_inversion(self):
        assert sf.frequency_from_acf(0.8090, 2) == pytest.approx(0.05, abs=1e-4)

    def test_full_model_value_gives_nearby_period(self):
        period = 1.0 / sf.frequency_from_acf(0.7989, 2)
        assert period == pytest.approx(19.47, abs=0.02)

    def test_r_of_one_is_degenerate_zero(self):
        assert sf.frequency_from_acf(1.0, 3) == 0.0

    def test_clamps_tiny_excursions(self):
        assert sf.frequency_from_acf(1.0 + 5e-7, 2) == 0.0
        assert sf.frequency_from_acf(-1.0 - 5e-7, 1) == pytest.approx(0.5)

    def test_rejects_large_excursions(self):
        with pytest.raises(ValueError):
            sf.frequency_from_acf(1.01, 2)

    def test_rejects_zero_lag(self):
        with pytest.raises(ValueError):
            sf.frequency_from_acf(0.5, 0)

    def test_round_trip_through_reduced_model(self):
        params = sf.SinusoidParams(1.0, 0.04, 1.1)
        acf = sf.model_acf_reduced(params, max_lag=12)
        for tau in range(1, 13):
            if 0 < params.omega() * tau < math.pi:
                recovered = sf.frequency_from_acf(acf.values[tau], tau)
                assert recovered == pytest.approx(params.frequency_hz, abs=1e-9)


class TestAcfSeries:
    def test_values_are_frozen(self, noisy_series):
        acf = sf.circular_acf(noisy_series(0), max_lag=5)
        with pytest.raises(ValueError):
            acf.values[0] = 2.0

    def test_kind_is_checked(self):
        with pytest.raises(ValueError):
            sf.AcfSeries("bogus", [1.0, 0.5])

    def test_max_lag(self, noisy_series):
        assert sf.circular_acf(noisy_series(0), max_lag=7).max_lag == 7
