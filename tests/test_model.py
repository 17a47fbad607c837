import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

import sinefit as sf
from sinefit import normal
from sinefit.model import standard_normal_draws
from conftest import AMPLITUDE, FREQUENCY, PHASE, PHASE_EXACT
from test_normal import masked_reference


class TestSinusoidParams:
    def test_derived_quantities(self, demo_params):
        assert demo_params.omega() == pytest.approx(2 * math.pi * 0.05)
        assert demo_params.period() == pytest.approx(20.0)
        assert demo_params.time_delay() == pytest.approx(PHASE / demo_params.omega())

    def test_time_delay_sign_follows_phase(self):
        assert sf.SinusoidParams(1, 0.1, 0.5).time_delay() > 0
        assert sf.SinusoidParams(1, 0.1, -0.5).time_delay() < 0

    @pytest.mark.parametrize("amplitude,frequency", [(0, 1), (-1, 1), (1, 0), (1, -2)])
    def test_rejects_nonpositive(self, amplitude, frequency):
        with pytest.raises(ValueError):
            sf.SinusoidParams(amplitude, frequency, 0.0)

    @pytest.mark.parametrize("amplitude,frequency,message", [
        (math.inf, 0.1, "amplitude must be finite"),
        (math.nan, 0.1, "amplitude must be positive"),
        (1.0, math.inf, "frequency_hz must be finite"),
        (1.0, math.nan, "frequency_hz must be positive")])
    def test_rejects_non_finite(self, amplitude, frequency, message):
        with pytest.raises(ValueError, match=message):
            sf.SinusoidParams(amplitude, frequency, 0.0)

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_phase_always_wrapped(self, phi):
        p = sf.SinusoidParams(1.0, 0.1, phi)
        assert -math.pi <= p.phase_rad < math.pi

    def test_wrapping_preserves_the_waveform(self):
        a = sf.SinusoidParams(1.5, 0.2, 0.3)
        b = sf.SinusoidParams(1.5, 0.2, 0.3 + 4 * math.pi)
        t = np.linspace(0, 10, 50)
        assert np.allclose(sf.evaluate(a, t), sf.evaluate(b, t), atol=1e-9)

    def test_pi_wraps_to_minus_pi(self):
        assert sf.SinusoidParams(1, 1, math.pi).phase_rad == pytest.approx(-math.pi)


class TestEvaluate:
    def test_value_at_origin(self, demo_params):
        assert sf.evaluate(demo_params, 0.0) == pytest.approx(1.1472, abs=1e-3)

    def test_zero_phase_at_origin(self):
        assert sf.evaluate(sf.SinusoidParams(2, 0.05, 0.0), 0.0) == 0.0

    def test_first_zero_crossover(self, demo_params):
        assert sf.evaluate(demo_params, 8 + 1 / 18) == pytest.approx(0.0, abs=1e-3)

    def test_shift_identity_creates_primitive(self, demo_params):
        t = np.linspace(-30.0, 30.0, 121)
        shifted = sf.evaluate(demo_params, t - demo_params.time_delay())
        primitive = demo_params.amplitude * np.sin(demo_params.omega() * t)
        assert np.max(np.abs(shifted - primitive)) < 1e-12

    def test_one_period_integral_vanishes(self, demo_params):
        t0 = sf.landmarks(demo_params).time_of(0.0)
        value, _ = quad(lambda t: sf.evaluate(demo_params, t),
                        t0, t0 + demo_params.period(), limit=200)
        assert abs(value) < 1e-9


class TestSynthesize:
    def test_sigma_zero_is_exact(self, demo_params):
        ts = sf.synthesize(demo_params, sf.NoiseSpec(sigma=0.0, seed=9), 50)
        assert np.array_equal(ts.samples, sf.evaluate(demo_params, ts.times()))

    def test_fixed_seed_is_deterministic(self, demo_params):
        spec = sf.NoiseSpec(sigma=0.5, seed=1234)
        a = sf.synthesize(demo_params, spec, 100)
        b = sf.synthesize(demo_params, spec, 100)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("sigma", [0.5, 3.0])
    def test_samples_are_the_tone_plus_sigma_times_the_draws(self, demo_params, sigma):
        for n in (2, 100, 1000):
            ts = sf.synthesize(demo_params, sf.NoiseSpec(sigma=sigma, seed=n), n)
            expected = (sf.evaluate(demo_params, np.arange(n, dtype=float))
                        + sigma * standard_normal_draws(n, n))
            assert ts.samples.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [2, 100, normal._ONE_PASS_BELOW - 1, normal._ONE_PASS_BELOW,
                                   1000, 10_000])
    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_both_quantile_layouts_give_the_reference_bytes(self, demo_params, n, sigma):
        ts = sf.synthesize(demo_params, sf.NoiseSpec(sigma=sigma, seed=n), n, dt=2, start=-3)
        assert type(ts.start_time) is float and type(ts.dt) is float
        assert (ts.start_time, ts.dt) == (-3.0, 2.0)
        assert ts.samples.dtype == np.float64 and not ts.samples.flags.writeable
        expected = sf.evaluate(demo_params, -3.0 + 2.0 * np.arange(n))
        if sigma > 0:
            u = np.maximum(np.random.default_rng(n).random(n), 2.0 ** -54)
            expected = expected + sigma * masked_reference(u)
        assert ts.samples.tobytes() == expected.tobytes()

    def test_different_seeds_differ(self, demo_params):
        a = sf.synthesize(demo_params, sf.NoiseSpec(sigma=0.5, seed=1), 100)
        b = sf.synthesize(demo_params, sf.NoiseSpec(sigma=0.5, seed=2), 100)
        assert not np.array_equal(a.samples, b.samples)

    def test_raw_mean_stays_small(self, noisy_series):
        # Stationary around zero: the record mean is noise-dominated.
        for seed in range(20):
            assert abs(noisy_series(seed).samples.mean()) < 0.15

    def test_grid(self, demo_params):
        ts = sf.synthesize(demo_params, sf.NoiseSpec(sigma=0, seed=0), 100,
                           dt=1.0, start=0.0)
        assert ts.times()[0] == 0.0
        assert ts.times()[-1] == pytest.approx(99.0)

    @pytest.mark.parametrize("n,dt", [(1, 1.0), (0, 1.0), (10, 0.0), (10, -1.0)])
    def test_rejects_bad_grid(self, demo_params, n, dt):
        with pytest.raises(ValueError):
            sf.synthesize(demo_params, sf.NoiseSpec(sigma=0, seed=0), n, dt=dt)

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    @pytest.mark.parametrize("n", [100.0, np.float64(100), True, 2.5],
                             ids=["float", "float64", "bool", "2.5"])
    def test_rejects_an_n_that_is_not_an_integer(self, demo_params, sigma, n):
        with pytest.raises(ValueError, match="n must be an integer, got " + re.escape(repr(n))):
            sf.synthesize(demo_params, sf.NoiseSpec(sigma, 0), n)

    @pytest.mark.parametrize("n", [np.int64(100), np.int32(100), np.uint16(100)])
    def test_a_numpy_integer_n_gives_the_int_n_record(self, demo_params, n):
        spec = sf.NoiseSpec(0.5, 3)
        assert (sf.synthesize(demo_params, spec, n).samples.tobytes()
                == sf.synthesize(demo_params, spec, 100).samples.tobytes())

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            sf.NoiseSpec(sigma=-0.5, seed=0)
        with pytest.raises(ValueError, match="sigma must be finite"):
            sf.NoiseSpec(sigma=math.inf, seed=0)
        with pytest.raises(ValueError, match="sigma must be non-negative"):
            sf.NoiseSpec(sigma=math.nan, seed=0)

    @pytest.mark.parametrize("seed", [None, 1.5, 2.0, "7", -1, np.int64(-1), True,
                                      np.float64(3.0), [1, 2]],
                             ids=["None", "1.5", "2.0", "str", "-1", "int64(-1)", "bool",
                                  "float64", "list"])
    def test_noise_spec_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got "
                                             + re.escape(repr(seed))):
            sf.NoiseSpec(sigma=0.5, seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 62, 2 ** 64 + 1, np.int64(7), np.int32(7),
                                      np.uint64(2 ** 63), np.uint8(7)],
                             ids=["0", "7", "2**62", "2**64+1", "int64", "int32", "uint64",
                                  "uint8"])
    def test_noise_spec_accepts_non_negative_integers(self, demo_params, seed):
        spec = sf.NoiseSpec(sigma=0.5, seed=seed)
        a = sf.synthesize(demo_params, spec, 100)
        b = sf.synthesize(demo_params, sf.NoiseSpec(sigma=0.5, seed=int(seed)), 100)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("frequency,dt,start", [(1e308, 1e10, 0.0), (1e300, 1.0, 1e10),
                                                     (2e307, 1.0, 0.0)])
    def test_rejects_a_grid_where_omega_t_overflows(self, frequency, dt, start):
        params = sf.SinusoidParams(1.0, frequency, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="omega\\*t overflows"):
                sf.synthesize(params, sf.NoiseSpec(0.0, 0), 10, dt=dt, start=start)

    def test_rejects_samples_that_come_out_non_finite(self):
        params = sf.SinusoidParams(1e308, 0.05, 0.0)
        with pytest.raises(ValueError, match="non-finite"), \
                np.errstate(over="ignore"):
            sf.synthesize(params, sf.NoiseSpec(1e308, 0), 100)

    def test_largest_finite_grid_still_synthesizes(self):
        record = sf.synthesize(sf.SinusoidParams(1.0, 1e300, 0.0), sf.NoiseSpec(0.0, 0), 10,
                               dt=1e-300)
        assert np.isfinite(record.samples).all()


class TestTimeSeries:
    def test_rejects_short_records(self):
        with pytest.raises(ValueError):
            sf.TimeSeries(0.0, 1.0, [1.0])

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            sf.TimeSeries(0.0, 0.0, [1.0, 2.0])

    @pytest.mark.parametrize("start, dt, message", [
        (math.nan, 1.0, "start_time must be finite"),
        (math.inf, 1.0, "start_time must be finite"),
        (-math.inf, 1.0, "start_time must be finite"),
        (0.0, math.inf, "dt must be finite"),
        (0.0, math.nan, "dt must be positive"),
    ])
    def test_rejects_non_finite_times(self, demo_params, start, dt, message):
        with pytest.raises(ValueError, match=message):
            sf.TimeSeries(start, dt, [1.0, 2.0])
        with pytest.raises(ValueError, match=message):
            sf.synthesize(demo_params, sf.NoiseSpec(0.5, 0), 10, dt=dt, start=start)

    @pytest.mark.parametrize("start, dt, n", [(1e308, 1e306, 100), (1.7e308, 1e308, 4),
                                              (0.0, np.finfo(float).max / 50, 100)])
    def test_rejects_a_last_sample_time_that_overflows(self, start, dt, n):
        with pytest.raises(ValueError, match=r"last sample time start_time \+ \(N - 1\)\*dt"):
            sf.TimeSeries(start, dt, np.ones(n))

    def test_a_last_sample_time_near_float_max_is_kept(self):
        record = sf.TimeSeries(0.0, np.finfo(float).max / 100, np.ones(100))
        assert np.isfinite(record.times()).all()

    def test_samples_are_frozen(self):
        ts = sf.TimeSeries(0.0, 1.0, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            ts.samples[0] = 5.0

    def test_times_strictly_increase(self):
        ts = sf.TimeSeries(-3.0, 0.5, np.zeros(10) + 1.0)
        assert np.all(np.diff(ts.times()) > 0)

    @pytest.mark.parametrize("start, dt", [(3, 2), (np.float32(3.0), np.int64(2)),
                                           (True, 2), (3.0, 2.0)])
    def test_the_grid_is_held_as_python_floats(self, start, dt):
        ts = sf.TimeSeries(start, dt, np.ones(4))
        assert (type(ts.start_time), type(ts.dt)) == (float, float)
        assert ts.times().tolist() == [float(start) + 2.0 * k for k in range(4)]

    def test_an_int_grid_past_int64_keeps_float_times(self):
        # in int64 arithmetic 10**17 * k wraps negative at k = 93
        t = sf.TimeSeries(0, 10**17, np.sin(np.arange(100))).times()
        assert t.dtype == np.float64
        assert np.all(np.diff(t) > 0)

    def test_a_run_of_times_is_the_slice_of_all_times(self):
        ts = sf.TimeSeries(-2.3, 0.37, np.ones(50))
        every = ts.times()
        for lo, hi in [(0, 50), (0, 1), (7, 23), (30, 31), (49, 50), (12, 12)]:
            assert ts.times(lo, hi).tobytes() == every[lo:hi].tobytes(), (lo, hi)
        assert ts.times(17).tobytes() == every[17:].tobytes()

    @pytest.mark.parametrize("start, dt, samples, error, message", [
        (0, 0, [1.0, 2.0], ValueError, "dt must be positive"),
        (0, -1, [1.0, 2.0], ValueError, "dt must be positive"),
        (None, 1, [1.0, 2.0], TypeError, "must be real number, not NoneType"),
        (0, None, [1.0, 2.0], TypeError, "'>' not supported"),
        ("0", 1.0, [1.0, 2.0], TypeError, "must be real number, not str"),
        (0, "1", [1.0, 2.0], TypeError, "'>' not supported"),
        (0, 1j, [1.0, 2.0], TypeError, "'>' not supported"),
        (10**400, 1, [1.0, 2.0], OverflowError, "int too large to convert to float"),
        (0, 10**400, [1.0, 2.0], OverflowError, "int too large to convert to float"),
        (0, np.array([1.0]), [1.0, 2.0], TypeError, "0-dimensional arrays"),
        (0, 1, [1.0], ValueError, "at least two samples"),
        (0, 1, [[1.0, 2.0]], ValueError, "at least two samples"),
        (0, 1, ["a", "b"], ValueError, "could not convert string to float"),
        (10**308, 10**306, np.ones(100), ValueError, r"last sample time start_time \+"),
    ])
    def test_rejected_inputs_keep_their_exception(self, start, dt, samples, error, message):
        with pytest.raises(error, match=message):
            sf.TimeSeries(start, dt, samples)


class TestLandmarks:
    def test_demo_table_times(self):
        table = sf.landmarks(sf.SinusoidParams(AMPLITUDE, FREQUENCY, PHASE_EXACT))
        expected = {0.0: -35 / 18, 0.5: 55 / 18, 1.0: 145 / 18,
                    1.5: 235 / 18, 2.0: 325 / 18, 2.5: 415 / 18}
        for k, t_k in expected.items():
            assert table.time_of(k) == pytest.approx(t_k, abs=1e-9)

    def test_demo_table_values(self):
        table = sf.landmarks(sf.SinusoidParams(AMPLITUDE, FREQUENCY, PHASE_EXACT))
        assert table.value_at_origin == pytest.approx(1.1472, abs=1e-3)
        assert table.value_of(0.5) == pytest.approx(2.0, abs=1e-9)
        assert table.value_of(1.5) == pytest.approx(-2.0, abs=1e-9)
        assert table.value_of(1.0) == pytest.approx(0.0, abs=1e-9)

    def test_period_decomposition(self):
        table = sf.landmarks(sf.SinusoidParams(AMPLITUDE, FREQUENCY, PHASE_EXACT))
        assert table.period_bounds == (0.5, 2.5)
        assert table.time_of(2.5) - table.time_of(0.5) == pytest.approx(20.0, abs=1e-9)
        quarter = table.time_of(0.5) - table.time_of(0.0)
        half = table.time_of(2.0) - table.time_of(1.0)
        assert quarter + half + (table.time_of(2.5) - table.time_of(2.0)) == \
            pytest.approx(20.0, abs=1e-9)

    def test_zero_phase_primitive(self):
        table = sf.landmarks(sf.SinusoidParams(1.0, 0.125, 0.0))
        assert table.time_of(0.0) == pytest.approx(0.0, abs=1e-12)
        assert table.time_of(2.0) == pytest.approx(8.0, abs=1e-9)

    def test_negative_phase_uses_crossover_bounds(self):
        table = sf.landmarks(sf.SinusoidParams(1.0, 0.05, -0.7))
        assert table.period_bounds == (0.0, 2.0)
        assert table.time_of(2.0) - table.time_of(0.0) == pytest.approx(20.0, abs=1e-9)
        assert table.time_of(0.0) > 0  # time-ahead: the shift is positive

    @given(st.floats(min_value=-3.1, max_value=3.1),
           st.floats(min_value=0.01, max_value=5.0))
    def test_landmark_defining_relation(self, phi, freq):
        params = sf.SinusoidParams(1.0, freq, phi)
        table = sf.landmarks(params)
        for entry in table.entries:
            residual = params.omega() * entry.time + params.phase_rad \
                - entry.k * math.pi
            assert abs(residual) < 1e-12
