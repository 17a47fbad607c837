import math

import numpy as np
import pytest
from scipy.stats import norm

import sinefit as sf
from sinefit.screening import _gate2_passes, required_exceedances


def series(values):
    return sf.TimeSeries(0.0, 1.0, values)


class TestRunsTest:
    def test_alternating_sequence_is_not_random(self):
        x = np.tile([1.0, -1.0], 50)
        z, is_random = sf.runs_test(series(x), far=0.01)
        assert z > 5
        assert not is_random

    def test_ramp_is_not_random(self):
        z, is_random = sf.runs_test(series(np.arange(100.0)), far=0.01)
        assert z < -5
        assert not is_random

    def test_pure_noise_accepted_as_random(self, pure_noise):
        hits = sum(sf.runs_test(pure_noise(seed), far=0.01)[1]
                   for seed in range(1000))
        assert 980 <= hits <= 1000

    def test_rejects_short_records(self):
        with pytest.raises(ValueError):
            sf.runs_test(series(np.arange(10.0)), far=0.01)

    def test_rejects_degenerate_dichotomy(self):
        with pytest.raises(ValueError):
            sf.runs_test(series(np.full(30, 2.0)), far=0.01)

    def test_samples_equal_to_the_median_are_dropped(self):
        x = np.concatenate([np.ones(10), np.full(5, 2.0), np.full(10, 3.0)])
        decision = sf.screen(series(x), far=0.01)
        assert decision.n_above == 10
        assert decision.n_below == 10
        assert decision.runs_count == 2

    @pytest.mark.parametrize("far", [0.0, 0.5, -0.1, 0.9])
    def test_rejects_bad_far(self, far):
        with pytest.raises(ValueError):
            sf.runs_test(series(np.arange(30.0)), far=far)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, bad):
        x = np.sin(np.arange(100.0))
        x[7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            sf.runs_test(series(x), far=0.01)


class TestAcfBounds:
    def test_two_sigma_point(self):
        far = 2.0 * (1.0 - norm.cdf(2.0))  # the FAR whose threshold is z = 2
        assert sf.acf_bounds(100, far) == pytest.approx(0.200, abs=1e-3)

    def test_one_percent_far(self):
        # oracle: norm.ppf(0.995)/10 = 0.25758...
        assert sf.acf_bounds(100, 0.01) == pytest.approx(0.2576, abs=1e-3)
        assert sf.acf_bounds(100, 0.01) == pytest.approx(norm.ppf(0.995) / 10, abs=1e-8)

    def test_quadrupling_n_halves_the_bound(self):
        assert sf.acf_bounds(400, 0.01) == pytest.approx(sf.acf_bounds(100, 0.01) / 2,
                                                         rel=1e-12)

    def test_required_exceedances(self):
        assert required_exceedances(50) == 3
        assert required_exceedances(20) == 2
        assert required_exceedances(10) == 2


class TestGate2Rule:
    def test_needs_enough_exceedances(self):
        values = np.zeros(50)
        values[3], values[17] = 0.9, -0.9
        passed, count = _gate2_passes(values, bound=0.3)
        assert count == 2 and not passed  # 50 lags require 3

    def test_needs_both_signs(self):
        values = np.zeros(50)
        values[[3, 9, 17, 30]] = 0.9
        passed, count = _gate2_passes(values, bound=0.3)
        assert count == 4 and not passed

    def test_passes_cosine_like_pattern(self):
        values = 0.8 * np.cos(2 * math.pi * 0.05 * np.arange(1, 51))
        passed, count = _gate2_passes(values, bound=0.3)
        assert passed and count >= 3


class TestScreen:
    def test_noisy_sinusoid_is_signal_at_low_far(self, noisy_series):
        for seed in range(5):
            decision = sf.screen(noisy_series(seed), far=0.001)
            assert decision.verdict == "signal"
            assert decision.gate_failed == "none"

    def test_noise_free_sinusoid_is_signal(self, demo_params):
        ts = sf.synthesize(demo_params, sf.NoiseSpec(sigma=0, seed=0), 100)
        assert sf.screen(ts, far=0.01).verdict == "signal"

    def test_pure_noise_is_rejected_at_gate1(self, pure_noise):
        decision = sf.screen(pure_noise(0, sigma=80.0), far=0.001)
        assert decision.verdict == "noise"
        assert decision.gate_failed == "gate1"
        # gate 1 stops processing, so no ACF exceedances were counted
        assert decision.acf_exceedances == 0

    def test_gate2_rejection_is_reachable(self, pure_noise):
        # seed found by scanning: the runs test flags it, the ACF does not
        decision = sf.screen(pure_noise(27), far=0.05)
        assert decision.verdict == "noise"
        assert decision.gate_failed == "gate2"
        assert abs(decision.runs_statistic) > 1.9

    def test_rejection_rate_for_heavy_noise(self, pure_noise):
        rejected = sum(sf.screen(pure_noise(seed, sigma=80.0), 0.001).verdict == "noise"
                       for seed in range(100))
        assert rejected >= 95

    def test_decision_fields_are_consistent(self, noisy_series):
        decision = sf.screen(noisy_series(3), far=0.01)
        assert decision.far == 0.01
        assert decision.acf_bound > 0
        assert decision.n_above + decision.n_below == 100
        assert (decision.verdict == "noise") == (decision.gate_failed != "none")

    def test_deterministic(self, noisy_series):
        ts = noisy_series(4)
        assert sf.screen(ts, 0.01) == sf.screen(ts, 0.01)

    def test_signal_verdict_is_monotone_in_far(self, noisy_series, pure_noise):
        fars = (0.001, 0.01, 0.05, 0.2)
        for seed in range(15):
            for data in (noisy_series(seed), pure_noise(seed),
                         pure_noise(1000 + seed, sigma=80.0)):
                verdicts = [sf.screen(data, far).verdict for far in fars]
                for narrow, wide in zip(verdicts[:-1], verdicts[1:]):
                    assert not (narrow == "signal" and wide == "noise")

    def test_rejects_short_records(self):
        with pytest.raises(ValueError):
            sf.screen(series(np.arange(10.0)), far=0.01)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, noisy_series, bad):
        x = np.array(noisy_series(0).samples)
        x[50] = bad
        with pytest.raises(ValueError, match="non-finite"):
            sf.screen(series(x), far=0.01)
