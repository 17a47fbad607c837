import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import norm

import sinefit as sf
from sinefit.model import (NON_FINITE_SAMPLES, SAMPLES_TOO_LARGE, SAMPLES_TOO_SMALL,
                           check_finite)
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

    def test_one_sample_on_each_side_is_a_degenerate_dichotomy(self):
        # n1 = n2 = 1 gives the runs count a variance of 0, which once
        # divided z by zero on every path into the runs test
        x = np.zeros(20)
        x[5], x[12] = 1.0, -1.0
        for call in (lambda r: sf.runs_test(r, 0.01), sf.screen, sf.estimate_parameters):
            with pytest.raises(ValueError, match="degenerate dichotomy: one sample on each"):
                call(series(x))
        report = sf.estimate_parameters(series(x), sf.PipelineConfig(skip_screen=True))
        assert report.screening is None and report.params is not None

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


def gate2(values, bound):
    """``_gate2_passes`` with the count the screen requires of this many lags."""
    return _gate2_passes(values, bound, required_exceedances(values.size))


def abs_count_gate2(values, bound):
    """The gate-2 rule as the screen applied it before the one-sided counts:
    the ``|v| > bound`` count, then ``max > bound`` and ``min < -bound``."""
    count = int(np.count_nonzero(np.abs(values) > bound))
    if count < required_exceedances(values.size):
        return False, count
    both_signs = bool(np.maximum.reduce(values) > bound
                      and np.minimum.reduce(values) < -bound)
    return both_signs, count


@st.composite
def lag_vectors(draw):
    """(values, bound): finite lag values, many exactly at +-bound, one float
    either side of it or zero, and one-sided patterns as often as mixed ones."""
    bound = draw(st.floats(1e-3, 1.0))
    edges = [bound, -bound, 0.0, -0.0] + [np.nextafter(b, toward) for b in (bound, -bound)
                                           for toward in (-np.inf, np.inf)]
    values = np.array(draw(st.lists(st.one_of(st.sampled_from(edges), st.floats(-1.0, 1.0)),
                                    min_size=1, max_size=80)))
    side = draw(st.sampled_from(["mixed", "above", "below"]))
    if side != "mixed":
        values = np.abs(values) if side == "above" else -np.abs(values)
    return values, bound


class TestGate2Rule:
    def test_needs_enough_exceedances(self):
        values = np.zeros(50)
        values[3], values[17] = 0.9, -0.9
        passed, count = gate2(values, bound=0.3)
        assert count == 2 and not passed  # 50 lags require 3

    def test_needs_both_signs(self):
        values = np.zeros(50)
        values[[3, 9, 17, 30]] = 0.9
        passed, count = gate2(values, bound=0.3)
        assert count == 4 and not passed

    def test_passes_cosine_like_pattern(self):
        values = 0.8 * np.cos(2 * math.pi * 0.05 * np.arange(1, 51))
        passed, count = gate2(values, bound=0.3)
        assert passed and count >= 3

    @given(lag_vectors())
    def test_one_sided_counts_give_the_abs_count_rule(self, case):
        values, bound = case
        passed, count = gate2(values, bound)
        assert (passed, count) == abs_count_gate2(values, bound)
        assert type(passed) is bool and type(count) is int


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


class TestCheckFinite:
    """max|x| is taken as max(max x, -min x), so each sign must reach the verdict."""

    def test_all_negative_record_past_the_limit_is_too_large(self):
        n = 100
        limit = math.sqrt(np.finfo(float).max) / 2.0 / n
        x = -limit * (1.5 + np.sin(np.arange(float(n))) / 4)
        assert x.max() < -limit
        with pytest.raises(ValueError) as caught:
            check_finite(series(x))
        assert str(caught.value) == SAMPLES_TOO_LARGE
        check_finite(series(x / 2))  # inside the limit: accepted

    def test_lone_negative_infinity(self):
        x = np.abs(np.sin(np.arange(100.0))) + 1.0
        x[63] = -math.inf
        with pytest.raises(ValueError) as caught:
            check_finite(series(x))
        assert str(caught.value) == NON_FINITE_SAMPLES

    @pytest.mark.parametrize("fill", [1.0, -1.0, 0.0])
    def test_nan_in_the_last_sample(self, fill):
        x = np.full(100, fill) * np.arange(100.0)
        x[-1] = math.nan
        with pytest.raises(ValueError) as caught:
            check_finite(series(x))
        assert str(caught.value) == NON_FINITE_SAMPLES


FLOOR = math.sqrt(np.finfo(float).tiny)  # 2**-511
DEMO = sf.SinusoidParams(2.0, 0.05, 0.6109)


def at_the_floor(x):
    """``x`` scaled so that its max|x| is exactly the lower limit."""
    y = x * (FLOOR / np.abs(x).max())
    i = int(np.abs(y).argmax())
    y[i] = math.copysign(FLOOR, y[i])
    return y, i


def outcome(record):
    report = sf.estimate_parameters(record)
    return report.verdict, report.params.frequency_hz, report.params.phase_rad


class TestSampleFloor:
    """The lower limit mirrors the upper one: 0 < max|x| < sqrt(float tiny)
    is rejected, at the limit a record estimates as it does at scale 1."""

    def test_floor_is_two_to_the_minus_511(self):
        assert FLOOR == 2.0 ** -511
        assert "2**-511" in SAMPLES_TOO_SMALL

    @pytest.mark.parametrize("n", [100, 1000])
    def test_at_the_floor_accepted_one_ulp_below_rejected(self, n):
        tone = sf.synthesize(DEMO, sf.NoiseSpec(0.5, 0), n)
        y, i = at_the_floor(tone.samples)
        check_finite(series(y))
        assert outcome(series(y)) == outcome(tone)
        # the largest power-of-two scale that reaches the floor, too
        k = math.floor(math.log2(np.abs(tone.samples).max() / FLOOR))
        scaled = tone.samples * 2.0 ** -k
        assert np.abs(scaled).max() >= FLOOR > np.abs(scaled).max() / 2
        assert outcome(series(scaled)) == outcome(tone)
        y[i] = math.copysign(math.nextafter(FLOOR, 0.0), y[i])
        for consumer in (check_finite, lambda r: sf.screen(r, 0.01), sf.circular_acf,
                         sf.dft_magnitude, sf.estimate_parameters):
            with pytest.raises(ValueError) as caught:
                consumer(series(y))
            assert str(caught.value) == SAMPLES_TOO_SMALL

    @pytest.mark.parametrize("n", [100, 1000])
    @pytest.mark.parametrize("k", [531, 534, 538, 540, 543])
    def test_a_tone_scaled_far_down_is_rejected_not_moved(self, n, k):
        # these scales used to return a phase 0.001-0.26 rad off the scale-1
        # one (k <= 538), a ZeroDivisionError (540) or "zero variance" (543)
        tone = sf.synthesize(DEMO, sf.NoiseSpec(0.5, 0), n)
        with pytest.raises(ValueError, match="samples too small"):
            sf.estimate_parameters(series(tone.samples * 2.0 ** -k))

    def test_a_single_subnormal_sample_is_too_small(self):
        x = np.zeros(100)
        x[40] = 5e-324
        with pytest.raises(ValueError) as caught:
            check_finite(series(x))
        assert str(caught.value) == SAMPLES_TOO_SMALL

    def test_an_all_zero_record_keeps_its_error(self):
        x = np.zeros(100)
        check_finite(series(x))  # accepted: the stages reject it as constant
        with pytest.raises(ValueError, match="all samples on one side of the median"):
            sf.estimate_parameters(series(x))
