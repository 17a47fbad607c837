import itertools
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import sinefit as sf
from sinefit import estimate, io
from sinefit.estimate import _zero_crossings, COARSE_STEP, REFINE_STEP
from sinefit.model import standard_normal_draws
from conftest import AMPLITUDE, FREQUENCY, PHASE, PHASE_EXACT, SIGMA

TWO_PI = 2.0 * math.pi


def clean_record(params, n=100, dt=1.0):
    return sf.synthesize(params, sf.NoiseSpec(sigma=0.0, seed=0), n, dt=dt)


def objective_polynomial(obj):
    """The objective's trig polynomial as a function of any array of phases."""
    terms = estimate._objective_on_tables(obj.data, obj.fixed_amplitude,
                                          obj.fixed_frequency_hz, obj.t_range)
    return lambda phis: estimate._curve(estimate._phase_table(phis), *terms)


def objective_window(obj):
    """Index range [lo, hi) of the objective window."""
    record = obj.data
    return estimate._geometry(record.start_time, record.dt, len(record),
                              obj.fixed_frequency_hz, obj.t_range)[:2]


def objective_points(obj):
    """Sample times and values of the objective window."""
    lo, hi = objective_window(obj)
    return obj.data.times(lo, hi), obj.data.samples[lo:hi]


class TestPhaseObjective:
    def test_zero_at_the_generating_phase(self, demo_params):
        obj = sf.PhaseObjective(clean_record(demo_params), AMPLITUDE, FREQUENCY)
        assert sf.phase_objective_value(obj, demo_params.phase_rad) <= 1e-18

    def test_antiphase_is_the_grid_maximum(self, demo_params):
        # full_record covers whole periods, so the edge term vanishes and
        # the objective peaks exactly at the antiphase
        obj = sf.PhaseObjective(clean_record(demo_params), AMPLITUDE, FREQUENCY,
                                "full_record")
        grid = np.arange(-math.pi, math.pi, COARSE_STEP)
        values = [sf.phase_objective_value(obj, phi) for phi in grid]
        worst = grid[int(np.argmax(values))]
        anti = sf.wrap_phase(demo_params.phase_rad + math.pi)
        assert abs(worst - anti) <= COARSE_STEP

    def test_truth_beats_zero_phase_on_noisy_data(self, noisy_series):
        for seed in range(5):
            obj = sf.PhaseObjective(noisy_series(seed), AMPLITUDE, FREQUENCY)
            assert sf.phase_objective_value(obj, 0.61) < \
                sf.phase_objective_value(obj, 0.0)

    def test_one_period_sums_fewer_points_than_full_record(self, demo_params):
        record = clean_record(demo_params)
        one = sf.PhaseObjective(record, AMPLITUDE, FREQUENCY, "one_period")
        full = sf.PhaseObjective(record, AMPLITUDE, FREQUENCY, "full_record")
        phi = 1.0
        assert sf.phase_objective_value(one, phi) < sf.phase_objective_value(full, phi)

    @pytest.mark.parametrize("objective_range", ["one_period", "full_record"])
    def test_equals_the_direct_expression_bit_for_bit(self, noisy_series, objective_range):
        # the residual sum runs in one buffer; the expression form is the reference
        for seed in range(5):
            obj = sf.PhaseObjective(noisy_series(seed), AMPLITUDE, FREQUENCY, objective_range)
            t, x = objective_points(obj)
            for phi in np.linspace(-math.pi, math.pi, 13).tolist():
                expected = float(np.sum((x - AMPLITUDE * np.sin(TWO_PI * FREQUENCY * t + phi)) ** 2))
                assert sf.phase_objective_value(obj, phi) == expected

    def test_validation(self, demo_params):
        record = clean_record(demo_params)
        with pytest.raises(ValueError):
            sf.PhaseObjective(record, 0.0, FREQUENCY)
        with pytest.raises(ValueError):
            sf.PhaseObjective(record, AMPLITUDE, -1.0)
        with pytest.raises(ValueError):
            sf.PhaseObjective(record, AMPLITUDE, FREQUENCY, "whole_thing")

    @pytest.mark.parametrize("search", [True, False])
    @pytest.mark.parametrize("field, a, f, t_range", [
        ("fixed_amplitude", math.inf, FREQUENCY, "one_period"),  # else an all-NaN ranking
        ("fixed_amplitude", math.nan, FREQUENCY, "one_period"),
        ("fixed_amplitude", 1e160, FREQUENCY, "one_period"),  # else A**2 overflows
        ("fixed_frequency_hz", AMPLITUDE, math.inf, "full_record"),  # else sin(inf)
        ("fixed_frequency_hz", AMPLITUDE, math.nan, "full_record"),
        ("fixed_frequency_hz", AMPLITUDE, 1e308, "full_record"),  # 4*pi*f overflows
    ])
    def test_bad_parameters_fail_early_naming_the_field(self, demo_params, search, field,
                                                        a, f, t_range):
        record = clean_record(demo_params)
        with pytest.raises(ValueError, match=field):
            obj = sf.PhaseObjective(record, a, f, t_range)
            if search:
                sf.phase_grid_search(obj)
            else:
                sf.phase_objective_value(obj, 0.0)

    def test_the_amplitude_limit_is_the_sample_limit_of_the_record_length(self, demo_params):
        record = clean_record(demo_params)
        limit = math.sqrt(np.finfo(float).max) / 2.0 / len(record)
        phi, value = sf.phase_grid_search(sf.PhaseObjective(record, limit, FREQUENCY))
        assert math.isfinite(phi) and math.isfinite(value)
        with pytest.raises(ValueError, match="fixed_amplitude"):
            sf.PhaseObjective(record, math.nextafter(limit, math.inf), FREQUENCY)


    @pytest.mark.parametrize("t_range", ["one_period", "full_record"])
    @pytest.mark.parametrize("a, f, dt", [
        (AMPLITUDE, np.float32(FREQUENCY), 1.0),  # its 1/f used to end the window a sample later
        (np.float32(2.2), FREQUENCY, 1.0),  # used to overflow in the range check's cast
        (np.float64(AMPLITUDE), np.float64(FREQUENCY), 1.0),
        (2, np.float32(0.0537), 1.0),
        (np.int64(2), 1, 0.01),
    ])
    def test_numpy_and_int_parameters_act_as_their_float_values(self, a, f, dt, t_range):
        record = sf.synthesize(sf.SinusoidParams(AMPLITUDE, float(f), PHASE),
                               sf.NoiseSpec(SIGMA, 0), 100, dt=dt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            given = sf.PhaseObjective(record, a, f, t_range)
            as_float = sf.PhaseObjective(record, float(a), float(f), t_range)
            assert type(given.fixed_amplitude) is float and type(given.fixed_frequency_hz) is float
            assert (given.fixed_amplitude, given.fixed_frequency_hz) == (float(a), float(f))
            assert objective_window(given) == objective_window(as_float)
            assert sf.phase_grid_search(given) == sf.phase_grid_search(as_float)


class TestPhaseGridSearch:
    def test_noise_free_demo(self, demo_params):
        obj = sf.PhaseObjective(clean_record(demo_params), AMPLITUDE, FREQUENCY)
        phi, value = sf.phase_grid_search(obj)
        assert 0.610 <= phi <= 0.612
        assert value < 1e-4

    def test_zero_phase(self):
        params = sf.SinusoidParams(AMPLITUDE, FREQUENCY, 0.0)
        obj = sf.PhaseObjective(clean_record(params), AMPLITUDE, FREQUENCY)
        phi, _ = sf.phase_grid_search(obj)
        assert abs(phi) <= 0.0011

    def test_result_beats_every_coarse_point(self, noisy_series):
        obj = sf.PhaseObjective(noisy_series(6), AMPLITUDE, FREQUENCY)
        phi, value = sf.phase_grid_search(obj)
        coarse = np.arange(-math.pi, math.pi, COARSE_STEP)
        assert all(value <= sf.phase_objective_value(obj, p) + 1e-12 for p in coarse)

    def test_monte_carlo_error_band(self, pipeline_reports):
        # Oracle-verified bands for the demo noise level (sigma = 0.5,
        # one-period objective); a +-0.03 rad @ 90% band would sit below
        # the Cramer-Rao floor for this configuration, so the bands
        # asserted here are the measured ones.
        errors = np.array([abs(r.params.phase_rad - PHASE)
                           for r in pipeline_reports if r.params is not None])
        assert len(errors) == 100
        assert np.mean(errors <= 0.15) >= 0.90
        assert errors.mean() <= 0.08


def reference_objective_curve(obj, phis):
    """The objective as a G x N broadcast of the model over every grid phase.

    Rows are independent, so they are summed in blocks of 64 phases to
    bound the memory of the G x N temporary.
    """
    t, x = objective_points(obj)
    w = TWO_PI * obj.fixed_frequency_hz
    rows = []
    for start in range(0, phis.size, 64):
        block = phis[start:start + 64]
        model = obj.fixed_amplitude * np.sin(w * t[None, :] + block[:, None])
        rows.append(np.sum((x[None, :] - model) ** 2, axis=1))
    return np.concatenate(rows)


def reference_grid_search(obj):
    """The two-stage grid search ranked by the brute-force objective."""
    coarse = np.arange(-math.pi, math.pi, COARSE_STEP)
    phi0 = float(coarse[np.argmin(reference_objective_curve(obj, coarse))])
    refine = np.arange(phi0 - COARSE_STEP, phi0 + COARSE_STEP + REFINE_STEP / 2,
                       REFINE_STEP)
    values = reference_objective_curve(obj, refine)
    best = int(np.argmin(values))
    return float(refine[best]), float(values[best])


# Noise is required: on a noise-free record whose model frequency is off
# the data's (f = 0.05 data against a 0.0505 model spans exactly 500
# against 505 cycles at N = 10^4) the objective is flat in phi to about
# 4e-14 relative, and the argmin is rounding noise in either form.
def noisy_objectives(n, t_range, perturbations):
    for f, sigma, seed in itertools.product((0.05, 0.0537, 0.123), (0.5, 2.0), (0, 1)):
        record = sf.synthesize(sf.SinusoidParams(AMPLITUDE, f, PHASE),
                               sf.NoiseSpec(sigma, seed), n)
        for a_scale, f_scale in perturbations:
            yield sf.PhaseObjective(record, AMPLITUDE * a_scale, f * f_scale, t_range)


ALL_PERTURBATIONS = list(itertools.product((1.0, 1.05, 0.95), (1.0, 1.01, 0.99)))


def real_objective_on_tables(obj, lo, hi, linear=None):
    """The ranking before the complex form: the trig polynomial as eleven
    real passes over the cos/sin of phi and 2*phi, in the same order."""
    a, w = obj.fixed_amplitude, TWO_PI * obj.fixed_frequency_hz
    x = obj.data.samples[lo:hi]
    if linear is None:
        wt = w * obj.data.times(lo, hi)
        linear = x @ np.sin(wt), x @ np.cos(wt)
    sxs, sxc = linear
    sxx = x @ x
    sc2, ss2 = estimate._double_angle_sums(obj.data.start_time, obj.data.dt, lo, hi, 2.0 * w)
    two_a, a_squared, half_m = 2.0 * a, a ** 2, (hi - lo) / 2.0

    def curve(table):
        phis = table.phis
        out = np.multiply(np.cos(phis), sxs)
        scratch = np.multiply(np.sin(phis), sxc)
        out += scratch
        out *= two_a
        np.subtract(sxx, out, out)
        square = np.multiply(np.cos(2.0 * phis), sc2)
        np.multiply(np.sin(2.0 * phis), ss2, scratch)
        square -= scratch
        square /= 2.0
        np.subtract(half_m, square, square)
        square *= a_squared
        out += square
        return out

    return curve


def real_grid_search(obj, lo, hi, linear=None):
    """``estimate._grid_search`` ranked by ``real_objective_on_tables``."""
    curve = real_objective_on_tables(obj, lo, hi, linear)
    refine = estimate._refine_table(int(curve(estimate._COARSE).argmin()))
    return float(refine.phis[curve(refine).argmin()])


def ranking_sweep_records():
    """Tones at f*dt up to the Nyquist 0.5 on the unit and the shifted grid,
    the same tones quantised to integers, and white noise."""
    for n, (start, dt) in itertools.product((25, 100, 1000, 1001), ((0.0, 1.0), (-2.3, 0.37))):
        for f_dt in (0.05, 0.0537, 0.123, 0.3, 0.45, 0.5):
            params = sf.SinusoidParams(AMPLITUDE, f_dt / dt, PHASE)
            for sigma in (0.0, 0.5, 2.0):
                for seed in range(1 if sigma == 0.0 else 12):
                    yield sf.synthesize(params, sf.NoiseSpec(sigma, seed), n, dt=dt, start=start)
            for seed in range(6):
                tone = sf.synthesize(params, sf.NoiseSpec(0.5, seed), n, dt=dt, start=start)
                yield sf.TimeSeries(start, dt, np.round(tone.samples))
        for seed in range(24):
            yield sf.TimeSeries(start, dt, sf.model.standard_normal_draws(seed, n))


class TestComplexRanking:
    def test_grid_phases_match_the_real_ranking(self, monkeypatch):
        # every search of the pipeline runs both rankings on the same window
        # and (Sxs, Sxc); the searches include f*dt = 0.5 (the Nyquist bin of
        # an even N), odd N, the shifted grid, and noise the screen would reject
        pairs = []
        grid_search = estimate._grid_search

        def both(record, amplitude, frequency_hz, t_range, linear=None):
            phi = grid_search(record, amplitude, frequency_hz, t_range, linear)
            obj = sf.PhaseObjective(record, amplitude, frequency_hz, t_range)
            lo, hi = objective_window(obj)
            pairs.append((phi, real_grid_search(obj, lo, hi, linear)))
            return phi

        monkeypatch.setattr(estimate, "_grid_search", both)
        for record in ranking_sweep_records():
            for t_range in ("one_period", "full_record"):
                try:
                    sf.estimate_parameters(record, sf.PipelineConfig(
                        objective_range=t_range, skip_screen=True))
                except ValueError:
                    pass
        assert len(pairs) == 3360
        assert [new for new, _ in pairs] == [old for _, old in pairs]

    @pytest.mark.parametrize("t_range", ["one_period", "full_record"])
    def test_a_record_whose_terms_all_round_away_ties_at_the_first_point(self, t_range):
        # A = 1e-171: A^2 is 0 and 2A*Sxs about 1e-169 against Sxx = 1400, so
        # every grid value rounds to the constant and the first index wins
        x = np.tile([1.0, 2.0, -3.0, 0.0, 0.0], 20)
        x[53] = 1e-170
        report = sf.estimate_parameters(sf.TimeSeries(0.0, 1.0, x),
                                        sf.PipelineConfig(objective_range=t_range))
        assert report.params.amplitude == 1e-171
        assert report.grid_phase == -math.pi - 0.01


class TestObjectivePolynomial:
    @pytest.mark.parametrize("n", [100, 1000, 10_000])
    @pytest.mark.parametrize("t_range", ["one_period", "full_record"])
    def test_matches_the_brute_force_curve(self, n, t_range):
        coarse = np.arange(-math.pi, math.pi, COARSE_STEP)
        for obj in noisy_objectives(n, t_range, [(1.05, 0.99)]):
            curve = objective_polynomial(obj)
            reference = reference_objective_curve(obj, coarse)
            np.testing.assert_allclose(curve(coarse), reference, rtol=1e-11, atol=0)
            phi0 = coarse[np.argmin(reference)]
            refine = np.arange(phi0 - COARSE_STEP, phi0 + COARSE_STEP + REFINE_STEP / 2,
                               REFINE_STEP)
            np.testing.assert_allclose(curve(refine), reference_objective_curve(obj, refine),
                                       rtol=1e-11, atol=0)

    @pytest.mark.parametrize("n", [100, 1000, 10_000])
    @pytest.mark.parametrize("t_range", ["one_period", "full_record"])
    def test_search_matches_the_brute_force_search(self, n, t_range):
        # the brute-force reference is slow at N = 10^4, so there it runs
        # only unperturbed, with A and f both up and with both down
        perturbations = ALL_PERTURBATIONS if n < 10_000 else [
            (1.0, 1.0), (1.05, 1.01), (0.95, 0.99)]
        for obj in noisy_objectives(n, t_range, perturbations):
            result = sf.phase_grid_search(obj)
            assert result == reference_grid_search(obj)
            assert sf.phase_objective_value(obj, result[0]) == result[1]

    @pytest.mark.parametrize("n", [100, 1001, 10_000])
    @pytest.mark.parametrize("f_dt", [1e-6, "bin", 0.4999, 0.5])
    @pytest.mark.parametrize("t_range", ["one_period", "full_record"])
    def test_closed_form_double_angle_sums(self, n, f_dt, t_range):
        # f*dt = 0.5 is the Nyquist bin an even-N spectrum can pick; there
        # the geometric-series quotient is 0/0 in exact arithmetic
        dt = 0.37
        f = (7 / n if f_dt == "bin" else f_dt) / dt
        record = sf.TimeSeries(-2.3, dt, np.sin(np.arange(n)))
        obj = sf.PhaseObjective(record, 1.0, f, t_range)
        t, _ = objective_points(obj)
        theta = 2.0 * TWO_PI * f
        lo, hi = objective_window(obj)
        sc2, ss2 = estimate._double_angle_sums(record.start_time, dt, lo, hi, theta)
        assert abs(sc2 - np.sum(np.cos(theta * t))) <= 1e-9 * t.size
        assert abs(ss2 - np.sum(np.sin(theta * t))) <= 1e-9 * t.size

    def test_search_memory_is_linear_in_n(self):
        n = 100_000
        record = sf.synthesize(sf.SinusoidParams(AMPLITUDE, FREQUENCY, PHASE),
                               sf.NoiseSpec(SIGMA, 0), n)
        obj = sf.PhaseObjective(record, AMPLITUDE, FREQUENCY, "full_record")
        tracemalloc.start()
        try:
            sf.phase_grid_search(obj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * n


class TestClosedFormPhases:
    def test_crossover_whole_sample_read(self):
        deg, rad = sf.phase_from_crossover(20.0, 18.0)
        assert deg == pytest.approx(36.0, abs=1e-9)
        assert rad == pytest.approx(math.pi / 5, abs=1e-9)

    def test_crossover_at_period_is_zero_phase(self):
        deg, rad = sf.phase_from_crossover(20.0, 20.0)
        assert deg == 0.0 and rad == 0.0

    def test_crossover_exact_landmark(self):
        _, rad = sf.phase_from_crossover(20.0, 18 + 1 / 18)
        assert rad == pytest.approx(0.6109, abs=1e-4)

    def test_landmark_general_first_crossover(self):
        phi = sf.phase_from_landmarks_general(20.0, 18 + 1 / 18, 8 + 1 / 18, k=1)
        assert phi == pytest.approx(0.6109, abs=1e-4)

    def test_landmark_general_zero_phase(self):
        assert sf.phase_from_landmarks_general(20.0, 20.0, 15.0, k=1.5) == 0.0

    def test_landmark_general_is_landmark_invariant(self):
        params = sf.SinusoidParams(AMPLITUDE, FREQUENCY, PHASE_EXACT)
        table = sf.landmarks(params)
        t_2pi = table.time_of(2.0)
        t_pi = table.time_of(1.0)
        t_4pi = t_2pi + table.period
        a = sf.phase_from_landmarks_general(table.period, t_2pi, t_pi, k=1)
        b = sf.phase_from_landmarks_general(table.period, t_2pi, t_4pi, k=4)
        assert a == pytest.approx(b, abs=1e-9)

    def test_crossover_and_landmark_formulas_agree(self):
        params = sf.SinusoidParams(AMPLITUDE, FREQUENCY, PHASE_EXACT)
        table = sf.landmarks(params)
        _, rad = sf.phase_from_crossover(table.period, table.time_of(2.0))
        general = sf.phase_from_landmarks_general(
            table.period, table.time_of(2.0), table.time_of(1.0), k=1)
        assert rad == pytest.approx(general, abs=1e-9)
        assert rad == pytest.approx(params.omega() * params.time_delay(), abs=1e-9)

    def test_landmark_general_rejections(self):
        with pytest.raises(ValueError):
            sf.phase_from_landmarks_general(20.0, 18.0, 8.0, k=2)
        with pytest.raises(ValueError):
            sf.phase_from_landmarks_general(20.0, 18.0, 18.0, k=1)

    def test_arctan_demo_value(self):
        assert sf.phase_arctan_at_origin(2.0, 1.1472) == pytest.approx(0.6109, abs=1e-4)

    def test_arctan_odd_symmetry(self):
        assert sf.phase_arctan_at_origin(2.0, -1.1472) == pytest.approx(-0.6109, abs=1e-4)
        assert sf.phase_arctan_at_origin(2.0, 0.0) == 0.0

    def test_arctan_rejects_collapsed_triangle(self):
        with pytest.raises(ValueError):
            sf.phase_arctan_at_origin(2.0, 2.0)
        with pytest.raises(ValueError):
            sf.phase_arctan_at_origin(2.0, -2.5)

    def test_arcsin_demo_value(self):
        phi = sf.phase_arcsin_at_time(2.0, 0.3142, 1.8, 1.8464)
        assert phi == pytest.approx(0.6109, abs=1e-3)

    def test_arcsin_zero_phase_point(self):
        omega = TWO_PI * FREQUENCY
        t = 2.0
        y = AMPLITUDE * math.sin(omega * t)
        assert sf.phase_arcsin_at_time(AMPLITUDE, omega, t, y) == pytest.approx(
            0.0, abs=1e-12)

    def test_arcsin_peak_at_origin(self):
        assert sf.phase_arcsin_at_time(2.0, 0.3142, 0.0, 2.0) == pytest.approx(
            math.pi / 2, abs=1e-12)

    def test_arcsin_rejects_overshoot(self):
        with pytest.raises(ValueError):
            sf.phase_arcsin_at_time(2.0, 0.3142, 1.0, 2.5)

    def test_phase_methods_agree_on_clean_data(self):
        for phi in (-1.2, -0.5, 0.3, PHASE, 1.2):
            params = sf.SinusoidParams(AMPLITUDE, FREQUENCY, phi)
            table = sf.landmarks(params)
            record = clean_record(params)
            estimates = {}
            obj = sf.PhaseObjective(record, AMPLITUDE, FREQUENCY)
            estimates["grid"], _ = sf.phase_grid_search(obj)
            _, estimates["crossover"] = sf.phase_from_crossover(
                table.period, table.time_of(2.0))
            estimates["landmarks"] = sf.phase_from_landmarks_general(
                table.period, table.time_of(2.0), table.time_of(1.0), k=1)
            estimates["arctan"] = sf.phase_arctan_at_origin(
                AMPLITUDE, float(sf.evaluate(params, 0.0)))
            t_rise = (math.pi / 4 - phi) / params.omega()
            estimates["arcsin"] = sf.phase_arcsin_at_time(
                AMPLITUDE, params.omega(), t_rise,
                float(sf.evaluate(params, t_rise)))
            values = list(estimates.values())
            for a in values:
                for b in values:
                    assert abs(a - b) < 0.01, estimates


def reference_zero_crossings(series):
    """The crossing scan written as one loop per sample and per transition."""
    s = series.samples
    t = series.times()
    h = 0.2 * (s.max() - s.min()) / 2.0
    raw = []
    for i in range(s.size - 1):
        a, b = s[i], s[i + 1]
        if a <= 0.0 < b:
            raw.append((t[i] + series.dt * ((0.0 - a) / (b - a)), 1))
        elif a >= 0.0 > b:
            raw.append((t[i] + series.dt * ((0.0 - a) / (b - a)), -1))
    states = np.where(s > h, 1, np.where(s < -h, -1, 0))
    confirmed = np.flatnonzero(states != 0)
    crossings = []
    for ia, ib in zip(confirmed[:-1], confirmed[1:]):
        if states[ia] == states[ib]:
            continue
        cluster = [rt for rt, _ in raw if t[ia] <= rt <= t[ib]]
        crossings.append((float(cluster[len(cluster) // 2]), int(states[ib])))
    return crossings


def time_space_zero_crossings(series):
    """The crossing scan that interpolates every raw crossing and finds each
    cluster by searching those float times for the confirmed samples' times."""
    s = series.samples
    start, dt = series.start_time, series.dt
    h = 0.2 * (s.max() - s.min()) / 2.0
    p, q = s > 0.0, s < 0.0
    i = ((p[1:] > p[:-1]) | (q[1:] > q[:-1])).nonzero()[0]
    a, b = s[i], s[i + 1]
    raw = (start + dt * i) + dt * ((0.0 - a) / (b - a))
    above = s > h
    confirmed = (above | (s < -h)).nonzero()[0]
    side = above[confirmed]
    flips = (side[1:] != side[:-1]).nonzero()[0]
    lo = raw.searchsorted(start + dt * confirmed[flips], side="left")
    hi = raw.searchsorted(start + dt * confirmed[flips + 1], side="right")
    return raw[(lo + hi) // 2], np.where(side[flips + 1], 1, -1)


def noisy_tone_series():
    """300 MA-smoothed noisy tones of random A, f, phase, length, dt and start."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        params = sf.SinusoidParams(rng.uniform(0.5, 3.0), rng.uniform(0.01, 0.3),
                                   rng.uniform(-math.pi, math.pi))
        noise = sf.NoiseSpec(rng.uniform(0.0, 2.0), int(rng.integers(1 << 30)))
        record = sf.synthesize(params, noise, int(rng.integers(20, 400)),
                               dt=rng.uniform(0.1, 2.0), start=rng.uniform(-5, 5))
        yield sf.moving_average(record, int(rng.integers(1, 8))).series


def plateau_series():
    """Up to 300 integer step records, with exact zeros and plateaus."""
    rng = np.random.default_rng(6)
    for _ in range(300):
        levels = rng.integers(-3, 4, size=int(rng.integers(5, 60)))
        x = np.repeat(levels, rng.integers(1, 5, size=levels.size)).astype(float)
        if np.ptp(x) == 0:
            continue
        yield sf.TimeSeries(float(rng.integers(-3, 3)), 1.0, x)


def reference_period_from_crossings(crossings):
    """The ``ma_period`` read over (time, direction) tuples, one list per direction."""
    spacings = []
    for direction in (1, -1):
        times = [time for time, d in crossings if d == direction]
        spacings.extend(b - a for a, b in zip(times[:-1], times[1:]))
    if not spacings:
        return None
    return float(np.mean(spacings))


def reference_second_crossover(crossings, group_delay):
    """The second-crossover read as a loop over (time, direction) tuples."""
    crossings = [c for c in crossings if c[0] >= 0.0]
    if len(crossings) < 2:
        raise ValueError("fewer than two zero crossovers in the record")
    for time, direction in crossings[1:]:
        if direction > 0:
            return float(time - group_delay)
    raise ValueError("no upward crossover after the first crossover")


def outcome(fn, *args):
    """What fn returns, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestZeroCrossings:
    def test_matches_the_loop_on_noisy_tones(self):
        for series in noisy_tone_series():
            times, directions = _zero_crossings(series)
            assert list(zip(times.tolist(), directions.tolist())) == \
                reference_zero_crossings(series)

    def test_matches_the_loop_with_exact_zeros_and_plateaus(self):
        for series in plateau_series():
            times, directions = _zero_crossings(series)
            assert list(zip(times.tolist(), directions.tolist())) == \
                reference_zero_crossings(series)

    @pytest.mark.parametrize("records", [noisy_tone_series, plateau_series])
    def test_array_reads_match_the_tuple_reads_bit_for_bit(self, records):
        for series in records():
            times, directions = _zero_crossings(series)
            pairs = list(zip(times.tolist(), directions.tolist()))
            assert estimate._period_from_crossings(times, directions) == \
                reference_period_from_crossings(pairs)
            for delay in (0.0, 1.5 * series.dt):
                assert outcome(estimate._second_crossover, times, directions, delay) == \
                    outcome(reference_second_crossover, pairs, delay)

    @pytest.mark.parametrize("start, x, error", [
        # no crossings; all crossings before t = 0; up, then only down
        (0.0, [1.0, 2.0, 1.0, 2.0], "fewer than two"),
        (-9.0, [-1.0, 1.0, -1.0, 1.0, 2.0, 2.0, 2.0, 2.0], "fewer than two"),
        (0.0, [-1.0, -1.0, 1.0, 1.0, -1.0, -1.0], "no upward"),
    ])
    def test_edge_cases_match_the_tuple_reads(self, start, x, error):
        series = sf.TimeSeries(start, 1.0, x)
        times, directions = _zero_crossings(series)
        pairs = list(zip(times.tolist(), directions.tolist()))
        assert estimate._period_from_crossings(times, directions) == \
            reference_period_from_crossings(pairs)
        got = outcome(estimate._second_crossover, times, directions, 0.5)
        assert got == outcome(reference_second_crossover, pairs, 0.5)
        assert error in got

    @given(st.floats(0.005, 0.3), st.floats(-math.pi, math.pi), st.floats(0.0, 2.0),
           st.integers(0, 2 ** 32 - 1), st.integers(20, 2000), st.integers(1, 7),
           st.floats(-1e9, 1e9), st.floats(-30.0, 20.0))
    def test_index_scan_matches_the_time_space_scan(self, cycles_per_sample, phase, sigma,
                                                     seed, n, k, start, log2_dt):
        # on grids whose step is at least 64 ulp of the largest |t| the
        # float times order the raw crossings, so both find the same clusters
        dt = 2.0 ** log2_dt
        assume(dt >= 64 * np.spacing(max(abs(start), abs(start + dt * (n - 1)))))
        params = sf.SinusoidParams(1.0, cycles_per_sample / dt, phase)
        record = sf.synthesize(params, sf.NoiseSpec(sigma, seed), n, dt=dt, start=start)
        series = sf.moving_average(record, k).series
        times, directions = _zero_crossings(series)
        expected_times, expected_directions = time_space_zero_crossings(series)
        assert times.tobytes() == expected_times.tobytes()
        assert directions.tobytes() == expected_directions.tobytes()

    def test_estimate_parameters_scans_once(self, noisy_series, monkeypatch):
        calls = []

        def counting(series, *args):
            calls.append(series)
            return _zero_crossings(series, *args)

        monkeypatch.setattr(estimate, "_zero_crossings", counting)
        report = sf.estimate_parameters(noisy_series(3))
        assert report.t_2pi is not None  # the first read runs the cross-checks
        assert len(calls) == 1
        assert "ma_period" in report.frequency_cross_checks_hz


class TestDetectT2pi:
    def test_noise_free_demo(self, demo_params):
        smoothed = sf.moving_average(clean_record(demo_params), 1)
        assert sf.detect_t2pi(smoothed) == pytest.approx(18 + 1 / 18, abs=0.05)

    def test_zero_phase_gives_the_period(self):
        params = sf.SinusoidParams(AMPLITUDE, FREQUENCY, 0.0)
        smoothed = sf.moving_average(clean_record(params), 1)
        assert sf.detect_t2pi(smoothed) == pytest.approx(20.0, abs=0.05)

    def test_group_delay_is_compensated(self, demo_params):
        for k in (5, 10):
            smoothed = sf.moving_average(clean_record(demo_params), k)
            assert sf.detect_t2pi(smoothed) == pytest.approx(18 + 1 / 18, abs=0.1)

    def test_noisy_ma10_band(self, noisy_series):
        true_t2pi = (TWO_PI - PHASE) / (TWO_PI * FREQUENCY)
        hits = 0
        for seed in range(100):
            smoothed = sf.moving_average(noisy_series(seed), 10)
            hits += abs(sf.detect_t2pi(smoothed) - true_t2pi) <= 1.0
        assert hits >= 90

    def test_rejects_records_without_two_crossovers(self, demo_params):
        short = sf.TimeSeries(0.0, 1.0, sf.evaluate(demo_params, np.arange(5.0)))
        with pytest.raises(ValueError):
            sf.detect_t2pi(sf.moving_average(short, 1))


class TestAcfPeriod:
    @pytest.mark.parametrize("n", [100, 1000])
    def test_window_edges_are_not_the_period(self, demo_params, n):
        # a period is 20 lags: a window ending at or before lag 20 cannot
        # tell the peak from its own edge, and no edge may pass for the mark
        record = clean_record(demo_params, n=n)
        for max_lag in range(2, 40):
            report = sf.estimate_parameters(record, sf.PipelineConfig(max_lag=max_lag))
            acf_period = report.frequency_cross_checks_hz.get("acf_period")
            if max_lag <= 20:
                assert acf_period is None, max_lag
            else:
                assert acf_period == 0.05, max_lag

    def test_peak_at_the_fold_is_kept(self):
        # f = 0.02 at N = 100: the one-period peak is lag 50 = N/2, the
        # last lag computed under the default max_lag
        record = clean_record(sf.SinusoidParams(AMPLITUDE, 0.02, PHASE))
        report = sf.estimate_parameters(record)
        assert report.frequency_cross_checks_hz["acf_period"] == pytest.approx(0.02)


class TestPipeline:
    def test_noise_free_recovery(self, demo_params):
        report = sf.estimate_parameters(clean_record(demo_params),
                                        sf.PipelineConfig(ma_k=1))
        assert report.params is not None
        assert report.params.frequency_hz == pytest.approx(0.05, abs=1e-12)
        assert report.params.amplitude == pytest.approx(AMPLITUDE, rel=0.01)
        assert report.params.phase_rad == pytest.approx(PHASE, abs=0.0011)
        assert report.frequency_source == "fft"
        assert report.screening.verdict == "signal"
        assert report.t_2pi == pytest.approx(18 + 1 / 18, abs=0.1)
        assert "crossover" in report.phase_cross_checks

    def test_report_invariants(self, pipeline_reports):
        for report in pipeline_reports:
            assert report.params is not None
            p = report.params
            assert -math.pi <= p.phase_rad < math.pi
            assert report.objective_value >= 0
            assert report.delta_t == pytest.approx(
                p.phase_rad / (TWO_PI * p.frequency_hz), abs=1e-9)
            if p.phase_rad > 0:
                # positive phase means the record is time-delayed: t_0 < 0
                assert -report.delta_t < 0
            assert report.smoothing_k == 5
            assert report.model_acf is not None
            assert report.model_acf.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_heavy_noise_yields_noise_report(self, pure_noise):
        report = sf.estimate_parameters(pure_noise(0, sigma=80.0),
                                        sf.PipelineConfig(far=0.001))
        assert report.params is None
        assert report.verdict == "noise"
        assert report.objective_value is None
        assert report.frequency_source is None

    def test_skip_screen_estimates_anyway(self, pure_noise):
        report = sf.estimate_parameters(
            pure_noise(0, sigma=80.0),
            sf.PipelineConfig(far=0.001, skip_screen=True))
        assert report.params is not None
        assert report.screening is not None
        assert report.screening.verdict == "noise"

    @pytest.mark.parametrize("f", [0.05, 0.0537, 0.123])
    @pytest.mark.parametrize("n", [100, 1000])
    @pytest.mark.parametrize("t_range", ["one_period", "full_record"])
    def test_scaling_the_samples_scales_only_the_amplitude(self, f, n, t_range):
        config = sf.PipelineConfig(objective_range=t_range, skip_screen=True)
        for seed in range(5):
            record = sf.synthesize(sf.SinusoidParams(AMPLITUDE, f, PHASE),
                                   sf.NoiseSpec(SIGMA, seed), n)
            scaled = sf.TimeSeries(0.0, 1.0, record.samples * 1e100)
            base = sf.estimate_parameters(record, config).params
            big = sf.estimate_parameters(scaled, config).params
            assert big.amplitude == pytest.approx(base.amplitude * 1e100, rel=1e-12)
            assert big.phase_rad == base.phase_rad
            assert big.frequency_hz == base.frequency_hz

    @pytest.mark.parametrize("skip_screen", [False, True])
    def test_frequency_is_always_the_spectrum_peak(self, noisy_series, skip_screen):
        config = sf.PipelineConfig(skip_screen=skip_screen)
        for seed in range(20):
            for sigma in (0.5, 2.0, 8.0):
                record = noisy_series(seed, sigma=sigma)
                report = sf.estimate_parameters(record, config)
                if report.params is None:
                    continue
                assert report.frequency_source == "fft"
                assert "fft" not in report.frequency_cross_checks_hz
                assert report.params.frequency_hz == \
                    sf.fundamental_frequency(sf.dft_magnitude(record))

    @pytest.mark.parametrize("dt, n", [(1.8e306, 100), (1e-310, 100), (9e306, 20),
                                       (5e-324, 1000), (2.497e-308, 100)])
    @pytest.mark.parametrize("skip_screen", [False, True])
    def test_bin_frequencies_out_of_float_range_are_rejected(self, dt, n, skip_screen):
        # N*dt overflows at 1.8e306 and 9e306 (df = 0) although the last
        # sample time (N - 1)*dt does not, 4*pi*(N/2)*df at 1e-310 and at
        # 2.497e-308 (the top bin's, although this tone's peak bin is low),
        # and df itself at 5e-324
        samples = sf.synthesize(sf.SinusoidParams(AMPLITUDE, FREQUENCY, PHASE),
                                sf.NoiseSpec(SIGMA, 0), n).samples
        record = sf.TimeSeries(0.0, dt, samples)
        with pytest.raises(ValueError, match=r"bin frequencies m/\(N\*dt\)"):
            sf.estimate_parameters(record, sf.PipelineConfig(skip_screen=skip_screen))

    @pytest.mark.parametrize("objective_range", ["one_period", "full_record"])
    @pytest.mark.parametrize("skip_screen", [False, True])
    def test_a_double_angle_past_float_max_is_rejected(self, objective_range, skip_screen):
        # 2*pi*(N/2)*df is finite at dt = 2.497e-308 but 4*pi*f, the phase
        # search's double angle, overflows at this tone's peak bin near
        # Nyquist: the record used to end in "math domain error"
        record = near_nyquist_record()
        config = sf.PipelineConfig(objective_range=objective_range, skip_screen=skip_screen)
        with pytest.raises(ValueError, match=r"^sample spacing dt = 2\.497e-308 puts the "
                           r"spectrum's bin frequencies m/\(N\*dt\), or the phase search's "
                           r"angular frequencies 4\*pi\*m/\(N\*dt\), outside"):
            sf.estimate_parameters(record, config)
        peak = (len(record) // 2) / (len(record) * record.dt)
        assert math.isfinite(TWO_PI * peak) and not math.isfinite(2.0 * TWO_PI * peak)

    @pytest.mark.parametrize("dt", [1e300, 1e-300, 2.0 ** -1000, 2.0 ** 1000])
    def test_extreme_but_representable_grids_still_estimate(self, dt, demo_params):
        record = sf.TimeSeries(0.0, dt, clean_record(demo_params).samples)
        report = sf.estimate_parameters(record)
        base = sf.estimate_parameters(clean_record(demo_params)).params
        assert report.params.frequency_hz * dt == pytest.approx(base.frequency_hz, rel=1e-12)
        assert report.params.phase_rad == pytest.approx(base.phase_rad, abs=REFINE_STEP)

    def test_cross_checks_are_populated(self, noisy_series):
        report = sf.estimate_parameters(noisy_series(3))
        assert report.frequency_source == "fft"
        assert "ma_period" in report.frequency_cross_checks_hz
        assert "acf_period" in report.frequency_cross_checks_hz
        assert report.frequency_cross_checks_hz["ma_period"] == pytest.approx(
            0.05, rel=0.2)

    @pytest.mark.parametrize("objective_range", ["one_period", "full_record"])
    def test_an_overflowing_crossing_spacing_drops_the_ma_period_read(self, objective_range):
        # at dt = float max/100 the crossing spacings sum to more than float
        # max; the read used to be recorded as 0 Hz, with a warning
        samples = sf.synthesize(sf.SinusoidParams(AMPLITUDE, FREQUENCY, PHASE),
                                sf.NoiseSpec(SIGMA, 0), 100).samples
        dt = np.finfo(float).max / 100
        config = sf.PipelineConfig(objective_range=objective_range)
        report = sf.estimate_parameters(sf.TimeSeries(0.0, dt, samples), config)
        assert report.params.frequency_hz * dt == pytest.approx(FREQUENCY, rel=1e-12)
        assert "ma_period" not in report.frequency_cross_checks_hz
        assert not any(w.startswith("ma_period") for w in report.warnings)
        assert all(0.0 < f < math.inf for f in report.frequency_cross_checks_hz.values())

    def test_a_crossing_on_a_huge_grid_does_not_overflow(self):
        # dt * |x| is past float max at dt = 1e300 and |x| ~ 1e100; the
        # interpolated fraction of a step lies in [0, 1], so dt multiplies it
        # last: the crossing times stay finite and the ma_period read is kept
        samples = 1e100 * sf.synthesize(sf.SinusoidParams(AMPLITUDE, FREQUENCY, PHASE),
                                        sf.NoiseSpec(SIGMA, 3), 300).samples
        record = sf.TimeSeries(0.0, 1e300, samples)
        report = sf.estimate_parameters(record, sf.PipelineConfig(skip_screen=True))
        assert 0.0 < report.t_2pi < math.inf
        assert report.frequency_cross_checks_hz["ma_period"] * 1e300 == pytest.approx(
            FREQUENCY, rel=0.2)

    @pytest.mark.parametrize("config", [sf.PipelineConfig(),
                                        sf.PipelineConfig(objective_range="full_record"),
                                        sf.PipelineConfig(skip_screen=True)])
    def test_a_record_that_ma_k_smooths_flat_is_rejected_by_name(self, config):
        # the screen passes it; every MA-5 window sums to zero
        record = sf.TimeSeries(0.0, 1.0, np.tile([1.0, 2.0, -3.0, 0.0, 0.0], 20))
        assert sf.screen(record, config.far).verdict == "signal"
        with pytest.raises(ValueError, match="^MA-5 smoothing leaves a constant record"):
            sf.estimate_parameters(record, config)
        assert sf.estimate_parameters(record, sf.PipelineConfig(ma_k=1)).params is not None

    @pytest.mark.parametrize("value", [1.5e-323, 5e-323, 1e-322])
    def test_a_hysteresis_that_underflows_raises_from_the_estimate(self, value):
        # MA-5 leaves a subnormal range whose hysteresis 0.1*span rounds to
        # 0: estimate_parameters itself names MA-k and the range, although
        # the crossing scan runs only when a cross-check is read; the record
        # is not constant, so the error does not say it is
        x = np.tile([1.0, 2.0, -3.0, 0.0, 0.0], 20)
        x[53] = value
        with pytest.raises(ValueError, match=r"^MA-5 smoothing leaves a record whose range "
                           r"\S+ is too small: its crossing threshold rounds to zero$"):
            sf.estimate_parameters(sf.TimeSeries(0.0, 1.0, x))
        with pytest.raises(ValueError, match="^constant record has no zero crossings$"):
            sf.detect_t2pi(sf.moving_average(sf.TimeSeries(0.0, 1.0, np.zeros(20)), 5))

    def test_an_amplitude_whose_square_underflows_is_estimated(self):
        # MA-5 leaves only sample 53's 1e-170, so A = 1e-171 and A^2 = 0: the
        # degeneracy test reads the full-model ACF's denominator, never 2/A^2
        x = np.tile([1.0, 2.0, -3.0, 0.0, 0.0], 20)
        x[53] = 1e-170
        record = sf.TimeSeries(0.0, 1.0, x)
        assert sf.screen(record, 0.01).verdict == "signal"
        report = sf.estimate_parameters(record)
        assert report.params.amplitude ** 2 == 0.0 < report.params.amplitude
        assert report.model_acf is not None
        payload = io.report_to_dict(report)
        assert payload["verdict"] == "signal" and payload["params"]["amplitude"] == 1e-171

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("skip_screen", [False, True])
    def test_rejects_non_finite_samples(self, noisy_series, bad, skip_screen):
        x = np.array(noisy_series(0).samples)
        x[50] = bad
        with pytest.raises(ValueError, match="non-finite"):
            sf.estimate_parameters(sf.TimeSeries(0.0, 1.0, x),
                                   sf.PipelineConfig(skip_screen=skip_screen))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sf.PipelineConfig(far=0.7)
        with pytest.raises(ValueError):
            sf.PipelineConfig(ma_k=0)
        with pytest.raises(ValueError):
            sf.PipelineConfig(objective_range="both")

    @pytest.mark.parametrize("far", [0.0, 0.5, -0.1, 0.7, math.nan])
    def test_config_and_screen_give_one_far_message(self, noisy_series, far):
        message = re.escape("false-alarm rate must lie in (0, 0.5)")
        with pytest.raises(ValueError, match=message):
            sf.PipelineConfig(far=far)
        with pytest.raises(ValueError, match=message):
            sf.screen(noisy_series(0), far)

    @pytest.mark.parametrize("name", ["ma_k", "max_lag"])
    @pytest.mark.parametrize("value", [2.5, 5.0, True, False, "5", np.float64(5.0)])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            sf.PipelineConfig(**{name: value})

    @pytest.mark.parametrize("name", ["ma_k", "max_lag"])
    @pytest.mark.parametrize("value", [7, np.int64(7), np.uint8(7)])
    def test_counts_are_kept_as_python_ints(self, noisy_series, name, value):
        config = sf.PipelineConfig(**{name: value})
        assert type(getattr(config, name)) is int and getattr(config, name) == 7
        assert config == sf.PipelineConfig(**{name: 7})
        report = sf.estimate_parameters(noisy_series(0), config)
        # the payload reads the warnings, whose ACF slice ends at max_lag, and
        # a NumPy smoothing_k would not serialise
        payload = json.loads(json.dumps(io.report_to_dict(report)))
        assert payload["smoothing_k"] == config.ma_k

    @pytest.mark.parametrize("ma_k, message", [(150, "window 150 exceeds record length 100"),
                                               (100, "window 100 leaves fewer than two samples")])
    @pytest.mark.parametrize("skip_screen", [False, True])
    def test_a_bad_window_fails_on_every_record(self, noisy_series, pure_noise, ma_k, message,
                                                skip_screen):
        # the same check as moving_average's, before the screen, so a noise
        # record fails as a tone does
        config = sf.PipelineConfig(far=0.001, ma_k=ma_k, skip_screen=skip_screen)
        noise = pure_noise(0, sigma=80.0)
        assert sf.screen(noise, 0.001).verdict == "noise"
        for record in (noisy_series(0), noise):
            with pytest.raises(ValueError, match=f"^{message}$"):
                sf.estimate_parameters(record, config)
            with pytest.raises(ValueError, match=f"^{message}$"):
                sf.moving_average(record, ma_k)


def near_nyquist_record():
    """2*sin(0.98*pi*k) plus sigma = 0.5 noise (seed 0), N = 100, at dt = 2.497e-308."""
    k = np.arange(100)
    x = 2.0 * np.sin(0.98 * math.pi * k) + 0.5 * standard_normal_draws(0, 100)
    return sf.TimeSeries(0.0, 2.497e-308, x)


def tone(n, f, start=0.0, dt=1.0, sigma=0.5, seed=0):
    return sf.synthesize(sf.SinusoidParams(AMPLITUDE, f, PHASE), sf.NoiseSpec(sigma, seed),
                         n, dt=dt, start=start)


class TestPeakBinSums:
    @pytest.mark.parametrize("n", [100, 1001, 10_000])
    @pytest.mark.parametrize("start, dt", [(0.0, 1.0), (-2.3, 0.37), (7.5, 0.02)])
    def test_match_the_direct_sums(self, n, start, dt):
        # bin n/2 of an even n is f*dt = 0.5, the Nyquist bin
        record = tone(n, 0.0537 / dt, start, dt)
        x, t = record.samples, record.times()
        dft = np.fft.rfft(x)
        bound = 1e-12 * math.sqrt(n * (x @ x))
        for m in sorted({1, 2, 7, n // 3, (n - 1) // 2, n // 2}):
            w = TWO_PI * m / (n * dt)
            sxs, sxc = estimate._peak_bin_sums(dft[m], w, start)
            assert abs(sxs - x @ np.sin(w * t)) <= bound, m
            assert abs(sxc - x @ np.cos(w * t)) <= bound, m

    def test_are_the_bin_itself_at_time_zero(self):
        x = tone(64, 0.05).samples
        bin7 = np.fft.rfft(x)[7]
        assert estimate._peak_bin_sums(bin7, TWO_PI * 7 / 64, 0.0) == (-bin7.imag, bin7.real)

    @pytest.mark.parametrize("start, dt", [(0.0, 1.0), (-2.3, 0.37)])
    def test_full_record_phases_match_the_direct_search(self, start, dt):
        config = sf.PipelineConfig(objective_range="full_record", skip_screen=True)
        searched = 0
        for n, f, sigma, seed in itertools.product((100, 1000), (0.05, 0.0537, 0.123),
                                                   (0.0, 0.5, 2.0), (0, 1)):
            record = tone(n, f / dt, start, dt, sigma, seed)
            report = sf.estimate_parameters(record, config)
            p = report.params
            obj = sf.PhaseObjective(record, p.amplitude, p.frequency_hz, "full_record")
            phi, value = sf.phase_grid_search(obj)
            assert (p.phase_rad, report.objective_value) == (sf.wrap_phase(phi), value)
            searched += 1
        assert searched >= 30


def reference_one_period_points(obj):
    """The one_period objective's points as a mask over every sample time."""
    t = obj.data.times()
    mask = (t >= 0.0) & (t <= 1.0 / obj.fixed_frequency_hz + 1e-12 * obj.data.dt)
    return t[mask], obj.data.samples[mask]


def window_cases():
    """Seeded (n, start, dt, f), plus windows that start at -0.0 or end on a sample."""
    rng = np.random.default_rng(8)
    for _ in range(2000):
        dt = float(rng.choice([1.0, 0.37, rng.uniform(1e-3, 5.0)]))
        start = float(rng.choice([0.0, -0.0, -2.3, rng.uniform(-60, 60), -dt * 7]))
        yield int(rng.integers(2, 300)), start, dt, float(rng.uniform(1e-3, 0.6) / dt)
    for n, dt, k in itertools.product((20, 21, 100), (1.0, 0.1, 0.37, 0.25), (1, 2, 19, 20)):
        for start in (0.0, -0.0, -3 * dt):
            yield n, start, dt, 1.0 / (k * dt)


class TestObjectiveWindow:
    def test_equals_the_mask(self):
        for n, start, dt, f in window_cases():
            obj = sf.PhaseObjective(sf.TimeSeries(start, dt, np.arange(n) + 0.5), 1.0, f)
            t, x = reference_one_period_points(obj)
            if t.size < 2:
                with pytest.raises(ValueError, match="full_record"):
                    objective_points(obj)
                continue
            got_t, got_x = objective_points(obj)
            assert got_t.tobytes() == t.tobytes(), (n, start, dt, f)
            assert got_x.tobytes() == x.tobytes(), (n, start, dt, f)

    def test_window_may_end_exactly_on_a_sample(self):
        obj = sf.PhaseObjective(tone(100, 0.05), AMPLITUDE, 0.05)
        t, _ = objective_points(obj)
        assert (t[0], t[-1], t.size) == (0.0, 20.0, 21)

    @pytest.mark.parametrize("start, n", [(100.0, 100), (-200.0, 100), (19.5, 100)])
    def test_fewer_than_two_samples_raise(self, start, n):
        # records that start after 1/f = 20, end before 0, or keep one sample
        record = tone(n, 0.05, start)
        obj = sf.PhaseObjective(record, AMPLITUDE, 0.05)
        with pytest.raises(ValueError, match=r"\[0, 1/f\].*full_record"):
            sf.phase_objective_value(obj, 0.0)
        with pytest.raises(ValueError, match=r"\[0, 1/f\].*full_record"):
            sf.phase_grid_search(obj)

    def test_pipeline_raises_and_full_record_still_estimates(self):
        record = tone(100, 0.05, start=100.0)
        with pytest.raises(ValueError, match=r"\[0, 1/f\].*full_record"):
            sf.estimate_parameters(record)
        report = sf.estimate_parameters(record, sf.PipelineConfig(objective_range="full_record"))
        assert report.params.frequency_hz == 0.05
        assert report.objective_value > 0.0


class TestIntegerTimeGrid:
    @pytest.mark.parametrize("objective_range", ["one_period", "full_record"])
    def test_estimates_as_the_float_grid(self, objective_range):
        x = tone(100, 0.025, start=3.0, dt=2.0).samples
        config = sf.PipelineConfig(objective_range=objective_range)
        as_int = sf.estimate_parameters(sf.TimeSeries(3, 2, x), config)
        as_float = sf.estimate_parameters(sf.TimeSeries(3.0, 2.0, x), config)
        assert as_int.params == as_float.params
        assert as_int.grid_phase == as_float.grid_phase
        payload = io.report_to_dict(as_int)
        assert json.dumps(payload) == json.dumps(io.report_to_dict(as_float))
        smoothed = payload["series"]["smoothed"]
        assert (smoothed["start_time_s"], smoothed["dt_s"]) == (11.0, 2.0)
        assert (type(smoothed["start_time_s"]), type(smoothed["dt_s"])) == (float, float)


class TestCrossingDirections:
    @pytest.mark.parametrize("records", [noisy_tone_series, plateau_series])
    def test_alternate(self, records):
        for series in records():
            _, directions = _zero_crossings(series)
            assert np.all(directions[1:] != directions[:-1])
            assert set(directions.tolist()) <= {1, -1}
