import itertools
import math
import tracemalloc

import numpy as np
import pytest

import sinefit as sf
from sinefit import estimate
from sinefit.estimate import (_choose_frequency, _zero_crossings, COARSE_STEP,
                              REFINE_STEP)
from conftest import AMPLITUDE, FREQUENCY, PHASE, PHASE_EXACT, SIGMA

TWO_PI = 2.0 * math.pi


def clean_record(params, n=100, dt=1.0):
    return sf.synthesize(params, sf.NoiseSpec(sigma=0.0, seed=0), n, dt=dt)


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

    def test_validation(self, demo_params):
        record = clean_record(demo_params)
        with pytest.raises(ValueError):
            sf.PhaseObjective(record, 0.0, FREQUENCY)
        with pytest.raises(ValueError):
            sf.PhaseObjective(record, AMPLITUDE, -1.0)
        with pytest.raises(ValueError):
            sf.PhaseObjective(record, AMPLITUDE, FREQUENCY, "whole_thing")


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
    t, x = estimate._objective_points(obj)
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


class TestObjectivePolynomial:
    @pytest.mark.parametrize("n", [100, 1000, 10_000])
    @pytest.mark.parametrize("t_range", ["one_period", "full_record"])
    def test_matches_the_brute_force_curve(self, n, t_range):
        coarse = np.arange(-math.pi, math.pi, COARSE_STEP)
        for obj in noisy_objectives(n, t_range, [(1.05, 0.99)]):
            curve = estimate._objective_polynomial(obj, *estimate._objective_points(obj))
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
        t, _ = estimate._objective_points(sf.PhaseObjective(record, 1.0, f, t_range))
        theta = 2.0 * TWO_PI * f
        sc2, ss2 = estimate._double_angle_sums(t, theta, dt)
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
            raw.append((t[i] + series.dt * (0.0 - a) / (b - a), 1))
        elif a >= 0.0 > b:
            raw.append((t[i] + series.dt * (0.0 - a) / (b - a), -1))
    states = np.where(s > h, 1, np.where(s < -h, -1, 0))
    confirmed = np.flatnonzero(states != 0)
    crossings = []
    for ia, ib in zip(confirmed[:-1], confirmed[1:]):
        if states[ia] == states[ib]:
            continue
        cluster = [rt for rt, _ in raw if t[ia] <= rt <= t[ib]]
        crossings.append((float(cluster[len(cluster) // 2]), int(states[ib])))
    return crossings


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

    def test_estimate_parameters_scans_once(self, noisy_series, monkeypatch):
        calls = []

        def counting(series):
            calls.append(series)
            return _zero_crossings(series)

        monkeypatch.setattr(estimate, "_zero_crossings", counting)
        report = sf.estimate_parameters(noisy_series(3))
        assert len(calls) == 1
        assert report.t_2pi is not None
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


class TestFrequencySelection:
    def test_spectrum_read_wins(self):
        f, source = _choose_frequency(
            {"fft": 0.05, "acf_arccos": 0.06, "ma_period": 0.048})
        assert (f, source) == (0.05, "fft")

    def test_falls_back_in_documented_order(self):
        f, source = _choose_frequency({"acf_arccos": 0.06, "ma_period": 0.048})
        assert (f, source) == (0.06, "acf_arccos")
        f, source = _choose_frequency({"ma_period": 0.048, "acf_period": 0.05})
        assert (f, source) == (0.048, "ma_period")

    def test_no_candidates_is_an_error(self):
        with pytest.raises(ValueError):
            _choose_frequency({"acf_arccos": 0.0})


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

    def test_cross_checks_are_populated(self, noisy_series):
        report = sf.estimate_parameters(noisy_series(3))
        assert report.frequency_source == "fft"
        assert "ma_period" in report.frequency_cross_checks_hz
        assert "acf_period" in report.frequency_cross_checks_hz
        assert report.frequency_cross_checks_hz["ma_period"] == pytest.approx(
            0.05, rel=0.2)

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
