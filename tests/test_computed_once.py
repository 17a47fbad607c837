"""Work that gives the same answer every time is done once: the phase
grid's trig tables per process, the gate-1 quantile per false-alarm rate,
the per-sample fit, its degeneracy test, the full-model ACF and the
cross-checks on first read, the median's selection and the record's
|DFT| per record; and arrays the pipeline has just made are frozen, not
copied.  A report stores only what decided the answer."""

import dataclasses
import importlib.util
import itertools
import math
import os
import warnings

import numpy as np
import pytest

import sinefit as sf
from sinefit import estimate, screening, smoothing
from sinefit.acf import _Record
from sinefit.estimate import COARSE_STEP, REFINE_STEP
from sinefit.model import SAMPLES_TOO_LARGE, check_finite
from sinefit.normal import normal_quantile


def assert_fresh_columns(table, phis):
    """The table holds ``phis`` and exp(i*phi), exp(2i*phi) whose real and
    imaginary parts are fresh cos and sin of phi and 2*phi, bit for bit."""
    assert table._fields == ("phis", "e1", "e2")
    assert table.phis.tobytes() == phis.tobytes()
    for column, angles in ((table.e1, phis), (table.e2, 2.0 * phis)):
        assert column.dtype == np.complex128 and column.shape == phis.shape
        assert column.real.tobytes() == np.cos(angles).tobytes()
        assert column.imag.tobytes() == np.sin(angles).tobytes()


class TestPhaseTables:
    def test_coarse_table_is_the_fresh_grid_bit_for_bit(self):
        coarse = np.arange(-math.pi, math.pi, COARSE_STEP)
        assert coarse.size == 629
        assert_fresh_columns(estimate._COARSE, coarse)

    def test_every_refine_table_is_the_fresh_grid_bit_for_bit(self):
        coarse = np.arange(-math.pi, math.pi, COARSE_STEP)
        for cell, phi0 in enumerate(coarse.tolist()):
            refine = np.arange(phi0 - COARSE_STEP, phi0 + COARSE_STEP + REFINE_STEP / 2,
                               REFINE_STEP)
            assert refine.size == 21
            assert_fresh_columns(estimate._refine_table(cell), refine)

    def test_tables_hold_40_bytes_per_grid_point(self):
        for table in (estimate._COARSE, estimate._refine_table(0)):
            assert sum(column.nbytes for column in table) == 40 * table.phis.size

    def test_refine_tables_are_built_once_and_kept(self):
        assert estimate._refine_table(100) is estimate._refine_table(100)
        assert estimate._refine_table.cache_info().currsize <= 629

    def test_tables_are_read_only(self):
        tables = [estimate._COARSE] + [estimate._refine_table(cell) for cell in range(629)]
        for table in tables:
            assert not any(column.flags.writeable for column in table)

    def test_curve_still_takes_any_array_and_leaves_it_writable(self, noisy_series):
        obj = sf.PhaseObjective(noisy_series(1), 2.0, 0.05)
        terms = estimate._objective_on_tables(obj.data, obj.fixed_amplitude,
                                              obj.fixed_frequency_hz, obj.t_range)

        def curve(table):
            return estimate._curve(table, *terms)

        phis = np.linspace(-3.0, 3.0, 7)
        values = curve(estimate._phase_table(phis))
        assert values.shape == (7,) and phis.flags.writeable
        fresh = curve(estimate._phase_table(estimate._COARSE.phis))
        assert fresh.tobytes() == curve(estimate._COARSE).tobytes()


def grid_outcome(record, config):
    """(grid phase, objective value, phase_grid_search's pair) of a record
    as float hex strings, or the message of the ``ValueError`` it raises."""
    try:
        report = sf.estimate_parameters(record, config)
        p = report.params
        search = sf.phase_grid_search(
            sf.PhaseObjective(record, p.amplitude, p.frequency_hz, config.objective_range))
        return [v.hex() for v in (report.grid_phase, report.objective_value, *search)]
    except ValueError as exc:
        return str(exc)


class TestObjectiveGeometry:
    def test_cache_is_capped_and_its_columns_are_short_and_read_only(self):
        estimate._geometry.cache_clear()
        kept = set()
        for i in range(200):  # 200 distinct grids; f = 1/4095 and 1/4096 on integer
            # times give one_period windows of 4,096 and 4,097 samples, 0.05 one of 21
            f = (1 / 4095, 1 / 4096, 0.05)[i % 3]
            for t_range in RANGES:
                g = estimate._geometry(-float(i), 1.0, 5000, f, t_range)
                columns = [c for c in (g.sin_wt, g.cos_wt) if c is not None]
                assert len(columns) in (0, 2)
                for column in columns:
                    assert not column.flags.writeable and column.size == g.hi - g.lo <= 4096
                kept.add((t_range, g.hi - g.lo, bool(columns)))
        assert estimate._geometry.cache_info().currsize <= 64
        assert kept == {("one_period", 21, True), ("one_period", 4096, True),
                        ("one_period", 4097, False), ("full_record", 5000, False)}

    def test_a_second_record_on_the_same_grid_takes_no_trig(self, noisy_series, monkeypatch):
        for cell in range(estimate._COARSE.phis.size):
            estimate._refine_table(cell)  # every refine table built, so none is built below
        estimate._geometry.cache_clear()
        first, record = sf.estimate_parameters(noisy_series(0)), noisy_series(1)
        calls = []
        for name in ("sin", "cos"):
            def counting(*args, _real=getattr(np, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(np, name, counting)
        second = sf.estimate_parameters(record)
        assert second.params.frequency_hz == first.params.frequency_hz
        assert calls == []

    def test_cold_and_warm_cache_give_the_same_phases_and_values(self):
        cases = []
        for n, t_range, start, dt, f_dt in itertools.product(
                (100, 101, 1000), RANGES, (0.0, -0.0, -3.7, 12.5), (1.0, 0.01), (0.05, 0.5)):
            # f*dt = 0.5 is the Nyquist bin of an even N: the double-angle sums' fallback;
            # start = -0.0 looks up the key of 0.0, which must give the same geometry
            params = sf.SinusoidParams(2.0, f_dt / dt, 1.0)
            config = sf.PipelineConfig(objective_range=t_range, skip_screen=True)
            for seed in range(2):
                cases.append((sf.synthesize(params, sf.NoiseSpec(0.5, seed), n, dt=dt,
                                            start=start), config))
        cold = []
        for record, config in cases:
            with pytest.MonkeyPatch.context() as patch:  # cleared before every lookup
                lookup = estimate._geometry
                patch.setattr(estimate, "_geometry",
                              lambda *key: (lookup.cache_clear(), lookup(*key))[1])
                cold.append(grid_outcome(record, config))
        warm = [(grid_outcome(record, config), grid_outcome(record, config))[1]
                for record, config in cases]
        assert cold == warm
        assert sum(isinstance(outcome, list) for outcome in warm) > len(cases) // 2


class TestModelAcfOnFirstRead:
    @pytest.mark.parametrize("max_lag", [None, 1, 99])
    def test_equals_model_acf_full_bit_for_bit(self, noisy_series, max_lag):
        record = noisy_series(3)
        report = sf.estimate_parameters(record, sf.PipelineConfig(max_lag=max_lag))
        p = report.params
        per_sample = sf.SinusoidParams(p.amplitude, p.frequency_hz * record.dt, p.phase_rad)
        expected = sf.model_acf_full(per_sample, max_lag or 50)
        assert report.model_acf.values.tobytes() == expected.values.tobytes()

    def test_computed_only_when_read_and_then_kept(self, noisy_series, monkeypatch):
        calls = []

        def counting(*args, _real=estimate.model_acf_full):
            calls.append(args)
            return _real(*args)

        monkeypatch.setattr(estimate, "model_acf_full", counting)
        report = sf.estimate_parameters(noisy_series(3))
        assert calls == []
        assert report.model_acf is report.model_acf
        assert len(calls) == 1

    def test_noise_report_has_none(self, pure_noise):
        report = sf.estimate_parameters(pure_noise(0, sigma=80.0), sf.PipelineConfig(far=0.001))
        assert report.params is None and report.model_acf is None
        assert report.model_params is None and report.delta_t is None

    @pytest.mark.parametrize("order", list(itertools.permutations(
        ("warnings", "model_params", "model_acf"))))
    def test_the_degeneracy_test_runs_once_on_first_read(self, noisy_series, monkeypatch,
                                                         order):
        calls = []

        def counting(*args, _real=estimate._coupling_and_denominator):
            calls.append(args)
            return _real(*args)

        monkeypatch.setattr(estimate, "_coupling_and_denominator", counting)
        report = sf.estimate_parameters(noisy_series(3))
        assert calls == []
        for name in order * 2:
            getattr(report, name)
        assert len(calls) == 1

    def test_degenerate_fit_gives_none_and_the_warning(self, noisy_series, monkeypatch):
        def degenerate(w, phi):
            raise sf.DegenerateParametersError("normalization denominator vanishes")

        cross_check_warnings = sf.estimate_parameters(noisy_series(0)).warnings
        assert cross_check_warnings  # the acf_arccos read disagrees on seed 0
        monkeypatch.setattr(estimate, "_coupling_and_denominator", degenerate)
        report = sf.estimate_parameters(noisy_series(0))
        assert report.params is not None
        assert report.model_acf is None
        # the warning comes after the cross-check warnings
        assert report.warnings == cross_check_warnings + (
            "full-model ACF is degenerate for the fitted parameters",)

    @pytest.mark.parametrize("frequency", [1e-9, 4e-8, 6.3e-8, 1e-7, 1e-3])
    @pytest.mark.parametrize("phase", [-math.pi, -math.pi + 1e-7, 0.0, 1e-6, 1.0])
    def test_normalizing_check_and_model_acf_agree_on_degeneracy(self, frequency, phase):
        # normalizing_constant and model_acf_full (whose values the pipeline
        # reads) must call the same parameters degenerate
        params = sf.SinusoidParams(1.0, frequency, phase)
        try:
            sf.normalizing_constant(params)
            degenerate = False
        except sf.DegenerateParametersError:
            degenerate = True
        if degenerate:
            with pytest.raises(sf.DegenerateParametersError):
                sf.model_acf_full(params, 5)
        else:
            assert sf.model_acf_full(params, 5).values[0] == pytest.approx(1.0)


class TestGate1Threshold:
    @pytest.mark.parametrize("far", [0.001, 0.01, 0.05, 0.2, 0.4999, np.float64(0.01)])
    def test_equals_the_normal_quantile(self, far):
        expected = normal_quantile(1.0 - far / 2.0)
        for n in (100, 20, 101):
            threshold, bound, required = screening._gate_constants(n, far)
            assert threshold == expected and type(threshold) is float
            assert bound == expected / math.sqrt(n) == sf.acf_bounds(n, far)
            assert required == screening.required_exceedances(n // 2)

    def test_quantile_is_taken_once_per_far(self, monkeypatch):
        calls = []

        def counting(p, _real=screening.normal_quantile):
            calls.append(p)
            return _real(p)

        caches = (screening._two_sided_quantile, screening._gate_constants)
        for cache in caches:
            cache.cache_clear()
        monkeypatch.setattr(screening, "normal_quantile", counting)
        try:
            for n in (20, 100, 1000):
                screening._gate_constants(n, 0.01)
                screening._gate_constants(n, 0.001)
        finally:
            for cache in caches:
                cache.cache_clear()
        assert calls == [1.0 - 0.01 / 2.0, 1.0 - 0.001 / 2.0]

    @pytest.mark.parametrize("far", [0.0, 0.5, -0.1, 0.7, math.nan])
    def test_bad_far_still_raises_after_a_good_one(self, far):
        screening._gate_constants(100, 0.01)
        with pytest.raises(ValueError, match="false-alarm rate"):
            screening._gate_constants(100, far)

    def test_short_record_still_raises_after_a_good_one(self):
        screening._gate_constants(100, 0.01)
        with pytest.raises(ValueError, match="at least 20 samples"):
            screening._gate_constants(19, 0.01)


class TestGate1Median:
    @pytest.mark.parametrize("n", [100, 101, 1000, 1001])
    def test_a_gate1_reject_makes_one_single_kth_partition(self, monkeypatch, n):
        calls = []

        def counting(a, kth, _real=screening._partitioned):
            calls.append(kth)
            return _real(a, kth)

        monkeypatch.setattr(screening, "_partitioned", counting)
        record = sf.TimeSeries(0.0, 1.0, np.random.default_rng(n).standard_normal(n))
        for run in (lambda: sf.screen(record), lambda: sf.estimate_parameters(record)):
            calls.clear()
            run()
            assert len(calls) == 1
            assert isinstance(calls[0], (int, np.integer))
        assert sf.screen(record).gate_failed == "gate1"


def work_arrays(work):
    return {"dft": work.dft, "magnitudes": work.magnitudes, "acf": work.acf.values}


def report_arrays(report):
    return {"acf": report.acf.values, "spectrum": report.spectrum.magnitudes,
            "smoothed": report.smoothed.series.samples,
            "model_acf": report.model_acf.values}


@pytest.fixture
def screened(monkeypatch):
    """The working sets the estimator's screen judges, in call order."""
    works = []

    def recording(work, far, _real=estimate._screen):
        works.append(work)
        return _real(work, far)

    monkeypatch.setattr(estimate, "_screen", recording)
    return works


class TestOneModulusPerRecord:
    """The screen's |X| is the spectrum's magnitudes and the ACF's power."""

    @pytest.mark.parametrize("seed", range(5))
    def test_spectrum_is_the_screens_modulus(self, noisy_series, screened, seed):
        record = noisy_series(seed)
        report = sf.estimate_parameters(record)
        [work] = screened
        assert report.spectrum.magnitudes is work.magnitudes
        assert report.acf is work.acf
        expected = np.abs(np.fft.rfft(record.samples))
        assert report.spectrum.magnitudes.tobytes() == expected.tobytes()
        assert report.spectrum.magnitudes.tobytes() == \
            sf.dft_magnitude(record).magnitudes.tobytes()

    @pytest.mark.parametrize("config", [sf.PipelineConfig(),
                                        sf.PipelineConfig(skip_screen=True, max_lag=7),
                                        sf.PipelineConfig(objective_range="full_record")])
    @pytest.mark.parametrize("n", [100, 101, 1000])
    def test_report_acf_is_circular_acf(self, noisy_series, config, n):
        record = noisy_series(1, n=n)
        report = sf.estimate_parameters(record, config)
        assert report.acf.values.tobytes() == sf.circular_acf(record).values.tobytes()

    def test_gate1_record_under_skip_screen_takes_its_own_pair(self, pure_noise, screened):
        record = pure_noise(0)
        report = sf.estimate_parameters(record, sf.PipelineConfig(skip_screen=True))
        assert report.screening.gate_failed == "gate1"
        [work] = screened
        assert report.work is work
        assert report.spectrum.magnitudes.tobytes() == \
            np.abs(np.fft.rfft(record.samples)).tobytes()
        assert report.acf.values.tobytes() == sf.circular_acf(record).values.tobytes()

    @pytest.mark.parametrize("n", [20, 21, 64, 99, 100, 1000, 1001])
    def test_acf_is_the_inverse_transform_of_the_squared_modulus(self, n):
        # the former expression, from np.abs(dft) taken by the ACF itself
        x = np.random.default_rng(n).standard_normal(n) + np.sin(0.3 * np.arange(n))
        power = np.abs(np.fft.rfft(x)) ** 2
        power[0] = 0.0
        sums = np.fft.irfft(power, n)
        expected = sums / float(sums[0])
        got = sf.circular_acf(sf.TimeSeries(0.0, 1.0, x)).values
        assert got.tobytes() == expected.tobytes()

    def test_decisions_compare_by_their_statistics_alone(self, noisy_series):
        record = noisy_series(2)
        one, other = _Record(record), _Record(record)
        first, second = screening._screen(one, 0.01), screening._screen(other, 0.01)
        assert one.magnitudes is not other.magnitudes
        assert first == second and hash(first) == hash(second)
        assert "magnitudes" not in repr(first)


class TestFrozenNotCopied:
    @pytest.mark.parametrize("config", [sf.PipelineConfig(),
                                        sf.PipelineConfig(skip_screen=True, max_lag=3),
                                        sf.PipelineConfig(objective_range="full_record")])
    def test_every_array_of_a_report_and_its_working_set_is_read_only(self, noisy_series,
                                                                       screened, config):
        report = sf.estimate_parameters(noisy_series(4), config)
        arrays = report_arrays(report)
        arrays.update(("work." + name, value)
                      for name, value in work_arrays(screened[0]).items())
        for name, array in arrays.items():
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_gate1_skip_screen_report_is_read_only(self, pure_noise):
        report = sf.estimate_parameters(pure_noise(0), sf.PipelineConfig(skip_screen=True))
        for name, array in report_arrays(report).items():
            assert not array.flags.writeable, name

    def test_public_stage_results_are_read_only(self, noisy_series):
        record = noisy_series(5)
        arrays = [sf.moving_average(record, 5).series.samples,
                  sf.dft_magnitude(record).magnitudes,
                  sf.circular_acf(record).values, sf.circular_acf(record, 4).values]
        arrays += work_arrays(_Record(record)).values()
        for array in arrays:
            assert not array.flags.writeable

    def test_a_frozen_view_cannot_be_made_writable(self, noisy_series):
        values = sf.circular_acf(noisy_series(5), 4).values
        assert values.base is not None and not values.base.flags.writeable
        with pytest.raises(ValueError):
            values.setflags(write=True)

    def test_smoothed_samples_are_the_filter_output(self, noisy_series):
        record = noisy_series(6)
        expected = np.convolve(record.samples, np.ones(5), mode="valid") / 5
        smoothed = sf.moving_average(record, 5).series
        assert smoothed.samples.tobytes() == expected.tobytes()
        assert smoothed.start_time == 4.0 and smoothed.dt == 1.0

    @pytest.mark.parametrize("writable", [True, False])
    def test_public_constructors_do_not_alias_the_callers_array(self, writable):
        made = [lambda a: (sf.TimeSeries(0.0, 1.0, a), "samples"),
                lambda a: (sf.AcfSeries(a), "values"),
                lambda a: (sf.Spectrum(0.1, a), "magnitudes")]
        for make in made:
            given = np.linspace(1.0, 2.0, 8)
            given.setflags(write=writable)
            instance, name = make(given)
            kept = getattr(instance, name)
            assert kept is not given and not np.shares_memory(kept, given)
            assert not kept.flags.writeable
            if writable:
                given[0] = 99.0
                assert kept[0] == 1.0


STORED_FIELDS = ["params", "screening", "work", "config", "grid_phase", "smoothed"]
FIRST_READ = {"report": ("spectrum", "objective_value", "model_params", "model_acf", "_cross"),
              "work": ("dft", "magnitudes", "acf")}


@pytest.fixture
def adopted(monkeypatch):
    """The classes ``estimate`` builds through ``model._adopt``, in call order."""
    classes = []

    def recording(cls, _real=estimate._adopt, **fields):
        classes.append(cls)
        return _real(cls, **fields)

    monkeypatch.setattr(estimate, "_adopt", recording)
    return classes


class TestReportStoresWhatDecided:
    def test_the_stored_fields(self):
        assert [f.name for f in dataclasses.fields(sf.EstimationReport)] == STORED_FIELDS
        assert [f.name for f in dataclasses.fields(_Record)] == ["record"]
        assert [f.name for f in dataclasses.fields(sf.SmoothedSeries)] == ["window_k", "series"]

    @pytest.mark.parametrize("config", [sf.PipelineConfig(), sf.PipelineConfig(
        ma_k=3, objective_range="full_record", max_lag=7, skip_screen=True)])
    def test_the_config_is_kept_and_read(self, noisy_series, config):
        record = noisy_series(2)
        report = sf.estimate_parameters(record, config)
        assert report.config is config
        assert report.objective_range == config.objective_range
        assert report.smoothing_k == config.ma_k == report.smoothed.window_k
        assert report.max_lag == (config.max_lag or len(record) // 2)

    def test_reading_params_builds_no_spectrum(self, noisy_series, adopted):
        report = sf.estimate_parameters(noisy_series(3))
        assert report.params is not None
        assert "spectrum" not in vars(report) and sf.Spectrum not in adopted
        spectrum = report.spectrum
        assert adopted.count(sf.Spectrum) == 1 and report.spectrum is spectrum

    @pytest.mark.parametrize("dt", [1.0, 0.37, 1e-300])
    @pytest.mark.parametrize("n", [100, 101])
    def test_the_spectrum_is_the_working_sets(self, dt, n):
        record = sf.synthesize(sf.SinusoidParams(2.0, 0.05 / dt, 0.6109),
                               sf.NoiseSpec(0.5, n), n, dt=dt)
        report = sf.estimate_parameters(record, sf.PipelineConfig(skip_screen=True))
        assert report.spectrum.magnitudes is report.work.magnitudes
        df = sf.dft_magnitude(record).df
        assert report.spectrum.df.hex() == df.hex() == report.work.df.hex()
        assert report.params.frequency_hz == sf.fundamental_frequency(report.spectrum)

    @pytest.mark.parametrize("ma_k", [1, 5])
    def test_a_noise_report_derives_the_defaults(self, pure_noise, ma_k):
        config = sf.PipelineConfig(far=0.001, ma_k=ma_k, max_lag=9)
        report = sf.estimate_parameters(pure_noise(0, sigma=80.0), config)
        assert report.params is None and report.config is config
        assert (report.objective_range, report.max_lag, report.spectrum) == (None, None, None)
        assert report.smoothing_k == ma_k

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("ma_k", [1, 5])
    def test_derived_fields_read_what_the_fit_gives(self, noisy_series, seed, ma_k):
        record = noisy_series(seed)
        report = sf.estimate_parameters(record, sf.PipelineConfig(ma_k=ma_k))
        p = report.params
        assert report.frequency_source == "fft"
        assert report.delta_t == p.time_delay()
        assert report.model_params == sf.SinusoidParams(p.amplitude,
                                                        p.frequency_hz * record.dt, p.phase_rad)
        assert p.amplitude == sf.amplitude_estimate(report.smoothed)
        # the crossing scan takes the range itself: the amplitude's, bit for bit
        s = report.smoothed.series.samples
        assert s.max() - s.min() == 2.0 * p.amplitude

    @pytest.mark.parametrize("read_first", [False, True])
    def test_first_read_attributes_cannot_be_assigned(self, noisy_series, read_first):
        report = sf.estimate_parameters(noisy_series(3))
        for owner, names in FIRST_READ.items():
            instance = report if owner == "report" else report.work
            for name in names:
                if read_first:
                    kept = getattr(instance, name)
                with pytest.raises(AttributeError):
                    setattr(instance, name, None)
                if read_first:
                    assert getattr(instance, name) is kept
        for name in ("frequency_source", "delta_t"):
            with pytest.raises(AttributeError):
                setattr(report, name, None)


CROSS_CHECK_FIELDS = ("frequency_cross_checks_hz", "t_2pi", "phase_cross_checks", "warnings")


@pytest.fixture
def scans(monkeypatch):
    """The records the crossing scan runs on, one entry per scan."""
    calls = []

    def counting(series, *args, _real=estimate._zero_crossings):
        calls.append(series)
        return _real(series, *args)

    monkeypatch.setattr(estimate, "_zero_crossings", counting)
    return calls


@pytest.fixture
def residual_sums(monkeypatch):
    """The phases the direct residual sum is taken at, one entry per sum."""
    phases = []

    def counting(obj, t, x, phi, _real=estimate._residual_sum):
        phases.append(phi)
        return _real(obj, t, x, phi)

    monkeypatch.setattr(estimate, "_residual_sum", counting)
    return phases


@pytest.fixture
def arange_sizes(monkeypatch):
    """The size of every array ``np.arange`` builds, anywhere."""
    sizes = []

    def counting(*args, _real=np.arange, **kwargs):
        out = _real(*args, **kwargs)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(np, "arange", counting)
    return sizes


def same_outputs_inputs():
    """``scripts/same_outputs.py``'s inputs and configs."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "same_outputs", os.path.join(root, "scripts", "same_outputs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.inputs()), module.CONFIGS


class TestCrossChecksOnFirstRead:
    def test_no_scan_before_a_field_is_read(self, noisy_series, scans):
        report = sf.estimate_parameters(noisy_series(3))
        assert report.params is not None and report.objective_value is not None
        assert report.model_acf is not None and report.acf is not None
        assert scans == []

    def test_repr_computes_nothing(self, noisy_series, scans, residual_sums):
        report = sf.estimate_parameters(noisy_series(3))
        text = repr(report)
        assert scans == [] and residual_sums == [] and list(vars(report)) == STORED_FIELDS
        assert "warnings" not in text and "objective_value" not in text
        report.warnings
        report.objective_value
        assert repr(report) == text

    @pytest.mark.parametrize("order", list(itertools.permutations(CROSS_CHECK_FIELDS)))
    def test_one_scan_for_every_read_in_any_order(self, noisy_series, scans, order):
        report = sf.estimate_parameters(noisy_series(3))
        first = {name: getattr(report, name) for name in order}
        for name in order * 2:
            assert getattr(report, name) is first[name]
        assert len(scans) == 1 and scans[0] is report.smoothed.series

    def test_noise_report_gives_the_defaults(self, pure_noise, scans):
        report = sf.estimate_parameters(pure_noise(0, sigma=80.0), sf.PipelineConfig(far=0.001))
        assert report.params is None
        assert [getattr(report, name) for name in CROSS_CHECK_FIELDS] == [{}, None, {}, ()]
        assert scans == []

    def test_fields_are_read_only(self, noisy_series):
        report = sf.estimate_parameters(noisy_series(3))
        for name in CROSS_CHECK_FIELDS:
            with pytest.raises(AttributeError):
                setattr(report, name, None)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("ma_k", [1, 5])
    def test_values_are_those_of_the_public_stages(self, noisy_series, seed, ma_k):
        report = sf.estimate_parameters(noisy_series(seed), sf.PipelineConfig(ma_k=ma_k))
        t_2pi = sf.detect_t2pi(report.smoothed)
        assert report.t_2pi == t_2pi
        _, crossover = sf.phase_from_crossover(1.0 / report.params.frequency_hz, t_2pi)
        assert report.phase_cross_checks == {"crossover": sf.wrap_phase(crossover)}
        r2 = sf.circular_acf(noisy_series(seed), 50).values[2]
        assert report.frequency_cross_checks_hz["acf_arccos"] == sf.frequency_from_acf(r2, 2)

    def test_reading_never_raises_on_the_same_outputs_inputs(self):
        inputs, configs = same_outputs_inputs()
        assert any("dt=max/100" in name for name, _ in inputs)
        read = 0
        for (name, record), config in itertools.product(inputs, configs.values()):
            try:
                report = sf.estimate_parameters(record, config)
            except ValueError:
                continue  # raised by the estimate itself, before any field exists
            values = [getattr(report, field) for field in CROSS_CHECK_FIELDS]
            assert isinstance(values[3], tuple), name
            read += report.params is not None
        assert read > 200


def built_objects(report):
    """The objects ``estimate_parameters`` built for ``report``, the report first."""
    objects = [report, report.screening, report.params, report.smoothed,
               report.smoothed and report.smoothed.series, report.spectrum,
               report.work.__dict__.get("acf")]
    return [obj for obj in objects if obj is not None]


class TestOneConstructionPath:
    """Every object the pipeline builds through ``model._adopt`` is the one
    its public constructor builds from the same field values."""

    @pytest.mark.parametrize("config_name", ["default", "full_record", "ma_k=1", "skip_screen"])
    def test_adopted_objects_match_the_public_constructors(self, config_name):
        inputs, configs = same_outputs_inputs()
        kinds = set()
        for name, record in inputs:
            try:
                report = sf.estimate_parameters(record, configs[config_name])
            except ValueError:
                continue
            for obj in built_objects(report):
                cls = type(obj)
                kinds.add(cls.__name__)
                names = [f.name for f in dataclasses.fields(cls)]
                # the report's first-read values land in its __dict__ after the fields
                stored = [key for key in vars(obj) if key not in FIRST_READ["report"]]
                assert stored == names, (name, cls)
                values = {field: getattr(obj, field) for field in names}
                twin = cls(**values)
                assert repr(obj) == repr(twin), (name, cls)
                if cls.__dataclass_params__.eq:
                    assert obj == twin and hash(obj) == hash(twin), (name, cls)
                for field, value in values.items():
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        setattr(obj, field, value)
                    if isinstance(value, np.ndarray):
                        assert not value.flags.writeable, (name, cls, field)
        assert kinds == {"EstimationReport", "ScreeningDecision", "SinusoidParams",
                         "SmoothedSeries", "TimeSeries", "Spectrum", "AcfSeries"}


RANGES = ["one_period", "full_record"]


def edge_phase_records():
    """Tones whose phase sits within 0.006 rad of +-pi, where the refine grid
    of the first or last coarse cell steps past +-pi."""
    for phase, seed in itertools.product((math.pi - 0.0005, math.pi - 0.003, math.pi - 0.006,
                                          -math.pi + 0.0005, -math.pi + 0.003), range(4)):
        yield sf.synthesize(sf.SinusoidParams(2.0, 0.05, phase), sf.NoiseSpec(0.1, seed), 100)


class TestObjectiveValueOnFirstRead:
    @pytest.mark.parametrize("objective_range", RANGES)
    def test_no_residual_sum_and_no_time_axis_before_the_read(
            self, noisy_series, residual_sums, arange_sizes, objective_range):
        record = noisy_series(3, n=1000)
        arange_sizes.clear()  # synthesize built the tone's time axis
        report = sf.estimate_parameters(record, sf.PipelineConfig(objective_range=objective_range))
        assert report.params is not None and residual_sums == []
        assert len(record) not in arange_sizes
        value = report.objective_value
        assert residual_sums == [report.grid_phase] and value > 0.0
        assert report.objective_value is value and len(residual_sums) == 1
        if objective_range == "full_record":
            assert arange_sizes.count(len(record)) == 1

    @pytest.mark.parametrize("objective_range", RANGES)
    def test_edge_phases_give_the_grid_search_value_bit_for_bit(self, objective_range):
        config = sf.PipelineConfig(objective_range=objective_range)
        wrapped = 0
        for record in edge_phase_records():
            report = sf.estimate_parameters(record, config)
            p = report.params
            obj = sf.PhaseObjective(record, p.amplitude, p.frequency_hz, objective_range)
            assert (report.grid_phase, report.objective_value) == sf.phase_grid_search(obj)
            assert p.phase_rad == sf.wrap_phase(report.grid_phase)
            wrapped += report.grid_phase != p.phase_rad
        assert wrapped > 0  # the raw phase, not the wrapped one, gives the value

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_nyquist_tone_under_full_record_gives_the_grid_search_value(self, sigma):
        # f*dt = 0.5: the double-angle sums take their direct fallback over the time axis
        record = sf.synthesize(sf.SinusoidParams(2.0, 0.5, 1.0), sf.NoiseSpec(sigma, 0), 100)
        report = sf.estimate_parameters(record, sf.PipelineConfig(objective_range="full_record"))
        p = report.params
        assert p.frequency_hz == 0.5
        u = 2.0 * sf.model.TWO_PI * p.frequency_hz * record.dt / 2.0
        assert abs(math.sin(u)) < estimate._MIN_SIN_RATIO * abs(u)
        obj = sf.PhaseObjective(record, p.amplitude, p.frequency_hz, "full_record")
        assert (report.grid_phase, report.objective_value) == sf.phase_grid_search(obj)

    def test_noise_report_has_none(self, pure_noise, residual_sums):
        report = sf.estimate_parameters(pure_noise(0, sigma=80.0), sf.PipelineConfig(far=0.001))
        assert report.params is None and report.grid_phase is None
        assert report.objective_value is None and residual_sums == []


class TestDirectPath:
    """The estimator calls the phase search's and MA-k's unchecked cores: it
    builds no ``PhaseObjective``, checks the MA-k window once per record and
    smooths with a read-only slice of one all-ones array."""

    @pytest.mark.parametrize("objective_range", RANGES)
    def test_an_estimate_builds_no_phase_objective(self, noisy_series, monkeypatch,
                                                   objective_range):
        built = []
        adopt, post_init = estimate._adopt, sf.PhaseObjective.__post_init__
        monkeypatch.setattr(estimate, "_adopt",
                            lambda cls, **fields: (built.append(cls), adopt(cls, **fields))[1])
        monkeypatch.setattr(sf.PhaseObjective, "__post_init__",
                            lambda self: (built.append(type(self)), post_init(self))[1])
        config = sf.PipelineConfig(objective_range=objective_range)
        for seed in range(3):
            assert sf.estimate_parameters(noisy_series(seed), config).params is not None
        assert built == [sf.SinusoidParams, sf.EstimationReport] * 3

    def test_the_window_is_checked_once_per_record(self, noisy_series, pure_noise, monkeypatch):
        calls = []

        def counting(k, n, _check=smoothing._check_window):
            calls.append((k, n))
            _check(k, n)

        monkeypatch.setattr(smoothing, "_check_window", counting)
        monkeypatch.setattr(estimate, "_check_window", counting)
        reports = [sf.estimate_parameters(noisy_series(seed)) for seed in range(3)]
        reports.append(sf.estimate_parameters(pure_noise(0, sigma=80.0),
                                              sf.PipelineConfig(far=0.001)))
        assert [report.params is None for report in reports] == [False, False, False, True]
        assert calls == [(5, 100)] * 4
        with pytest.raises(ValueError, match="window 101 exceeds record length 100"):
            sf.estimate_parameters(noisy_series(0), sf.PipelineConfig(ma_k=101))
        assert calls[4:] == [(101, 100)]

    def test_the_kernel_is_a_read_only_slice_of_one_array(self, noisy_series, monkeypatch):
        record, long_record = noisy_series(0), noisy_series(0, n=5000)
        sizes, kernels = [], []
        ones, correlate = np.ones, smoothing._correlate
        monkeypatch.setattr(np, "ones", lambda k: (sizes.append(k), ones(k))[1])
        monkeypatch.setattr(smoothing, "_correlate",
                            lambda x, kernel, mode: (kernels.append(kernel),
                                                     correlate(x, kernel, mode))[1])
        for k in (5, 5, 3, 1, 40, 4096):
            sf.moving_average(long_record, k)
        sf.estimate_parameters(record)
        assert sizes == []  # no window up to 4,096 builds a kernel
        assert [kernel.size for kernel in kernels] == [5, 5, 3, 1, 40, 4096, 5]
        for kernel in kernels:
            assert kernel.base is smoothing._ONES and not kernel.flags.writeable
            assert kernel.tolist() == [1.0] * kernel.size
        assert not smoothing._ONES.flags.writeable and smoothing._ONES.size == 4096
        with pytest.raises(ValueError, match="window must be an integer, got 5.0"):
            sf.moving_average(record, 5.0)
        del kernels[:]
        for _ in range(2):  # past the array's size, each call builds its own kernel
            sf.moving_average(long_record, 4097)
        assert sizes == [4097, 4097] and kernels[0] is not kernels[1]
        assert all(kernel.tolist() == [1.0] * 4097 for kernel in kernels)


def at_the_sample_limit(n):
    """Records whose max|x| is exactly sqrt(float max)/(2n): the largest accepted."""
    m = math.sqrt(np.finfo(float).max) / 2.0 / n
    k = np.arange(n)
    return {"alternating": np.where(k % 2 == 0, m, -m),
            "one_flipped": np.where(k == 0, -m, m),
            "tone": m * (np.sin(0.3 * k) / np.abs(np.sin(0.3 * k)).max()),
            "random_signs": np.where(np.random.default_rng(n).random(n) < 0.5, m, -m),
            "bin_one": m * np.cos(2.0 * math.pi * k / n),
            "ramp": m * (2.0 * k / (n - 1) - 1.0),
            "square": np.where(k < n // 2, m, -m)}


class TestErrorGuards:
    """Once a record passed check_finite, neither the forward transform nor
    the ACF's squares and inverse transform need a floating-point error
    guard."""

    @pytest.mark.parametrize("n", [2, 3, 6, 10, 18, 20, 100, 101, 1000, 4097])
    def test_forward_transform_at_the_sample_limit_warns_nothing(self, n):
        for name, x in at_the_sample_limit(n).items():
            record = sf.TimeSeries(0.0, 1.0, x)
            check_finite(record)  # accepted
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                spec = sf.dft_magnitude(record)
            assert np.isfinite(spec.magnitudes).all(), name

    def test_the_limit_is_what_keeps_the_acf_finite(self):
        # at twice the limit (sqrt(float max)/n) the power spectrum overflows
        overflowed = {1.0: 0, 2.0: 0}
        for factor in overflowed:
            for n in (6, 10, 12, 18, 20):
                for x in at_the_sample_limit(n).values():
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        try:
                            power = np.abs(np.fft.rfft(factor * x)) ** 2
                            np.fft.irfft(power, n)
                        except RuntimeWarning:
                            overflowed[factor] += 1
        assert overflowed[1.0] == 0 and overflowed[2.0] > 0

    def test_no_record_at_the_limit_is_too_large_and_one_ulp_above_is(self):
        config = sf.PipelineConfig(ma_k=1, skip_screen=True)
        consumers = (sf.circular_acf, sf.screen,
                     lambda record: sf.estimate_parameters(record, config))
        for n in [*range(2, 130), 1000, 4096, 4097, 65536]:
            for name, x in at_the_sample_limit(n).items():
                record = sf.TimeSeries(0.0, 1.0, x)
                for consumer in consumers:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        try:
                            consumer(record)
                        except ValueError as exc:  # too short, constant, one-sided
                            assert str(exc) != SAMPLES_TOO_LARGE, (n, name)
                i = int(np.abs(x).argmax())
                assert abs(x[i]) == math.sqrt(np.finfo(float).max) / 2.0 / n, (n, name)
                above = x.copy()
                above[i] = math.copysign(math.nextafter(abs(x[i]), math.inf), x[i])
                with pytest.raises(ValueError, match="samples too large"):
                    check_finite(sf.TimeSeries(0.0, 1.0, above))

    @pytest.mark.parametrize("n", [6, 10, 12, 18, 20, 100])
    def test_acf_consumers_at_the_sample_limit_warn_nothing(self, n):
        for x in at_the_sample_limit(n).values():
            record = sf.TimeSeries(0.0, 1.0, x)
            for consumer in (sf.circular_acf, sf.screen, sf.estimate_parameters):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        consumer(record)
                    except ValueError:
                        pass  # a clean rejection; a RuntimeWarning would raise here
