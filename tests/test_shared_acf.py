"""One finite check and one transform per record: each record's working
set (``acf._Record``) checks it on construction and computes the DFT and
the circular ACF from it on first read, and the screen and every consumer
read that working set."""

import csv
import dataclasses
import importlib.util
import math
import os
import sys
import warnings

import numpy as np
import pytest

import sinefit as sf
from sinefit import acf, io, model, screening, smoothing
from sinefit.cli import main
from sinefit.model import standard_normal_draws


def run_main(args):
    """Exit code of one in-process ``sinefit`` run (its output stays captured)."""
    try:
        main(args)
    except SystemExit as exc:
        return exc.code
    return 0


def signal_record():
    return sf.synthesize(sf.SinusoidParams(2.0, 0.05, 0.6109), sf.NoiseSpec(0.5, 3), 100)


def gate1_record():
    """sigma = 80 white noise: the runs test calls it random at far = 0.001."""
    return sf.TimeSeries(0.0, 1.0, 80.0 * standard_normal_draws(0, 100))


def gate2_record():
    """AR(1), rho = 0.3: not random by the runs test, too few ACF lags out."""
    e = standard_normal_draws(2, 100)
    x = np.empty_like(e)
    x[0] = e[0]
    for i in range(1, e.size):
        x[i] = 0.3 * x[i - 1] + e[i]
    return sf.TimeSeries(0.0, 1.0, x)


def short_record():
    return sf.synthesize(sf.SinusoidParams(2.0, 0.05, 0.6109), sf.NoiseSpec(0.5, 1), 12)


RECORDS = {"signal": (signal_record, 0.01, "none"),
           "gate1": (gate1_record, 0.001, "gate1"),
           "gate2": (gate2_record, 0.01, "gate2")}


def count_calls(monkeypatch, module, names):
    """Wrap each attribute of ``module`` named in ``names`` in a counter;
    the call counts, keyed by the name ``names`` maps the attribute to."""
    calls = {name: 0 for name in names.values()}
    for attribute, name in names.items():
        def counting(*args, _real=getattr(module, attribute), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, attribute, counting)
    return calls


@pytest.fixture
def transforms(monkeypatch):
    """Count forward and inverse real FFTs through the working set's two transforms."""
    return count_calls(monkeypatch, acf, {"_rfft": "rfft", "_irfft": "irfft"})


@pytest.fixture
def wrapper_calls(monkeypatch):
    """Count calls through ``np.fft.rfft`` and ``np.fft.irfft``."""
    return count_calls(monkeypatch, np.fft, {"rfft": "rfft", "irfft": "irfft"})


def read_rows(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_stop_where_named(name):
    make, far, gate = RECORDS[name]
    assert sf.screen(make(), far).gate_failed == gate


class TestScreenReadsTheWorkingSet:
    @pytest.mark.parametrize("name", ["signal", "gate2"])
    def test_acf_is_the_full_lag_circular_acf(self, transforms, name):
        make, far, _ = RECORDS[name]
        record = make()
        work = acf._Record(record)
        screening._screen(work, far)
        values = work.acf.values
        assert transforms == ONE_PAIR  # gate 2 computed it; the read kept it
        expected = sf.circular_acf(record).values
        assert values.size == len(record)
        assert np.array_equal(values, expected)
        assert values.tobytes() == expected.tobytes()

    def test_no_transform_after_a_gate1_reject(self, transforms):
        decision = screening._screen(acf._Record(gate1_record()), 0.001)
        assert decision.gate_failed == "gate1"
        assert transforms == {"rfft": 0, "irfft": 0}

    def test_decision_holds_only_its_nine_statistics(self):
        decision = screening._screen(acf._Record(signal_record()), 0.01)
        assert [f.name for f in dataclasses.fields(decision)] == [
            "runs_statistic", "runs_count", "n_above", "n_below",
            "acf_exceedances", "acf_bound", "far", "verdict", "gate_failed"]
        assert decision == sf.screen(signal_record())


ONE_PAIR = {"rfft": 1, "irfft": 1}
GUFUNCS = importlib.util.find_spec("numpy.fft._pocketfft_umath") is not None


@pytest.mark.skipif(not GUFUNCS, reason="this numpy has no pocketfft gufunc module")
@pytest.mark.parametrize("consumer", [sf.screen, sf.estimate_parameters])
def test_transforms_bypass_the_np_fft_wrappers(transforms, wrapper_calls, consumer):
    consumer(signal_record())
    assert transforms == ONE_PAIR
    assert wrapper_calls == {"rfft": 0, "irfft": 0}


# numpy 2.0 on: the working set's transforms, the screen's counts and MA-k
# call numpy's C entry points, not the Python wrappers around them
C_ENTRY_POINTS = (GUFUNCS and screening._count_nonzero is not np.count_nonzero
                  and smoothing._correlate is not np.correlate)
WRAPPERS = ("partition", "count_nonzero", "correlate", "empty_like")


@pytest.mark.skipif(not C_ENTRY_POINTS, reason="this numpy has no pocketfft gufunc module or "
                    "no numpy._core.multiarray, so the library falls back to the wrappers")
@pytest.mark.parametrize("name", sorted(RECORDS))
def test_default_path_makes_no_wrapper_call(monkeypatch, name):
    make, far, gate = RECORDS[name]
    record = make()
    calls = count_calls(monkeypatch, np, {wrapper: wrapper for wrapper in WRAPPERS})
    report = sf.estimate_parameters(record, sf.PipelineConfig(far=far))
    assert report.screening.gate_failed == gate
    assert calls == dict.fromkeys(WRAPPERS, 0)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_estimate_parameters_never_calls_len(monkeypatch, name):
    make, far, gate = RECORDS[name]
    record = make()
    calls = count_calls(monkeypatch, model.TimeSeries, {"__len__": "len"})
    report = sf.estimate_parameters(record, sf.PipelineConfig(far=far))
    assert report.screening.gate_failed == gate
    assert calls == {"len": 0}


def load_without(name, blocked):
    """A second copy of the package, imported as ``name`` while the module
    ``blocked`` cannot be imported."""
    package = os.path.dirname(sf.__file__)
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, blocked, None)
        patch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    return module


def unload(name):
    for loaded in [loaded for loaded in sys.modules if loaded.startswith(name + ".")]:
        del sys.modules[loaded]


def load_without_gufuncs():
    """The package without ``numpy.fft._pocketfft_umath``: its working set
    transforms through ``np.fft.rfft`` and ``np.fft.irfft``."""
    return load_without("sinefit_np_fft", "numpy.fft._pocketfft_umath")


@pytest.fixture(scope="module")
def np_fft_acf():
    yield load_without_gufuncs().acf
    unload("sinefit_np_fft")


@pytest.fixture(scope="module")
def numpy_1_copy():
    """The package as numpy < 2 imports it, without ``numpy._core.multiarray``:
    MA-k and the screen's counts call ``np.correlate`` and ``np.count_nonzero``."""
    yield load_without("sinefit_numpy_1", "numpy._core.multiarray")
    unload("sinefit_numpy_1")


def fallback_records(n):
    """Ten demo tones, five white-noise and five AR(1) records of N samples."""
    for seed in range(10):
        yield sf.synthesize(sf.SinusoidParams(2.0, 0.05, 0.6109), sf.NoiseSpec(0.5, seed), n).samples
    for seed in range(5):
        yield standard_normal_draws(seed, n)
        e = standard_normal_draws(100 + seed, n)
        for i in range(1, n):
            e[i] += 0.3 * e[i - 1]
        yield e


@pytest.mark.parametrize("n", [100, 101, 1000])
def test_numpy_1_fallback_gives_the_same_outputs(numpy_1_copy, n):
    assert numpy_1_copy.model._correlate is np.correlate
    assert numpy_1_copy.model._count_nonzero is np.count_nonzero
    gates = set()
    for x in fallback_records(n):
        ours = sf.estimate_parameters(sf.TimeSeries(0.0, 1.0, x))
        theirs = numpy_1_copy.estimate_parameters(numpy_1_copy.TimeSeries(0.0, 1.0, x))
        assert vars(theirs.screening) == vars(ours.screening)
        gates.add(ours.screening.gate_failed)
        assert theirs.grid_phase == ours.grid_phase
        if ours.params is None:
            assert theirs.params is None and theirs.smoothed is None
            continue
        assert vars(theirs.params) == vars(ours.params)
        assert theirs.smoothed.series.samples.tobytes() == ours.smoothed.series.samples.tobytes()
    assert gates == {"none", "gate1", "gate2"}


class TestTransformBits:
    """Both transform branches give the bytes of ``np.fft.rfft`` and
    ``np.fft.irfft``, the zero-variance floor and the division by lag 0
    included."""

    @pytest.fixture(params=["gufuncs", "np.fft"])
    def module(self, request, np_fft_acf):
        if request.param == "np.fft":
            assert not hasattr(np_fft_acf, "_pocketfft")
            return np_fft_acf
        if not GUFUNCS:
            pytest.skip("this numpy has no pocketfft gufunc module")
        assert hasattr(acf, "_pocketfft")
        return acf

    @pytest.mark.parametrize("n", [20, 21, 100, 101, 1000, 1001, 10 ** 4, 10 ** 4 + 7])
    def test_working_set_matches_the_np_fft_wrappers(self, module, n):
        x = sf.synthesize(sf.SinusoidParams(2.0, 0.05, 0.6109), sf.NoiseSpec(0.5, n), n).samples
        work = module._Record(sf.TimeSeries(0.0, 1.0, x))
        dft = np.fft.rfft(x)
        power = np.abs(dft) ** 2
        power[0] = 0.0
        sums = np.fft.irfft(power, n)
        assert work.dft.tobytes() == dft.tobytes()
        assert work.magnitudes.tobytes() == np.abs(dft).tobytes()
        assert work.acf.values.tobytes() == (sums / float(sums[0])).tobytes()
        assert work.dft.dtype == dft.dtype and work.acf.values.dtype == sums.dtype
        assert work.dft.shape == (n // 2 + 1,) and work.acf.values.shape == (n,)

    @pytest.mark.parametrize("n", [20, 21])
    def test_constant_record_has_zero_variance(self, module, n):
        work = module._Record(sf.TimeSeries(0.0, 1.0, np.full(n, 3.7)))
        with pytest.raises(ValueError, match="zero variance"):
            work.acf


class TestOneAcfPerRecord:
    """One forward and one inverse transform per record, on every path."""

    @pytest.mark.parametrize("name, skip_screen", [
        ("signal", False), ("signal", True), ("gate2", False), ("gate2", True),
        ("gate1", True)])
    def test_estimate_parameters_runs_one(self, transforms, name, skip_screen):
        make, far, _ = RECORDS[name]
        sf.estimate_parameters(make(), sf.PipelineConfig(far=far, skip_screen=skip_screen))
        assert transforms == ONE_PAIR

    def test_short_record_under_skip_screen_runs_one(self, transforms):
        report = sf.estimate_parameters(short_record(), sf.PipelineConfig(skip_screen=True))
        assert report.screening is None and report.params is not None
        assert transforms == ONE_PAIR

    def test_gate1_reject_runs_none(self, transforms):
        report = sf.estimate_parameters(gate1_record(), sf.PipelineConfig(far=0.001))
        assert report.params is None
        assert transforms == {"rfft": 0, "irfft": 0}

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_cli_estimate_with_plot_data_runs_one(self, tmp_path, transforms, name):
        make, far, _ = RECORDS[name]
        io.write_timeseries_csv(str(tmp_path / "in.csv"), make())
        transforms.update(rfft=0, irfft=0)
        code = run_main([
            "estimate", str(tmp_path / "in.csv"), "--far", str(far),
            "-o", str(tmp_path / "report.json"), "--plot-data", str(tmp_path / "plots")])
        assert code in (0, 2)
        assert transforms == ONE_PAIR

    def test_cli_estimate_skip_screen_with_plot_data_runs_one(self, tmp_path, transforms):
        # gate 1 keeps no ACF, so the estimator's own is what acf.csv reuses
        io.write_timeseries_csv(str(tmp_path / "in.csv"), gate1_record())
        transforms.update(rfft=0, irfft=0)
        code = run_main([
            "estimate", str(tmp_path / "in.csv"), "--far", "0.001", "--skip-screen",
            "-o", str(tmp_path / "report.json"), "--plot-data", str(tmp_path / "plots")])
        assert code == 0
        assert (tmp_path / "plots" / "acf.csv").exists()
        assert transforms == ONE_PAIR

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_cli_screen_runs_one(self, tmp_path, transforms, name):
        make, far, _ = RECORDS[name]
        io.write_timeseries_csv(str(tmp_path / "in.csv"), make())
        transforms.update(rfft=0, irfft=0)
        code = run_main([
            "screen", str(tmp_path / "in.csv"), "--far", str(far),
            "-o", str(tmp_path / "screening.json"),
            "--acf-out", str(tmp_path / "screening_acf.csv")])
        assert code in (0, 2)
        assert transforms == ONE_PAIR


class TestReportAcfAfterAGate1Reject:
    def test_is_computed_on_first_read_and_kept(self, transforms):
        record = gate1_record()
        report = sf.estimate_parameters(record, sf.PipelineConfig(far=0.001))
        assert report.screening.gate_failed == "gate1"
        assert transforms == {"rfft": 0, "irfft": 0}
        first = report.acf
        assert transforms == ONE_PAIR
        assert report.acf is first
        assert transforms == ONE_PAIR
        assert first.values.tobytes() == sf.circular_acf(record).values.tobytes()

    def test_plot_data_writes_it(self, tmp_path):
        record = gate1_record()
        report = sf.estimate_parameters(record, sf.PipelineConfig(far=0.001))
        io.write_plot_data(str(tmp_path), record, report, report.screening.acf_bound)
        _, rows = read_rows(tmp_path / "acf.csv")
        assert np.array_equal(rows[:, 1], sf.circular_acf(record, 50).values)

    def test_a_report_needs_its_working_set(self):
        with pytest.raises(TypeError, match="work"):
            sf.EstimationReport(params=None, screening=None)


# (record, far, skip_screen) for every path on which estimate_parameters
# estimates: past both gates, and stopped at either gate or unjudged (fewer
# than 20 samples) under skip_screen.
ESTIMATING_PATHS = {"signal": (signal_record, 0.01, False),
                    "gate2 skip_screen": (gate2_record, 0.01, True),
                    "gate1 skip_screen": (gate1_record, 0.001, True),
                    "short skip_screen": (short_record, 0.01, True)}


class TestSpectrumFromTheSharedDft:
    @pytest.mark.parametrize("path", sorted(ESTIMATING_PATHS))
    def test_spectrum_is_dft_magnitude_bit_for_bit(self, path):
        make, far, skip_screen = ESTIMATING_PATHS[path]
        record = make()
        report = sf.estimate_parameters(record, sf.PipelineConfig(far=far,
                                                                  skip_screen=skip_screen))
        expected = sf.dft_magnitude(record)
        assert report.spectrum.df == expected.df
        assert report.spectrum.magnitudes.tobytes() == expected.magnitudes.tobytes()

    @pytest.mark.parametrize("name", ["signal", "gate2"])
    def test_working_set_keeps_the_dft_read_only(self, name):
        make, far, _ = RECORDS[name]
        record = make()
        work = acf._Record(record)
        screening._screen(work, far)
        assert work.dft.tobytes() == np.fft.rfft(record.samples).tobytes()
        assert not work.dft.flags.writeable


@pytest.fixture
def finite_checks(monkeypatch):
    """Count check_finite calls through every module that imports it."""
    calls = []

    def counting(record, _real=model.check_finite):
        calls.append(record)
        return _real(record)

    for module in (model, screening, acf):
        monkeypatch.setattr(module, "check_finite", counting)
    return calls


class TestOneFiniteCheckPerRecord:
    @pytest.mark.parametrize("skip_screen", [False, True])
    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_estimate_parameters_checks_once(self, finite_checks, name, skip_screen):
        make, far, _ = RECORDS[name]
        record = make()
        sf.estimate_parameters(record, sf.PipelineConfig(far=far, skip_screen=skip_screen))
        assert finite_checks == [record]

    def test_short_record_under_skip_screen_checks_once(self, finite_checks):
        record = short_record()
        sf.estimate_parameters(record, sf.PipelineConfig(skip_screen=True))
        assert finite_checks == [record]

    def test_screen_and_runs_test_check_on_their_own(self, finite_checks):
        record = signal_record()
        sf.screen(record)
        sf.runs_test(record, 0.01)
        assert finite_checks == [record, record]

    @pytest.mark.parametrize("consumer", [sf.dft_magnitude, sf.circular_acf])
    def test_public_transforms_check_once_and_transform_once(self, finite_checks,
                                                            transforms, consumer):
        record = signal_record()
        consumer(record)
        assert finite_checks == [record]
        assert transforms == {"rfft": 1, "irfft": 1 if consumer is sf.circular_acf else 0}

    def test_argument_errors_still_come_first_in_screen(self):
        x = short_record().samples.copy()
        x[3] = math.nan
        with pytest.raises(ValueError, match="at least 20 samples"):
            sf.screen(sf.TimeSeries(0.0, 1.0, x))
        with pytest.raises(ValueError, match="false-alarm rate"):
            sf.screen(sf.TimeSeries(0.0, 1.0, np.full(100, math.nan)), 0.7)


def runs_test(record):
    return sf.runs_test(record, 0.01)


def huge_record():
    """Finite samples whose squares overflow: 1e200*sin(0.3t), N = 100."""
    return sf.TimeSeries(0.0, 1.0, 1e200 * np.sin(0.3 * np.arange(100)))


class TestSamplesTooLarge:
    @pytest.mark.parametrize("consumer", [sf.circular_acf, sf.screen,
                                          sf.estimate_parameters, runs_test])
    def test_rejected_with_their_own_message(self, consumer):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="samples too large"):
                consumer(huge_record())

    def test_limit_is_sqrt_float_max_over_2n(self):
        # max|x| at half the limit is estimated; just above it is rejected
        limit = math.sqrt(np.finfo(float).max) / 2.0 / 100
        x = signal_record().samples
        x = x / np.max(np.abs(x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = sf.estimate_parameters(sf.TimeSeries(0.0, 1.0, 0.5 * limit * x))
            assert report.params.frequency_hz == 0.05
            with pytest.raises(ValueError, match="samples too large"):
                sf.estimate_parameters(sf.TimeSeries(0.0, 1.0, 1.0000001 * limit * x))


class TestAcfCsvs:
    """Both ACF CSVs hold lags 0..N/2 of the record's ACF and the decision's bounds."""

    def expected(self, tmp_path, name):
        make, far, _ = RECORDS[name]
        io.write_timeseries_csv(str(tmp_path / "in.csv"), make())
        record = io.read_timeseries_csv(str(tmp_path / "in.csv"))
        bound = sf.screen(record, far).acf_bound
        n = len(record)
        return far, np.column_stack([np.arange(n // 2 + 1),
                                     sf.circular_acf(record, n // 2).values,
                                     np.full(n // 2 + 1, -bound),
                                     np.full(n // 2 + 1, bound)])

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_screen_acf_csv(self, tmp_path, name):
        far, expected = self.expected(tmp_path, name)
        run_main(["screen", str(tmp_path / "in.csv"), "--far", str(far),
                  "-o", str(tmp_path / "s.json"), "--acf-out", str(tmp_path / "s.csv")])
        header, rows = read_rows(tmp_path / "s.csv")
        assert header == ["lag", "value", "lower_bound", "upper_bound"]
        assert np.array_equal(rows, expected)

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_plot_data_acf_csv(self, tmp_path, name):
        far, expected = self.expected(tmp_path, name)
        run_main(["estimate", str(tmp_path / "in.csv"), "--far", str(far),
                  "-o", str(tmp_path / "r.json"), "--plot-data", str(tmp_path / "plots")])
        header, rows = read_rows(tmp_path / "plots" / "acf.csv")
        assert header == ["lag", "value", "lower_bound", "upper_bound"]
        assert np.array_equal(rows, expected)

    def test_plot_data_after_gate1_under_skip_screen(self, tmp_path):
        far, expected = self.expected(tmp_path, "gate1")
        code = run_main(["estimate", str(tmp_path / "in.csv"), "--far", str(far),
                         "--skip-screen", "-o", str(tmp_path / "r.json"),
                         "--plot-data", str(tmp_path / "plots")])
        assert code == 0
        header, rows = read_rows(tmp_path / "plots" / "acf.csv")
        assert np.array_equal(rows, expected)

    def test_plot_data_without_a_decision_has_nan_bounds(self, tmp_path):
        record = short_record()
        report = sf.estimate_parameters(record, sf.PipelineConfig(skip_screen=True))
        io.write_plot_data(str(tmp_path), record, report, None)
        _, rows = read_rows(tmp_path / "acf.csv")
        assert np.array_equal(rows[:, 1], sf.circular_acf(record, 6).values)
        assert np.all(np.isnan(rows[:, 2:]))


class TestMaxLag:
    @pytest.mark.parametrize("skip_screen", [False, True])
    @pytest.mark.parametrize("max_lag", [0, -1, 100, 10 ** 6])
    def test_out_of_range_max_lag_raises(self, max_lag, skip_screen):
        # below 1 the config rejects it; above N - 1 the pipeline, up front
        message = ("max_lag must be at least 1" if max_lag < 1
                   else r"max_lag must be in \[1, 99\]")
        with pytest.raises(ValueError, match=message):
            config = sf.PipelineConfig(max_lag=max_lag, skip_screen=skip_screen)
            sf.estimate_parameters(signal_record(), config)

    @pytest.mark.parametrize("make", [gate1_record, gate2_record])
    @pytest.mark.parametrize("skip_screen", [False, True])
    @pytest.mark.parametrize("max_lag", [100, 5000])
    def test_too_large_max_lag_raises_before_the_screen(self, make, skip_screen, max_lag):
        # noise records, which stop at the screen, raise too
        config = sf.PipelineConfig(far=0.001, max_lag=max_lag, skip_screen=skip_screen)
        with pytest.raises(ValueError, match=r"max_lag must be in \[1, 99\]"):
            sf.estimate_parameters(make(), config)

    @pytest.mark.parametrize("max_lag", [2.5, True, math.nan, np.int64(3)])
    @pytest.mark.parametrize("acf_of", [
        lambda max_lag: sf.model_acf_full(sf.SinusoidParams(1.0, 0.1, 0.0), max_lag),
        lambda max_lag: sf.model_acf_reduced(sf.SinusoidParams(1.0, 0.1, 0.0), max_lag),
        lambda max_lag: sf.circular_acf(signal_record(), max_lag)],
        ids=["model_acf_full", "model_acf_reduced", "circular_acf"])
    def test_public_acfs_take_only_an_integer_max_lag(self, acf_of, max_lag):
        if isinstance(max_lag, np.integer):
            assert acf_of(max_lag).max_lag == 3
        else:
            with pytest.raises(ValueError, match="max_lag must be an integer"):
                acf_of(max_lag)

    def test_largest_max_lag_works(self):
        record = signal_record()
        report = sf.estimate_parameters(record, sf.PipelineConfig(max_lag=99))
        assert report.model_acf.max_lag == 99
        assert report.frequency_cross_checks_hz["acf_period"] == pytest.approx(0.05)
