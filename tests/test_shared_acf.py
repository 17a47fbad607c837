"""One circular ACF per record: the screen computes it, every consumer reads it."""

import csv

import numpy as np
import pytest
from click.testing import CliRunner

import sinefit as sf
from sinefit import io
from sinefit.cli import cli
from sinefit.model import standard_normal_draws


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


@pytest.fixture
def irfft_calls(monkeypatch):
    """Count inverse real FFTs: in sinefit only circular_acf makes them."""
    calls = []
    real = np.fft.irfft

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counting)
    return calls


def read_rows(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_stop_where_named(name):
    make, far, gate = RECORDS[name]
    assert sf.screen(make(), far).gate_failed == gate


class TestDecisionKeepsTheAcf:
    @pytest.mark.parametrize("name", ["signal", "gate2"])
    def test_acf_is_the_full_lag_circular_acf(self, name):
        make, far, _ = RECORDS[name]
        record = make()
        decision = sf.screen(record, far)
        expected = sf.circular_acf(record).values
        assert decision.acf.values.size == len(record)
        assert np.array_equal(decision.acf.values, expected)
        assert decision.acf.values.tobytes() == expected.tobytes()

    def test_no_acf_after_a_gate1_reject(self):
        assert sf.screen(gate1_record(), 0.001).acf is None

    def test_acf_takes_no_part_in_equality_or_repr(self):
        record = signal_record()
        decision = sf.screen(record)
        bare = sf.ScreeningDecision(*(getattr(decision, f) for f in (
            "runs_statistic", "runs_count", "n_above", "n_below",
            "acf_exceedances", "acf_bound", "far", "verdict", "gate_failed")))
        assert bare.acf is None and decision.acf is not None
        assert decision == bare and hash(decision) == hash(bare)
        assert repr(decision) == repr(bare)


class TestOneAcfPerRecord:
    @pytest.mark.parametrize("name, skip_screen", [
        ("signal", False), ("signal", True), ("gate2", False), ("gate2", True),
        ("gate1", True)])
    def test_estimate_parameters_runs_one(self, irfft_calls, name, skip_screen):
        make, far, _ = RECORDS[name]
        sf.estimate_parameters(make(), sf.PipelineConfig(far=far, skip_screen=skip_screen))
        assert len(irfft_calls) == 1

    def test_short_record_under_skip_screen_runs_one(self, irfft_calls):
        report = sf.estimate_parameters(short_record(), sf.PipelineConfig(skip_screen=True))
        assert report.screening is None and report.params is not None
        assert len(irfft_calls) == 1

    def test_gate1_reject_runs_none(self, irfft_calls):
        report = sf.estimate_parameters(gate1_record(), sf.PipelineConfig(far=0.001))
        assert report.params is None
        assert len(irfft_calls) == 0

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_cli_estimate_with_plot_data_runs_one(self, tmp_path, irfft_calls, name):
        make, far, _ = RECORDS[name]
        io.write_timeseries_csv(str(tmp_path / "in.csv"), make())
        irfft_calls.clear()
        result = CliRunner().invoke(cli, [
            "estimate", str(tmp_path / "in.csv"), "--far", str(far),
            "-o", str(tmp_path / "report.json"), "--plot-data", str(tmp_path / "plots")])
        assert result.exit_code in (0, 2), result.output
        assert len(irfft_calls) == 1

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_cli_screen_runs_one(self, tmp_path, irfft_calls, name):
        make, far, _ = RECORDS[name]
        io.write_timeseries_csv(str(tmp_path / "in.csv"), make())
        irfft_calls.clear()
        result = CliRunner().invoke(cli, [
            "screen", str(tmp_path / "in.csv"), "--far", str(far),
            "-o", str(tmp_path / "screening.json"),
            "--acf-out", str(tmp_path / "screening_acf.csv")])
        assert result.exit_code in (0, 2), result.output
        assert len(irfft_calls) == 1


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
        CliRunner().invoke(cli, ["screen", str(tmp_path / "in.csv"), "--far", str(far),
                                 "-o", str(tmp_path / "s.json"),
                                 "--acf-out", str(tmp_path / "s.csv")])
        header, rows = read_rows(tmp_path / "s.csv")
        assert header == ["lag", "value", "lower_bound", "upper_bound"]
        assert np.array_equal(rows, expected)

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_plot_data_acf_csv(self, tmp_path, name):
        far, expected = self.expected(tmp_path, name)
        CliRunner().invoke(cli, ["estimate", str(tmp_path / "in.csv"), "--far", str(far),
                                 "-o", str(tmp_path / "r.json"),
                                 "--plot-data", str(tmp_path / "plots")])
        header, rows = read_rows(tmp_path / "plots" / "acf.csv")
        assert header == ["lag", "value", "lower_bound", "upper_bound"]
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
    @pytest.mark.parametrize("max_lag", [0, 100, 10 ** 6])
    def test_out_of_range_max_lag_raises(self, max_lag, skip_screen):
        config = sf.PipelineConfig(max_lag=max_lag, skip_screen=skip_screen)
        with pytest.raises(ValueError, match=r"max_lag must be in \[1, 99\]"):
            sf.estimate_parameters(signal_record(), config)

    def test_largest_max_lag_works(self):
        record = signal_record()
        report = sf.estimate_parameters(record, sf.PipelineConfig(max_lag=99))
        assert report.model_acf.max_lag == 99
        assert report.frequency_cross_checks_hz["acf_period"] == pytest.approx(0.05)
