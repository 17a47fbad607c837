import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import sinefit as sf

GENERATE_DEMO = ["generate", "-A", "2", "-f", "0.05", "-p", "0.6109",
                 "--sigma", "0.5", "--seed", "3", "-n", "100"]

REPORT_KEYS = ["verdict", "params", "frequency_source",
               "frequency_cross_checks_hz", "t_2pi_s", "delta_t_s",
               "objective_value", "phase_cross_checks_rad", "smoothing_k",
               "warnings", "screening", "series"]
PARAMS_KEYS = ["amplitude", "frequency_hz", "phase_rad", "period_s",
               "time_delay_s"]
SCREENING_KEYS = ["runs_statistic", "runs_count", "n_above", "n_below",
                  "acf_exceedances", "acf_bound", "far", "verdict",
                  "gate_failed"]


def run_cli(args, out_dir, check=None):
    env = dict(os.environ, SINEFIT_OUT_DIR=str(out_dir))
    result = subprocess.run([sys.executable, "-m", "sinefit.cli", *args],
                            capture_output=True, text=True, env=env)
    if check is not None:
        assert result.returncode == check, result.stderr + result.stdout
    return result


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


class TestGenerate:
    def test_writes_and_reruns_bit_identical(self, tmp_path):
        run_cli(GENERATE_DEMO + ["-o", str(tmp_path / "a.csv")], tmp_path, check=0)
        run_cli(GENERATE_DEMO + ["-o", str(tmp_path / "b.csv")], tmp_path, check=0)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        header, rows = read_csv(tmp_path / "a.csv")
        assert header == ["t", "value"]
        assert len(rows) == 100
        assert rows[-1][0] == 99.0

    def test_noise_free_values_match_the_model(self, tmp_path):
        run_cli(["generate", "-A", "2", "-f", "0.05", "-p", "0.6109",
                 "-n", "50", "-o", str(tmp_path / "clean.csv")], tmp_path, check=0)
        _, rows = read_csv(tmp_path / "clean.csv")
        params = sf.SinusoidParams(2.0, 0.05, 0.6109)
        for t, value in rows:
            # full-precision repr round-trips exactly
            assert value == float(sf.evaluate(params, t))

    def test_default_output_lands_in_env_dir(self, tmp_path):
        run_cli(GENERATE_DEMO, tmp_path, check=0)
        assert (tmp_path / "timeseries.csv").exists()

    def test_rejects_bad_parameters(self, tmp_path):
        result = run_cli(["generate", "-A", "-2", "-f", "0.05"], tmp_path)
        assert result.returncode == 1

    @pytest.mark.parametrize("args,message", [
        (["-A", "inf", "-f", "0.05"], "amplitude must be finite"),
        (["-A", "2", "-f", "inf"], "frequency_hz must be finite"),
        (["-A", "2", "-f", "0.05", "--sigma", "inf"], "sigma must be finite"),
        (["-A", "2", "-f", "1e308", "--dt", "1e10"], "omega*t overflows")])
    def test_rejects_non_finite_models_without_writing(self, tmp_path, args, message):
        result = run_cli(["generate", *args, "-o", str(tmp_path / "out.csv")], tmp_path)
        assert result.returncode == 1
        assert message in result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert not (tmp_path / "out.csv").exists()

    def test_usage_error_exits_one(self, tmp_path):
        result = run_cli(["generate", "--no-such-flag"], tmp_path)
        assert result.returncode == 1


class TestEstimate:
    def test_round_trip_noise_free(self, tmp_path):
        run_cli(["generate", "-A", "2", "-f", "0.05", "-p", "0.6109",
                 "-n", "100", "-o", str(tmp_path / "clean.csv")], tmp_path, check=0)
        run_cli(["estimate", str(tmp_path / "clean.csv"), "--ma-k", "1",
                 "-o", str(tmp_path / "report.json")], tmp_path, check=0)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"] == "signal"
        assert report["params"]["frequency_hz"] == pytest.approx(0.05, abs=1e-12)
        assert report["params"]["amplitude"] == pytest.approx(2.0, rel=0.01)
        assert report["params"]["phase_rad"] == pytest.approx(0.6109, abs=0.0011)

    def test_noisy_demo_recovers_frequency(self, tmp_path):
        run_cli(GENERATE_DEMO + ["-o", str(tmp_path / "noisy.csv")], tmp_path,
                check=0)
        run_cli(["estimate", str(tmp_path / "noisy.csv"),
                 "-o", str(tmp_path / "report.json")], tmp_path, check=0)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["params"]["frequency_hz"] == pytest.approx(0.05, abs=1e-12)

    def test_json_schema_is_pinned(self, tmp_path):
        run_cli(GENERATE_DEMO + ["-o", str(tmp_path / "noisy.csv")], tmp_path,
                check=0)
        run_cli(["estimate", str(tmp_path / "noisy.csv"),
                 "-o", str(tmp_path / "report.json")], tmp_path, check=0)
        report = json.loads((tmp_path / "report.json").read_text())
        assert list(report.keys()) == REPORT_KEYS
        assert list(report["params"].keys()) == PARAMS_KEYS
        assert list(report["screening"].keys()) == SCREENING_KEYS

    @pytest.mark.parametrize("kind", ["tone", "noise"])
    @pytest.mark.parametrize("max_lag", ["0", "-3", "100", "5000"])
    def test_bad_max_lag_exits_one_on_every_record(self, tmp_path, kind, max_lag):
        sigma = "0.5" if kind == "tone" else "80"
        run_cli(["generate", "-A", "2", "-f", "0.05", "--sigma", sigma, "--seed", "11",
                 "-n", "100", "-o", str(tmp_path / "in.csv")], tmp_path, check=0)
        result = run_cli(["estimate", str(tmp_path / "in.csv"), "--far", "0.001",
                          "--max-lag", max_lag, "-o", str(tmp_path / "report.json")],
                         tmp_path)
        assert result.returncode == 1, result.stdout
        assert "max_lag must be" in result.stderr
        assert not (tmp_path / "report.json").exists()

    def test_screening_rejection_exits_two(self, tmp_path):
        run_cli(["generate", "-A", "2", "-f", "0.05", "--sigma", "80",
                 "--seed", "11", "-n", "100", "-o", str(tmp_path / "noise.csv")],
                tmp_path, check=0)
        result = run_cli(["estimate", str(tmp_path / "noise.csv"),
                          "--far", "0.001", "-o", str(tmp_path / "report.json")],
                         tmp_path)
        assert result.returncode == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"] == "noise"
        assert report["params"] is None

    def test_plot_data_bundle(self, tmp_path):
        run_cli(GENERATE_DEMO + ["-o", str(tmp_path / "noisy.csv")], tmp_path,
                check=0)
        run_cli(["estimate", str(tmp_path / "noisy.csv"),
                 "-o", str(tmp_path / "report.json"),
                 "--plot-data", str(tmp_path / "plots")], tmp_path, check=0)
        expected = {"raw.csv": ["t", "value"],
                    "smoothed.csv": ["t", "value"],
                    "acf.csv": ["lag", "value", "lower_bound", "upper_bound"],
                    "model_acf.csv": ["lag", "full_model", "reduced_model"],
                    "spectrum.csv": ["frequency_hz", "magnitude"]}
        for name, header in expected.items():
            got, rows = read_csv(tmp_path / "plots" / name)
            assert got == header
            assert rows

    def test_config_flags_are_wired_through(self, tmp_path):
        run_cli(GENERATE_DEMO + ["-o", str(tmp_path / "noisy.csv")], tmp_path,
                check=0)
        run_cli(["estimate", str(tmp_path / "noisy.csv"),
                 "--objective-range", "full_record",
                 "--ma-k", "10", "--max-lag", "40", "--far", "0.001",
                 "-o", str(tmp_path / "report.json")], tmp_path, check=0)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["smoothing_k"] == 10
        assert report["screening"]["far"] == 0.001
        assert len(report["series"]["model_acf_full"]) == 41

    def test_one_period_window_without_samples_exits_one(self, tmp_path):
        # t runs from 100 to 199, so [0, 1/f] = [0, 20] holds no sample
        run_cli(GENERATE_DEMO + ["--start", "100", "-o", str(tmp_path / "late.csv")],
                tmp_path, check=0)
        result = run_cli(["estimate", str(tmp_path / "late.csv"),
                          "-o", str(tmp_path / "report.json")], tmp_path)
        assert result.returncode == 1
        assert "full_record" in result.stderr
        assert not (tmp_path / "report.json").exists()
        run_cli(["estimate", str(tmp_path / "late.csv"), "--objective-range", "full_record",
                 "-o", str(tmp_path / "report.json")], tmp_path, check=0)

    def test_generate_rejects_a_non_finite_start(self, tmp_path):
        result = run_cli(GENERATE_DEMO + ["--start", "nan", "-o", str(tmp_path / "a.csv")],
                         tmp_path)
        assert result.returncode == 1
        assert "start_time must be finite" in result.stderr

    def test_empty_file_is_a_parse_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        result = run_cli(["estimate", str(empty)], tmp_path)
        assert result.returncode == 1
        assert not (tmp_path / "report.json").exists()

    def test_non_uniform_sampling_names_the_row(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,value\n0.0,1.0\n1.0,2.0\n2.5,3.0\n3.0,1.0\n")
        result = run_cli(["estimate", str(bad)], tmp_path)
        assert result.returncode == 1
        assert "line 4" in result.stderr

    def test_a_generated_record_far_from_zero_reads_back(self, tmp_path):
        day = str(tmp_path / "day.csv")
        run_cli(["generate", "-A", "2", "-f", "5", "--sigma", "0.5", "--dt", "0.01",
                 "--start", "86400", "-n", "1000", "-o", day], tmp_path, check=0)
        run_cli(["screen", day, "-o", str(tmp_path / "screening.json")], tmp_path, check=0)
        run_cli(["estimate", day, "--objective-range", "full_record",
                 "-o", str(tmp_path / "report.json")], tmp_path, check=0)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["params"]["frequency_hz"] == pytest.approx(5.0, rel=1e-6)

    def test_non_finite_sample_is_rejected(self, tmp_path):
        run_cli(GENERATE_DEMO + ["-o", str(tmp_path / "noisy.csv")], tmp_path,
                check=0)
        rows = (tmp_path / "noisy.csv").read_text().splitlines()
        rows[10] = rows[10].split(",")[0] + ",nan"
        (tmp_path / "nan.csv").write_text("\n".join(rows) + "\n")
        result = run_cli(["estimate", str(tmp_path / "nan.csv"),
                          "-o", str(tmp_path / "report.json")], tmp_path)
        assert result.returncode == 1
        assert "non-finite" in result.stderr
        assert not (tmp_path / "report.json").exists()


class TestAcfCommand:
    def test_full_lag_fold_over(self, tmp_path):
        run_cli(GENERATE_DEMO + ["-o", str(tmp_path / "noisy.csv")], tmp_path,
                check=0)
        run_cli(["acf", str(tmp_path / "noisy.csv"), "--max-lag", "99",
                 "-o", str(tmp_path / "acf.csv")], tmp_path, check=0)
        header, rows = read_csv(tmp_path / "acf.csv")
        assert header == ["lag", "value"]
        values = [row[1] for row in rows]
        assert len(values) == 100
        for tau in range(1, 100):
            assert values[tau] == pytest.approx(values[100 - tau], abs=1e-12)


class TestSpectrumCommand:
    def test_peak_row_for_noise_free_demo(self, tmp_path):
        run_cli(["generate", "-A", "2", "-f", "0.05", "-p", "0.6109",
                 "-n", "100", "-o", str(tmp_path / "clean.csv")], tmp_path, check=0)
        run_cli(["spectrum", str(tmp_path / "clean.csv"),
                 "-o", str(tmp_path / "spec.csv")], tmp_path, check=0)
        header, rows = read_csv(tmp_path / "spec.csv")
        assert header == ["frequency_hz", "magnitude"]
        peak = max(rows[1:], key=lambda row: row[1])  # skip DC
        assert peak[0] == pytest.approx(0.05, abs=1e-12)

    def test_zero_padding_resolves_off_grid_peaks(self, tmp_path):
        run_cli(["generate", "-A", "2", "-f", "0.053", "-n", "100",
                 "-o", str(tmp_path / "off.csv")], tmp_path, check=0)
        run_cli(["spectrum", str(tmp_path / "off.csv"), "--pad", "1000",
                 "-o", str(tmp_path / "spec.csv")], tmp_path, check=0)
        _, rows = read_csv(tmp_path / "spec.csv")
        peak = max(rows[1:], key=lambda row: row[1])
        assert peak[0] == pytest.approx(0.053, abs=0.002)

    @pytest.mark.parametrize("pad", ["50", "99", "0", "-5"])
    def test_pad_below_the_record_length_exits_one(self, tmp_path, pad):
        run_cli(["generate", "-A", "2", "-f", "0.05", "-n", "100",
                 "-o", str(tmp_path / "clean.csv")], tmp_path, check=0)
        result = run_cli(["spectrum", str(tmp_path / "clean.csv"), "--pad", pad,
                          "-o", str(tmp_path / "spec.csv")], tmp_path, check=1)
        assert "N = 100" in result.stderr and pad in result.stderr
        assert not (tmp_path / "spec.csv").exists()

    def test_pad_equal_to_the_record_length_is_a_no_op(self, tmp_path):
        run_cli(["generate", "-A", "2", "-f", "0.05", "-n", "100",
                 "-o", str(tmp_path / "clean.csv")], tmp_path, check=0)
        run_cli(["spectrum", str(tmp_path / "clean.csv"),
                 "-o", str(tmp_path / "plain.csv")], tmp_path, check=0)
        run_cli(["spectrum", str(tmp_path / "clean.csv"), "--pad", "100",
                 "-o", str(tmp_path / "padded.csv")], tmp_path, check=0)
        assert (tmp_path / "padded.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


class TestNonFiniteInput:
    @pytest.mark.parametrize("command, token", [
        ("acf", "nan"), ("spectrum", "nan"), ("acf", "inf"), ("spectrum", "-inf")])
    def test_acf_and_spectrum_exit_one(self, tmp_path, command, token):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"t,value\n0.0,1.0\n1.0,{token}\n2.0,-1.0\n3.0,0.5\n")
        result = run_cli([command, str(bad), "-o", str(tmp_path / "out.csv")],
                         tmp_path)
        assert result.returncode == 1
        assert "non-finite" in result.stderr
        assert not (tmp_path / "out.csv").exists()

    def test_estimate_exits_one_on_samples_too_large(self, tmp_path):
        from sinefit import io
        io.write_timeseries_csv(str(tmp_path / "huge.csv"), sf.TimeSeries(
            0.0, 1.0, 1e200 * np.sin(0.3 * np.arange(100))))
        result = run_cli(["estimate", str(tmp_path / "huge.csv")], tmp_path)
        assert result.returncode == 1
        assert "samples too large" in result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert not (tmp_path / "report.json").exists()

    def test_estimate_exits_one_on_samples_too_small(self, tmp_path):
        from sinefit import io
        floor = 2.0 ** -511
        x = floor * np.sin(0.3 * np.arange(100)) / np.abs(np.sin(0.3 * np.arange(100))).max()
        i = int(np.abs(x).argmax())
        for value, code in ((floor, 0), (math.nextafter(floor, 0.0), 1)):
            x[i] = math.copysign(value, x[i])
            io.write_timeseries_csv(str(tmp_path / "tiny.csv"), sf.TimeSeries(0.0, 1.0, x))
            result = run_cli(["estimate", str(tmp_path / "tiny.csv"),
                              "-o", str(tmp_path / f"report{code}.json")], tmp_path)
            assert result.returncode == code, result.stderr
            assert (tmp_path / f"report{code}.json").exists() == (code == 0)
        assert result.stderr.startswith("Error: record has samples too small")
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr

    # N*dt overflows at 1.8e306 although the last sample time, 99*dt, does not
    @pytest.mark.parametrize("dt", [1.8e306, 1e-310])
    def test_estimate_exits_one_on_bin_frequencies_past_float_range(self, tmp_path, dt):
        from sinefit import io
        tone = sf.synthesize(sf.SinusoidParams(2.0, 0.05, 0.6109), sf.NoiseSpec(0.5, 0), 100)
        io.write_timeseries_csv(str(tmp_path / "grid.csv"),
                                sf.TimeSeries(0.0, dt, tone.samples))
        result = run_cli(["estimate", str(tmp_path / "grid.csv")], tmp_path)
        assert result.returncode == 1
        assert "bin frequencies m/(N*dt)" in result.stderr
        assert "Warning" not in result.stderr
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("row", ["1.0,nan", "1.0,inf", "1.0,-inf", "nan,2.0",
                                     "inf,2.0"])
    def test_reader_names_the_line(self, tmp_path, row):
        from sinefit import io
        bad = tmp_path / "bad.csv"
        bad.write_text(f"t,value\n0.0,1.0\n{row}\n2.0,3.0\n")
        with pytest.raises(ValueError, match="line 3: non-finite value"):
            io.read_timeseries_csv(str(bad))


class TestScreenCommand:
    def test_bounds_change_with_far_but_data_does_not(self, tmp_path):
        run_cli(GENERATE_DEMO + ["-o", str(tmp_path / "noisy.csv")], tmp_path,
                check=0)
        for far, name in (("0.01", "a"), ("0.001", "b")):
            run_cli(["screen", str(tmp_path / "noisy.csv"), "--far", far,
                     "-o", str(tmp_path / f"{name}.json"),
                     "--acf-out", str(tmp_path / f"{name}.csv")], tmp_path,
                    check=0)
        _, rows_a = read_csv(tmp_path / "a.csv")
        _, rows_b = read_csv(tmp_path / "b.csv")
        assert [r[1] for r in rows_a] == [r[1] for r in rows_b]
        assert rows_a[0][3] != rows_b[0][3]

    def test_noise_verdict_exits_two(self, tmp_path, pure_noise):
        from sinefit import io
        io.write_timeseries_csv(str(tmp_path / "noise.csv"),
                                pure_noise(0, sigma=80.0))
        result = run_cli(["screen", str(tmp_path / "noise.csv"),
                          "--far", "0.001"], tmp_path)
        assert result.returncode == 2
        decision = json.loads((tmp_path / "screening.json").read_text())
        assert decision["verdict"] == "noise"
        assert decision["gate_failed"] == "gate1"


class TestExitOne:
    """Each subcommand turns a ValueError or an OSError into exit 1, with
    ``Error: <message>`` on stderr and no traceback."""

    # a bad value for each command (spectrum's is a row off the time grid)
    VALUE_ERRORS = {
        "generate": (["-A", "2", "-f", "0.05", "-n", "1"], "n must be at least 2"),
        "screen": (["{csv}", "--far", "0.7"], "false-alarm rate must lie in (0, 0.5)"),
        "acf": (["{csv}", "--max-lag", "0"], "max_lag must be in [1, 99]"),
        "spectrum": (["{bad_csv}"], "line 4"),
        "estimate": (["{csv}", "--ma-k", "0"], "ma_k must be at least 1"),
    }

    @staticmethod
    def inputs(tmp_path):
        from sinefit import io
        csv_path, bad = tmp_path / "demo.csv", tmp_path / "bad.csv"
        io.write_timeseries_csv(str(csv_path), sf.synthesize(
            sf.SinusoidParams(2.0, 0.05, 0.6109), sf.NoiseSpec(0.5, 3), 100))
        bad.write_text("t,value\n0.0,1.0\n1.0,2.0\n2.5,3.0\n3.0,1.0\n")
        return {"csv": str(csv_path), "bad_csv": str(bad)}

    @staticmethod
    def assert_exit_one(result, message):
        assert result.returncode == 1, result.stderr
        assert result.stderr.startswith("Error: ") and message in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", list(VALUE_ERRORS))
    def test_value_error(self, tmp_path, command):
        args, message = self.VALUE_ERRORS[command]
        paths = self.inputs(tmp_path)
        result = run_cli([command, *(arg.format(**paths) for arg in args)], tmp_path)
        self.assert_exit_one(result, message)

    @pytest.mark.parametrize("command", list(VALUE_ERRORS))
    def test_os_error_from_an_output_path_under_a_file(self, tmp_path, command):
        paths = self.inputs(tmp_path)
        args = GENERATE_DEMO[1:] if command == "generate" else [paths["csv"]]
        result = run_cli([command, *args, "-o", str(tmp_path / "demo.csv" / "out")], tmp_path)
        self.assert_exit_one(result, "[Errno")

    def test_a_record_that_ma_5_smooths_flat(self, tmp_path):
        from sinefit import io
        io.write_timeseries_csv(str(tmp_path / "flat.csv"), sf.TimeSeries(
            0.0, 1.0, np.tile([1.0, 2.0, -3.0, 0.0, 0.0], 20)))
        result = run_cli(["estimate", str(tmp_path / "flat.csv")], tmp_path)
        self.assert_exit_one(result, "MA-5 smoothing leaves a constant record")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", ["screen", "estimate"])
    def test_a_record_with_one_sample_on_each_side_of_the_median(self, tmp_path, command):
        from sinefit import io
        x = np.zeros(20)
        x[5], x[12] = 1.0, -1.0
        io.write_timeseries_csv(str(tmp_path / "sparse.csv"), sf.TimeSeries(0.0, 1.0, x))
        result = run_cli([command, str(tmp_path / "sparse.csv")], tmp_path)
        self.assert_exit_one(result, "degenerate dichotomy: one sample on each side")

    def test_a_record_whose_smoothed_range_is_too_small_to_cross(self, tmp_path):
        from sinefit import io
        x = np.tile([1.0, 2.0, -3.0, 0.0, 0.0], 20)
        x[53] = 5e-323
        io.write_timeseries_csv(str(tmp_path / "subnormal.csv"), sf.TimeSeries(0.0, 1.0, x))
        result = run_cli(["estimate", str(tmp_path / "subnormal.csv")], tmp_path)
        self.assert_exit_one(result, "MA-5 smoothing leaves a record whose range")
        assert "constant" not in result.stderr
        assert not (tmp_path / "report.json").exists()

    def test_a_record_whose_amplitude_square_underflows(self, tmp_path):
        # MA-5 leaves A = 1e-171, whose square is 0: this used to end in a
        # ZeroDivisionError traceback from the full-model ACF's constant
        from sinefit import io
        x = np.tile([1.0, 2.0, -3.0, 0.0, 0.0], 20)
        x[53] = 1e-170
        io.write_timeseries_csv(str(tmp_path / "tiny_a.csv"), sf.TimeSeries(0.0, 1.0, x))
        result = run_cli(["estimate", str(tmp_path / "tiny_a.csv")], tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"] == "signal" and report["params"]["amplitude"] == 1e-171
