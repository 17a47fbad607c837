import contextlib
import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, strategies as st

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

    @pytest.mark.parametrize("kind", ["tone", "noise"])
    def test_a_window_past_the_record_exits_one_on_every_record(self, tmp_path, kind):
        # a noise record used to exit 2 here, at the screen, before the window was checked
        sigma = "0.5" if kind == "tone" else "80"
        run_cli(["generate", "-A", "2", "-f", "0.05", "--sigma", sigma, "--seed", "11",
                 "-n", "100", "-o", str(tmp_path / "in.csv")], tmp_path, check=0)
        result = run_cli(["estimate", str(tmp_path / "in.csv"), "--far", "0.001",
                          "--ma-k", "150", "-o", str(tmp_path / "report.json")], tmp_path)
        assert result.returncode == 1, result.stdout
        assert "Error: window 150 exceeds record length 100" in result.stderr
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

    @pytest.mark.parametrize("content,message", [
        (b"t,value\n0,1\n1," + b"1" * 140_000 + b"\n2,3\n",
         "line 3: field larger than field limit (131072)"),
        (b"t,value\n0,1\xff\n1,2\n", "line 2: 'utf-8' codec can't decode byte 0xff"),
        # past the first 8 KB: the line and the offset in the file, not in a read chunk
        (b"t,value\n" + b"0,1\n" * 2999 + b"1,\xff\n",
         "line 3001: 'utf-8' codec can't decode byte 0xff in position 12006: ")],
        ids=["long_field", "non_utf8", "non_utf8_past_8kb"])
    def test_csv_module_and_decoder_errors_name_the_file(self, tmp_path, content, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        result = run_cli(["estimate", str(bad), "-o", str(tmp_path / "report.json")], tmp_path)
        assert result.returncode == 1
        assert result.stderr.startswith(f"Error: {bad}: ") and message in result.stderr
        assert len(result.stderr.splitlines()) == 1
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

    def test_estimate_exits_one_on_a_double_angle_past_float_max(self, tmp_path):
        # near Nyquist at dt = 2.497e-308, 4*pi*f overflows although 2*pi*f
        # does not; the record used to end in "math domain error"
        from sinefit import io
        from sinefit.model import standard_normal_draws
        x = 2.0 * np.sin(0.98 * math.pi * np.arange(100)) + 0.5 * standard_normal_draws(0, 100)
        io.write_timeseries_csv(str(tmp_path / "grid.csv"), sf.TimeSeries(0.0, 2.497e-308, x))
        for extra in ([], ["--skip-screen", "--objective-range", "full_record"]):
            result = run_cli(["estimate", str(tmp_path / "grid.csv"), *extra], tmp_path)
            assert result.returncode == 1, result.stderr
            assert result.stderr.startswith("Error: sample spacing dt = ")
            assert "angular frequencies 4*pi*m/(N*dt)" in result.stderr
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

    @pytest.mark.parametrize("command", ["screen", "estimate"])
    def test_one_far_message_for_screen_and_estimate(self, tmp_path, command):
        paths = self.inputs(tmp_path)
        result = run_cli([command, paths["csv"], "--far", "0.7"], tmp_path)
        self.assert_exit_one(result, "false-alarm rate must lie in (0, 0.5)")

    @pytest.mark.parametrize("command", list(VALUE_ERRORS))
    def test_os_error_from_an_output_path_under_a_file(self, tmp_path, command):
        paths = self.inputs(tmp_path)
        args = GENERATE_DEMO[1:] if command == "generate" else [paths["csv"]]
        result = run_cli([command, *args, "-o", str(tmp_path / "demo.csv" / "out")], tmp_path)
        self.assert_exit_one(result, "[Errno")

    @pytest.mark.parametrize("command", ["generate", "spectrum"])
    def test_an_array_too_large_to_allocate(self, tmp_path, command):
        # the child caps its own address space at 2 GiB first, so numpy's
        # 7.28 TiB request fails there whatever the machine's overcommit
        cap = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
               "from sinefit.cli import main; main(sys.argv[1:])")
        args = {"generate": ["-A", "2", "-f", "0.05", "-n", str(10 ** 12)],
                "spectrum": [self.inputs(tmp_path)["csv"], "--pad", str(10 ** 12)]}[command]
        out = tmp_path / "out.csv"
        result = subprocess.run([sys.executable, "-c", cap, command, *args, "-o", str(out)],
                                capture_output=True, text=True,
                                env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
        self.assert_exit_one(result, "Unable to allocate 7.28 TiB")
        assert len(result.stderr.splitlines()) == 1
        assert not out.exists()

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


class TestUsage:
    """What the command line refuses before any command runs: exit 1,
    ``Error:`` on stderr, no traceback and no file written."""

    CASES = {
        "missing_input": ["estimate", "{missing}"],
        "input_is_a_directory": ["screen", "{dir}"],
        "out_is_a_directory": ["screen", "{csv}", "-o", "{dir}"],
        "acf_out_is_a_directory": ["screen", "{csv}", "--acf-out", "{dir}"],
        "plot_data_is_a_file": ["estimate", "{csv}", "--plot-data", "{csv}"],
        "bad_objective_range": ["estimate", "{csv}", "--objective-range", "whole_record"],
        "non_float_far": ["screen", "{csv}", "--far", "often"],
        "unknown_subcommand": ["fit", "{csv}"],
    }
    OPTIONS = {
        "generate": ["--amplitude", "-A", "--frequency", "-f", "--phase", "-p", "--sigma",
                     "--seed", "-n", "--samples", "--dt", "--start", "-o", "--out"],
        "screen": ["--far", "-o", "--out", "--acf-out"],
        "acf": ["--max-lag", "-o", "--out"],
        "spectrum": ["--pad", "-o", "--out"],
        "estimate": ["--far", "--ma-k", "--objective-range", "--max-lag", "--skip-screen",
                     "-o", "--out", "--plot-data"],
    }

    @staticmethod
    def files(tmp_path):
        return sorted(str(path) for path in tmp_path.rglob("*"))

    @pytest.mark.parametrize("case", list(CASES))
    def test_refused_before_any_output(self, tmp_path, case):
        from sinefit import io
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        io.write_timeseries_csv(str(tmp_path / "in.csv"), sf.synthesize(
            sf.SinusoidParams(2.0, 0.05, 0.6109), sf.NoiseSpec(0.5, 3), 100))
        paths = {"csv": str(tmp_path / "in.csv"), "dir": str(out_dir),
                 "missing": str(tmp_path / "missing.csv")}
        before = self.files(tmp_path)
        result = run_cli([arg.format(**paths) for arg in self.CASES[case]], out_dir)
        assert result.returncode == 1, result.stderr
        assert "Error:" in result.stderr and "Traceback" not in result.stderr
        assert self.files(tmp_path) == before

    def test_no_subcommand_exits_one_naming_the_commands(self, tmp_path):
        result = run_cli([], tmp_path)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert all(name in result.stderr for name in self.OPTIONS)
        assert self.files(tmp_path) == []

    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_help_names_every_option(self, tmp_path, command):
        result = run_cli([command, "--help"], tmp_path, check=0)
        for option in self.OPTIONS[command]:
            assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", result.stdout), option

    def test_negative_numbers_in_any_notation_are_values(self, tmp_path):
        run_cli(["generate", "-A", "2", "-f", "0.05", "-p", "-1e-3", "--start", "-1e5",
                 "-o", str(tmp_path / "a.csv")], tmp_path, check=0)
        _, rows = read_csv(tmp_path / "a.csv")
        assert rows[0][0] == -1e5

    def test_a_usage_error_exits_one_in_process(self, capsys):
        from sinefit.cli import main
        with pytest.raises(SystemExit) as exited:
            main(["generate", "--no-such-flag"])
        assert exited.value.code == 1
        assert "Error:" in capsys.readouterr().err

    def test_an_interrupt_exits_one_as_aborted(self, tmp_path, monkeypatch, capsys):
        from sinefit import cli

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "synthesize", interrupted)
        with pytest.raises(SystemExit) as exited:
            cli.main(["generate", "-A", "2", "-f", "0.05", "-o", str(tmp_path / "a.csv")])
        assert exited.value.code == 1
        assert capsys.readouterr().err == "aborted\n"
        assert not (tmp_path / "a.csv").exists()

    def test_importing_the_cli_leaves_click_out(self):
        code = "import sys, sinefit.cli; print('click' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.stdout == "False\n", result.stderr


# Field tokens that a CSV of any origin may hold: numbers of any magnitude
# (as Python writes them, as integers past float range and quoted), NUL,
# stray quotes and other odd text; then, each as likely as all of those,
# the two that stop the reader itself: bytes that do not decode and a field
# past the csv module's 131,072-character limit.
CSV_FIELDS = st.one_of(
    st.floats().map(lambda v: repr(v).encode()),
    st.integers(-10 ** 400, 10 ** 400).map(lambda v: str(v).encode()),
    st.floats(allow_nan=False).map(lambda v: b'"%r"' % v),
    st.sampled_from([b"", b"\x00", b"1\x002", b'"', b'1"2', b'"1,2"', b" 1 ", b"1e999",
                     b"-0", b"0x10", b"1_0"]),
    st.sampled_from([b"\xff", b"1\xfe", b"7" * 140_000]))


@st.composite
def csv_files(draw):
    """A `t,value` file of 0-60 rows of a tone at some magnitude, sampled on
    some grid, with up to three fields replaced by ``CSV_FIELDS`` tokens,
    under the header or a variant of it, with or without a BOM, ending its
    lines in LF, CRLF or CR."""
    n = draw(st.integers(0, 60))
    dt = draw(st.sampled_from([1.0, 0.37, 1e-300, 1e300]))
    scale = draw(st.floats(min_value=0.0, allow_infinity=False))
    rows = [[repr(i * dt).encode(), repr(scale * math.sin(0.3 * i)).encode()] for i in range(n)]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, 1))] = draw(CSV_FIELDS)
    header = draw(st.one_of(st.just(b"t,value"), st.sampled_from(
        [b" t , value ", b'"t","value"', b"T,value", b"t;value", b"t,value,x", b""])))
    bom = draw(st.one_of(st.just(b""), st.just(b"\xef\xbb\xbf")))
    end = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return bom + end.join([header] + [b",".join(row) for row in rows]) + end


@given(csv_files())
def test_any_csv_bytes_exit_cleanly(content):
    """Whatever the file holds, ``sinefit estimate`` exits 0, 1 or 2; on 1
    it prints one ``Error:`` line and writes no report, and a file that the
    reader cannot take whole (a byte that does not decode, a field past the
    csv module's limit) gets an error that names it."""
    from sinefit.cli import main
    try:
        content.decode("utf-8")  # the reader decodes as UTF-8, whatever the locale
        unreadable = len(content) > 131_072  # only the long field makes it so long
    except UnicodeDecodeError:
        unreadable = True
    with tempfile.TemporaryDirectory() as directory:
        path, out = os.path.join(directory, "in.csv"), os.path.join(directory, "report.json")
        with open(path, "wb") as handle:
            handle.write(content)
        stderr = StringIO()
        with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(stderr):
            try:
                main(["estimate", path, "-o", out])
                code = 0
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)
        if code == 1:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("Error: "), lines
            assert lines[0].startswith(f"Error: {path}: ") or not unreadable, lines
            assert not os.path.exists(out)
        else:
            assert not unreadable
