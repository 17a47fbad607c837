import csv
import json
import os
import subprocess
import sys

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
                 "--objective-range", "full_record", "--warm-start",
                 "--ma-k", "10", "--max-lag", "40", "--far", "0.001",
                 "-o", str(tmp_path / "report.json")], tmp_path, check=0)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["smoothing_k"] == 10
        assert report["screening"]["far"] == 0.001
        assert len(report["series"]["model_acf_full"]) == 41

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
