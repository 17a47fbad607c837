"""Smoke tests: the two scripts run end to end on the source tree."""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_figure_data_writes_every_bundle(tmp_path):
    run_script("figure_data.py", "--out", str(tmp_path))
    for scenario in ("noisy", "noise_free"):
        report = json.loads((tmp_path / scenario / "report.json").read_text())
        assert report["verdict"] == "signal"
        assert (tmp_path / scenario / "spectrum.csv").exists()
    pure = tmp_path / "pure_noise"
    report = json.loads((pure / "report.json").read_text())
    assert report["screening"]["gate_failed"] == "gate1"
    lines = (pure / "acf.csv").read_text().splitlines()
    assert lines[0] == "lag,value,lower_bound,upper_bound"
    assert len(lines) - 1 == 100 // 2 + 1


def test_monte_carlo_wraps_phase_errors():
    out = run_script("monte_carlo_summary.py", "--phase", "3.1", "--trials", "20")
    mean_abs = float(re.search(r"mean \|err\| ([-+0-9.]+) rad", out).group(1))
    assert mean_abs < 0.2, out
