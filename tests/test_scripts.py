"""Smoke tests: the scripts run end to end on the source tree, warning-free;
the same-outputs sweep matches its pinned file; bench_pairs.py's summary is
checked on canned benchmark results."""

import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""  # no warning reaches stderr
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


def test_monte_carlo_times_synthesis_and_estimation():
    lines = run_script("monte_carlo_summary.py", "--trials", "5").splitlines()
    assert lines[1] == "trials: 5  screened out: 0"
    assert re.fullmatch(r"time: synthesize [0-9.]+ s  estimate_parameters [0-9.]+ s "
                        r"over 5 trials", lines[2]), lines[2]
    assert lines[3].startswith("frequency: ")


def test_same_outputs_match_the_pinned_sweep():
    """A fresh sweep reproduces ``tests/data/same_outputs.txt`` line for line,
    warning-free, wherever numpy, Python and the SIMD dispatch match its
    header."""
    with open(os.path.join(ROOT, "tests", "data", "same_outputs.txt")) as handle:
        header, *pinned = handle.read().splitlines()
    same_outputs = load_script("same_outputs.py")
    running = same_outputs.fingerprint()
    if running != header:
        pytest.skip(f"pinned under {header!r}, running under {running!r}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lines = list(same_outputs.sweep())
    assert [str(warning.message) for warning in caught] == []

    def keyed(sweep):  # "<input> <config>" -> line
        return {" ".join(line.split()[:2]): line for line in sweep}

    old, new = keyed(pinned), keyed(lines)
    moved = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
    assert not moved, f"{len(moved)} of {len(pinned)} lines moved: " + "; ".join(moved)
    assert lines == pinned  # and in the same order


CODE_LINES_FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves the line a code line

# a comment line


def f(a,
      b):
    """Function docstring."""
    text = """a string that is not a docstring
spans two lines"""
    return (a +
            # a comment inside a statement
            b)
'''


def test_code_lines_counts_only_statement_lines(tmp_path):
    (tmp_path / "fixture.py").write_text(CODE_LINES_FIXTURE)
    (tmp_path / "notes.txt").write_text("x = 1\n")
    # import 1, def over 2 lines, the two-line string 2, return over 2 lines
    assert run_script("code_lines.py", str(tmp_path)) == "fixture.py 7\ntotal 7\n"
    assert load_script("code_lines.py").code_lines(str(tmp_path / "fixture.py")) == 7


def test_code_lines_totals_the_package():
    lines = run_script("code_lines.py").splitlines()
    counts = dict(line.split() for line in lines)
    assert sorted(counts) == sorted(name for name in os.listdir(
        os.path.join(ROOT, "src", "sinefit")) if name.endswith(".py")) + ["total"]
    assert int(counts.pop("total")) == sum(int(count) for count in counts.values())


def test_ab_timing_prints_one_ratio_per_setting():
    src = os.path.join(ROOT, "src")
    lines = run_script("ab_timing.py", src, src, "--pairs", "2", "--batch-ms", "1").splitlines()
    assert len(lines) == 15, lines
    assert [line.split(":")[0] for line in lines] == [
        "n=100 one_period", "n=100 one_period new grids", "n=1000 one_period",
        "n=1001 one_period",
        "n=10000 full_record", "n=1000 white_noise", "n=1001 white_noise", "n=1000 ar1",
        "n=100 read_all", "n=10000 read_all", "n=100 grid one_period",
        "n=10000 grid full_record", "n=100 synthesize", "n=1000 synthesize",
        "n=10000 synthesize"]
    pattern = re.compile(r"n=\d+ (one_period|one_period new grids|full_record|white_noise|ar1|"
                         r"read_all|synthesize|grid one_period|grid full_record): "
                         r"change/parent ([0-9.]+) \(quartiles ([0-9.]+)-([0-9.]+)\) "
                         r"parent loaded first, "
                         r"([0-9.]+) \(quartiles ([0-9.]+)-([0-9.]+)\) change loaded first, "
                         r"2 pairs, parent [0-9.]+ ms/record, "
                         r"parent/parent quartiles ([0-9.]+)-([0-9.]+)")
    for line in lines:
        match = pattern.fullmatch(line)
        assert match, line
        for first in (2, 5):  # each load order's quartiles bracket its median
            q1, median, q3 = (float(match.group(first + i)) for i in (1, 0, 2))
            assert 0 < q1 <= median <= q3
        # two pairs give one batch-to-batch ratio for each of the two parent copies
        assert 0 < float(match.group(8)) <= float(match.group(9))


def test_ab_timing_only_times_the_named_settings():
    src = os.path.join(ROOT, "src")
    lines = run_script("ab_timing.py", src, src, "--pairs", "1", "--batch-ms", "1",
                       "--only", "n=1000 ar1", "--only", "n=100 one_period").splitlines()
    assert [line.split(":")[0] for line in lines] == ["n=100 one_period", "n=1000 ar1"]
    unknown = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "ab_timing.py"),
                              src, src, "--only", "n=100 one_period", "--only", "n=100"],
                             capture_output=True, text=True)
    assert unknown.returncode == 1 and unknown.stdout == ""
    assert "unknown setting 'n=100'" in unknown.stderr
    assert "n=100 one_period new grids\n" in unknown.stderr  # the valid labels are listed


def test_cli_timing_prints_both_settings():
    src = os.path.join(ROOT, "src")
    lines = run_script("cli_timing.py", src, src, "--pairs", "1").splitlines()
    assert [line.split(":")[0] for line in lines] == ["import", "estimate"]
    side = r"([0-9.]+) ms \(([0-9.]+)-([0-9.]+)\)"
    pattern = re.compile(rf"(import|estimate): parent {side}, change {side}, "
                         r"change faster in [01]/1 pairs, median saving -?[0-9.]+ ms")
    for line in lines:
        match = pattern.fullmatch(line)
        assert match, line
        # one pair: each side's quartiles are its one time
        assert match.group(2) == match.group(3) == match.group(4), line
        assert match.group(5) == match.group(6) == match.group(7), line


def load_script(name):
    spec = importlib.util.spec_from_file_location(name[:-3], os.path.join(ROOT, "scripts", name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summarizes_canned_runs():
    bench_pairs = load_script("bench_pairs.py")
    bench = {"workloads": [{"name": "w"}],
             "end_to_end": [{"name": "records_per_s", "better": "higher", "bound": 0.25},
                            {"name": "latency_p50_ms", "better": "lower", "bound": 0.25}]}

    def run(records_per_s, p50_ms, failed=0):
        return {"correct": True, "attempted": 100, "failed": failed,
                "metrics": {"w.records_per_s": {"value": records_per_s, "unit": "records/s"},
                            "w.latency_p50_ms": {"value": p50_ms, "unit": "ms"}}}

    runs = {"parent": [run(100.0, 1.0), run(110.0, 1.0), run(90.0, 1.0)],
            "change": [run(105.0, 1.4), run(100.0, 1.3), run(95.0, 1.2, failed=2)]}
    assert bench_pairs.summarize(bench, runs) == [
        "w.records_per_s (higher is better, bound 0.25): parent 100 (95-105), "
        "change 100 (97.5-102.5), change better in 2/3, worse beyond bound: no",
        "w.latency_p50_ms (lower is better, bound 0.25): parent 1 (1-1), "
        "change 1.3 (1.25-1.35), change better in 0/3, worse beyond bound: yes",
        "parent: 300 operations attempted, 0 failed, correct=true",
        "change: 300 operations attempted, 2 failed, correct=true",
    ]

    # Ten pairs, judged by the claim rule: the change wins at least nine
    # of them and the gap between the medians exceeds the parent's IQR.
    parent = [run(100.0, 1.0 + i / 64) for i in range(10)]
    claim = "w.latency_p50_ms"

    def claim_line(change):
        return bench_pairs.summarize(bench, {"parent": parent, "change": change},
                                     claim=claim)[-1]

    faster = [run(100.0, 0.75 + i / 64) for i in range(10)]
    assert claim_line(faster) == (
        "claim w.latency_p50_ms: change better in 10/10 pairs, median gap 0.25, "
        "parent IQR 0.0703125, failed 0/1000 (parent) and 0/1000 (change): met")
    two_slower = [run(100.0, 2.0)] * 2 + faster[2:]
    assert claim_line(two_slower).endswith(
        "better in 8/10 pairs, median gap 0.21875, parent IQR 0.0703125, "
        "failed 0/1000 (parent) and 0/1000 (change): not met, fewer than 9/10 pairs won")
    slightly_faster = [run(100.0, 1.0 + i / 64 - 1 / 1024) for i in range(10)]
    assert claim_line(slightly_faster).endswith(
        "better in 10/10 pairs, median gap 0.000976562, parent IQR 0.0703125, "
        "failed 0/1000 (parent) and 0/1000 (change): "
        "not met, gap not wider than the parent's IQR")
    tie = [run(100.0, 1.0 + i / 64) for i in range(10)]
    assert claim_line(tie).endswith(
        "better in 0/10 pairs, median gap 0, parent IQR 0.0703125, "
        "failed 0/1000 (parent) and 0/1000 (change): not met, fewer than 9/10 pairs won; "
        "gap not wider than the parent's IQR")
    # A gain does not count when a larger share of operations fails; the
    # share, since a faster side attempts more operations.
    failing = [run(100.0, 0.75 + i / 64, failed=1) for i in range(10)]
    assert claim_line(failing).endswith(
        "failed 0/1000 (parent) and 10/1000 (change): "
        "not met, a larger share of operations failed")
    parent = [run(100.0, 1.0 + i / 64, failed=1) for i in range(10)]
    more_attempts = [dict(run(100.0, 0.75 + i / 64, failed=2), attempted=200)
                     for i in range(10)]
    assert claim_line(more_attempts).endswith(
        "failed 10/1000 (parent) and 20/2000 (change): met")
    assert claim_line([dict(r, attempted=199) for r in more_attempts]).endswith(
        "failed 10/1000 (parent) and 20/1990 (change): "
        "not met, a larger share of operations failed")
    assert not any(line.startswith("claim") for line in bench_pairs.summarize(
        bench, {"parent": parent, "change": faster}))

    # A parent spread wider than the bound cannot show that the change is
    # no worse, unless every change run beats every parent run.
    def records_line(parent_rates, change_rates):
        runs = {"parent": [run(r, 1.0) for r in parent_rates],
                "change": [run(r, 1.0) for r in change_rates]}
        return bench_pairs.summarize(bench, runs)[0]

    wide = [50.0, 150.0] * 5
    assert records_line(wide, [60.0, 140.0] * 5) == (
        "w.records_per_s (higher is better, bound 0.25): parent 100 (50-150), "
        "change 100 (60-140), change better in 5/10, worse beyond bound: unresolved")
    assert records_line(wide, [160.0] * 10).endswith("better in 10/10, worse beyond bound: no")
    assert records_line(wide, [40.0] * 10).endswith("better in 0/10, worse beyond bound: yes")

