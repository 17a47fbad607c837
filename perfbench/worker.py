"""One benchmark run of one workload, in a fresh process.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and
every BLAS/OpenMP pool limited to one thread.  The run is a closed loop:
one caller sends the next record only after the previous one returns.
It repeats whole rounds of the same operations until --seconds have
passed, checks every output against checks.py, and prints one JSON
object on its last stdout line for run.py to report.

With --trace 1 untraced and traced rounds alternate.  In a traced round
each record's estimate_parameters call is the parent span, and
the public stage functions are then called again, in pipeline order, as
its child spans.  Spans stay in memory and go to a JSON-lines file under
.perfbench_out/ when the run ends.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here: before numpy is imported

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import sinefit as sf
from sinefit import io as sfio

import checks

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# The paper's demo tone (A, f, phi) and noise level.
DEMO = (2.0, 0.05, 0.6109)
SIGMA = 0.5
AR_COEFFICIENT = 0.3
# A VM that shares its cores with other tenants can run 1.3 to 1.9 times
# slower for seconds to minutes at a time (measured on a 2-core Xeon VM),
# which moves raw times between runs by more than any bound a change could
# be held to.  So every end-to-end time is reported at a reference speed:
# a fixed reference task is timed at each round boundary, and a time t is
# reported as t * REFERENCE_MS / (the reference's time around it).  The
# library workloads' reference is numpy and Python work on an array of
# the workload's record length, except that records rejected at gate 1
# (about 0.1 ms, mostly small numpy calls, which slow less) are scaled by
# a task of small numpy calls; the CLI's and set-up's reference is a
# fresh interpreter importing numpy and click.  REFERENCE_MS is each task's
# time on that 2-core Xeon VM when it is not slowed; changing a task
# means measuring its entry again.
REFERENCE_MS = {100: 1.1, 1000: 0.95, 10_000: 2.4, "gate1": 0.72, "spawn": 130.0}
# The tasks are repeated on short records so that one timing takes ~1 ms.
REFERENCE_REPEATS = {100: 10, 1000: 3, 10_000: 1, "gate1": 20}
# Noise seed of the fixed records that carry one NaN or one +inf sample.
# It does not depend on --seed, so those records are the same in every run.
FIXED_SEED = 1104

# One screen_mix round: 24 white, 8 AR(1), 6 tones, 1 NaN and 1 +inf record.
# White records come in runs of 12, so most of them follow another cheap
# gate-1 reject and the median falls inside that group, not at its edge.
SCREEN_ROUND = (("white",) * 12 + ("ar1", "tone", "ar1", "tone", "nan", "ar1", "tone", "ar1")
                + ("white",) * 12 + ("ar1", "tone", "ar1", "tone", "inf", "ar1", "tone", "ar1"))


@dataclass(frozen=True)
class Spec:
    """Inputs of one workload: record length, pipeline config, round shape."""

    index: int
    n: int
    config: sf.PipelineConfig
    round_kinds: tuple
    rounds_in_pool: int  # distinct rounds before the pool repeats
    cli: bool = False
    gate1_kinds: tuple = ()  # record kinds scaled by the gate-1 reference


SPECS = {
    "desk_mc": Spec(0, 100, sf.PipelineConfig(), ("tone",) * 50, 20),
    "long_record": Spec(1, 10_000, sf.PipelineConfig(objective_range="full_record"),
                        ("tone",), 32),
    "screen_mix": Spec(2, 1000, sf.PipelineConfig(), SCREEN_ROUND, 20,
                       gate1_kinds=("white", "nan")),
    "cli_files": Spec(3, 1000, sf.PipelineConfig(), ("tone", "white", "tone", "tone"),
                      24, cli=True),
}


@dataclass
class Item:
    kind: str  # tone, white, ar1, nan or inf
    record: sf.TimeSeries
    csv: str = ""


class Spans:
    """In-memory span recorder: (id, parent, record, name, start, end)."""

    def __init__(self):
        self.rows = []
        self.last = None

    def call(self, name, fn, *args, record, parent=None):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.last = len(self.rows)
            self.rows.append((self.last, parent, record, name, start, time.perf_counter()))

    def durations(self, name):
        return [end - start for _, _, _, n, start, end in self.rows if n == name]

    def dump(self, path):
        with open(path, "w") as handle:
            for sid, parent, record, name, start, end in self.rows:
                handle.write(json.dumps({"id": sid, "parent": parent, "record": record,
                                         "name": name, "start_s": start - _T0,
                                         "end_s": end - _T0}) + "\n")


def build_pool(spec, seed, spans, tmp):
    """Seeded records for every slot of the pool, plus CSV files for the CLI."""
    kinds = spec.round_kinds * spec.rounds_in_pool
    seeds = np.random.default_rng([seed, spec.index]).integers(2 ** 62, size=len(kinds))
    tone = sf.SinusoidParams(*DEMO)

    def synth(noise_seed):
        if spans is None:
            return sf.synthesize(tone, sf.NoiseSpec(SIGMA, int(noise_seed)), spec.n)
        return spans.call("model.synthesize", sf.synthesize, tone,
                          sf.NoiseSpec(SIGMA, int(noise_seed)), spec.n, record=None)

    fixed = {}
    for kind, value in (("nan", math.nan), ("inf", math.inf)):
        samples = np.array(synth(FIXED_SEED).samples)
        samples[spec.n // 2] = value
        fixed[kind] = Item(kind, sf.TimeSeries(0.0, 1.0, samples))
    items = []
    for kind, noise_seed in zip(kinds, seeds):
        if kind in fixed:
            items.append(fixed[kind])
            continue
        if kind == "tone":
            record = synth(noise_seed)
        else:
            e = SIGMA * np.random.default_rng(noise_seed).standard_normal(spec.n)
            if kind == "ar1":
                for i in range(1, e.size):
                    e[i] += AR_COEFFICIENT * e[i - 1]
            record = sf.TimeSeries(0.0, 1.0, e)
        items.append(Item(kind, record))
    if spec.cli:
        for i, item in enumerate(items):
            item.csv = os.path.join(tmp, f"in{i:04d}.csv")
            sfio.write_timeseries_csv(item.csv, item.record)
    return items


def cli_command(csv, out_json, plot_dir):
    return [sys.executable, "-m", "sinefit.cli", "estimate", csv,
            "-o", out_json, "--plot-data", plot_dir]


def run_quiet(command):
    return subprocess.run(command, capture_output=True)


def warm_up(spec, tmp):
    """Run one operation on a record outside the pool, so lazy set-up is done."""
    record = sf.synthesize(sf.SinusoidParams(*DEMO), sf.NoiseSpec(SIGMA, FIXED_SEED), 100)
    if not spec.cli:
        sf.estimate_parameters(record, spec.config)
        return
    csv = os.path.join(tmp, "warmup.csv")
    sfio.write_timeseries_csv(csv, record)
    subprocess.run(cli_command(csv, os.path.join(tmp, "warmup.json"),
                               os.path.join(tmp, "warmup_plot")),
                   capture_output=True, check=True)


class Results:
    """Failure counts, output checks and accuracy sums over one run."""

    def __init__(self, spec):
        self.spec = spec
        self.attempted = 0
        self.failed = 0
        self.problems = []  # wrong outputs of operations that did not fail
        self.failures = {}  # failure message -> count
        self.seen = {}  # pool index -> signature of its first output
        self.phase = []  # (error, first-order error, CRB variance) per distinct tone
        self.amp_err = []
        self.white = [0, 0]  # distinct white records, and how many were called signal

    def record(self, index, item, signature, failure, problems):
        self.attempted += 1
        if failure:
            self.failed += 1
            key = f"{item.kind}: {failure}"
            self.failures[key] = self.failures.get(key, 0) + 1
        if index in self.seen:
            if self.seen[index] != signature:
                self.problems.append(f"{item.kind} #{index}: output changed between rounds")
            return
        self.seen[index] = signature
        self.problems.extend(f"{item.kind} #{index}: {p}" for p in problems)

    def accuracy(self, item, est):
        t = item.record.times()
        x = np.asarray(item.record.samples)
        m = checks.objective_mask(t, DEMO[1], self.spec.config.objective_range)
        err = checks.wrap(est[2] - DEMO[2])
        self.phase.append((err, checks.first_order_phase_error(t[m], x[m], DEMO),
                           checks.crb_phase_sigma(t[m], DEMO, SIGMA) ** 2))
        self.amp_err.append(est[0] - DEMO[0])

    def finish(self):
        n, alarms = self.white
        if n and alarms > checks.binomial_upper(n, self.spec.config.far):
            self.problems.append(f"{alarms} of {n} white-noise records passed the "
                                 f"screen, above the binomial bound at far")
        if not self.phase:
            self.problems.append("no tone was estimated")


def check_report(res, index, item, report, exc):
    """Classify one library call and check its output the first time it is seen."""
    kind = item.kind
    if kind in ("nan", "inf"):
        if isinstance(exc, ValueError):
            return res.record(index, item, "ValueError", None, [])
        failure = (f"raised {exc!r}" if exc is not None else
                   f"non-finite sample accepted, verdict {report.verdict}")
        return res.record(index, item, "accepted", failure, [])
    if exc is not None:
        return res.record(index, item, repr(exc), f"raised {exc!r}", [])
    params = report.params
    est = None if params is None else (params.amplitude, params.frequency_hz,
                                       params.phase_rad)
    if index in res.seen:
        return res.record(index, item, (report.verdict, est), None, [])
    x = np.asarray(item.record.samples)
    problems = checks.check_screening(x, res.spec.config.far, asdict(report.screening))
    if kind == "white":
        res.white[0] += 1
        res.white[1] += report.verdict == "signal"
    if kind == "tone":
        if est is None:
            problems.append(f"tone rejected by the screen ({report.screening.gate_failed})")
        else:
            problems += checks.check_tone(item.record.times(), x, DEMO, SIGMA,
                                          res.spec.config.objective_range, est)
            res.accuracy(item, est)
    return res.record(index, item, (report.verdict, est), None, problems)


def check_cli(res, index, item, returncode, out_json, plot_dir):
    """Exit code, report keys, library agreement and acf.csv for one CLI run."""
    expected = 0 if item.kind == "tone" else 2
    if returncode not in (0, 2):
        return res.record(index, item, returncode, f"exit code {returncode}", [])
    if index in res.seen:
        return res.record(index, item, returncode, None, [])
    problems = []
    if returncode != expected:
        problems.append(f"exit code {returncode}, expected {expected}")
    with open(out_json) as handle:
        report = json.load(handle)
    if list(report) != checks.REPORT_KEYS:
        problems.append(f"report keys {list(report)} != pinned REPORT_KEYS")
    data = np.loadtxt(item.csv, delimiter=",", skiprows=1)
    t, x = data[:, 0], data[:, 1]
    problems += checks.check_screening(x, res.spec.config.far, report["screening"])
    acf = np.loadtxt(os.path.join(plot_dir, "acf.csv"), delimiter=",", skiprows=1)
    bound = report["screening"]["acf_bound"]
    if (np.max(np.abs(acf[:, 1] - checks.fft_acf(x, x.size // 2))) > 1e-9
            or not np.all(acf[:, 3] == bound) or not np.all(acf[:, 2] == -bound)):
        problems.append("acf.csv differs from the FFT ACF or its bounds")
    if item.kind == "white":
        res.white[0] += 1
        res.white[1] += report["verdict"] == "signal"
    if item.kind == "tone" and report["params"] is not None:
        p = report["params"]
        est = (p["amplitude"], p["frequency_hz"], p["phase_rad"])
        lib = sf.estimate_parameters(sf.TimeSeries(t[0], t[1] - t[0], x)).params
        if lib is None or max(abs(a - b) for a, b in zip(
                est, (lib.amplitude, lib.frequency_hz, lib.phase_rad))) > 1e-12:
            problems.append(f"CLI parameters {est} differ from the library's {lib}")
        problems += checks.check_tone(t, x, DEMO, SIGMA,
                                      res.spec.config.objective_range, est)
        res.accuracy(item, est)
    return res.record(index, item, returncode, None, problems)


def replay_stages(spans, rid, pid, record, report, config):
    """Call the public stage functions in pipeline order as child spans."""
    span = spans.call
    span("screening.screen", sf.screen, record, config.far, record=rid, parent=pid)
    span("screening.runs_test", sf.runs_test, record, config.far, record=rid, parent=pid)
    p = report.params
    if p is None:
        return
    max_lag = config.max_lag if config.max_lag is not None else len(record) // 2
    smoothed = span("smoothing.moving_average", sf.moving_average, record, config.ma_k,
                    record=rid, parent=pid)
    span("smoothing.amplitude_estimate", sf.amplitude_estimate, smoothed,
         record=rid, parent=pid)
    spectrum = span("spectrum.dft_magnitude", sf.dft_magnitude, record,
                    record=rid, parent=pid)
    span("spectrum.fundamental_frequency", sf.fundamental_frequency, spectrum,
         record=rid, parent=pid)
    span("acf.circular_acf", sf.circular_acf, record, max_lag, record=rid, parent=pid)
    try:
        span("estimate.detect_t2pi", sf.detect_t2pi, smoothed, record=rid, parent=pid)
    except ValueError:
        pass  # the pipeline skips the crossover check the same way
    objective = sf.PhaseObjective(record, p.amplitude, p.frequency_hz,
                                  config.objective_range)
    span("estimate.phase_grid_search", sf.phase_grid_search, objective,
         record=rid, parent=pid)
    per_sample = sf.SinusoidParams(p.amplitude, p.frequency_hz * record.dt, p.phase_rad)
    try:
        span("acf.model_acf_full", sf.model_acf_full, per_sample, max_lag,
             record=rid, parent=pid)
    except sf.DegenerateParametersError:
        pass


def replay_io(spans, rid, record, report, csv, tmp, written):
    """Time the readers and writers the CLI uses, on this record and report."""
    span = spans.call
    span("io.read_timeseries_csv", sfio.read_timeseries_csv, csv, record=rid)
    payload = span("io.report_to_dict", sfio.report_to_dict, report, record=rid)
    json_path = os.path.join(tmp, "replay.json")
    plot_dir = os.path.join(tmp, "replay_plot")
    span("io.write_json", sfio.write_json, json_path, payload, record=rid)
    bound = report.screening.acf_bound if report.screening else None
    paths = span("io.write_plot_data", sfio.write_plot_data, plot_dir, record, report,
                 bound, record=rid)
    written[0] += sum(os.path.getsize(p) for p in [json_path, *paths])


def grid_peak_mb(record, report, config):
    """tracemalloc peak of one phase_grid_search call, in MB."""
    p = report.params
    objective = sf.PhaseObjective(record, p.amplitude, p.frequency_hz,
                                  config.objective_range)
    tracemalloc.start()
    try:
        sf.phase_grid_search(objective)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class SpeedReference:
    """Times one fixed reference task, to scale times to REFERENCE_MS[key]."""

    def __init__(self, key, n=1000):
        self.key = key  # a record length, "gate1" or "spawn"
        self.x = np.random.default_rng(0).standard_normal(n)
        self.t = np.arange(n, dtype=float)
        self.repeats = REFERENCE_REPEATS.get(key, 1)

    def _work(self):
        x = self.x
        if self.key == "spawn":
            subprocess.run([sys.executable, "-c", "import numpy, click"], check=True)
        elif self.key == "gate1":
            # Many small numpy calls, like a runs test that rejects a record.
            for _ in range(self.repeats):
                med = np.median(x)
                above, below = x > med, x < med
                signs = above[above | below]
                np.count_nonzero(signs)
                np.count_nonzero(signs[1:] != signs[:-1])
                p = np.atleast_1d(np.asarray(0.995))
                np.any((p <= 0.0) | (p >= 1.0))
                np.sqrt(-2.0 * np.log(1.0 - p))
        else:
            # A median split with a Python runs count, an FFT power spectrum
            # and ten sums of squares: the mix of work an estimate does.
            for _ in range(self.repeats):
                med = float(np.median(x))
                signs = [v > med for v in x.tolist()]
                sum(a != b for a, b in zip(signs, signs[1:]))
                y = x - x.mean()
                np.fft.irfft(np.abs(np.fft.rfft(y)) ** 2, n=y.size)
                for k in range(10):
                    np.sum((x - 2.0 * np.sin(0.1 * self.t + 0.1 * k)) ** 2)

    def measure_ms(self):
        """Fastest of three runs of the reference task (two for a spawn)."""
        times = []
        for _ in range(2 if self.key == "spawn" else 3):
            t0 = time.perf_counter()
            self._work()
            times.append(time.perf_counter() - t0)
        return 1e3 * min(times)

    def scale(self, measured_ms):
        return REFERENCE_MS[self.key] / measured_ms


def run_one(spec, item, index, rid, tracing, spans, res, tmp, trace):
    """Send one record (or start one CLI process), check it; return its latency."""
    if spec.cli:
        out_json = os.path.join(tmp, f"out{rid}.json")
        plot_dir = os.path.join(tmp, f"plot{rid}")
        command = cli_command(item.csv, out_json, plot_dir)
        t0 = time.perf_counter()
        if tracing:
            done = spans.call("cli.estimate_process", run_quiet, command, record=rid)
        else:
            done = run_quiet(command)
        latency = time.perf_counter() - t0
        check_cli(res, index, item, done.returncode, out_json, plot_dir)
        shutil.rmtree(plot_dir, ignore_errors=True)
        if os.path.exists(out_json):
            os.unlink(out_json)
        if tracing:
            record = spans.call("io.read_timeseries_csv", sfio.read_timeseries_csv,
                                item.csv, record=rid)
            replay_traced(spans, rid, index, record, None, spec, item.csv, tmp, trace)
        return latency
    report = exc = None
    t0 = time.perf_counter()
    try:
        if tracing:
            report = spans.call("estimate.estimate_parameters", sf.estimate_parameters,
                                item.record, spec.config, record=rid)
        else:
            report = sf.estimate_parameters(item.record, spec.config)
    except Exception as err:  # counted as a failed operation
        exc = err
    latency = time.perf_counter() - t0
    check_report(res, index, item, report, exc)
    if tracing and report is not None:
        csv = os.path.join(tmp, "replay.csv")
        sfio.write_timeseries_csv(csv, item.record)
        replay_traced(spans, rid, index, item.record, report, spec, csv, tmp, trace,
                      parent=spans.last)
    return latency


def run(spec, items, seconds, spans, tmp):
    """Closed loop over whole rounds until `seconds` have passed.

    The speed references are timed at every round boundary, and a round's
    times are scaled by the mean of the two measurements around it.
    """
    started = time.perf_counter()
    res = Results(spec)
    references = {"main": SpeedReference("spawn" if spec.cli else spec.n, spec.n)}
    if spec.gate1_kinds:
        references["gate1"] = SpeedReference("gate1", spec.n)
    timing = {"scaled": [], "round_s": [], "raw": [], "traced_raw": []}
    trace = {"unattributed": [], "grid_peak_mb": [], "written": [0], "reports": {}}
    round_size = len(spec.round_kinds)
    before = {name: ref.measure_ms() for name, ref in references.items()}
    next_round = 0
    # A traced run needs at least one untraced and one traced round.
    while time.perf_counter() - started < seconds or (spans is not None and next_round < 2):
        # With tracing on, odd rounds are traced and even rounds are not, so
        # drift in machine speed affects both halves of the overhead alike.
        tracing = spans is not None and next_round % 2 == 1
        first = (next_round * round_size) % len(items)
        indices = range(first, first + round_size)
        raw = [run_one(spec, items[i], i, res.attempted, tracing, spans, res, tmp, trace)
               for i in indices]
        after = {name: ref.measure_ms() for name, ref in references.items()}
        scales = {name: ref.scale((before[name] + after[name]) / 2.0)
                  for name, ref in references.items()}
        before = after
        if tracing:
            timing["traced_raw"] += raw
        else:
            scaled = [latency * scales["gate1" if items[i].kind in spec.gate1_kinds
                                       else "main"]
                      for latency, i in zip(raw, indices)]
            timing["raw"] += raw
            timing["scaled"] += scaled
            timing["round_s"].append(sum(scaled))
        next_round += 1
    return res, timing, trace


def replay_traced(spans, rid, index, record, report, spec, csv, tmp, trace, parent=None):
    if parent is None:  # cli_files: the in-process estimate becomes the parent
        report = spans.call("estimate.estimate_parameters", sf.estimate_parameters,
                            record, spec.config, record=rid)
        parent = spans.last
    first_child = len(spans.rows)
    replay_stages(spans, rid, parent, record, report, spec.config)
    if report.params is None:
        return
    parent_row = spans.rows[parent]
    children = sum(end - start for _, _, _, name, start, end in spans.rows[first_child:]
                   if name != "screening.runs_test")
    trace["unattributed"].append(parent_row[5] - parent_row[4] - children)
    replay_io(spans, rid, record, report, csv, tmp, trace["written"])
    if index not in trace["reports"]:
        trace["reports"][index] = report
        trace["grid_peak_mb"].append(grid_peak_mb(record, report, spec.config))


def cli_import_seconds(repeats=3):
    """Time `import sinefit.cli` in fresh interpreters; median seconds."""
    code = ("import time; t = time.perf_counter(); import sinefit.cli; "
            "print(time.perf_counter() - t)")
    return float(np.median([float(subprocess.run([sys.executable, "-c", code],
                                                 capture_output=True, text=True,
                                                 check=True).stdout)
                            for _ in range(repeats)]))


def end_to_end(res, timing, spec):
    scaled = np.asarray(timing["scaled"])
    raw = np.asarray(timing["raw"])
    who = resource.RUSAGE_CHILDREN if spec.cli else resource.RUSAGE_SELF
    errors = np.asarray(res.phase)
    # Control-variate estimate of the mean squared phase error: the
    # first-order error has a known mean square (the CRB variance), so
    # only the small difference e^2 - e1^2 is sampled.
    phase_ms = errors[:, 2].mean() + np.mean(errors[:, 0] ** 2 - errors[:, 1] ** 2)
    return {
        "records_per_s": len(spec.round_kinds) / float(np.median(timing["round_s"])),
        "latency_p50_ms": 1e3 * float(np.percentile(scaled, 50)),
        "latency_p90_ms": 1e3 * float(np.percentile(scaled, 90)),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "phase_rmse_rad": math.sqrt(phase_ms),
        "amplitude_rmse": math.sqrt(float(np.mean(np.square(res.amp_err)))),
    }, {
        "unscaled_records_per_s": raw.size / raw.sum(),
        "unscaled_latency_p50_ms": 1e3 * float(np.percentile(raw, 50)),
        "unscaled_latency_p90_ms": 1e3 * float(np.percentile(raw, 90)),
        "phase_rmse_plain_rad": math.sqrt(float(np.mean(errors[:, 0] ** 2))),
        "distinct_tones": len(res.phase),
    }


def per_layer(spans, timing, trace):
    def ms(name):
        values = spans.durations(name)
        return 1e3 * float(np.median(values)) if values else math.nan

    written_s = sum(sum(spans.durations(n)) for n in ("io.write_json", "io.write_plot_data"))
    estimated = list(trace["reports"].values())
    metrics = {name + "_ms": ms(name) for name in (
        "model.synthesize", "screening.screen", "screening.runs_test", "acf.circular_acf",
        "acf.model_acf_full", "smoothing.moving_average", "spectrum.dft_magnitude",
        "estimate.estimate_parameters", "estimate.detect_t2pi",
        "estimate.phase_grid_search", "io.read_timeseries_csv", "io.report_to_dict",
        "io.write_json", "io.write_plot_data")}
    metrics.update({
        "estimate.phase_grid_search_peak_mb": float(np.median(trace["grid_peak_mb"])),
        "estimate.unattributed_ms": 1e3 * float(np.median(trace["unattributed"])),
        "estimate.crossover_check_ratio":
            sum("crossover" in r.phase_cross_checks for r in estimated) / len(estimated),
        "estimate.warning_ratio": sum(bool(r.warnings) for r in estimated) / len(estimated),
        "io.write_mb_per_s": trace["written"][0] / 1e6 / written_s,
        "cli.import_s": cli_import_seconds(),
        "trace.overhead_pct": 100.0 * (np.median(timing["traced_raw"])
                                       / np.median(timing["raw"]) - 1.0),
    })
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="Stop after set-up and report only setup_s.")
    args = parser.parse_args()
    spec = SPECS[args.workload]
    spans = Spans() if args.trace else None

    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT_DIR, prefix=f"{args.workload}-")
    try:
        items = build_pool(spec, args.seed, spans, tmp)
        warm_up(spec, tmp)
        setup_raw = time.perf_counter() - _T0
        # Set-up is mostly interpreter start-up and imports, so it is scaled
        # by the spawn reference whatever the workload.
        spawn = SpeedReference("spawn")
        setup_s = setup_raw * spawn.scale(spawn.measure_ms())
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
            return
        res, timing, trace = run(spec, items, args.seconds, spans, tmp)
        res.finish()
        out = {"attempted": res.attempted, "failed": res.failed,
               "correct": not res.problems, "problems": res.problems[:20],
               "failures": res.failures, "numpy": np.__version__,
               "setup_raw_s": setup_raw}
        if spans is None:
            metrics, extra = end_to_end(res, timing, spec)
            out.update(metrics=dict(setup_s=setup_s, **metrics), extra=extra)
        else:
            out.update(metrics=per_layer(spans, timing, trace))
            span_file = OUT_DIR / f"spans_{args.workload}_seed{args.seed}.jsonl"
            spans.dump(span_file)
            out["span_file"] = str(span_file.relative_to(ROOT))
        print(json.dumps(out))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
