"""Print one line per case of the standard same-outputs sweep.

Run it in two checkouts and diff the outputs to see whether a change
moves any result of ``estimate_parameters``:

    PYTHONPATH=src python scripts/same_outputs.py > after.txt

``tests/data/same_outputs.txt`` holds this output for the committed
source, and ``tests/test_scripts.py`` compares a fresh sweep with it; a
change that moves outputs on purpose regenerates that file with the
command above.

Inputs: tones (A = 2, phi = 0.6109) at f in {0.05, 0.0537, 0.123} Hz,
N in {100, 1000, 10000} and sigma in {0, 0.5, 2} (noise seeds 0 and 1
when sigma > 0), the same tones sampled from t = -2.3 s every 0.37 s
(noise seed 0), plus white-noise and AR(1) (rho = 0.3) records at each
N, seeds 0 and 1.  The shifted grid exercises the start-time rotation of
the full-record phase sums and the index arithmetic of the one-period
window.  Nine edge records close the list: [1, 2, -3, 0, 0] repeated to
N = 100, which passes the screen but which MA-5 smooths to a constant;
the same record with sample 53 set to 1e-170, whose amplitude 1e-171
leaves every grid value rounded to the same constant, so the grid phase
is the first point's, -pi - 0.01 (the tie rule);
the N = 100 tone at sigma = 0.5 (seed 3) on dt = float max/100, where
the crossing spacings sum past float max; the N = 100 tone at phi = 3.14
and sigma = 0.5 (seed 2), whose grid phase steps past pi under every
config, so the report wraps it; the N = 100 tone at f*dt = 0.5
(sigma = 0.5, seed 0), the Nyquist bin, where the objective's
double-angle sums fall back to direct sums over the sample times; the
N = 100 tone at f = 0.025 Hz (sigma = 0.5, seed 4) on the integer grid
TimeSeries(3, 2, ...), which a record holds as the floats 3.0 and 2.0;
and a 50 Hz tone (sigma = 0.5, seed 5) sampled every 1 ms from
t = 1.7e9 s (N = 200), whose times a float holds only to about 2.4e-7 s,
so the CSV's steps differ by that much; 18 zeros with one 1.0 and one
-1.0 (N = 20), one sample on each side of the median, whose runs count
has no variance; and 2*sin(0.98*pi*k) plus sigma = 0.5 noise (seed 0,
N = 100) on dt = 2.497e-308, a tone near Nyquist whose double angle
4*pi*f in the phase search overflows although 2*pi*f does not.
Configs: default, full_record, ma_k=1, skip_screen.

The first line is a ``#`` comment that names numpy's version, Python's
version and the SIMD extensions numpy found on this CPU (as
``numpy.show_runtime()`` reports them): the hashes may depend on numpy's
dispatched ``sin``/``cos`` and on the BLAS dot kernel, so they are
compared only between runs with the same fingerprint.

Every other line is ``<input> <config> <sha256> acf_arccos=<v> acf_period=<v>``.
The hash covers the canonical JSON of ``report_to_dict`` (or of the
error message, when the pipeline raises a ``ValueError``, or of
``<TypeName>: <message>`` for any other exception, so that a tree that
crashes on one input still gets a line for every case) without the two
ACF-derived frequency reads, which follow it rounded to 1e-15 (``-``
when absent): they may move in the last bits when the ACF's arithmetic
changes.  When
the pipeline returns a report, the hash also covers the name and the
bytes of every file of the ``write_plot_data`` bundle, written with the
screening decision's ACF bound as ``sinefit estimate --plot-data`` does.

Each input also gets one ``<input> screen <sha256>`` line: the hash of
``sinefit screen``'s exit code and of the bytes of the ``screening.json``
and ``screening_acf.csv`` it writes for the input saved as CSV (or of
its output, when it exits 1).  The command runs in-process through
``sinefit.cli.main``, the console entry point, with its stdout and
stderr captured together.
"""

import contextlib
import hashlib
import itertools
import json
import os
import platform
import tempfile
from io import StringIO

import numpy as np

import sinefit as sf
from sinefit import cli, io
from sinefit.model import standard_normal_draws

FREQUENCIES = (0.05, 0.0537, 0.123)
SIZES = (100, 1000, 10_000)
SIGMAS = (0.0, 0.5, 2.0)
SEEDS = (0, 1)
SHIFTED_GRID = (-2.3, 0.37)  # (start, dt) of the shifted tones
CONFIGS = {
    "default": sf.PipelineConfig(),
    "full_record": sf.PipelineConfig(objective_range="full_record"),
    "ma_k=1": sf.PipelineConfig(ma_k=1),
    "skip_screen": sf.PipelineConfig(skip_screen=True),
}
ACF_READS = ("acf_arccos", "acf_period")


def ar1(seed, n, rho=0.3):
    e = standard_normal_draws(seed, n)
    x = np.empty_like(e)
    x[0] = e[0]
    for i in range(1, n):
        x[i] = rho * x[i - 1] + e[i]
    return x


def inputs():
    for f, n, sigma in itertools.product(FREQUENCIES, SIZES, SIGMAS):
        params = sf.SinusoidParams(2.0, f, 0.6109)
        for seed in SEEDS if sigma > 0 else SEEDS[:1]:
            yield (f"tone:f={f}:n={n}:sigma={sigma}:seed={seed}",
                   sf.synthesize(params, sf.NoiseSpec(sigma, seed), n))
        start, dt = SHIFTED_GRID
        yield (f"tone:f={f}:n={n}:sigma={sigma}:seed=0:start={start}:dt={dt}",
               sf.synthesize(params, sf.NoiseSpec(sigma, 0), n, dt=dt, start=start))
    for n, seed in itertools.product(SIZES, SEEDS):
        yield f"white:n={n}:seed={seed}", sf.TimeSeries(0.0, 1.0, standard_normal_draws(seed, n))
        yield f"ar1:n={n}:seed={seed}", sf.TimeSeries(0.0, 1.0, ar1(seed, n))
    flat = np.tile([1.0, 2.0, -3.0, 0.0, 0.0], 20)
    yield "flat_after_ma5:n=100", sf.TimeSeries(0.0, 1.0, flat)
    tie = flat.copy()
    tie[53] = 1e-170
    yield "flat_after_ma5:n=100:x53=1e-170", sf.TimeSeries(0.0, 1.0, tie)
    tone = sf.synthesize(sf.SinusoidParams(2.0, 0.05, 0.6109), sf.NoiseSpec(0.5, 3), 100)
    yield ("tone:f=0.05:n=100:sigma=0.5:seed=3:dt=max/100",
           sf.TimeSeries(0.0, float(np.finfo(float).max) / 100, tone.samples))
    yield ("tone:f=0.05:n=100:sigma=0.5:seed=2:phi=3.14",
           sf.synthesize(sf.SinusoidParams(2.0, 0.05, 3.14), sf.NoiseSpec(0.5, 2), 100))
    yield ("tone:f=0.5:n=100:sigma=0.5:seed=0",
           sf.synthesize(sf.SinusoidParams(2.0, 0.5, 0.6109), sf.NoiseSpec(0.5, 0), 100))
    tone = sf.synthesize(sf.SinusoidParams(2.0, 0.025, 0.6109), sf.NoiseSpec(0.5, 4), 100,
                         dt=2.0, start=3.0)
    yield "tone:f=0.025:n=100:sigma=0.5:seed=4:start=3:dt=2:int", sf.TimeSeries(3, 2, tone.samples)
    yield ("tone:f=50:n=200:sigma=0.5:seed=5:start=1.7e9:dt=0.001",
           sf.synthesize(sf.SinusoidParams(2.0, 50.0, 0.6109), sf.NoiseSpec(0.5, 5), 200,
                         dt=1e-3, start=1.7e9))
    x = np.zeros(20)
    x[5], x[12] = 1.0, -1.0
    yield "one_each_side_of_the_median:n=20", sf.TimeSeries(0.0, 1.0, x)
    x = 2.0 * np.sin(0.98 * np.pi * np.arange(100)) + 0.5 * standard_normal_draws(0, 100)
    yield "near_nyquist:n=100:sigma=0.5:seed=0:dt=2.497e-308", sf.TimeSeries(0.0, 2.497e-308, x)


def plot_data_bytes(record, report):
    """Name and contents of every file ``write_plot_data`` writes, in order."""
    bound = report.screening.acf_bound if report.screening else None
    with tempfile.TemporaryDirectory() as directory:
        parts = []
        for path in io.write_plot_data(directory, record, report, bound):
            with open(path, "rb") as handle:
                parts += [os.path.basename(path).encode(), handle.read()]
    return parts


def case_line(name, config_name, record):
    bundle = []
    try:
        report = sf.estimate_parameters(record, CONFIGS[config_name])
        payload = io.report_to_dict(report)
        reads = [payload["frequency_cross_checks_hz"].pop(key, None) for key in ACF_READS]
        bundle = plot_data_bytes(record, report)
    except Exception as exc:  # a crash is one more output to compare
        error = str(exc) if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"
        payload, reads = {"error": error}, [None, None]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    hasher = hashlib.sha256(canonical.encode())
    for part in bundle:
        hasher.update(len(part).to_bytes(8, "little") + part)
    digest = hasher.hexdigest()
    shown = ["-" if v is None else repr(round(v, 15)) for v in reads]
    return f"{name} {config_name} {digest} " + " ".join(
        f"{key}={value}" for key, value in zip(ACF_READS, shown))


def run_main(argv):
    """Exit code of one in-process ``sinefit`` run."""
    try:
        cli.main(argv)
    except SystemExit as exc:
        return exc.code
    return 0


def screen_line(name, record):
    with tempfile.TemporaryDirectory() as directory:
        paths = [os.path.join(directory, f) for f in
                 ("in.csv", "screening.json", "screening_acf.csv")]
        io.write_timeseries_csv(paths[0], record)
        output = StringIO()
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            code = run_main(["screen", paths[0], "-o", paths[1], "--acf-out", paths[2]])
        parts = [str(code).encode()]
        if code == 1:
            parts.append(output.getvalue().replace(directory, "").encode())
        for path in paths[1:]:
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    parts += [os.path.basename(path).encode(), handle.read()]
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(8, "little") + part)
    return f"{name} screen {hasher.hexdigest()}"


def fingerprint():
    """The header line: what, besides the source, the hashes may depend on."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    found = ",".join(name for name in __cpu_dispatch__ if __cpu_features__.get(name))
    return (f"# numpy={np.__version__} python={platform.python_version()} "
            f"simd={found or '-'}")


def sweep():
    """Every line after the header, in order."""
    for name, record in inputs():
        for config_name in CONFIGS:
            yield case_line(name, config_name, record)
        yield screen_line(name, record)


def main():
    print(fingerprint())
    for line in sweep():
        print(line)


if __name__ == "__main__":
    main()
