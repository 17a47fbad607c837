"""Command-line surface: generate, screen, acf, spectrum, estimate.

Exit codes: 0 on success, 2 when screening rejects the input as noise,
1 for every other failure (parse errors, bad arguments, unwritable
paths, arrays too large to allocate).  ``main`` maps them in one place:
each command returns 0 or 2, and a ``ValueError``, ``OSError``,
``MemoryError`` or ``KeyboardInterrupt`` it raises becomes
``Error: <message>`` (``aborted`` for the interrupt) on stderr and
exit 1.  A usage error prints the usage and ``Error: <message>``
and exits 1 too.  Path arguments are checked while the command line is
parsed, so no command runs and no output is written when an input is
missing or a path names the wrong kind of file.  When an output path is
not given, files land in the directory named by the SINEFIT_OUT_DIR
environment variable (default: the current directory).
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from . import io
from .acf import _Record, circular_acf
from .estimate import FULL_RECORD, ONE_PERIOD, PipelineConfig, estimate_parameters
from .model import NoiseSpec, SinusoidParams, TimeSeries, synthesize
from .screening import VERDICT_NOISE, _screen
from .spectrum import dft_magnitude

ENV_OUT_DIR = "SINEFIT_OUT_DIR"


def _input_file(path: str) -> str:
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"'{path}' does not exist")
    return _output_file(path)


def _output_file(path: str) -> str:
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"'{path}' is a directory")
    return path


def _output_dir(path: str) -> str:
    if os.path.exists(path) and not os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"'{path}' is a file")
    return path


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error: argparse's 2 is the noise verdict here."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        # -1e-3 and -inf are option values, as -1.5 is to argparse's own matcher
        self._negative_number_matcher = re.compile(r"-\.?\d|-inf|-nan", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"Error: {message}\n")


def generate(args) -> int:
    """Write a seeded synthetic record as `t,value` CSV."""
    params = SinusoidParams(args.amplitude, args.frequency, args.phase)
    noise = NoiseSpec(sigma=args.sigma, seed=args.seed)
    series = synthesize(params, noise, args.samples, dt=args.dt, start=args.start)
    io.write_timeseries_csv(args.out, series)
    print(f"wrote {args.out}")
    return 0


def screen(args) -> int:
    """Run the two-gate screen; exit 2 when the verdict is noise."""
    work = _Record(io.read_timeseries_csv(args.input_csv))
    decision = _screen(work, args.far)
    io.write_json(args.out, io.decision_to_dict(decision))
    io.write_acf_csv(args.acf_out, work.acf, decision.acf_bound)
    print(f"verdict: {decision.verdict} (gate_failed={decision.gate_failed})")
    print(f"wrote {args.out} and {args.acf_out}")
    return 2 if decision.verdict == VERDICT_NOISE else 0


def acf(args) -> int:
    """Write the discrete circular ACF as `lag,value` CSV."""
    record = io.read_timeseries_csv(args.input_csv)
    series = circular_acf(record, max_lag=args.max_lag)
    io.write_csv(args.out, ("lag", "value"), (np.arange(series.values.size), series.values))
    print(f"wrote {args.out}")
    return 0


def spectrum(args) -> int:
    """Write the magnitude spectrum as `frequency_hz,magnitude` CSV."""
    record, pad = io.read_timeseries_csv(args.input_csv), args.pad
    if pad is not None and pad < len(record):
        raise ValueError(f"--pad must be at least the record length N = {len(record)}, got {pad}")
    if pad is not None and pad > len(record):
        padded = np.concatenate([record.samples, np.zeros(pad - len(record))])
        record = TimeSeries(record.start_time, record.dt, padded)
    spec = dft_magnitude(record)
    io.write_csv(args.out, ("frequency_hz", "magnitude"), (spec.frequencies(), spec.magnitudes))
    print(f"wrote {args.out}")
    return 0


def estimate(args) -> int:
    """Run the full pipeline and write a JSON report; exit 2 on noise."""
    record = io.read_timeseries_csv(args.input_csv)
    config = PipelineConfig(far=args.far, ma_k=args.ma_k, objective_range=args.objective_range,
                            max_lag=args.max_lag, skip_screen=args.skip_screen)
    report = estimate_parameters(record, config)
    io.write_json(args.out, io.report_to_dict(report))
    if args.plot_data is not None:
        bound = report.screening.acf_bound if report.screening else None
        io.write_plot_data(args.plot_data, record, report, bound)
    print(f"wrote {args.out}")
    if report.params is None:
        print("verdict: noise -- no parameters estimated")
        return 2
    p = report.params
    print(f"amplitude={p.amplitude:.4g} frequency_hz={p.frequency_hz:.6g} "
          f"phase_rad={p.phase_rad:.4g}")
    return 0


def _parser() -> _Parser:
    """The command line; output paths default into SINEFIT_OUT_DIR, read now."""
    parser = _Parser(prog="sinefit",
                     description="Estimate amplitude, frequency, and phase of a noisy sinusoid.")
    commands = parser.add_subparsers(dest="command", required=True)
    out_dir = os.environ.get(ENV_OUT_DIR, ".")

    def command(run, name, out_name, out_help):
        """The subcommand ``name``, with its input (but for generate) and -o."""
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__)
        sub.set_defaults(run=run)
        if run is not generate:
            sub.add_argument("input_csv", type=_input_file)
        sub.add_argument("-o", "--out", type=_output_file,
                         default=os.path.join(out_dir, out_name), help=out_help)
        return sub.add_argument

    add = command(generate, "generate", "timeseries.csv",
                  "Output CSV path [default: timeseries.csv in SINEFIT_OUT_DIR].")
    add("--amplitude", "-A", type=float, required=True, help="Signal amplitude (> 0).")
    add("--frequency", "-f", type=float, required=True, help="Frequency in Hz (> 0).")
    add("--phase", "-p", type=float, default=0.0,
        help="Phase in radians; wrapped into [-pi, pi). [default: 0.0]")
    add("--sigma", type=float, default=0.0,
        help="Gaussian noise standard deviation. [default: 0.0]")
    add("--seed", type=int, default=0, help="Noise generator seed. [default: 0]")
    add("-n", "--samples", type=int, default=100, help="Number of samples. [default: 100]")
    add("--dt", type=float, default=1.0, help="Sample interval (s). [default: 1.0]")
    add("--start", type=float, default=0.0, help="Start time (s). [default: 0.0]")

    add = command(screen, "screen", "screening.json",
                  "Decision JSON path [default: screening.json].")
    add("--far", type=float, default=0.01,
        help="False-alarm rate for both gates. [default: 0.01]")
    add("--acf-out", type=_output_file, default=os.path.join(out_dir, "screening_acf.csv"),
        help="ACF-with-bounds CSV path [default: screening_acf.csv].")

    add = command(acf, "acf", "acf.csv", "Output CSV path [default: acf.csv].")
    add("--max-lag", type=int, help="Largest lag to compute [default: N-1, full fold-over].")

    add = command(spectrum, "spectrum", "spectrum.csv", "Output CSV path [default: spectrum.csv].")
    add("--pad", type=int,
        help="Zero-pad the record to this length (at least N) for a finer grid.")

    add = command(estimate, "estimate", "report.json", "Report JSON path [default: report.json].")
    add("--far", type=float, default=0.01, help="False-alarm rate for screening. [default: 0.01]")
    add("--ma-k", type=int, default=5, help="Moving-average window size. [default: 5]")
    add("--objective-range", choices=[ONE_PERIOD, FULL_RECORD], default=ONE_PERIOD,
        help="Samples the phase objective sums over. [default: one_period]")
    add("--max-lag", type=int, help="ACF lag budget [default: N/2].")
    add("--skip-screen", action="store_true", help="Estimate even when the screen says noise.")
    add("--plot-data", type=_output_dir,
        help="Also write plot-ready CSV series into this directory.")
    return parser


def main(argv: list[str] | None = None) -> None:
    """Run one command from ``argv`` (default ``sys.argv[1:]``): return on
    success, exit 2 on a noise verdict and exit 1 on any failure."""
    try:
        args = _parser().parse_args(argv)
        code = args.run(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"Error: {exc}", file=sys.stderr)
        code = 1
    except KeyboardInterrupt:
        print("aborted", file=sys.stderr)
        code = 1
    if code:
        sys.exit(code)


if __name__ == "__main__":
    main()
