"""Command-line surface: generate, screen, acf, spectrum, estimate.

Exit codes: 0 on success, 2 when screening rejects the input as noise,
1 for every other failure (parse errors, bad arguments, unwritable
paths): the command group turns any ``ValueError`` or ``OSError`` a
command raises into ``Error: <message>`` on stderr and exit 1.  When
an output path is not given, files land in the directory named by the
SINEFIT_OUT_DIR environment variable (default: the current directory).
"""

from __future__ import annotations

import os
import sys

import click
import numpy as np

from . import io
from .acf import _Record, circular_acf
from .estimate import FULL_RECORD, ONE_PERIOD, PipelineConfig, estimate_parameters
from .model import NoiseSpec, SinusoidParams, TimeSeries, synthesize
from .screening import VERDICT_NOISE, _screen
from .spectrum import dft_magnitude

ENV_OUT_DIR = "SINEFIT_OUT_DIR"


def _out_path(explicit: str | None, default_name: str) -> str:
    if explicit:
        return explicit
    return os.path.join(os.environ.get(ENV_OUT_DIR, "."), default_name)


class _Group(click.Group):
    """Turns a ``ValueError`` or ``OSError`` from any command into exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as exc:
            raise click.ClickException(str(exc))


@click.group(cls=_Group)
def cli():
    """Estimate amplitude, frequency, and phase of a noisy sinusoid."""


@cli.command()
@click.option("--amplitude", "-A", type=float, required=True, help="Signal amplitude (> 0).")
@click.option("--frequency", "-f", type=float, required=True, help="Frequency in Hz (> 0).")
@click.option("--phase", "-p", type=float, default=0.0, show_default=True,
              help="Phase in radians; wrapped into [-pi, pi).")
@click.option("--sigma", type=float, default=0.0, show_default=True,
              help="Gaussian noise standard deviation.")
@click.option("--seed", type=int, default=0, show_default=True, help="Noise generator seed.")
@click.option("-n", "--samples", type=int, default=100, show_default=True,
              help="Number of samples.")
@click.option("--dt", type=float, default=1.0, show_default=True, help="Sample interval (s).")
@click.option("--start", type=float, default=0.0, show_default=True, help="Start time (s).")
@click.option("-o", "--out", type=click.Path(dir_okay=False), default=None,
              help="Output CSV path [default: timeseries.csv in SINEFIT_OUT_DIR].")
def generate(amplitude, frequency, phase, sigma, seed, samples, dt, start, out):
    """Write a seeded synthetic record as `t,value` CSV."""
    params = SinusoidParams(amplitude, frequency, phase)
    noise = NoiseSpec(sigma=sigma, seed=seed)
    series = synthesize(params, noise, samples, dt=dt, start=start)
    path = _out_path(out, "timeseries.csv")
    io.write_timeseries_csv(path, series)
    click.echo(f"wrote {path}")


@cli.command("screen")
@click.argument("input_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--far", type=float, default=0.01, show_default=True,
              help="False-alarm rate for both gates.")
@click.option("-o", "--out", type=click.Path(dir_okay=False), default=None,
              help="Decision JSON path [default: screening.json].")
@click.option("--acf-out", type=click.Path(dir_okay=False), default=None,
              help="ACF-with-bounds CSV path [default: screening_acf.csv].")
def screen_cmd(input_csv, far, out, acf_out):
    """Run the two-gate screen; exit 2 when the verdict is noise."""
    work = _Record(io.read_timeseries_csv(input_csv))
    decision = _screen(work, far)
    json_path = _out_path(out, "screening.json")
    io.write_json(json_path, io.decision_to_dict(decision))
    csv_path = _out_path(acf_out, "screening_acf.csv")
    io.write_acf_csv(csv_path, work.acf, decision.acf_bound)
    click.echo(f"verdict: {decision.verdict} (gate_failed={decision.gate_failed})")
    click.echo(f"wrote {json_path} and {csv_path}")
    if decision.verdict == VERDICT_NOISE:
        sys.exit(2)


@cli.command()
@click.argument("input_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--max-lag", type=int, default=None,
              help="Largest lag to compute [default: N-1, full fold-over].")
@click.option("-o", "--out", type=click.Path(dir_okay=False), default=None,
              help="Output CSV path [default: acf.csv].")
def acf(input_csv, max_lag, out):
    """Write the discrete circular ACF as `lag,value` CSV."""
    record = io.read_timeseries_csv(input_csv)
    series = circular_acf(record, max_lag=max_lag)
    path = _out_path(out, "acf.csv")
    io.write_csv(path, ("lag", "value"),
                 (np.arange(series.values.size), series.values))
    click.echo(f"wrote {path}")


@cli.command()
@click.argument("input_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--pad", type=int, default=None,
              help="Zero-pad the record to this length (at least N) for a finer grid.")
@click.option("-o", "--out", type=click.Path(dir_okay=False), default=None,
              help="Output CSV path [default: spectrum.csv].")
def spectrum(input_csv, pad, out):
    """Write the magnitude spectrum as `frequency_hz,magnitude` CSV."""
    record = io.read_timeseries_csv(input_csv)
    if pad is not None and pad < len(record):
        raise click.ClickException(
            f"--pad must be at least the record length N = {len(record)}, got {pad}")
    if pad is not None and pad > len(record):
        padded = np.concatenate([record.samples,
                                 np.zeros(pad - len(record))])
        record = TimeSeries(record.start_time, record.dt, padded)
    spec = dft_magnitude(record)
    path = _out_path(out, "spectrum.csv")
    io.write_csv(path, ("frequency_hz", "magnitude"),
                 (spec.frequencies(), spec.magnitudes))
    click.echo(f"wrote {path}")


@cli.command()
@click.argument("input_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--far", type=float, default=0.01, show_default=True,
              help="False-alarm rate for screening.")
@click.option("--ma-k", type=int, default=5, show_default=True,
              help="Moving-average window size.")
@click.option("--objective-range", type=click.Choice([ONE_PERIOD, FULL_RECORD]),
              default=ONE_PERIOD, show_default=True,
              help="Samples the phase objective sums over.")
@click.option("--max-lag", type=int, default=None,
              help="ACF lag budget [default: N/2].")
@click.option("--skip-screen", is_flag=True, default=False,
              help="Estimate even when the screen says noise.")
@click.option("-o", "--out", type=click.Path(dir_okay=False), default=None,
              help="Report JSON path [default: report.json].")
@click.option("--plot-data", type=click.Path(file_okay=False), default=None,
              help="Also write plot-ready CSV series into this directory.")
def estimate(input_csv, far, ma_k, objective_range, max_lag, skip_screen, out,
             plot_data):
    """Run the full pipeline and write a JSON report; exit 2 on noise."""
    record = io.read_timeseries_csv(input_csv)
    config = PipelineConfig(far=far, ma_k=ma_k,
                            objective_range=objective_range,
                            max_lag=max_lag, skip_screen=skip_screen)
    report = estimate_parameters(record, config)
    path = _out_path(out, "report.json")
    io.write_json(path, io.report_to_dict(report))
    if plot_data is not None:
        bound = report.screening.acf_bound if report.screening else None
        io.write_plot_data(plot_data, record, report, bound)
    click.echo(f"wrote {path}")
    if report.params is None:
        click.echo("verdict: noise -- no parameters estimated")
        sys.exit(2)
    p = report.params
    click.echo(f"amplitude={p.amplitude:.4g} frequency_hz={p.frequency_hz:.6g} "
               f"phase_rad={p.phase_rad:.4g}")


def main() -> None:
    """Console entry point with the documented exit-code contract."""
    try:
        cli.main(standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except click.Abort:
        click.echo("aborted", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
