"""CSV and JSON input/output used by the command-line tools.

File formats are deliberately rigid: CSV files carry a single header row,
use '.' as the decimal separator and LF line endings, and every writer
goes through an atomic write-temp-then-rename so readers never see a
half-written file.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import tempfile
from typing import Sequence

import numpy as np

from .acf import AcfSeries, model_acf_reduced
from .estimate import EstimationReport
from .model import SinusoidParams, TimeSeries
from .screening import ScreeningDecision

# Relative tolerance on sample spacing when ingesting CSV records, beyond
# the rounding of the times themselves.
_DT_RTOL = 1e-9
# Each parsed time carries rounding of up to half an ulp of |t|, so a step
# may also differ from the first by 2 ulps of the largest |t|; but by no
# more than this fraction of dt, as a grid rounded that coarsely has no
# spacing to judge.
_ROUNDING_LIMIT = 1e-3


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sinefit-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: Sequence[str], columns: Sequence[Sequence[float]]) -> None:
    """Write equal-length numeric columns, every value as ``repr(float(v))``.

    Each column is formatted in one pass and the rows are joined from the
    formatted columns, with no per-value Python work beyond ``repr``.
    """
    cells = [map(repr, np.asarray(col, dtype=float).tolist()) for col in columns]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def write_timeseries_csv(path: str, series: TimeSeries) -> None:
    write_csv(path, ("t", "value"), (series.times(), series.samples))


def write_acf_csv(path: str, acf: AcfSeries, bound: float | None) -> None:
    """Write lags 0..N/2 of a full-lag circular ACF with +-bound (nan when None)."""
    lo, hi = (-bound, bound) if bound is not None else (math.nan, math.nan)
    half = acf.values[:acf.values.size // 2 + 1]
    write_csv(path, ("lag", "value", "lower_bound", "upper_bound"),
              (np.arange(half.size), half, np.full(half.size, lo),
               np.full(half.size, hi)))


def read_timeseries_csv(path: str) -> TimeSeries:
    """Parse a `t,value` CSV into a record of finite, uniformly spaced samples.

    Each step may differ from the first by _DT_RTOL times the first step
    plus the rounding of the times (2 ulps of the largest |t|, at most
    _ROUNDING_LIMIT times the first step), so the times a writer rounds
    far from t = 0 read back.  The record's dt is the mean step
    (t[-1] - t[0])/(N - 1), which spreads the rounding of two times over
    N - 1 steps where the first step carries all of it.  Errors name the
    file line of the offending row; blank lines are skipped but still
    counted.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if [c.strip() for c in header] != ["t", "value"]:
            raise ValueError(f"{path}: expected header 't,value', got {header!r}")
        times: list[float] = []
        values: list[float] = []
        lines: list[int] = []
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num
            if len(row) != 2:
                raise ValueError(f"{path}: line {lineno}: expected two columns")
            try:
                times.append(float(row[0]))
                values.append(float(row[1]))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: could not parse numbers") from None
            if not (math.isfinite(times[-1]) and math.isfinite(values[-1])):
                raise ValueError(f"{path}: line {lineno}: non-finite value")
            lines.append(lineno)
    if len(values) < 2:
        raise ValueError(f"{path}: need at least two data rows")
    steps = np.diff(times)
    dt = float(steps[0])
    if not dt > 0:
        raise ValueError(f"{path}: line {lines[1]}: time must be strictly increasing")
    rounding = min(2.0 * float(np.spacing(np.abs(times).max())), _ROUNDING_LIMIT * dt)
    uneven = np.flatnonzero(np.abs(steps - dt) > _DT_RTOL * dt + rounding)
    if uneven.size:
        i = int(uneven[0])
        raise ValueError(
            f"{path}: line {lines[i + 1]}: non-uniform sample spacing "
            f"({float(steps[i])!r} vs {dt!r})")
    return TimeSeries(times[0], (times[-1] - times[0]) / (len(times) - 1), values)


def params_to_dict(params: SinusoidParams) -> dict:
    return {
        "amplitude": params.amplitude,
        "frequency_hz": params.frequency_hz,
        "phase_rad": params.phase_rad,
        "period_s": params.period(),
        "time_delay_s": params.time_delay(),
    }


def decision_to_dict(decision: ScreeningDecision) -> dict:
    return dataclasses.asdict(decision)


def report_to_dict(report: EstimationReport) -> dict:
    """JSON-ready view of a report; field names carry explicit units."""
    payload: dict = {
        "verdict": report.verdict,
        "params": params_to_dict(report.params) if report.params else None,
        "frequency_source": report.frequency_source,
        "frequency_cross_checks_hz": report.frequency_cross_checks_hz,
        "t_2pi_s": report.t_2pi,
        "delta_t_s": report.delta_t,
        "objective_value": report.objective_value,
        "phase_cross_checks_rad": report.phase_cross_checks,
        "smoothing_k": report.smoothing_k,
        "warnings": list(report.warnings),
        "screening": decision_to_dict(report.screening) if report.screening else None,
        "series": None,
    }
    if report.params is not None:
        series: dict = {"smoothed": {
            "start_time_s": report.smoothed.series.start_time,
            "dt_s": report.smoothed.series.dt,
            "values": report.smoothed.series.samples.tolist(),
        }}
        if report.model_acf is not None:
            series["model_acf_full"] = report.model_acf.values.tolist()
        series["spectrum"] = {
            "df_hz": report.spectrum.df,
            "magnitudes": report.spectrum.magnitudes.tolist(),
        }
        payload["series"] = series
    return payload


def write_plot_data(directory: str, record: TimeSeries, report: EstimationReport,
                    bound: float | None) -> list[str]:
    """Emit the plot-ready CSV bundle for a record and its report.

    Writes raw data, smoothed data, the report's circular ACF to lag N/2
    with significance bounds, the model ACFs of the fitted sinusoid, and
    the magnitude spectrum.
    Returns the paths written.
    """
    os.makedirs(directory, exist_ok=True)
    written: list[str] = []

    path = os.path.join(directory, "raw.csv")
    write_timeseries_csv(path, record)
    written.append(path)

    if report.smoothed is not None:
        path = os.path.join(directory, "smoothed.csv")
        write_timeseries_csv(path, report.smoothed.series)
        written.append(path)

    path = os.path.join(directory, "acf.csv")
    write_acf_csv(path, report.acf, bound)
    written.append(path)

    if report.model_acf is not None:
        reduced = model_acf_reduced(report.model_params, report.model_acf.max_lag)
        path = os.path.join(directory, "model_acf.csv")
        write_csv(path, ("lag", "full_model", "reduced_model"),
                  (np.arange(report.model_acf.max_lag + 1),
                   report.model_acf.values, reduced.values))
        written.append(path)

    if report.spectrum is not None:
        path = os.path.join(directory, "spectrum.csv")
        write_csv(path, ("frequency_hz", "magnitude"),
                  (report.spectrum.frequencies(), report.spectrum.magnitudes))
        written.append(path)
    return written
