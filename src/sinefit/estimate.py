"""Parameter recovery: frequency, amplitude, and the phase search.

The pipeline in ``estimate_parameters`` runs the two-gate screen, smooths
with MA-k, reads amplitude from the smoothed range, takes frequency from
the spectrum peak (with ACF-based reads as cross-checks), and recovers
phase by a two-stage least-squares grid search with the crossover formula
recorded as a cross-check.  The closed-form phase constructions
(crossover, general landmarks, arctangent at the origin, arcsine at a
point) live here as well; the last two have restricted domains and are
never the pipeline's primary answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .acf import (AcfSeries, DegenerateParametersError, circular_acf,
                  frequency_from_acf, model_acf_full)
from .model import SinusoidParams, TimeSeries, TWO_PI, wrap_phase
from .screening import ScreeningDecision, VERDICT_NOISE, check_finite, screen
from .smoothing import SmoothedSeries, amplitude_estimate, moving_average
from .spectrum import Spectrum, dft_magnitude, fundamental_frequency

ONE_PERIOD = "one_period"
FULL_RECORD = "full_record"
_RANGES = (ONE_PERIOD, FULL_RECORD)

COARSE_STEP = 0.01
REFINE_STEP = 0.001

# Excursion (as a fraction of half the record's range) a zero crossing
# must be confirmed by on both sides before it counts; filters the
# crossing jitter noise creates around the true zeros.
_HYSTERESIS_FRACTION = 0.2

# Cross-check frequencies farther than this (relative) from the primary
# estimate are flagged in the report warnings.
_FREQ_AGREEMENT = 0.2


@dataclass(frozen=True)
class PhaseObjective:
    """Sum-of-squares phase objective with amplitude and frequency pinned."""

    data: TimeSeries
    fixed_amplitude: float
    fixed_frequency_hz: float
    t_range: str = ONE_PERIOD

    def __post_init__(self):
        if not self.fixed_amplitude > 0:
            raise ValueError("fixed_amplitude must be positive")
        if not self.fixed_frequency_hz > 0:
            raise ValueError("fixed_frequency_hz must be positive")
        if self.t_range not in _RANGES:
            raise ValueError(f"t_range must be one of {_RANGES}")


def _objective_points(obj: PhaseObjective) -> tuple[np.ndarray, np.ndarray]:
    t = obj.data.times()
    x = obj.data.samples
    if obj.t_range == ONE_PERIOD:
        period = 1.0 / obj.fixed_frequency_hz
        mask = (t >= 0.0) & (t <= period + 1e-12)
        t, x = t[mask], x[mask]
    return t, x


def _objective_curve(obj: PhaseObjective, phis: np.ndarray) -> np.ndarray:
    t, x = _objective_points(obj)
    w = TWO_PI * obj.fixed_frequency_hz
    model = obj.fixed_amplitude * np.sin(w * t[None, :] + phis[:, None])
    return np.sum((x[None, :] - model) ** 2, axis=1)


def phase_objective_value(obj: PhaseObjective, phi: float) -> float:
    """Sum over sample times of [X(t) - A*sin(w*t + phi)]^2.

    In one_period mode the sum runs over the record's samples with
    0 <= t <= 1/f; in full_record mode over every sample.
    """
    return float(_objective_curve(obj, np.asarray([phi]))[0])


def phase_grid_search(obj: PhaseObjective, *, coarse_center: float | None = None,
                      coarse_half_width: float = 0.5) -> tuple[float, float]:
    """Two-stage grid minimization of the phase objective.

    The coarse pass steps phi from -pi to pi in hundredths (or, when a
    warm-start center is given, across center +- half width); the refine
    pass steps in thousandths across the winning coarse cell.  Ties break
    toward the smaller phi.  Returns (phi, objective value).
    """
    if coarse_center is None:
        coarse = np.arange(-math.pi, math.pi, COARSE_STEP)
    else:
        coarse = np.arange(coarse_center - coarse_half_width,
                           coarse_center + coarse_half_width + COARSE_STEP / 2,
                           COARSE_STEP)
    coarse_values = _objective_curve(obj, coarse)
    phi0 = float(coarse[np.argmin(coarse_values)])
    refine = np.arange(phi0 - COARSE_STEP, phi0 + COARSE_STEP + REFINE_STEP / 2,
                       REFINE_STEP)
    refine_values = _objective_curve(obj, refine)
    best = int(np.argmin(refine_values))
    return float(refine[best]), float(refine_values[best])


def phase_from_crossover(period: float, t_2pi: float) -> tuple[float, float]:
    """Phase from the period and the second zero crossover.

    Returns (degrees, radians): phi = 2*pi*(T - t_2pi)/T = w * delta_t.
    When t_2pi equals the period the phase is exactly zero.
    """
    if not period > 0:
        raise ValueError("period must be positive")
    phi_deg = (period - t_2pi) / period * 360.0
    phi_rad = TWO_PI * (period - t_2pi) / period
    return phi_deg, phi_rad


def phase_from_landmarks_general(period: float, t_2pi: float, t_kpi: float,
                                 k: float) -> float:
    """Phase from any landmark pair: (T - t_2pi)/(t_kpi - t_2pi)*(k*pi - 2*pi).

    Generalizes the crossover formula so any measured landmark t_kpi
    (k != 2) works; algebraically this reduces to w * delta_t.
    """
    if k == 2:
        raise ValueError("k = 2 makes the landmark coincide with t_2pi")
    if t_kpi == t_2pi:
        raise ValueError("landmark times must be distinct")
    return (period - t_2pi) / (t_kpi - t_2pi) * (k * math.pi - TWO_PI)


def phase_arctan_at_origin(amplitude: float, x0: float) -> float:
    """Phase from the value at t = 0 via the right-triangle construction.

    tan(phi) = x0 / sqrt(A^2 - x0^2); the sign of x0 decides whether the
    phase sits above or below the axis.  Valid only for |phi| < pi/2, so
    |x0| must stay strictly below the amplitude.
    """
    if abs(x0) >= amplitude:
        raise ValueError("|x0| must be strictly below the amplitude")
    return math.atan(x0 / math.sqrt(amplitude ** 2 - x0 ** 2))


def phase_arcsin_at_time(amplitude: float, omega: float, t: float,
                         y: float) -> float:
    """Phase from one clean point: phi = arcsin(y/A) - w*t, wrapped.

    Uses the principal arcsine branch, so the point must lie on a rising
    quarter-cycle for the answer to be meaningful.
    """
    if abs(y) > amplitude:
        raise ValueError("|y| cannot exceed the amplitude")
    return wrap_phase(math.asin(y / amplitude) - omega * t)


def _zero_crossings(series: TimeSeries) -> list[tuple[float, int]]:
    """Hysteresis-confirmed zero crossings as (time, direction) pairs.

    Raw sign changes are linearly interpolated; a crossing only counts
    once the series has reached beyond +-h on both sides (h is a fixed
    fraction of half the range), and each confirmed transition takes the
    median raw crossing of its cluster.  Direction is +1 upward, -1
    downward.
    """
    s = series.samples
    t = series.times()
    h = _HYSTERESIS_FRACTION * (s.max() - s.min()) / 2.0
    if h == 0:
        raise ValueError("constant record has no zero crossings")
    a, b = s[:-1], s[1:]
    i = np.flatnonzero(((a <= 0.0) & (b > 0.0)) | ((a >= 0.0) & (b < 0.0)))
    raw = t[i] + series.dt * (0.0 - a[i]) / (b[i] - a[i])  # sorted, for searchsorted
    states = np.where(s > h, 1, np.where(s < -h, -1, 0))
    confirmed = np.flatnonzero(states != 0)
    flips = np.flatnonzero(np.diff(states[confirmed]) != 0)
    ia, ib = confirmed[flips], confirmed[flips + 1]
    lo = np.searchsorted(raw, t[ia], side="left")
    hi = np.searchsorted(raw, t[ib], side="right")
    return list(zip(raw[(lo + hi) // 2].tolist(), states[ib].tolist()))


def _second_crossover(crossings: list[tuple[float, int]], group_delay: float) -> float:
    """``detect_t2pi`` on crossings already found in the smoothed series."""
    crossings = [c for c in crossings if c[0] >= 0.0]
    if len(crossings) < 2:
        raise ValueError("fewer than two zero crossovers in the record")
    for time, direction in crossings[1:]:
        if direction > 0:
            return float(time - group_delay)
    raise ValueError("no upward crossover after the first crossover")


def detect_t2pi(smoothed: SmoothedSeries) -> float:
    """Time of the second zero crossover, corrected for filter lag.

    Finds the first upward (negative-to-positive) crossing that is
    preceded by at least one earlier crossing at t >= 0 -- the "second
    crossover" of the record -- then subtracts the MA group delay
    (k-1)/2*dt so the answer refers to the unsmoothed signal.
    """
    return _second_crossover(_zero_crossings(smoothed.series), smoothed.group_delay)


def _period_from_crossings(crossings: list[tuple[float, int]]) -> float | None:
    """Average spacing of consecutive same-direction crossings, if any."""
    spacings = []
    for direction in (1, -1):
        times = [time for time, d in crossings if d == direction]
        spacings.extend(b - a for a, b in zip(times[:-1], times[1:]))
    if not spacings:
        return None
    return float(np.mean(spacings))


def _acf_period_lag(acf: AcfSeries) -> int | None:
    """Lag of the one-period mark: the first major ACF peak after lag 0.

    A periodic ACF first goes negative about a quarter period in and
    peaks again near one full period, so the peak search starts at the
    first negative lag and stops well before the second repeat.
    """
    v = acf.values
    negatives = np.flatnonzero(v[1:] < 0)
    if negatives.size == 0:
        return None
    first_negative = 1 + int(negatives[0])  # about a quarter period in
    lo = first_negative + 1
    hi = min(v.size, 5 * first_negative + 1)
    if lo >= hi:
        return None
    return lo + int(np.argmax(v[lo:hi]))


# Order in which frequency reads are trusted when earlier ones are missing.
_FREQUENCY_PRIORITY = ("fft", "acf_arccos", "ma_period")


def _choose_frequency(candidates: dict[str, float]) -> tuple[float, str]:
    for source in _FREQUENCY_PRIORITY:
        value = candidates.get(source)
        if value is not None and value > 0:
            return value, source
    raise ValueError("no usable frequency estimate for this record")


@dataclass(frozen=True)
class PipelineConfig:
    """Free parameters of the estimation pipeline.

    With ``skip_screen`` the pipeline estimates even when the screen says
    noise (the decision is still reported when computable).
    """

    far: float = 0.01
    ma_k: int = 5
    objective_range: str = ONE_PERIOD
    warm_start: bool = False
    max_lag: int | None = None
    skip_screen: bool = False

    def __post_init__(self):
        if not 0.0 < self.far < 0.5:
            raise ValueError("far must lie in (0, 0.5)")
        if self.ma_k < 1:
            raise ValueError("ma_k must be at least 1")
        if self.objective_range not in _RANGES:
            raise ValueError(f"objective_range must be one of {_RANGES}")


@dataclass(frozen=True, eq=False)
class EstimationReport:
    """Recovered parameters plus every intermediate worth keeping.

    When screening rejects the record, ``params`` (and the other
    estimation fields) are None and only the screening decision is
    populated.
    """

    params: SinusoidParams | None
    screening: ScreeningDecision | None
    frequency_source: str | None
    frequency_cross_checks_hz: dict[str, float] = field(default_factory=dict)
    t_2pi: float | None = None
    delta_t: float | None = None
    objective_value: float | None = None
    phase_cross_checks: dict[str, float] = field(default_factory=dict)
    smoothing_k: int = 1
    warnings: tuple[str, ...] = ()
    smoothed: SmoothedSeries | None = None
    model_acf: AcfSeries | None = None
    spectrum: Spectrum | None = None

    @property
    def verdict(self) -> str:
        if self.screening is not None:
            return self.screening.verdict
        return "signal" if self.params is not None else "noise"


def _noise_report(decision: ScreeningDecision, config: PipelineConfig) -> EstimationReport:
    return EstimationReport(params=None, screening=decision,
                            frequency_source=None, smoothing_k=config.ma_k)


def estimate_parameters(record: TimeSeries,
                        config: PipelineConfig = PipelineConfig()) -> EstimationReport:
    """Run the full two-stage pipeline on a sampled record.

    Order: screen; smooth with MA-k; amplitude from the smoothed range;
    frequency from the spectrum peak with the ACF arccosine read, the ACF
    one-period mark, and the smoothed-record crossover spacing as
    cross-checks (disagreement beyond 20 percent is a warning, the
    spectrum value wins); phase by grid search with the crossover formula
    recorded as a cross-check; finally the full-model ACF of the fitted
    sinusoid is attached to the report.
    """
    check_finite(record)
    decision: ScreeningDecision | None
    if config.skip_screen:
        try:
            decision = screen(record, config.far)
        except ValueError:
            decision = None
    else:
        decision = screen(record, config.far)
        if decision.verdict == VERDICT_NOISE:
            return _noise_report(decision, config)

    n = len(record)
    dt = record.dt
    max_lag = config.max_lag if config.max_lag is not None else n // 2

    smoothed = moving_average(record, config.ma_k)
    amplitude = amplitude_estimate(smoothed)

    spec = dft_magnitude(record)
    candidates: dict[str, float] = {}
    try:
        candidates["fft"] = fundamental_frequency(spec)
    except ValueError:
        pass

    acf = circular_acf(record, max_lag=max_lag)
    probe = 2 if acf.max_lag >= 2 else 1
    f_probe = frequency_from_acf(acf.values[probe], probe) / dt
    if f_probe > 0:
        candidates["acf_arccos"] = f_probe
    period_lag = _acf_period_lag(acf)
    if period_lag is not None:
        candidates["acf_period"] = 1.0 / (period_lag * dt)
    try:
        crossings = _zero_crossings(smoothed.series)
    except ValueError:
        crossings = []
    ma_period = _period_from_crossings(crossings)
    if ma_period is not None and ma_period > 0:
        candidates["ma_period"] = 1.0 / ma_period

    frequency, source = _choose_frequency(candidates)
    warnings = []
    for name, value in candidates.items():
        if name == source:
            continue
        if abs(value - frequency) > _FREQ_AGREEMENT * frequency:
            warnings.append(
                f"{name} frequency {value:.6g} Hz differs from the {source} "
                f"estimate {frequency:.6g} Hz by more than 20%")

    period = 1.0 / frequency
    phase_checks: dict[str, float] = {}
    t_2pi: float | None = None
    try:
        t_2pi = _second_crossover(crossings, smoothed.group_delay)
        _, crossover_rad = phase_from_crossover(period, t_2pi)
        phase_checks["crossover"] = wrap_phase(crossover_rad)
    except ValueError:
        pass

    objective = PhaseObjective(record, amplitude, frequency,
                               config.objective_range)
    center = phase_checks.get("crossover") if config.warm_start else None
    if center is not None:
        phi, objective_value = phase_grid_search(objective, coarse_center=center)
    else:
        phi, objective_value = phase_grid_search(objective)

    params = SinusoidParams(amplitude, frequency, phi)

    model_acf: AcfSeries | None = None
    try:
        per_sample = SinusoidParams(amplitude, frequency * dt, params.phase_rad)
        model_acf = model_acf_full(per_sample, max_lag=max_lag)
    except DegenerateParametersError:
        warnings.append("full-model ACF is degenerate for the fitted parameters")

    cross_checks = {k: v for k, v in candidates.items() if k != source}
    return EstimationReport(
        params=params,
        screening=decision,
        frequency_source=source,
        frequency_cross_checks_hz=cross_checks,
        t_2pi=t_2pi,
        delta_t=params.time_delay(),
        objective_value=objective_value,
        phase_cross_checks=phase_checks,
        smoothing_k=config.ma_k,
        warnings=tuple(warnings),
        smoothed=smoothed,
        model_acf=model_acf,
        spectrum=spec,
    )
