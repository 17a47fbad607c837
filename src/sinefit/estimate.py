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

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .acf import (AcfSeries, DegenerateParametersError, _circular_acf, frequency_from_acf,
                  model_acf_full, normalizing_constant)
from .model import SinusoidParams, TimeSeries, TWO_PI, check_finite, wrap_phase
from .screening import ScreeningDecision, VERDICT_NOISE, _screen
from .smoothing import SmoothedSeries, amplitude_estimate, moving_average
from .spectrum import Spectrum, _dft, fundamental_frequency

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
    """Sample times and values the objective sums over: a contiguous run of
    the record (all of it, or 0 <= t <= 1/f), so the times stay evenly spaced."""
    t = obj.data.times()
    x = obj.data.samples
    if obj.t_range == ONE_PERIOD:
        period = 1.0 / obj.fixed_frequency_hz
        mask = (t >= 0.0) & (t <= period + 1e-12)
        t, x = t[mask], x[mask]
    return t, x


# The closed-form double-angle sums lose about eps*m*|u|/|sin(u)| to
# rounding (u = theta*dt/2); below this |sin(u)|/|u| they fall back to the
# direct sums, which bounds that loss by about 2.2e-10*m.
_MIN_SIN_RATIO = 1e-6


def _double_angle_sums(t: np.ndarray, theta: float, dt: float) -> tuple[float, float]:
    """(sum cos(theta*t), sum sin(theta*t)) over evenly spaced times t.

    With t_k = t_0 + k*dt, k = 0..m-1, the sum of exp(i*theta*t_k) is a
    geometric series:
    exp(i*theta*(t_0 + (m-1)*dt/2)) * sin(m*u)/sin(u), u = theta*dt/2,
    so both sums cost O(1) instead of two O(m) trig passes.  When sin(u)
    is tiny against u (theta*dt near a non-zero multiple of 2*pi, such as
    f*dt = 0.5, the Nyquist bin an even-N spectrum can pick) the quotient
    is badly conditioned, and the direct sums are taken instead.
    """
    m = t.size
    if m == 0:
        return 0.0, 0.0
    u = theta * dt / 2.0
    sin_u = math.sin(u)
    if abs(sin_u) < _MIN_SIN_RATIO * abs(u):
        return float(np.sum(np.cos(theta * t))), float(np.sum(np.sin(theta * t)))
    gain = math.sin(m * u) / sin_u
    middle = theta * (t[0] + (m - 1) * dt / 2.0)
    return gain * math.cos(middle), gain * math.sin(middle)


class _PhaseTable(NamedTuple):
    """Grid phases with the cos(phi), sin(phi), cos(2phi) and sin(2phi) the
    objective's trig polynomial reads."""

    phis: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    cos2: np.ndarray
    sin2: np.ndarray


def _phase_table(phis: np.ndarray) -> _PhaseTable:
    return _PhaseTable(phis, np.cos(phis), np.sin(phis), np.cos(2.0 * phis),
                       np.sin(2.0 * phis))


def _frozen_table(phis: np.ndarray) -> _PhaseTable:
    table = _phase_table(phis)
    for column in table:
        column.setflags(write=False)
    return table


# The coarse grid is the same for every record, so its table is built once.
_COARSE = _frozen_table(np.arange(-math.pi, math.pi, COARSE_STEP))


@functools.lru_cache(maxsize=None)
def _refine_table(cell: int) -> _PhaseTable:
    """Refine grid across coarse point ``cell``, built on first use and kept
    (at most one per coarse point)."""
    phi0 = float(_COARSE.phis[cell])
    return _frozen_table(np.arange(phi0 - COARSE_STEP, phi0 + COARSE_STEP + REFINE_STEP / 2,
                                   REFINE_STEP))


def _objective_on_tables(obj: PhaseObjective, t: np.ndarray, x: np.ndarray):
    """The objective as a trig polynomial in phi: O(N) sums once, O(1) per phi.

    Sum (x - A*sin(wt + phi))^2 = Sxx - 2A(cos(phi)*Sxs + sin(phi)*Sxc) + A^2*(m/2
    - (cos(2phi)*Sc2 - sin(2phi)*Ss2)/2), from the sine-fit sums of IEEE Std 1057,
    over the objective's points ``t, x``.  Sxs and Sxc take one trig pass each;
    Sc2 and Ss2 are the closed-form geometric sums of ``_double_angle_sums``.
    Returns the curve as a function of a ``_PhaseTable``.
    """
    a, w = obj.fixed_amplitude, TWO_PI * obj.fixed_frequency_hz
    wt = w * t
    sxx, sxs, sxc = x @ x, x @ np.sin(wt), x @ np.cos(wt)
    sc2, ss2 = _double_angle_sums(t, 2.0 * w, obj.data.dt)

    def curve(table: _PhaseTable) -> np.ndarray:
        linear = table.cos * sxs + table.sin * sxc
        square = t.size / 2.0 - (table.cos2 * sc2 - table.sin2 * ss2) / 2.0
        return sxx - 2.0 * a * linear + a ** 2 * square

    return curve


def _objective_polynomial(obj: PhaseObjective, t: np.ndarray, x: np.ndarray):
    """``_objective_on_tables`` as a function of any array of phases."""
    curve = _objective_on_tables(obj, t, x)
    return lambda phis: curve(_phase_table(phis))


def _residual_sum(obj: PhaseObjective, t: np.ndarray, x: np.ndarray, phi: float) -> float:
    w = TWO_PI * obj.fixed_frequency_hz
    return float(np.sum((x - obj.fixed_amplitude * np.sin(w * t + phi)) ** 2))


def phase_objective_value(obj: PhaseObjective, phi: float) -> float:
    """Sum over sample times of [X(t) - A*sin(w*t + phi)]^2, one O(N) pass.

    In one_period mode the sum runs over the record's samples with
    0 <= t <= 1/f; in full_record mode over every sample.
    """
    return _residual_sum(obj, *_objective_points(obj), phi)


def phase_grid_search(obj: PhaseObjective) -> tuple[float, float]:
    """Two-stage grid minimization of the phase objective.

    The coarse pass steps phi from -pi to pi in hundredths; the refine
    pass steps in thousandths across the winning coarse cell.  Ties break
    toward the smaller phi.  Points are ranked by the objective's trig
    polynomial, O(N + G) for G points, and the winner's value is the
    direct residual sum.  The grids and their cos/sin of phi and 2*phi
    do not depend on the record: the coarse table is built at import,
    each coarse cell's refine table on first use, and both are kept for
    the life of the process (629 cells at most, about 1 MB), so a
    call takes no trig of grid points.  Returns (phi, phase_objective_value).
    """
    t, x = _objective_points(obj)
    curve = _objective_on_tables(obj, t, x)
    refine = _refine_table(int(np.argmin(curve(_COARSE))))
    phi = float(refine.phis[np.argmin(curve(refine))])
    return phi, _residual_sum(obj, t, x, phi)


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


def _zero_crossings(series: TimeSeries) -> tuple[np.ndarray, np.ndarray]:
    """Hysteresis-confirmed zero crossings as (times, directions) arrays.

    Raw sign changes are linearly interpolated; a crossing only counts
    once the series has reached beyond +-h on both sides (h is a fixed
    fraction of half the range), and each confirmed transition takes the
    median raw crossing of its cluster.  ``times`` is ascending; the
    matching ``directions`` entry is +1 upward, -1 downward.
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
    return raw[(lo + hi) // 2], states[ib]


def _second_crossover(times: np.ndarray, directions: np.ndarray,
                      group_delay: float) -> float:
    """``detect_t2pi`` on crossings already found in the smoothed series."""
    keep = times >= 0.0
    times, directions = times[keep], directions[keep]
    if times.size < 2:
        raise ValueError("fewer than two zero crossovers in the record")
    upward = directions[1:] > 0
    first = int(np.argmax(upward))
    if not upward[first]:
        raise ValueError("no upward crossover after the first crossover")
    return float(times[1 + first] - group_delay)


def detect_t2pi(smoothed: SmoothedSeries) -> float:
    """Time of the second zero crossover, corrected for filter lag.

    Finds the first upward (negative-to-positive) crossing that is
    preceded by at least one earlier crossing at t >= 0 -- the "second
    crossover" of the record -- then subtracts the MA group delay
    (k-1)/2*dt so the answer refers to the unsmoothed signal.
    """
    return _second_crossover(*_zero_crossings(smoothed.series), smoothed.group_delay)


def _period_from_crossings(times: np.ndarray, directions: np.ndarray) -> float | None:
    """Average spacing of consecutive same-direction crossings, if any.

    Upward spacings come first, then downward ones, and ``np.mean`` takes
    them in that order.
    """
    spacings = np.concatenate([np.diff(times[directions == d]) for d in (1, -1)])
    if spacings.size == 0:
        return None
    return float(np.mean(spacings))


def _acf_period_lag(acf: AcfSeries, n: int) -> int | None:
    """Lag of the one-period mark: the first major ACF peak after lag 0.

    A periodic ACF first goes negative about a quarter period in and
    peaks again near one full period, so the peak search starts at the
    first negative lag and stops well before the second repeat.  A window
    edge is no peak: the first lag while the ACF still falls, or the last
    lag when ``max_lag`` stops short of N/2 for an ``n``-sample record.
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
    lag = lo + int(np.argmax(v[lo:hi]))
    falling_start = lag == lo and v[lag - 1] > v[lag]
    short_end = lag == acf.max_lag and acf.max_lag < n // 2
    return None if falling_start or short_end else lag


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
    populated.  ``acf`` is the record's full-lag circular ACF whenever a
    stage computed it (the screen's past gate 1, or the estimator's own),
    so writers reuse it instead of transforming the record again.

    ``model_acf``, the full-model ACF of the fitted sinusoid at lags
    0..max_lag, is computed on first read from ``model_params`` (the fit
    with frequency in cycles per sample) and ``max_lag``, then kept.  It
    is None when nothing was estimated or when the fit is degenerate;
    ``estimate_parameters`` tells the second case from the O(1)
    normalization check and attaches its warning up front.
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
    spectrum: Spectrum | None = None
    acf: AcfSeries | None = field(default=None, repr=False)
    model_params: SinusoidParams | None = field(default=None, repr=False)
    max_lag: int | None = None

    @property
    def verdict(self) -> str:
        if self.screening is not None:
            return self.screening.verdict
        return "signal" if self.params is not None else "noise"

    @functools.cached_property
    def model_acf(self) -> AcfSeries | None:
        if self.model_params is None or self.max_lag is None:
            return None
        return model_acf_full(self.model_params, self.max_lag)


def _noise_report(decision: ScreeningDecision, config: PipelineConfig) -> EstimationReport:
    return EstimationReport(params=None, screening=decision,
                            frequency_source=None, smoothing_k=config.ma_k,
                            acf=decision.acf)


def estimate_parameters(record: TimeSeries,
                        config: PipelineConfig = PipelineConfig()) -> EstimationReport:
    """Run the full two-stage pipeline on a sampled record.

    Order: screen; smooth with MA-k; amplitude from the smoothed range;
    frequency from the spectrum peak with the ACF arccosine read, the ACF
    one-period mark, and the smoothed-record crossover spacing as
    cross-checks (disagreement beyond 20 percent is a warning, the
    spectrum value wins); phase by grid search with the crossover formula
    recorded as a cross-check.  The report computes the full-model ACF of
    the fitted sinusoid when it is first read.  ``check_finite`` runs once,
    here, and the screen does not repeat it.
    """
    check_finite(record)
    decision: ScreeningDecision | None
    if config.skip_screen:
        try:
            decision = _screen(record, config.far)
        except ValueError:
            decision = None
    else:
        decision = _screen(record, config.far)
        if decision.verdict == VERDICT_NOISE:
            return _noise_report(decision, config)

    n = len(record)
    dt = record.dt
    max_lag = config.max_lag if config.max_lag is not None else n // 2

    smoothed = moving_average(record, config.ma_k)
    amplitude = amplitude_estimate(smoothed)
    if not 1 <= max_lag <= n - 1:
        raise ValueError(f"max_lag must be in [1, {n - 1}]")

    # One forward transform per record: the screen's, or one taken here
    # when it stopped at gate 1 or could not judge the record.
    if decision is not None and decision.dft is not None:
        dft, full_acf = decision.dft, decision.acf
    else:
        dft = _dft(record)
        full_acf = _circular_acf(record, dft, n - 1)
    acf = AcfSeries(full_acf.kind, full_acf.values[:max_lag + 1])
    spec = Spectrum(1.0 / (n * dt), np.abs(dft))
    candidates: dict[str, float] = {}
    try:
        candidates["fft"] = fundamental_frequency(spec)
    except ValueError:
        pass

    probe = 2 if acf.max_lag >= 2 else 1
    f_probe = frequency_from_acf(acf.values[probe], probe) / dt
    if f_probe > 0:
        candidates["acf_arccos"] = f_probe
    period_lag = _acf_period_lag(acf, n)
    if period_lag is not None:
        candidates["acf_period"] = 1.0 / (period_lag * dt)
    try:
        crossings = _zero_crossings(smoothed.series)
    except ValueError:
        crossings = np.empty(0), np.empty(0, dtype=int)
    ma_period = _period_from_crossings(*crossings)
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
        t_2pi = _second_crossover(*crossings, smoothed.group_delay)
        _, crossover_rad = phase_from_crossover(period, t_2pi)
        phase_checks["crossover"] = wrap_phase(crossover_rad)
    except ValueError:
        pass

    objective = PhaseObjective(record, amplitude, frequency,
                               config.objective_range)
    phi, objective_value = phase_grid_search(objective)

    params = SinusoidParams(amplitude, frequency, phi)

    model_params: SinusoidParams | None = SinusoidParams(amplitude, frequency * dt,
                                                         params.phase_rad)
    try:
        normalizing_constant(model_params)
    except DegenerateParametersError:
        model_params = None
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
        spectrum=spec,
        acf=full_acf,
        model_params=model_params,
        max_lag=max_lag,
    )
