"""Parameter recovery: frequency, amplitude, and the phase search.

The pipeline in ``estimate_parameters`` runs the two-gate screen, smooths
with MA-k, reads amplitude from the smoothed range, takes frequency from
the spectrum peak, always, and recovers phase by a two-stage least-squares
grid search.  Two ACF reads, the crossing spacing and the crossover phase
are cross-checks only, run when the report's fields are first read.  The
closed-form phase constructions (crossover, general landmarks,
arctangent at the origin, arcsine at a point) live here as well; the
last two have restricted domains and are never the pipeline's primary
answer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .acf import (AcfSeries, DegenerateParametersError, _Record, _coupling_and_denominator,
                  frequency_from_acf, model_acf_full)
from .model import (SinusoidParams, TimeSeries, TWO_PI, _SAMPLE_LIMIT_TIMES_N, _adopt,
                    _count, _on_first_read, _time_axis, wrap_phase)
from .screening import ScreeningDecision, VERDICT_NOISE, _check_far, _screen
from .smoothing import SmoothedSeries, _check_window, _moving_average, _span
from .spectrum import Spectrum, _peak_bin

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
    """Sum-of-squares phase objective with amplitude and frequency pinned.

    The amplitude must lie in (0, L], L = sqrt(float max)/(2N) the sample
    limit of ``check_finite`` for the record's length N, so A^2 and the
    objective's sums stay finite; the frequency must be positive with
    4*pi*f finite, the angular frequency of the double-angle sums.  NaN
    and inf fail both.  Both are kept as Python floats, whatever number
    type they were given as, so the checks, the window and the sums are
    double arithmetic (a float32 f would put 1/f, and so the window's
    end, at another sample).
    """

    data: TimeSeries
    fixed_amplitude: float
    fixed_frequency_hz: float
    t_range: str = ONE_PERIOD

    def __post_init__(self):
        a, f = float(self.fixed_amplitude), float(self.fixed_frequency_hz)
        if not 0.0 < a <= _SAMPLE_LIMIT_TIMES_N / len(self.data):
            raise ValueError("fixed_amplitude must lie in (0, sqrt(float max)/(2N)]")
        if not (f > 0 and math.isfinite(2.0 * TWO_PI * f)):
            raise ValueError("fixed_frequency_hz must be positive, with 4*pi*f finite")
        if self.t_range not in _RANGES:
            raise ValueError(f"t_range must be one of {_RANGES}")
        object.__setattr__(self, "fixed_amplitude", a)
        object.__setattr__(self, "fixed_frequency_hz", f)


# The closed-form double-angle sums lose about eps*m*|u|/|sin(u)| to
# rounding (u = theta*dt/2); below this |sin(u)|/|u| they fall back to the
# direct sums, which bounds that loss by about 2.2e-10*m.
_MIN_SIN_RATIO = 1e-6


def _double_angle_sums(start: float, dt: float, lo: int, hi: int,
                       theta: float) -> tuple[float, float]:
    """(sum cos(theta*t), sum sin(theta*t)) over the times t_k = start + dt*k
    of samples lo..hi-1.

    With t_k = t_lo + k*dt, k = 0..m-1 (m = hi - lo), the sum of
    exp(i*theta*t_k) is a geometric series, O(1) with no time axis:
    exp(i*theta*(t_lo + (m-1)*dt/2)) * sin(m*u)/sin(u), u = theta*dt/2.
    When sin(u) is tiny against u (theta*dt near a non-zero multiple of
    2*pi, such as f*dt = 0.5, the Nyquist bin an even-N spectrum can
    pick) the quotient is badly conditioned, and the direct sums are
    taken instead, over the window's times.
    """
    m = hi - lo
    u = theta * dt / 2.0
    sin_u = math.sin(u)
    if abs(sin_u) < _MIN_SIN_RATIO * abs(u):
        angles = theta * _time_axis(start, dt, lo, hi)
        return float(np.sum(np.cos(angles))), float(np.sum(np.sin(angles)))
    gain = math.sin(m * u) / sin_u
    middle = theta * (start + dt * lo + (m - 1) * dt / 2.0)
    return gain * math.cos(middle), gain * math.sin(middle)


# Longest one_period window whose sin(w*t) and cos(w*t) columns are kept:
# 64 kept grids then hold at most 4 MiB of columns.
_MAX_COLUMN = 4096


class _Geometry(NamedTuple):
    """What the objective reads of a record's time grid, not of its samples:
    the index range [lo, hi) it sums over, the double-angle sums (Sc2, Ss2)
    over those times, and, for a one_period window of at most
    ``_MAX_COLUMN`` samples, the read-only columns sin(w*t) and cos(w*t)
    (None otherwise)."""

    lo: int
    hi: int
    sc2: float
    ss2: float
    sin_wt: np.ndarray | None
    cos_wt: np.ndarray | None


@functools.lru_cache(maxsize=64)
def _geometry(start: float, dt: float, n: int, frequency_hz: float, t_range: str) -> _Geometry:
    """The objective's ``_Geometry`` on the grid of N = ``n`` samples at
    start + dt*k, for frequency f = ``frequency_hz``; the 64 most recently
    used are kept, so records that share N, dt, start and f build it once.
    Every caller passes Python floats (``TimeSeries`` and
    ``PhaseObjective`` keep them so); a start of -0.0 shares the entry of
    0.0, whose times are the same.

    The window is a run of the record (all of it, or 0 <= t <= 1/f), so
    the times stay evenly spaced.  Sample k sits at start + dt*k, which
    never decreases with k, so the one_period run is the index range of
    the k with t >= 0 and t <= 1/f + 1e-12*dt (a sample at 1/f counts
    despite rounding, and the slack scales with the time axis).  Each end
    is the index nearest its bound over dt, clamped to [0, N - 1], or the
    next one, as one comparison of that expression decides: exact while
    the times near the bounds stay below about 2**50*dt, so their
    rounding is far below dt.  A one_period run of fewer than 2 samples
    (a record that starts after 1/f or ends before 0) raises
    ``ValueError``.
    """
    w = TWO_PI * frequency_hz
    if t_range == FULL_RECORD:
        return _Geometry(0, n, *_double_angle_sums(start, dt, 0, n, 2.0 * w), None, None)
    last = n - 1.0
    period = 1.0 / frequency_hz
    end = period + 1e-12 * dt
    lo = round(min(max(-start / dt, 0.0), last))
    if start + dt * lo < 0.0:
        lo += 1
    hi = round(min(max((end - start) / dt, 0.0), last))
    if start + dt * hi <= end:
        hi += 1
    if hi - lo < 2:
        raise ValueError(
            f"the one_period objective window [0, 1/f] = [0, {period:.6g}] holds "
            f"{hi - lo} sample(s) of the record, fewer than 2; use the full_record range")
    sums = _double_angle_sums(start, dt, lo, hi, 2.0 * w)
    if hi - lo > _MAX_COLUMN:
        return _Geometry(lo, hi, *sums, None, None)
    wt = w * _time_axis(start, dt, lo, hi)
    columns = np.sin(wt), np.cos(wt)
    for column in columns:
        column.setflags(write=False)
    return _Geometry(lo, hi, *sums, *columns)


class _PhaseTable(NamedTuple):
    """Grid phases with the unit columns exp(i*phi) and exp(2i*phi) the
    objective's trig polynomial reads, each built from the cos and sin of
    its angle (so its real and imaginary parts are those values, bit for
    bit)."""

    phis: np.ndarray
    e1: np.ndarray
    e2: np.ndarray


def _unit_column(angles: np.ndarray) -> np.ndarray:
    column = np.empty(angles.shape, complex)
    column.real, column.imag = np.cos(angles), np.sin(angles)
    return column


def _phase_table(phis: np.ndarray) -> _PhaseTable:
    return _PhaseTable(phis, _unit_column(phis), _unit_column(2.0 * phis))


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


def _objective_on_tables(record: TimeSeries, amplitude: float, frequency_hz: float,
                         t_range: str, linear: tuple[float, float] | None = None
                         ) -> tuple[float, complex, complex]:
    """The objective of ``record`` with A = ``amplitude`` and f =
    ``frequency_hz`` pinned, over ``t_range``, as a trig polynomial in phi:
    O(N) sums once, O(1) per phi.  The caller vouches that A, f and the
    range pass ``PhaseObjective``'s checks.

    Sum (x - A*sin(wt + phi))^2 = Sxx - 2A(cos(phi)*Sxs + sin(phi)*Sxc) + A^2*(m/2
    - (cos(2phi)*Sc2 - sin(2phi)*Ss2)/2), from the sine-fit sums of IEEE Std 1057,
    over the window's samples lo..hi-1 (``_geometry``).  Sxx is one dot
    product; Sc2 and Ss2 are the grid's kept double-angle sums.  ``linear``
    is (Sxs, Sxc) when the caller already has them (the whole record's,
    from its kept DFT peak bin: ``_peak_bin_sums``); otherwise they are
    the dot products of the samples with the grid's kept sin(w*t) and
    cos(w*t) columns, or, where it keeps none, with one trig pass each
    over the window's times.

    The same polynomial is const - Re(exp(i*phi)*alpha + exp(2i*phi)*beta),
    with const = Sxx + A^2*m/2, alpha = 2A*(Sxs - i*Sxc) and
    beta = (A^2/2)*(Sc2 + i*Ss2); returns (const, alpha, beta), which
    ``_curve`` evaluates on a ``_PhaseTable``.
    """
    lo, hi, sc2, ss2, sin_wt, cos_wt = _geometry(record.start_time, record.dt,
                                                 record.samples.size, frequency_hz, t_range)
    x = record.samples[lo:hi]
    if linear is None:
        if sin_wt is None:
            wt = TWO_PI * frequency_hz * record.times(lo, hi)
            sin_wt, cos_wt = np.sin(wt), np.cos(wt)
        linear = x @ sin_wt, x @ cos_wt
    sxs, sxc = linear
    a_squared = amplitude ** 2
    return (x @ x + a_squared * ((hi - lo) / 2.0),
            complex(2.0 * amplitude * sxs, -2.0 * amplitude * sxc),
            complex(a_squared / 2.0 * sc2, a_squared / 2.0 * ss2))


def _curve(table: _PhaseTable, const: float, alpha: complex, beta: complex) -> np.ndarray:
    """The objective at each of ``table``'s phases, from the terms
    ``_objective_on_tables`` returns: two complex products, one sum and one
    subtraction, all elementwise.

    Its values may differ from the real expression's in the last bits;
    what the search keeps is the grid, the first-index tie rule (const
    stays in the ranked value, so a record whose terms all round away ties
    at the first point) and the direct residual sum of the winner, and the
    grid phases it picks match the real expression's on every record of
    the seeded sweeps in the tests.
    """
    z = table.e1 * alpha
    z += table.e2 * beta
    return np.subtract(const, z.real)


def _peak_bin_sums(peak: complex, w: float, t0: float) -> tuple[float, float]:
    """(Sxs, Sxc) over a whole record from its DFT bin ``peak`` = X[m], for
    w = 2*pi*m/(N*dt) and first sample time ``t0``.

    w*t_k = w*t0 + 2*pi*m*k/N, so Sxc + i*Sxs = sum x_k*exp(i*w*t_k)
    = exp(i*w*t0)*conj(X[m]): O(1) instead of two trig passes over N.
    """
    z = complex(math.cos(w * t0), math.sin(w * t0)) * complex(peak).conjugate()
    return z.imag, z.real


def _residual_sum(obj: PhaseObjective, t: np.ndarray, x: np.ndarray, phi: float) -> float:
    """Sum of (x - A*sin(w*t + phi))**2, every step in one N-length buffer."""
    buf = np.multiply(TWO_PI * obj.fixed_frequency_hz, t)
    buf += phi
    np.sin(buf, out=buf)
    buf *= obj.fixed_amplitude
    np.subtract(x, buf, out=buf)
    np.square(buf, out=buf)
    return float(np.add.reduce(buf))


def phase_objective_value(obj: PhaseObjective, phi: float) -> float:
    """Sum over sample times of [X(t) - A*sin(w*t + phi)]^2, one O(N) pass.

    In one_period mode the sum runs over the record's samples with
    0 <= t <= 1/f; in full_record mode over every sample.
    """
    record = obj.data
    lo, hi = _geometry(record.start_time, record.dt, len(record), obj.fixed_frequency_hz,
                       obj.t_range)[:2]
    return _residual_sum(obj, record.times(lo, hi), record.samples[lo:hi], phi)


def phase_grid_search(obj: PhaseObjective) -> tuple[float, float]:
    """Two-stage grid minimization of the phase objective.

    The coarse pass steps phi from -pi to pi in hundredths; the refine
    pass steps in thousandths across the winning coarse cell.  Ties break
    toward the smaller phi.  Points are ranked by the objective's trig
    polynomial in its complex form, O(N + G) for G points, and the
    winner's value is the direct residual sum.  The grids and their
    exp(i*phi) and exp(2i*phi) columns do not depend on the record: the
    coarse table is built at import, each coarse cell's refine table on
    first use, and both are kept for the life of the process (629 cells
    at most, about 1 MB), so a call takes no trig of grid points.  The
    window, its double-angle sums and, for a one_period window, its
    sin(w*t) and cos(w*t) columns depend only on the record's time grid
    and f, and the 64 most recently used grids keep them (``_geometry``).
    Returns (phi, phase_objective_value).
    """
    phi = _grid_search(obj.data, obj.fixed_amplitude, obj.fixed_frequency_hz, obj.t_range)
    return phi, phase_objective_value(obj, phi)


def _grid_search(record: TimeSeries, amplitude: float, frequency_hz: float, t_range: str,
                 linear: tuple[float, float] | None = None) -> float:
    """``phase_grid_search``'s phase, unwrapped, with no ``PhaseObjective``:
    the caller vouches for A, f and the range (``phase_grid_search`` by the
    object's checks, ``estimate_parameters`` by its own).  (Sxs, Sxc) come
    from ``linear`` when given (``_objective_on_tables``)."""
    terms = _objective_on_tables(record, amplitude, frequency_hz, t_range, linear)
    refine = _refine_table(int(_curve(_COARSE, *terms).argmin()))
    return float(refine.phis[_curve(refine, *terms).argmin()])


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

    A raw crossing is a sign change between samples j and j+1; a crossing
    only counts once the series has reached beyond +-h on both sides (h is
    a fixed fraction of half the range max - min; h == 0 raises), and each
    confirmed transition takes the median raw crossing of its cluster,
    linearly interpolated.  ``times`` is ascending; the matching
    ``directions`` entry is +1 upward, -1 downward, and the directions
    strictly alternate (each is a change of confirmed side).

    Raw sign changes are the rises of the boolean arrays s > 0 and s < 0
    (a <= 0 < b is ~p[i] & p[i+1] for p = s > 0).  The confirmed sides
    come from s > h and s < -h.  The cluster of a transition between
    confirmed samples ia and ib is the raw crossings j with ia <= j < ib,
    found by index, and only the chosen j is interpolated, at
    start + dt*j (the arithmetic of ``TimeSeries.times``) plus
    dt*(0 - s[j])/(s[j+1] - s[j]).
    """
    s = series.samples
    start, dt = series.start_time, series.dt
    h = _HYSTERESIS_FRACTION * _span(s) / 2.0
    if h == 0:
        raise ValueError("constant record has no zero crossings")
    p, q = s > 0.0, s < 0.0
    i = ((p[1:] > p[:-1]) | (q[1:] > q[:-1])).nonzero()[0]
    above = s > h
    confirmed = (above | (s < -h)).nonzero()[0]
    side = above[confirmed]
    flips = (side[1:] != side[:-1]).nonzero()[0]
    j = i[(i.searchsorted(confirmed[flips]) + i.searchsorted(confirmed[flips + 1])) // 2]
    a, b = s[j], s[j + 1]
    return (start + dt * j) + dt * ((0.0 - a) / (b - a)), np.where(side[flips + 1], 1, -1)


def _second_crossover(times: np.ndarray, directions: np.ndarray,
                      group_delay: float) -> float:
    """``detect_t2pi`` on crossings already found in the smoothed series."""
    keep = times >= 0.0
    times, directions = times[keep], directions[keep]
    if times.size < 2:
        raise ValueError("fewer than two zero crossovers in the record")
    upward = directions[1:] > 0
    first = int(upward.argmax())
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

    The directions of ``_zero_crossings`` alternate, so each direction's
    times are a stride-2 slice.  Upward spacings come first, then downward
    ones (each ``np.diff``'s slice subtraction), and their sum over their
    count is ``np.mean``'s arithmetic.  When the crossing times span a
    quarter of float max or more the sum may overflow to inf, an infinite
    period whose read the caller drops, so numpy's overflow warning is
    silenced.
    """
    up = 1 if directions.size and directions[0] < 0 else 0
    ups, downs = times[up::2], times[1 - up::2]
    spacings = np.concatenate([ups[1:] - ups[:-1], downs[1:] - downs[:-1]])
    if spacings.size == 0:
        return None
    with np.errstate(over="ignore"):
        return float(np.add.reduce(spacings) / spacings.size)


def _acf_period_lag(v: np.ndarray, n: int) -> int | None:
    """Lag of the one-period mark: the first major ACF peak after lag 0.

    A periodic ACF ``v`` (lags 0..max_lag) first goes negative about a
    quarter period in and peaks again near one period, so the search
    starts at the first negative lag and stops well before the second
    repeat.  A window edge is no peak: the first lag while the ACF still
    falls, or the last when max_lag stops short of N/2 (N = ``n``).
    """
    max_lag = v.size - 1
    negative = v[1:] < 0
    first = int(negative.argmax())  # the first True, if there is one
    if not negative[first]:
        return None
    first_negative = 1 + first  # about a quarter period in
    lo = first_negative + 1
    hi = min(v.size, 5 * first_negative + 1)
    if lo >= hi:
        return None
    lag = lo + int(v[lo:hi].argmax())
    falling_start = lag == lo and v[lag - 1] > v[lag]
    short_end = lag == max_lag and max_lag < n // 2
    return None if falling_start or short_end else lag


class _CrossChecks(NamedTuple):
    """The cross-check stage's result: one entry per report field it fills."""
    frequency_cross_checks_hz: dict[str, float]
    t_2pi: float | None
    phase_cross_checks: dict[str, float]
    warnings: tuple[str, ...]


def _cross_checks(acf: np.ndarray, smoothed: SmoothedSeries, frequency: float) -> _CrossChecks:
    """The stage of the reads that decide nothing: the ACF reads (``acf``
    holds lags 0..max_lag), the crossing spacing of ``smoothed`` (whose
    hysteresis ``estimate_parameters`` checked non-zero) and the crossover
    phase.  Raises nothing."""
    n, dt = smoothed.source_len, smoothed.series.dt
    probe = 2 if acf.size > 2 else 1
    reads = {"acf_arccos": frequency_from_acf(acf[probe], probe) / dt}
    period_lag = _acf_period_lag(acf, n)
    if period_lag is not None:
        reads["acf_period"] = 1.0 / (period_lag * dt)
    crossings = _zero_crossings(smoothed.series)
    ma_period = _period_from_crossings(*crossings)
    if ma_period is not None and ma_period > 0:
        reads["ma_period"] = 1.0 / ma_period
    # a read counts only as a finite positive frequency (no NaN, no 0 Hz of an infinite period)
    cross_checks = {name: f for name, f in reads.items() if 0.0 < f < math.inf}
    warnings = tuple(f"{name} frequency {value:.6g} Hz differs from the fft "
                     f"estimate {frequency:.6g} Hz by more than 20%"
                     for name, value in cross_checks.items()
                     if abs(value - frequency) > _FREQ_AGREEMENT * frequency)
    phase_checks: dict[str, float] = {}
    t_2pi: float | None = None
    try:
        t_2pi = _second_crossover(*crossings, smoothed.group_delay)
        _, crossover_rad = phase_from_crossover(1.0 / frequency, t_2pi)
        phase_checks["crossover"] = wrap_phase(crossover_rad)
    except ValueError:
        pass
    return _CrossChecks(cross_checks, t_2pi, phase_checks, warnings)


@dataclass(frozen=True)
class PipelineConfig:
    """Free parameters of the estimation pipeline.

    With ``skip_screen`` the pipeline estimates even when the screen says
    noise (the decision is still reported when computable).  ``ma_k`` and
    ``max_lag`` must be Python or NumPy integers (a bool is not one) and
    are kept as Python ints.
    """

    far: float = 0.01
    ma_k: int = 5
    objective_range: str = ONE_PERIOD
    max_lag: int | None = None
    skip_screen: bool = False

    def __post_init__(self):
        _check_far(self.far)
        object.__setattr__(self, "ma_k", _count("ma_k", self.ma_k))
        if self.max_lag is not None:
            object.__setattr__(self, "max_lag", _count("max_lag", self.max_lag))
        if self.objective_range not in _RANGES:
            raise ValueError(f"objective_range must be one of {_RANGES}")


@dataclass(frozen=True, eq=False)
class EstimationReport:
    """What ``estimate_parameters`` decided, and what follows from it.

    Six fields are stored: ``params``, ``screening``, ``work`` (the
    record's working set, ``acf._Record``), ``config`` (the
    ``PipelineConfig`` the record ran under, the same object),
    ``grid_phase`` (the phase before ``params`` wraps it) and
    ``smoothed``.  When screening rejects the record only ``screening``
    and ``config`` are set.  The rest is derived.  Properties:
    ``frequency_source`` ("fft" when ``params`` is set), ``delta_t``
    (``params.time_delay()``), ``acf`` (``work``'s), ``smoothing_k``
    (``config.ma_k``), and, None on a noise report, ``objective_range``
    (``config``'s) and ``max_lag`` (``config``'s, or N//2 when it has
    none).  Computed on first read through ``model._on_first_read``:
    ``spectrum``, the ``Spectrum`` of ``work``'s ``df`` and |X|, then
    ``objective_value``, the residual sum at ``grid_phase``,
    ``model_params``, the fit with frequency in cycles per sample (None
    when the O(1) test of the full-model ACF's denominator calls it
    degenerate), ``model_acf``, that ACF at lags 0..max_lag (None with
    ``model_params``), and the cross-checks ``frequency_cross_checks_hz``,
    ``t_2pi``, ``phase_cross_checks`` and ``warnings`` (a noise report's
    are None, None, None, None, {}, None, {} and ()).  Reading only
    ``params`` computes none of them; ``repr`` shows only the stored
    fields.  A report keeps its record, its one-sided DFT
    (16*(N/2 + 1) bytes), |X| and the ACF alive.
    """

    params: SinusoidParams | None
    screening: ScreeningDecision | None
    work: _Record = field(repr=False)
    config: PipelineConfig
    grid_phase: float | None = None
    smoothed: SmoothedSeries | None = None

    @property
    def verdict(self) -> str:
        if self.screening is not None:
            return self.screening.verdict
        return "signal" if self.params is not None else "noise"

    frequency_source = property(lambda self: "fft" if self.params is not None else None)
    delta_t = property(lambda self: self.params.time_delay() if self.params is not None else None)
    acf = property(lambda self: self.work.acf)
    smoothing_k = property(lambda self: self.config.ma_k)
    objective_range = property(
        lambda self: self.config.objective_range if self.params is not None else None)
    max_lag = property(lambda self: None if self.params is None else (
        self.config.max_lag or len(self.work.record) // 2))  # a config's max_lag is >= 1

    @_on_first_read
    def spectrum(self) -> Spectrum | None:
        return None if self.params is None else _adopt(
            Spectrum, df=self.work.df, magnitudes=self.work.magnitudes)

    @_on_first_read
    def objective_value(self) -> float | None:
        p = self.params
        return None if p is None else phase_objective_value(
            PhaseObjective(self.work.record, p.amplitude, p.frequency_hz, self.objective_range),
            self.grid_phase)

    @_on_first_read
    def model_params(self) -> SinusoidParams | None:
        p = self.params
        if p is None:
            return None
        per_sample = SinusoidParams(p.amplitude, p.frequency_hz * self.work.record.dt,
                                    p.phase_rad)
        try:  # the O(1) degeneracy test reads only the full-model ACF's denominator
            _coupling_and_denominator(per_sample.omega(), per_sample.phase_rad)
        except DegenerateParametersError:
            return None
        return per_sample

    @_on_first_read
    def model_acf(self) -> AcfSeries | None:
        if self.model_params is None:
            return None
        return model_acf_full(self.model_params, self.max_lag)

    @_on_first_read
    def _cross(self) -> _CrossChecks:
        if self.params is None:
            return _CrossChecks({}, None, {}, ())
        checks = _cross_checks(self.acf.values[:self.max_lag + 1], self.smoothed,
                               self.params.frequency_hz)
        if self.model_params is None:
            checks = checks._replace(warnings=checks.warnings + (
                "full-model ACF is degenerate for the fitted parameters",))
        return checks

    frequency_cross_checks_hz = property(lambda self: self._cross.frequency_cross_checks_hz)
    t_2pi = property(lambda self: self._cross.t_2pi)
    phase_cross_checks = property(lambda self: self._cross.phase_cross_checks)
    warnings = property(lambda self: self._cross.warnings)


def estimate_parameters(record: TimeSeries,
                        config: PipelineConfig = PipelineConfig()) -> EstimationReport:
    """Run the full two-stage pipeline on a sampled record.

    Order: screen; smooth with MA-k; amplitude from the smoothed range;
    frequency from the spectrum peak, always, with the ACF arccosine
    read, the ACF one-period mark and the smoothed-record crossover
    spacing as cross-checks only (disagreement beyond 20 percent is a
    warning); phase by grid search with the crossover formula recorded
    as a cross-check.  It computes only what decides the answer or can
    raise (the crossing scan's range check too) into the report's stored
    fields; the report derives the rest, the ``Spectrum`` included, on
    first read (``model._on_first_read``).  ``max_lag`` and the MA-k
    window (``moving_average``'s check and messages) are checked against
    the record length before anything else, so a bad value fails on every
    record, not only on those past the screen; the smoothing then runs
    unchecked.  The record's working set runs ``check_finite`` once, and
    the screen, the frequency and the ACF reads share its one transform
    pair (none after a gate-1 reject).  Past the screen, a record whose
    sample spacing puts the bin frequencies m*df (the working set's
    ``df`` = 1/(N*dt)) or the angular frequency 4*pi*m*df of the phase
    search's double-angle sums outside the finite positive floats raises
    ``ValueError``: the frequency check of ``PhaseObjective``, made here
    once at the top bin m = N//2, so the phase search runs on A, f and
    the range with no ``PhaseObjective`` built.
    """
    # the default, N // 2, always fits, and the config has checked max_lag >= 1
    n = record.samples.size
    if config.max_lag is not None and config.max_lag > n - 1:
        raise ValueError(f"max_lag must be in [1, {n - 1}]")
    _check_window(config.ma_k, n)
    work = _Record(record)
    decision: ScreeningDecision | None
    if config.skip_screen:
        try:
            decision = _screen(work, config.far)
        except ValueError:
            decision = None
    else:
        decision = _screen(work, config.far)
        if decision.verdict == VERDICT_NOISE:
            return _adopt(EstimationReport, params=None, screening=decision, work=work,
                          config=config, grid_phase=None, smoothed=None)

    df = work.df
    # bins 1..N/2 sit at m*df Hz; the phase search needs 4*pi*m*df finite
    if not (df > 0.0 and math.isfinite(2.0 * TWO_PI * ((n // 2) * df))):
        raise ValueError(f"sample spacing dt = {record.dt!r} puts the spectrum's bin frequencies "
                         "m/(N*dt), or the phase search's angular frequencies 4*pi*m/(N*dt), "
                         "outside the finite positive floats; rescale the times")
    smoothed = _moving_average(record, config.ma_k)  # the window was checked above
    span = _span(smoothed.series.samples)  # amplitude_estimate(smoothed) is span / 2
    if not span > 0:
        raise ValueError(f"MA-{config.ma_k} smoothing leaves a constant record: no "
                         "amplitude, crossings or phase to estimate")
    amplitude = span / 2.0

    work.acf  # a zero-variance record fails here, not on a cross-check's read
    peak = _peak_bin(work.magnitudes)
    frequency = peak * df
    if _HYSTERESIS_FRACTION * span / 2.0 == 0:  # the crossing scan's h: it cannot raise
        raise ValueError(f"MA-{config.ma_k} smoothing leaves a record whose range "
                         f"{span:.3g} is too small: its crossing threshold rounds to zero")

    linear = (_peak_bin_sums(work.dft[peak], TWO_PI * frequency, record.start_time)
              if config.objective_range == FULL_RECORD else None)
    phi = _grid_search(record, amplitude, frequency, config.objective_range, linear)

    params = _adopt(SinusoidParams, amplitude=amplitude, frequency_hz=frequency,
                    phase_rad=wrap_phase(phi))
    return _adopt(EstimationReport, params=params, screening=decision, work=work,
                  config=config, grid_phase=phi, smoothed=smoothed)
