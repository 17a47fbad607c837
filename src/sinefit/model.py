"""Sinusoid model: parameter space, synthetic data, structural landmarks.

The model is undamped simple harmonic motion x(t) = A*sin(w*t + phi) with
no vertical offset.  Everything here is a pure function of its inputs; the
noise generator state is local to each ``synthesize`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .normal import _quantile

try:  # the C functions np.correlate and a whole-array np.count_nonzero call
    from numpy._core.multiarray import correlate2 as _correlate, count_nonzero as _count_nonzero
except ImportError:  # numpy < 2
    _correlate, _count_nonzero = np.correlate, np.count_nonzero

TWO_PI = 2.0 * math.pi

NON_FINITE_SAMPLES = "record has non-finite (NaN or inf) samples"
SAMPLES_TOO_LARGE = ("record has samples too large: |x| must not exceed "
                     "sqrt(float max)/(2N)")
SAMPLES_TOO_SMALL = ("record has samples too small: a record that is not all zero "
                     "needs max|x| >= sqrt(float tiny) = 2**-511")

# Largest max|x| of an N-sample record, times N (see ``check_finite``).
_SAMPLE_LIMIT_TIMES_N = math.sqrt(np.finfo(float).max) / 2.0
# Smallest max|x| of a record that is not all zero (see ``check_finite``).
_SAMPLE_FLOOR = math.sqrt(np.finfo(float).tiny)


def wrap_phase(phi: float) -> float:
    """Wrap an angle into the canonical interval [-pi, pi)."""
    return (phi + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class SinusoidParams:
    """The triple (A, f, phi) describing x(t) = A*sin(2*pi*f*t + phi).

    amplitude is in signal units (> 0), frequency_hz in Hz (> 0), and
    phase_rad in radians; all three must be finite.  Phases outside
    [-pi, pi) are wrapped on construction, never rejected.
    """

    amplitude: float
    frequency_hz: float
    phase_rad: float

    def __post_init__(self):
        if not self.amplitude > 0:
            raise ValueError("amplitude must be positive")
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        if not self.frequency_hz > 0:
            raise ValueError("frequency_hz must be positive")
        if not math.isfinite(self.frequency_hz):
            raise ValueError("frequency_hz must be finite")
        if not math.isfinite(self.phase_rad):
            raise ValueError("phase_rad must be finite")
        object.__setattr__(self, "phase_rad", wrap_phase(self.phase_rad))

    def omega(self) -> float:
        """Angular frequency 2*pi*f in rad/s."""
        return TWO_PI * self.frequency_hz

    def period(self) -> float:
        """Duration of one cycle, 1/f."""
        return 1.0 / self.frequency_hz

    def time_delay(self) -> float:
        """Horizontal shift phi/omega; shares the sign of the phase."""
        return self.phase_rad / self.omega()


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A uniformly sampled real-valued record.

    Sample i sits at time start_time + i*dt; both, and the last sample
    time start_time + (N - 1)*dt, must be finite, since a NaN or infinite
    time leaves no sample at a usable time.  start_time and dt are kept as
    Python floats, whatever number type they were given as, so every
    time is float arithmetic (an int grid would wrap in int64);
    ``times(lo, hi)`` builds any run of the time axis.  The sample array
    is copied and frozen so instances can be shared across threads safely.
    """

    start_time: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        start, dt = _check_time_grid(self.start_time, self.dt)
        samples = np.array(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("a record needs at least two samples")
        if not math.isfinite(start + dt * (samples.size - 1)):
            raise ValueError("the last sample time start_time + (N - 1)*dt must be finite")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "start_time", start)
        object.__setattr__(self, "dt", dt)

    def __len__(self) -> int:
        return self.samples.size

    def times(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Times of samples lo..hi-1 (all of them by default), start_time + dt*k."""
        return _time_axis(self.start_time, self.dt, lo, self.samples.size if hi is None else hi)


def _time_axis(start: float, dt: float, lo: int, hi: int) -> np.ndarray:
    """The times start + dt*k of samples k = lo..hi-1 of a grid: the one
    owner of the time axis's arithmetic, for ``TimeSeries.times``,
    ``synthesize`` and the phase objective's kept geometry alike."""
    return start + dt * np.arange(lo, hi)


def _adopt(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as given.

    The pipeline's one construction path for the objects it builds per
    record: one ``__dict__`` update, with no ``__init__``, no
    ``__post_init__`` and no copy.  The caller passes every field, in
    the dataclass's order, so ``vars()`` lists them as the public
    constructor would; it vouches that the values pass the class's
    checks and that every array it passes is already read-only, each
    producer freezing its own (``setflags(write=False)`` on a fresh
    array it then drops, or a view of a read-only one).  In place of
    ``SinusoidParams``'s ``__post_init__``, ``estimate_parameters``
    vouches for the fit, and for the phase search it runs with no
    ``PhaseObjective``: the smoothed span is finite and its half above
    zero and at most max|x|, which ``check_finite`` bounds by the sample
    limit, the frequency is a bin m*df with df > 0 and 4*pi*(N//2)*df
    finite (``PhaseObjective``'s own check, at the top bin), the phase is
    passed through ``wrap_phase`` and the range was checked by
    ``PipelineConfig``.  The public constructors keep their checks and
    copies.
    """
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


class _on_first_read:
    """A method whose value is computed on first read and then kept.

    The first read stores the value in the instance's ``__dict__``, past a
    frozen dataclass's ``__setattr__``; this non-data descriptor is then
    shadowed, so a later read is a plain attribute hit, with no call and
    no lock.  Two threads reading at once may both compute; the first
    value stored is the one kept and returned to both.
    """

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        return instance.__dict__.setdefault(self.name, self.compute(instance))


def _check_time_grid(start_time: float, dt: float) -> tuple[float, float]:
    """(start_time, dt) as floats, once dt is positive and both are finite."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not math.isfinite(dt):
        raise ValueError("dt must be finite")
    if not math.isfinite(start_time):
        raise ValueError("start_time must be finite")
    return float(start_time), float(dt)


def check_finite(record: TimeSeries) -> None:
    """Reject records no stage can judge, from max|x|.

    NaN or infinite samples raise ``NON_FINITE_SAMPLES``.  Finite samples
    above L = sqrt(float max)/(2N) raise ``SAMPLES_TOO_LARGE``: past a
    limit of that order a sum of squares, such as the power spectrum or
    the lag-0 ACF sum, can overflow although every sample is finite.
    Within it, every DFT bin has |X[m]| <= sum|x| <= N*L, so |X|^2 <=
    (float max)/4; the inverse transform of the power spectrum sums at
    most N*sum((x - mean)^2) <= N*sum(x^2) <= (N*L)^2, and each of its
    partial sums is bounded by the same total; and sum(x^2) <= N*L^2 is
    smaller still.  The factor 4 below float max covers the rounding of
    the transforms, whose relative error grows only like eps*log(N).
    A NaN sample makes max|x| NaN, so it fails ``isfinite`` as inf does.

    The lower limit mirrors the upper one: a record with 0 < max|x| <
    sqrt(float tiny) = 2**-511 raises ``SAMPLES_TOO_SMALL``, since the
    squares of its samples, and the sums of them, fall into the subnormal
    range, where they keep fewer significant bits and flush to zero (a
    record scaled that far gets a moved phase, a false "zero variance"
    or a vanishing amplitude square).  An all-zero record passes, for the
    stages to reject as constant.
    """
    m = float(np.maximum.reduce(np.abs(record.samples)))
    if not math.isfinite(m):
        raise ValueError(NON_FINITE_SAMPLES)
    if m > _SAMPLE_LIMIT_TIMES_N / record.samples.size:
        raise ValueError(SAMPLES_TOO_LARGE)
    if 0.0 < m < _SAMPLE_FLOOR:
        raise ValueError(SAMPLES_TOO_SMALL)


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or NumPy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _count(name: str, value) -> int:
    """``value`` as a Python int, once it is a Python or NumPy integer (a
    bool is not one) of at least 1; otherwise ``ValueError`` naming it."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")
    return int(value)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian noise: sigma in signal units, deterministic per seed.

    The seed must be a non-negative Python or NumPy integer (a bool is not
    one); ``None``, which would draw from OS entropy, is rejected, so the
    same spec always gives the same record.
    """

    sigma: float
    seed: int

    def __post_init__(self):
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not self.sigma >= 0:
            raise ValueError("sigma must be non-negative")
        if not math.isfinite(self.sigma):
            raise ValueError("sigma must be finite")


def evaluate(params: SinusoidParams, t):
    """Evaluate A*sin(omega*t + phi) at a scalar time or an array of times."""
    return params.amplitude * np.sin(params.omega() * t + params.phase_rad)


def standard_normal_draws(seed: int, n: int) -> np.ndarray:
    """n reproducible standard-normal draws.

    Inverse-CDF transform of PCG64 uniforms.  The bit-generator stream is
    stable across platforms for a fixed seed, and the quantile function is
    deterministic, so the same (seed, n) always yields the same values.
    """
    u = np.random.default_rng(seed).random(n)
    # rng.random() can return exactly 0.0, and is below 1; clipped to
    # [2**-54, 1) the quantile is finite and its range check can go.
    np.maximum(u, 2.0 ** -54, out=u)
    return _quantile(u)


def synthesize(params: SinusoidParams, noise: NoiseSpec, n: int,
               dt: float = 1.0, start: float = 0.0) -> TimeSeries:
    """Sample the sinusoid on a uniform grid and add seeded Gaussian noise.

    With sigma = 0 the output equals ``evaluate`` pointwise, bit for bit.
    ``n`` must be a Python or NumPy integer (a bool is not one) of at
    least 2, at any sigma.  A grid on which omega*t overflows, or samples that come out NaN or
    infinite, raise ``ValueError``: such a record could not be read back.
    The checks are ``TimeSeries``'s, so the fresh samples are frozen and
    adopted as they are, with no copy.
    """
    if not _is_integer(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 2:
        raise ValueError("n must be at least 2")
    start, dt = _check_time_grid(start, dt)
    # the grid is monotonic, so its largest |t| is at one end
    if not math.isfinite(params.omega() * max(abs(start), abs(start + dt * (n - 1)))):
        raise ValueError("omega*t overflows on this time grid")
    t = _time_axis(start, dt, 0, n)
    samples = evaluate(params, t)
    if noise.sigma > 0:
        draws = standard_normal_draws(noise.seed, n)
        draws *= noise.sigma
        samples += draws
    if not np.isfinite(samples).all():
        raise ValueError(NON_FINITE_SAMPLES)
    samples.setflags(write=False)
    return _adopt(TimeSeries, start_time=start, dt=dt, samples=samples)


@dataclass(frozen=True)
class Landmark:
    """One structural point of the sinusoid: the time where w*t + phi = k*pi."""

    k: float
    time: float
    value: float


@dataclass(frozen=True)
class LandmarkTable:
    """Zero crossings and extrema of one time-delayed cycle.

    ``period_bounds`` names the pair of landmarks (as multiples of pi)
    whose spacing realizes one period on t >= 0: the two maxima for a
    delayed sinusoid (phase > 0), the two upward crossings for a
    time-ahead one (phase < 0).
    """

    entries: tuple[Landmark, ...]
    value_at_origin: float
    period: float
    period_bounds: tuple[float, float]

    def time_of(self, k: float) -> float:
        for entry in self.entries:
            if entry.k == k:
                return entry.time
        raise KeyError(f"no landmark at k = {k}")

    def value_of(self, k: float) -> float:
        for entry in self.entries:
            if entry.k == k:
                return entry.value
        raise KeyError(f"no landmark at k = {k}")


_LANDMARK_KS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)


def landmarks(params: SinusoidParams) -> LandmarkTable:
    """Landmark times t_k = (k*pi - phi)/omega for k in 0, 1/2, ..., 5/2.

    The period is reported as a landmark difference rather than 1/f so the
    table is self-consistent: t_{5pi/2} - t_{pi/2} for a delayed sinusoid,
    t_{2pi} - t_0 for a time-ahead one (phase < 0).
    """
    w = params.omega()
    phi = params.phase_rad
    entries = []
    for k in _LANDMARK_KS:
        t_k = (k * math.pi - phi) / w
        entries.append(Landmark(k, t_k, float(evaluate(params, t_k))))
    if phi < 0:
        bounds = (0.0, 2.0)
    else:
        bounds = (0.5, 2.5)
    table = {entry.k: entry.time for entry in entries}
    period = table[bounds[1]] - table[bounds[0]]
    return LandmarkTable(tuple(entries), float(evaluate(params, 0.0)),
                         period, bounds)
