"""Checks on sinefit's outputs that do not reuse sinefit's own code.

Every expected value here comes from a separate computation (an FFT
circular ACF, a hand-written runs count, the standard library's normal
quantile, a direct numpy sum of squares) or from a property the method
must have (a bin-exact frequency on an on-bin tone, a phase error within
a multiple of the Cramer-Rao sigma, a grid point that is a local
minimum).  Nothing is compared with a saved copy of earlier output.

Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

# The pinned top-level keys of the `sinefit estimate` JSON report.
REPORT_KEYS = ["verdict", "params", "frequency_source",
               "frequency_cross_checks_hz", "t_2pi_s", "delta_t_s",
               "objective_value", "phase_cross_checks_rad", "smoothing_k",
               "warnings", "screening", "series"]

# A tone's wrapped phase error must stay within this many Cramer-Rao
# standard deviations, plus two refine-grid steps for the quantisation.
PHASE_SIGMAS = 6.0
PHASE_SLACK_RAD = 0.002
GRID_STEP_RAD = 0.001

# Tolerances for quantities computed two ways in floating point.
_REL = 1e-9
_QUANTILE_TOL = 1e-7


def wrap(phi: float) -> float:
    return (phi + math.pi) % (2.0 * math.pi) - math.pi


def z_threshold(far: float) -> float:
    return NormalDist().inv_cdf(1.0 - far / 2.0)


def runs_statistics(x: np.ndarray) -> tuple[float, int, int, int]:
    """Wald-Wolfowitz runs about the median, counted with a plain loop."""
    med = float(np.median(x))
    signs = [v > med for v in x.tolist() if v != med]
    n1 = sum(signs)
    n2 = len(signs) - n1
    runs = 1 + sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    n = n1 + n2
    mu = 2.0 * n1 * n2 / n + 1.0
    var = 2.0 * n1 * n2 * (2.0 * n1 * n2 - n) / (n * n * (n - 1.0))
    return (runs - mu) / math.sqrt(var), runs, n1, n2


def fft_acf(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Circular ACF by Wiener-Khinchin: inverse FFT of the power spectrum."""
    y = x - x.mean()
    r = np.fft.irfft(np.abs(np.fft.rfft(y)) ** 2, n=y.size)
    return r[:max_lag + 1] / r[0]


def fft_peak_frequency(x: np.ndarray, dt: float) -> float:
    """Largest non-DC bin of a full complex FFT, lowest bin on ties."""
    mags = np.abs(np.fft.fft(x))[1:x.size // 2 + 1]
    return (1 + int(np.argmax(mags))) / (x.size * dt)


def check_screening(x: np.ndarray, far: float, d: dict) -> list[str]:
    """Gate statistics and verdict against a separate computation.

    ``d`` holds the ScreeningDecision fields by name (the JSON report's
    "screening" object has the same keys).
    """
    problems = []
    z, runs, n1, n2 = runs_statistics(x)
    if (d["runs_count"], d["n_above"], d["n_below"]) != (runs, n1, n2):
        problems.append(f"runs/above/below {d['runs_count']}/{d['n_above']}/"
                        f"{d['n_below']} != {runs}/{n1}/{n2}")
    if abs(d["runs_statistic"] - z) > _REL * max(1.0, abs(z)):
        problems.append(f"runs z {d['runs_statistic']!r} != {z!r}")
    thr = z_threshold(far)
    bound = thr / math.sqrt(x.size)
    if abs(d["acf_bound"] - bound) > _QUANTILE_TOL:
        problems.append(f"acf_bound {d['acf_bound']!r} != {bound!r}")
    if abs(abs(z) - thr) < _QUANTILE_TOL:
        return problems  # on the gate-1 threshold: either branch is right
    if abs(z) < thr:
        if (d["gate_failed"], d["verdict"], d["acf_exceedances"]) != ("gate1", "noise", 0):
            problems.append(f"gate 1 should reject (|z| {abs(z):.4f} < {thr:.4f}), got "
                            f"{d['gate_failed']}/{d['verdict']}/{d['acf_exceedances']}")
        return problems
    lags = fft_acf(x, x.size // 2)[1:]
    lo = int(np.count_nonzero(np.abs(lags) > bound + _QUANTILE_TOL))
    hi = int(np.count_nonzero(np.abs(lags) > bound - _QUANTILE_TOL))
    if not lo <= d["acf_exceedances"] <= hi:
        problems.append(f"acf_exceedances {d['acf_exceedances']} not in [{lo}, {hi}]")
    if lo == hi:
        significant = lags[np.abs(lags) > bound]
        passes = (lo >= max(2, math.ceil(0.05 * lags.size))
                  and bool(np.any(significant > 0)) and bool(np.any(significant < 0)))
        expected = ("none", "signal") if passes else ("gate2", "noise")
        if (d["gate_failed"], d["verdict"]) != expected:
            problems.append(f"gate 2 verdict {d['gate_failed']}/{d['verdict']} != {expected}")
    return problems


def objective_mask(t: np.ndarray, frequency: float, t_range: str) -> np.ndarray:
    """Samples the phase objective sums over: one period from t = 0, or all."""
    if t_range == "full_record":
        return np.ones(t.size, dtype=bool)
    return (t >= 0.0) & (t <= 1.0 / frequency + 1e-12)


def sum_of_squares(t, x, amplitude, frequency, phi) -> float:
    return float(np.sum((x - amplitude * np.sin(2.0 * math.pi * frequency * t + phi)) ** 2))


def check_tone(t: np.ndarray, x: np.ndarray, truth: tuple[float, float, float],
               sigma: float, t_range: str, est: tuple[float, float, float]) -> list[str]:
    """Frequency, phase and grid-minimum checks for one estimated tone."""
    amplitude, frequency, phase = truth
    a_hat, f_hat, phi_hat = est
    problems = []
    if abs(f_hat - frequency) > _REL * frequency:
        problems.append(f"frequency {f_hat!r} is not the true bin {frequency!r}")
    own = fft_peak_frequency(x, t[1] - t[0])
    if abs(f_hat - own) > _REL * own:
        problems.append(f"frequency {f_hat!r} != own FFT peak {own!r}")
    m = objective_mask(t, frequency, t_range)
    bound = PHASE_SIGMAS * crb_phase_sigma(t[m], truth, sigma) + PHASE_SLACK_RAD
    err = wrap(phi_hat - phase)
    if abs(err) > bound:
        problems.append(f"phase error {err:.4f} rad exceeds {bound:.4f} rad")
    m = objective_mask(t, f_hat, t_range)
    tm, xm = t[m], x[m]
    centre = sum_of_squares(tm, xm, a_hat, f_hat, phi_hat)
    for side in (-GRID_STEP_RAD, GRID_STEP_RAD):
        neighbour = sum_of_squares(tm, xm, a_hat, f_hat, phi_hat + side)
        if centre > neighbour * (1.0 + _REL):
            problems.append(f"phase {phi_hat!r} is not a grid minimum "
                            f"({centre!r} > {neighbour!r} at {side:+})")
    return problems


def crb_phase_sigma(t: np.ndarray, truth: tuple[float, float, float], sigma: float) -> float:
    """Cramer-Rao sigma of phi with A and f known: sigma / (A*sqrt(sum cos^2)).

    The sum of cos^2(w*t + phi) over m samples is about m/2, which gives
    the familiar sigma/A * sqrt(2/m).
    """
    amplitude, frequency, phase = truth
    c = np.cos(2.0 * math.pi * frequency * t + phase)
    return sigma / (amplitude * math.sqrt(float(c @ c)))


def first_order_phase_error(t: np.ndarray, x: np.ndarray,
                            truth: tuple[float, float, float]) -> float:
    """Linearised least-squares phase error sum(n*c) / (A*sum(c^2)).

    n is the record's noise (samples minus the true tone) and
    c = cos(w*t + phi).  Its mean square is exactly crb_phase_sigma**2,
    which makes it a control variate for the phase RMSE.
    """
    amplitude, frequency, phase = truth
    arg = 2.0 * math.pi * frequency * t + phase
    c = np.cos(arg)
    noise = x - amplitude * np.sin(arg)
    return float(noise @ c) / (amplitude * float(c @ c))


def binomial_upper(n: int, p: float, alpha: float = 1e-6) -> int:
    """Smallest k with P(Binomial(n, p) > k) <= alpha."""
    tail = 1.0
    for k in range(n + 1):
        log_pmf = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                   + k * math.log(p) + (n - k) * math.log1p(-p))
        tail -= math.exp(log_pmf)
        if tail <= alpha:
            return k
    return n
