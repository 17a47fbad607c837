#!/usr/bin/env python3
"""Seeded Monte Carlo study of the estimation pipeline.

Runs the full pipeline over a range of seeds for one configuration and
prints recovery statistics for frequency, amplitude, and phase, plus the
screening acceptance rate and the seconds spent synthesizing and
estimating the records.  Useful for checking how the error bands move
with noise level, sample count, or the objective range.
"""

import argparse
import math
import time

import numpy as np

import sinefit as sf


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--amplitude", type=float, default=2.0)
    parser.add_argument("--frequency", type=float, default=0.05)
    parser.add_argument("--phase", type=float, default=0.6109)
    parser.add_argument("--sigma", type=float, default=0.5)
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--far", type=float, default=0.01)
    parser.add_argument("--ma-k", type=int, default=5)
    parser.add_argument("--objective-range", default="one_period",
                        choices=("one_period", "full_record"))
    parser.add_argument("--seed-base", type=int, default=0)
    args = parser.parse_args()

    params = sf.SinusoidParams(args.amplitude, args.frequency, args.phase)
    config = sf.PipelineConfig(far=args.far, ma_k=args.ma_k,
                               objective_range=args.objective_range)

    f_exact = 0
    rejected = 0
    amplitudes = []
    phase_errors = []
    synthesize_s = estimate_s = 0.0
    for i in range(args.trials):
        start = time.perf_counter()
        record = sf.synthesize(params, sf.NoiseSpec(args.sigma, args.seed_base + i),
                               args.samples)
        middle = time.perf_counter()
        report = sf.estimate_parameters(record, config)
        synthesize_s += middle - start
        estimate_s += time.perf_counter() - middle
        if report.params is None:
            rejected += 1
            continue
        if abs(report.params.frequency_hz - args.frequency) < 1e-12:
            f_exact += 1
        amplitudes.append(report.params.amplitude)
        phase_errors.append(sf.wrap_phase(report.params.phase_rad - params.phase_rad))

    estimated = args.trials - rejected
    amplitudes = np.array(amplitudes)
    phase_errors = np.array(phase_errors)
    abs_err = np.abs(phase_errors)

    print(f"configuration: A={args.amplitude} f={args.frequency} Hz "
          f"phi={params.phase_rad:.4f} sigma={args.sigma} N={args.samples} "
          f"ma_k={args.ma_k} range={args.objective_range}")
    print(f"trials: {args.trials}  screened out: {rejected}")
    print(f"time: synthesize {synthesize_s:.4f} s  estimate_parameters {estimate_s:.4f} s "
          f"over {args.trials} trials")
    if not estimated:
        return
    print(f"frequency: bin-exact in {f_exact}/{estimated} "
          f"({100 * f_exact / estimated:.1f}%)")
    print(f"amplitude: mean {amplitudes.mean():.4f}  sd {amplitudes.std():.4f}  "
          f"in [1.8, 2.4]: {np.mean((amplitudes >= 1.8) & (amplitudes <= 2.4)):.1%}")
    print(f"phase: mean err {phase_errors.mean():+.4f} rad  "
          f"mean |err| {abs_err.mean():.4f} rad  sd {phase_errors.std():.4f}")
    for band in (0.03, 0.05, 0.10, 0.15):
        print(f"  |phase err| <= {band:.2f} rad: {np.mean(abs_err <= band):.1%}")
    crlb = args.sigma / (args.amplitude * math.sqrt(args.samples / 2))
    print(f"(full-record Cramer-Rao floor for this setup: "
          f"sigma_phi >= {crlb:.4f} rad)")


if __name__ == "__main__":
    main()
