"""Time ``estimate_parameters`` and ``synthesize`` of two source trees.

    python scripts/ab_timing.py PARENT_SRC CHANGE_SRC [--pairs 30] [--batch-ms 50]

Each SRC is a directory holding a ``sinefit`` package (a checkout's
``src``).  Both are imported into this one process, under the module
names ``sinefit_parent`` and ``sinefit_change``, and for each setting
the script alternates timed batches of calls over the same seeded
records: parent then change, change then parent, and so on.  Each pair
of batches gives one change/parent ratio of the time per record.  The
script prints the median ratio and its quartiles, one line per setting;
below 1 the change is faster.  Alternating in one process cancels the
slow swings of a shared machine's speed (1.3-1.9x for minutes at a time
on a 2-core VM), which swamp timings taken in separate runs.  Each line
ends with the quartiles of the parent's own batch-to-batch ratios (each
parent batch over the one before it, from the batches already timed):
the noise floor a change/parent ratio has to clear.

Settings: N = 100, N = 1000 and N = 1001 (an odd N, whose forward
transform takes pocketfft's odd-length path) under the default
``one_period`` objective, N = 10^4 under ``full_record``; the records
are the demo tone (A = 2, f = 0.05 Hz, phi = 0.6109, dt = 1) at
sigma = 0.5, seeds 0..R-1.
The ``new grids`` setting times the same tones at N = 100, 100 per pass,
each starting at -0.37*seed so that each has its own time grid while the
one_period window [0, 1/f] stays inside it: more grids than the phase
objective keeps, so every lookup of the grid's window geometry misses, as
in a process that estimates one record.
A ``white_noise`` setting times unit white noise at N = 1000 (seeds
0..R-1), which the default screen almost always rejects at gate 1: the
reject path.  A second times the same at N = 1001, where the odd N keeps
the runs test on its counting path.  The ``ar1`` setting times AR(1)
noise at N = 1000 (rho = 0.3, unit innovations, seeds 0..R-1), which the
runs test passes and gate 2 rejects: the gate-2 reject path.
Two ``read_all`` settings estimate the tones and then read the report's
four cross-check fields, ``model_acf``, ``objective_value`` and
``delta_t``, as a caller that writes the whole report does: at N = 100
under ``one_period`` and at N = 10^4 under ``full_record``, the cost of
the values computed on first read included.  Two ``grid`` settings
time ``phase_grid_search`` alone, on objectives built beforehand from
the demo tones with the demo A and f: at N = 100 under ``one_period``
and at N = 10^4 under ``full_record``, the phase grid of both objective
ranges on its own.  The last two time ``synthesize`` of the demo tone
at sigma = 0.5 and N = 100 and N = 10^4 (seeds 0..R-1), the cost of
building a seeded Monte Carlo pool.
"""

import argparse
import importlib.util
import os
import statistics
import sys
import time

# (label, N, objective range, records per batch pass, record kind)
SETTINGS = (("n=100 one_period", 100, "one_period", 40, "tone"),
            ("n=100 one_period new grids", 100, "one_period", 100, "new_grids"),
            ("n=1000 one_period", 1000, "one_period", 20, "tone"),
            ("n=1001 one_period", 1001, "one_period", 20, "tone"),
            ("n=10000 full_record", 10_000, "full_record", 4, "tone"),
            ("n=1000 white_noise", 1000, "one_period", 40, "white"),
            ("n=1001 white_noise", 1001, "one_period", 40, "white"),
            ("n=1000 ar1", 1000, "one_period", 40, "ar1"),
            ("n=100 read_all", 100, "one_period", 40, "read_all"),
            ("n=10000 read_all", 10_000, "full_record", 4, "read_all"),
            ("n=100 grid one_period", 100, "one_period", 40, "grid"),
            ("n=10000 grid full_record", 10_000, "full_record", 4, "grid"),
            ("n=100 synthesize", 100, None, 40, "synthesize"),
            ("n=10000 synthesize", 10_000, None, 4, "synthesize"))
DEMO = (2.0, 0.05, 0.6109)
SIGMA = 0.5
AR_COEFFICIENT = 0.3
NEW_GRID_STEP = -0.37  # start time per seed of the new-grids records
READ_ALL_FIELDS = ("frequency_cross_checks_hz", "t_2pi", "phase_cross_checks", "warnings",
                   "model_acf", "objective_value", "delta_t")


def load(src, name):
    """Import the ``sinefit`` package under ``src`` as module ``name``."""
    package = os.path.join(os.path.abspath(src), "sinefit")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # the package's relative imports resolve through it
    spec.loader.exec_module(module)
    return module


def noise(sf, kind, seed, n):
    """Unit white noise, or AR(1) noise driven by it."""
    x = sf.model.standard_normal_draws(seed, n)
    if kind == "ar1":
        for i in range(1, n):
            x[i] += AR_COEFFICIENT * x[i - 1]
    return x


def read_all(estimate):
    """``estimate`` followed by a read of each field a report writer reads
    beyond ``params``."""
    def estimate_and_read(record, config):
        report = estimate(record, config)
        for name in READ_ALL_FIELDS:
            getattr(report, name)
    return estimate_and_read


def quartiles(values):
    """(first quartile, median, third quartile) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


class Side:
    """One tree's calls for one setting, one per record, and a timed batch over them."""

    def __init__(self, sf, n, objective_range, count, kind):
        tone = sf.SinusoidParams(*DEMO)
        if kind == "synthesize":
            self.fn = sf.synthesize
            self.calls = [(tone, sf.NoiseSpec(SIGMA, seed), n) for seed in range(count)]
            return
        if kind in ("white", "ar1"):
            records = [sf.TimeSeries(0.0, 1.0, noise(sf, kind, seed, n)) for seed in range(count)]
        else:
            records = [sf.synthesize(tone, sf.NoiseSpec(SIGMA, seed), n,
                                     start=NEW_GRID_STEP * seed if kind == "new_grids" else 0.0)
                       for seed in range(count)]
        if kind == "grid":
            self.fn = sf.phase_grid_search
            self.calls = [(sf.PhaseObjective(record, DEMO[0], DEMO[1], objective_range),)
                          for record in records]
            return
        config = sf.PipelineConfig(objective_range=objective_range)
        self.fn = read_all(sf.estimate_parameters) if kind == "read_all" else sf.estimate_parameters
        self.calls = [(record, config) for record in records]

    def batch(self, passes):
        """Seconds per record over ``passes`` passes through the calls."""
        fn, calls = self.fn, self.calls
        start = time.perf_counter()
        for _ in range(passes):
            for args in calls:
                fn(*args)
        return (time.perf_counter() - start) / (passes * len(calls))


def compare(parent, change, pairs, batch_s):
    """Median and quartiles of the change/parent time ratio over ``pairs``
    alternating pairs of batches, the parent's median time per record, and
    the quartiles of its batch-to-batch ratios (None for a single pair)."""
    for side in (parent, change):  # warm up: lazy tables, caches
        side.batch(1)
    per_record = parent.batch(1)
    passes = max(1, round(batch_s / (per_record * len(parent.calls))))
    ratios, parent_times = [], []
    for i in range(pairs):
        if i % 2 == 0:
            p = parent.batch(passes)
            c = change.batch(passes)
        else:
            c = change.batch(passes)
            p = parent.batch(passes)
        ratios.append(c / p)
        parent_times.append(p)
    q1, median, q3 = quartiles(ratios)
    steps = [b / a for a, b in zip(parent_times, parent_times[1:])]
    floor = quartiles(steps)[::2] if steps else None
    return median, q1, q3, statistics.median(parent_times), floor


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--pairs", type=int, default=30,
                        help="alternating batch pairs per setting (default 30)")
    parser.add_argument("--batch-ms", type=float, default=50.0,
                        help="target length of one batch in ms (default 50)")
    args = parser.parse_args()
    if args.pairs < 1 or not args.batch_ms > 0:
        parser.error("--pairs must be at least 1 and --batch-ms positive")
    parent = load(args.parent_src, "sinefit_parent")
    change = load(args.change_src, "sinefit_change")
    for label, *setting in SETTINGS:
        median, q1, q3, parent_s, floor = compare(
            Side(parent, *setting), Side(change, *setting), args.pairs, args.batch_ms / 1000.0)
        floor_text = "-" if floor is None else f"{floor[0]:.3f}-{floor[1]:.3f}"
        print(f"{label}: change/parent {median:.3f} (quartiles {q1:.3f}-{q3:.3f}, "
              f"{args.pairs} pairs, parent {parent_s * 1e3:.4f} ms/record, "
              f"parent/parent quartiles {floor_text})", flush=True)


if __name__ == "__main__":
    main()
