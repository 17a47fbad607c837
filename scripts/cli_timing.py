"""Time fresh ``sinefit`` processes of two source trees in alternating pairs.

    python scripts/cli_timing.py PARENT_SRC CHANGE_SRC [--pairs 20]

Each SRC is a checkout's ``src``.  Each setting is timed from start to exit
of a fresh interpreter with that tree on ``PYTHONPATH``: ``import`` runs
``python -c "import sinefit.cli"``; ``estimate`` runs ``python -m
sinefit.cli estimate demo.csv -o report.json --plot-data plot`` on the
N = 1000 demo tone (sigma = 0.5, seed 0), as a ``cli_files`` operation
does, so its excess over ``import`` is the command and the process's end.
One untimed process of each tree runs first; then each pair runs one of
each, the parent first on even pairs, so a slow swing of a shared
machine's speed falls on both sides alike.  Per setting the script prints
each side's median and quartiles in ms, the pairs the change wins and the
median paired saving (parent minus change).
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

SETTINGS = {"import": ["-c", "import sinefit.cli"],
            "estimate": ["-m", "sinefit.cli", "estimate", "demo.csv", "-o", "report.json",
                         "--plot-data", "plot"]}


def timed(src, args, cwd):
    """Seconds from start to exit of one interpreter that runs ``args``."""
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], cwd=cwd, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def ms(values):
    """'median ms (first-third quartile)'; one value is its own quartiles."""
    values = values * 2 if len(values) == 1 else values
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{1e3 * median:.1f} ms ({1e3 * q1:.1f}-{1e3 * q3:.1f})"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args()
    trees = [os.path.abspath(args.parent_src), os.path.abspath(args.change_src)]
    with tempfile.TemporaryDirectory() as cwd:
        timed(trees[0], ["-m", "sinefit.cli", "generate", "-A", "2", "-f", "0.05", "-p", "0.6109",
                         "--sigma", "0.5", "--seed", "0", "-n", "1000", "-o", "demo.csv"], cwd)
        for name, command in SETTINGS.items():
            times = ([], [])
            for src in trees:
                timed(src, command, cwd)
            for pair in range(args.pairs):
                for side in (0, 1) if pair % 2 == 0 else (1, 0):
                    times[side].append(timed(trees[side], command, cwd))
            gaps = [p - c for p, c in zip(*times)]
            print(f"{name}: parent {ms(times[0])}, change {ms(times[1])}, change faster in "
                  f"{sum(gap > 0 for gap in gaps)}/{args.pairs} pairs, "
                  f"median saving {1e3 * statistics.median(gaps):.1f} ms")


if __name__ == "__main__":
    main()
