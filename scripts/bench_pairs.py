"""Run the benchmark of two checkouts in alternating pairs and compare them.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 5 --seconds 10 \
        [--seed 7] [--out FILE]

Each DIR is a checkout holding ``perfbench/run.py`` and ``BENCHMARK.json``.
Pair i runs that checkout's own, unmodified
``python3 perfbench/run.py --workload all --seed S0+i --seconds S`` in
each of the two, the parent first on even pairs and the change first on
odd ones, so a slow swing of a shared machine's speed falls on both
sides alike.  Both sides of a pair use the same seed.

For each workload and each end-to-end metric of the parent's
``BENCHMARK.json`` the script prints both sides' median and quartiles
over the pairs, the number of pairs in which the change is better (in
the metric's direction), and whether the change's median is worse than
the parent's by more than the metric's bound (a fraction of the
parent's median).  The last lines give each side's attempted and failed
operations.  ``--out`` saves the machine line and the final JSON line
of every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_bench(checkout, seed, seconds):
    """(machine line, final JSON object) of one ``perfbench/run.py --workload all`` run."""
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "all",
               "--seed", str(seed), "--seconds", str(seconds)]
    result = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if result.returncode != 0:
        sys.exit(f"{checkout}: perfbench/run.py exited {result.returncode}\n{result.stderr}")
    lines = result.stdout.strip().splitlines()
    machine = next((line for line in lines if line.startswith("machine:")), "")
    return machine, json.loads(lines[-1])


def quartiles(values):
    """(first quartile, median, third quartile) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(bench, runs):
    """Lines comparing ``runs`` = {"parent": [...], "change": [...]}, each a
    list of final JSON objects, pair i at index i, for the workloads and
    end-to-end metrics of ``bench`` (a parsed BENCHMARK.json)."""
    pairs = len(runs["parent"])
    lines = []
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            key = f"{workload}.{metric['name']}"
            values = {side: [run["metrics"][key]["value"] for run in runs[side]]
                      for side in SIDES}
            higher = metric["better"] == "higher"
            wins = sum((c > p) if higher else (c < p)
                       for p, c in zip(values["parent"], values["change"]))
            (p1, pm, p3), (c1, cm, c3) = (quartiles(values[side]) for side in SIDES)
            loss = (pm - cm if higher else cm - pm) / pm if pm else 0.0
            worse = "yes" if loss > metric["bound"] else "no"
            lines.append(f"{key} ({metric['better']} is better, bound {metric['bound']:g}): "
                         f"parent {pm:.6g} ({p1:.6g}-{p3:.6g}), "
                         f"change {cm:.6g} ({c1:.6g}-{c3:.6g}), "
                         f"change better in {wins}/{pairs}, worse beyond bound: {worse}")
    for side in SIDES:
        attempted = sum(run["attempted"] for run in runs[side])
        failed = sum(run["failed"] for run in runs[side])
        correct = all(run["correct"] for run in runs[side])
        lines.append(f"{side}: {attempted} operations attempted, {failed} failed, "
                     f"correct={str(correct).lower()}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=7, help="seed of pair 0 (default 7)")
    parser.add_argument("--out", help="save every run's machine line and final JSON line here")
    args = parser.parse_args()
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    checkouts = {"parent": args.parent_dir, "change": args.change_dir}
    runs = {side: [] for side in SIDES}
    saved = []
    for i in range(args.pairs):
        seed = args.seed + i
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            machine, final = run_bench(checkouts[side], seed, args.seconds)
            runs[side].append(final)
            saved.append({"pair": i, "side": side, "seed": seed, "machine": machine,
                          "result": final})
            print(f"pair {i} {side} seed={seed}: {machine}", flush=True)
    with open(os.path.join(args.parent_dir, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    for line in summarize(bench, runs):
        print(line)
    if args.out:
        payload = {"command": f"python3 perfbench/run.py --workload all --seed SEED "
                              f"--seconds {args.seconds:g}",
                   "pairs": args.pairs, "runs": saved}
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")


if __name__ == "__main__":
    main()
