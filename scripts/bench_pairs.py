"""Run the benchmark of two checkouts in alternating pairs and compare them.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 --seconds 20 \
        [--seed 7] [--claim WORKLOAD.METRIC] [--out FILE]

Each DIR is a checkout holding ``perfbench/run.py`` and ``BENCHMARK.json``.
Pair i runs that checkout's own, unmodified
``python3 perfbench/run.py --workload all --seed S0+i --seconds S`` in
each of the two, the parent first on even pairs and the change first on
odd ones, so a slow swing of a shared machine's speed falls on both
sides alike.  Both sides of a pair use the same seed.

For each workload and each end-to-end metric of the parent's
``BENCHMARK.json`` the script prints both sides' median and quartiles
over the pairs, the number of pairs in which the change is better (in
the metric's direction; ties count for neither), and whether the
change's median is worse than the parent's by more than the metric's
bound (a fraction of the parent's median): "yes", "no", or
"unresolved" where the parent's interquartile range is wider than the
bound, so that the runs cannot tell, unless every change run beats
every parent run.  The next lines give each side's attempted and failed
operations.  ``--claim`` adds a last line for one metric: the pairs the
change wins, the gap between the medians (in the better direction), the
parent's interquartile range, each side's failed and attempted
operations, and "met" when the change wins at least nine tenths of the
pairs, the gap exceeds that range and no larger share of the change's
operations fails, else "not met" with the conditions that fail.
``--out`` saves the machine line and the final JSON line of every run,
and the printed summary.
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


def summarize(bench, runs, claim=None):
    """Lines comparing ``runs`` = {"parent": [...], "change": [...]}, each a
    list of final JSON objects, pair i at index i, for the end-to-end
    metrics of ``bench`` (a parsed BENCHMARK.json) on each of its
    workloads, and, for ``claim`` ("WORKLOAD.METRIC"), whether the claimed
    gain is met."""
    pairs = len(runs["parent"])
    attempted = {side: sum(run["attempted"] for run in runs[side]) for side in SIDES}
    failed = {side: sum(run["failed"] for run in runs[side]) for side in SIDES}
    lines, claim_line = [], None
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            key = f"{workload}.{metric['name']}"
            values = {side: [run["metrics"][key]["value"] for run in runs[side]]
                      for side in SIDES}
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            (p1, pm, p3), (c1, cm, c3) = (quartiles(values[side]) for side in SIDES)
            gap = cm - pm if sign > 0 else pm - cm  # no -0 for a tie
            beats_all = (min(sign * v for v in values["change"])
                         > max(sign * v for v in values["parent"]))
            if pm and -gap / pm > metric["bound"]:
                worse = "yes"
            elif pm and (p3 - p1) / pm > metric["bound"] and not beats_all:
                worse = "unresolved"
            else:
                worse = "no"
            lines.append(f"{key} ({metric['better']} is better, bound {metric['bound']:g}): "
                         f"parent {pm:.6g} ({p1:.6g}-{p3:.6g}), "
                         f"change {cm:.6g} ({c1:.6g}-{c3:.6g}), "
                         f"change better in {wins}/{pairs}, worse beyond bound: {worse}")
            if key == claim:
                unmet = [why for why, holds in (
                    ("fewer than 9/10 pairs won", 10 * wins >= 9 * pairs),
                    ("gap not wider than the parent's IQR", gap > p3 - p1),
                    ("a larger share of operations failed",  # shares, as attempts differ
                     failed["change"] * attempted["parent"]
                     <= failed["parent"] * attempted["change"])) if not holds]
                claim_line = (f"claim {key}: change better in {wins}/{pairs} pairs, "
                              f"median gap {gap:.6g}, parent IQR {p3 - p1:.6g}, "
                              f"failed {failed['parent']}/{attempted['parent']} (parent) "
                              f"and {failed['change']}/{attempted['change']} (change): "
                              + (f"not met, {'; '.join(unmet)}" if unmet else "met"))
    for side in SIDES:
        correct = all(run["correct"] for run in runs[side])
        lines.append(f"{side}: {attempted[side]} operations attempted, {failed[side]} failed, "
                     f"correct={str(correct).lower()}")
    if claim_line:
        lines.append(claim_line)
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=7, help="seed of pair 0 (default 7)")
    parser.add_argument("--claim", metavar="WORKLOAD.METRIC",
                        help="judge a claimed gain in this end-to-end metric")
    parser.add_argument("--out", help="save every run's machine line and final JSON line here")
    args = parser.parse_args()
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    with open(os.path.join(args.parent_dir, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    if args.claim and args.claim not in {f"{w['name']}.{metric['name']}"
                                         for w in bench["workloads"]
                                         for metric in bench["end_to_end"]}:
        parser.error("--claim must name a workload and an end-to-end metric, "
                     "as WORKLOAD.METRIC")
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
    summary = summarize(bench, runs, args.claim)
    for line in summary:
        print(line)
    if args.out:
        payload = {"command": f"python3 perfbench/run.py --workload all --seed SEED "
                              f"--seconds {args.seconds:g}",
                   "pairs": args.pairs, "runs": saved, "summary": summary}
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")


if __name__ == "__main__":
    main()
