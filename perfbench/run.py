#!/usr/bin/env python3
"""Benchmark of the sinefit library and CLI, run from a source checkout.

    python3 perfbench/run.py --workload desk_mc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in fresh worker processes (worker.py) that import
sinefit from the checkout's src/ (nothing is installed) with every
BLAS/OpenMP pool set to one thread.  set-up runs SETUP_REPEATS times in
separate processes and setup_s is their median.  The run prints the
machine, every metric by name with its unit, the attempted and failed
operation counts, and as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
No CPU pinning, governor change or cache dropping is done; the load
average is printed instead, so noise from other work can be read off.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_REPEATS = 7
TIME_LIMIT_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(Exception):
    pass


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({name: "1" for name in THREAD_VARIABLES})
    return env


def run_worker(args, deadline):
    """Run worker.py in its own session; kill the whole group on timeout."""
    command = [sys.executable, str(WORKER), *args]
    proc = subprocess.Popen(command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"worker timed out: {' '.join(args)}") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchmarkError(f"worker failed ({proc.returncode}): {' '.join(args)}\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, deadline):
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        setups = [run_worker(base + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_REPEATS - 1)]
    result = run_worker(base + ["--trace", str(trace)], deadline)
    if not trace:
        setups.append(result["metrics"]["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["setup_samples_s"] = setups
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help="A workload name from BENCHMARK.json, or 'all'.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="Measured time per run [default: run_seconds].")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "sinefit" / "__init__.py").is_file():
        sys.exit(f"no sinefit package under {ROOT / 'src'}; run from a sinefit checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names + ["all"]:
        sys.exit(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    chosen = names if args.workload == "all" else [args.workload]
    if args.workload == "all":
        deadline += TIME_LIMIT_S * (len(chosen) - 1)

    try:
        results = {n: run_workload(n, args.seed, seconds, args.trace, deadline)
                   for n in chosen}
    except BenchmarkError as exc:
        sys.exit(str(exc))

    numpy_version = next(iter(results.values()))["numpy"]
    print(f"machine: nproc={os.cpu_count()} cpu={cpu_model()!r} "
          f"python={platform.python_version()} numpy={numpy_version} "
          f"loadavg={' '.join(f'{v:.2f}' for v in os.getloadavg())}")
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, result in results.items():
        missing = set(units) - set(result["metrics"])
        if missing:
            sys.exit(f"{name}: worker did not report {sorted(missing)}")
        print(f"workload {name} seed={args.seed} seconds={seconds} trace={args.trace}: "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"correct={str(result['correct']).lower()}")
        for failure, count in result["failures"].items():
            print(f"  failed x{count}: {failure}")
        for problem in result["problems"]:
            print(f"  WRONG OUTPUT: {problem}")
        for metric, unit in units.items():
            print(f"  {metric:38s} {result['metrics'][metric]:14.6g} {unit}")
        for key, value in result.get("extra", {}).items():
            print(f"  ({key} {value:.6g})")
        if "setup_samples_s" in result:
            print("  (setup samples s: "
                  + " ".join(f"{v:.4f}" for v in result["setup_samples_s"]) + ")")
        if "span_file" in result:
            print(f"  (spans written to {result['span_file']})")
        final["correct"] &= result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        prefix = "" if len(results) == 1 else name + "."
        final["metrics"].update({prefix + m: {"value": result["metrics"][m], "unit": u}
                                 for m, u in units.items()})
    print(json.dumps(final))


if __name__ == "__main__":
    main()
