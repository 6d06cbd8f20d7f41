#!/usr/bin/env python3
"""Run the benchmark's workloads repeatedly and print how steady each metric is.

Runs the command BENCHMARK.json names, as it stands there, for --runs
rounds; each round runs every workload once with the round's seed, rotating
which workload goes first, so slow swings of the host spread over all
workloads alike.  The first run builds the benchmark.  For every metric it
prints the median, the first and third quartile (as Python's
statistics.quantiles(values, n=4) gives them), the quartile spread as a share
of the median, and the range.  Untraced runs also list the single set-up of
the measuring process as setup_s.single, the figure setup_s would be without
its median over three set-ups.  The bounds in BENCHMARK.json are set from
this output.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads fault-churn --trace 1

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = ["warm-mix", "fault-churn"]
SETUPS_LINE = "set-ups (children, then this process):"


def benchmark():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def run_once(cmd, workload, seed, seconds, trace):
    cmd = cmd + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=1200, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    for line in proc.stderr.splitlines():
        if line.startswith(SETUPS_LINE):
            single = float(line[len(SETUPS_LINE):].split()[-2])
            result["metrics"]["setup_s.single"] = {"value": single, "unit": "s"}
    return result


def summarize(workload, results):
    print(f"\n== {workload}: {len(results)} runs")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    correct = all(r["correct"] for r in results)
    print(f"correct in every run: {correct}; failed share per run: {shares}")
    names = list(results[0]["metrics"])
    print(f"{'metric':<28} {'unit':<7} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8} {'min':>14} {'max':>14}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:<28} {unit:<7} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{spread:>8.2%} {min(values):>14.6g} {max(values):>14.6g}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int,
                    help="seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--seed0", type=int, default=1, help="seed of the first round")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    for w in workloads:
        if w not in WORKLOADS:
            sys.exit(f"unknown workload {w}")
    bench = benchmark()
    cmd = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = args.seed0 + i
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            r = run_once(cmd, w, seed, seconds, args.trace)
            results[w].append(r)
            print(f"round {i} seed {seed} {w}: "
                  + ", ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()
                              if args.trace == 0),
                  flush=True)
    for w in workloads:
        summarize(w, results[w])


if __name__ == "__main__":
    main()
