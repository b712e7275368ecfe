#!/usr/bin/env python3
"""Steadiness study: run every workload repeatedly in separate sets and
report each end-to-end metric's median, quartiles and spread.

    python3 perfbench/study.py --runs 10 --sets 2

Run it from the root of a checkout. Each run gets its own seed. The
spread is the distance between the first and third quartile (Python's
statistics.quantiles(values, n=4)) as a share of the median; the drift is
how much worse the last set's median is than the first's, as a share of
the first. Both are compared with the bounds in BENCHMARK.json. The raw
results go to .bench_build/study.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=False, timeout=900)
    lines = out.stdout.decode().strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    # values[set][workload][metric] -> list; runs interleave workloads so
    # slow drift of the host reaches every workload alike.
    values = [{w: {m: [] for m in metrics} for w in workloads} for _ in range(args.sets)]
    for s in range(args.sets):
        for i in range(args.runs):
            for w in workloads:
                seed = args.seed + 100 * s + i
                res = run_once(w, seed, bench["run_seconds"])
                if not res["correct"]:
                    raise SystemExit(f"{w} seed {seed}: incorrect result")
                for m in metrics:
                    values[s][w][m].append(res["metrics"][m]["value"])
                print(f"set {s} run {i} {w} done", file=sys.stderr)

    report = {}
    print(f"{'workload':14} {'metric':16} " + " ".join(
        f"{'set' + str(s) + ' median':>14} {'spread':>7}" for s in range(args.sets))
        + f" {'drift':>7} {'bound':>6}")
    for w in workloads:
        for m, spec in metrics.items():
            sets = [summary(values[s][w][m]) for s in range(args.sets)]
            first, last = sets[0]["median"], sets[-1]["median"]
            worse = (last - first) / first
            if spec["better"] == "higher":
                worse = -worse
            report.setdefault(w, {})[m] = {"sets": sets, "drift": worse,
                                            "values": [values[s][w][m] for s in range(args.sets)]}
            cells = " ".join(f"{x['median']:14.6g} {x['spread']:7.3f}" for x in sets)
            print(f"{w:14} {m:16} {cells} {worse:7.3f} {spec['bound']:6.2f}")
    os.makedirs(".bench_build", exist_ok=True)
    with open(os.path.join(".bench_build", "study.json"), "w") as f:
        json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
