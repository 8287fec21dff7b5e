#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json several times and checks that the
figures are steady.

    python3 perfbench/stability.py [--runs 10] [--sets 2] [--seconds S]
                                   [--workloads a,b] [--first-seed 1]

Each set runs every workload --runs times, in alternating order (one run of
each workload per round), each run with its own seed.  For every end-to-end
metric the script prints the median and the interquartile range of each set
(quartiles as statistics.quantiles(values, n=4) gives them) and checks, with
the bounds in BENCHMARK.json:

  * the IQR of each set, as a share of its median, stays within the bound;
  * the median of every later set differs from the first set's median, in
    either direction, by no more than the bound;
  * the share of failed operations is the same in every run of a workload.

Exits 0 when every check holds, 1 otherwise.  Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs not correct")
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workloads")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    # results[set][workload] -> list of result objects
    results = [{w: [] for w in workloads} for _ in range(args.sets)]
    seed = args.first_seed
    for s in range(args.sets):
        for r in range(args.runs):
            order = workloads if r % 2 == 0 else list(reversed(workloads))
            for w in order:
                res = run_once(spec, w, seed, seconds)
                seed += 1
                results[s][w].append(res)
                print(f"set {s + 1} run {r + 1} {w}: " + ", ".join(
                    f"{m['name']}={res['metrics'][m['name']]['value']:.6g}"
                    for m in metrics), flush=True)

    ok = True
    print()
    print(f"{'workload':18} {'metric':14} " + " ".join(
        f"{'median' + str(s + 1):>12} {'iqr' + str(s + 1):>7}"
        for s in range(args.sets)) + "  bound  verdict")
    for w in workloads:
        shares = {res["failed"] / res["attempted"]
                  for s in range(args.sets) for res in results[s][w]}
        if len(shares) != 1:
            ok = False
            print(f"{w}: failed share differs between runs: {sorted(shares)}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols, verdict = [], "ok"
            first_median = None
            for s in range(args.sets):
                values = [res["metrics"][name]["value"] for res in results[s][w]]
                med, iqr = spread(values)
                cols.append(f"{med:12.6g} {iqr:7.3f}")
                if iqr > bound:
                    verdict = "IQR over bound"
                if first_median is None:
                    first_median = med
                elif abs(med - first_median) / first_median > bound:
                    verdict = "median drifted past bound"
            if verdict != "ok":
                ok = False
            print(f"{w:18} {name:14} " + " ".join(cols) +
                  f"  {bound:5.2f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
