#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --runs 10 --first-seed 101 [--workload W ...] [--log A.jsonl]
    python3 perfbench/spread.py --compare A.jsonl B.jsonl

The first form runs the BENCHMARK.json command once per seed (seeds
first-seed, first-seed+1, ...) on each workload, then prints for every
end-to-end metric the median and the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median, next to the
metric's bound. A spread below a third of the bound is steady. Raw result
lines are appended to --log when given.

The second form reads two such logs (two sets of runs of the same code) and
prints both sets' medians and spreads, and how much worse the second
median is than the first as a share of the first, against the bound.
Run it from the root of the checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed with status %d"
                         % (workload, seed, done.returncode))
    return json.loads(lines[-1])


def median_spread(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, ((q3 - q1) / med if med else float("inf"))


def read_log(path):
    """{workload: {metric: [values]}} from a --log file."""
    values = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            per = values.setdefault(rec["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                per.setdefault(name, []).append(m["value"])
    return values


def print_spreads(spec, workload, values):
    """Prints one workload's table; returns the largest spread / bound."""
    worst = 0.0
    print(workload)
    for m in spec["end_to_end"]:
        med, spread = median_spread(values[m["name"]])
        worst = max(worst, spread / m["bound"])
        print("  %-20s median %-12.6g spread %.4f bound %.2f %s"
              % (m["name"], med, spread, m["bound"],
                 "steady" if spread < m["bound"] / 3 else
                 "within bound" if spread <= m["bound"] else "TOO WIDE"))
    sys.stdout.flush()
    return worst


def compare(spec, path_a, path_b):
    a, b = read_log(path_a), read_log(path_b)
    worst = 0.0
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in a or w not in b:
            continue
        print(w)
        for m in spec["end_to_end"]:
            med_a, sp_a = median_spread(a[w][m["name"]])
            med_b, sp_b = median_spread(b[w][m["name"]])
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (med_b - med_a) / med_a if med_a else 0.0
            worst = max(worst, worse / m["bound"])
            print("  %-20s A %-12.6g (%.4f)  B %-12.6g (%.4f)  B worse by "
                  "%+.4f bound %.2f %s"
                  % (m["name"], med_a, sp_a, med_b, sp_b, worse, m["bound"],
                     "ok" if worse <= m["bound"] else "WORSE THAN BOUND"))
    print("largest drift / bound: %.3f" % worst)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--log")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    if args.compare:
        compare(spec, *args.compare)
        return
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for w in workloads:
        values = {}
        for k in range(args.runs):
            seed = args.first_seed + k
            res = run_once(spec, w, seed, 0)
            if not res["correct"]:
                raise SystemExit("%s seed %d: output check failed" % (w, seed))
            if args.log:
                with open(args.log, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": seed,
                                        "result": res}) + "\n")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        worst = max(worst, print_spreads(spec, w, values))
    print("largest spread / bound: %.3f" % worst)


if __name__ == "__main__":
    main()
