#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 morphbench/spread.py [--workloads a,b] [--seeds 1-10]
                                 [--seconds S] [--trace 0|1] [--out FILE]

For every workload it runs morphbench/run.py once per seed, one run at a
time, and prints per metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json. Spreads above a third of the bound are marked '!',
above the bound 'FAIL'. --out saves every run's result line as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = {}
    ok = True
    for w in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", args.trace]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print("%s seed %d: exit %d\n%s" % (w, seed, p.returncode,
                                                   p.stderr[-2000:]))
                ok = False
                continue
            res = json.loads(lines[-1])
            for line in lines:
                if line.startswith("latency ms "):
                    res["latency"] = dict(
                        kv.split("=") for kv in line.split()[2:])
            runs.append(res)
            if not res["correct"] or res["failed"]:
                ok = False
            print("%s seed %d: correct=%s attempted=%d failed=%d" %
                  (w, seed, res["correct"], res["attempted"], res["failed"]),
                  flush=True)
        results[w] = runs
        if len(runs) < 2:
            continue
        print("\n%-28s %14s %14s %14s %8s %6s" %
              (w, "median", "q1", "q3", "spread", "bound"))
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name) if args.trace == "0" else None
            mark = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    mark, ok = "FAIL", False
                elif spread > bound / 3:
                    mark = "!"
            print("%-28s %14.6g %14.6g %14.6g %8.4f %6s %s %s" %
                  (name, med, q1, q3, spread,
                   "" if bound is None else bound, unit, mark))
        if all("latency" in r for r in runs):
            print("%-28s" % "latency percentiles (info)")
            for k in runs[0]["latency"]:
                vals = [float(r["latency"][k]) for r in runs]
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                print("  %-26s %14.6g %14.6g %14.6g %8.4f" %
                      (k, med, q1, q3, (q3 - q1) / med if med else 0))
        print(flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
