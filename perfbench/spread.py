#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and reports each
end-to-end metric's median and spread (quartile distance over median, the
way statistics.quantiles(values, n=4) gives the quartiles).

Run from the root of the repository:

    python3 perfbench/spread.py --seeds 10 --label <commit> --out perfbench/trajectory/<n>-<commit>-end-to-end.json
    python3 perfbench/spread.py --seeds 3 --trace 1 --label <commit> --out perfbench/trajectory/<n>-<commit>-per-layer.json

A spread above a third of the metric's bound in BENCHMARK.json is flagged.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout[-2000:] + p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {res}")
    return res, wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    ap.add_argument("--label", default="", help="recorded in the report, e.g. the commit measured")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    defs = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    report = {"label": args.label, "run_seconds": seconds, "seeds": list(range(1, args.seeds + 1)),
              "trace": args.trace, "workloads": {}}
    for w in workloads:
        values = {d["name"]: [] for d in defs}
        walls = []
        for seed in report["seeds"]:
            res, wall = run_once(w, seed, seconds, args.trace)
            walls.append(wall)
            for d in defs:
                values[d["name"]].append(res["metrics"][d["name"]]["value"])
            print(f"{w} seed {seed}: {wall:.1f}s", flush=True)
        rows = {}
        for d in defs:
            v = values[d["name"]]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2 if q2 else None  # a count a workload bypasses is 0
            row = {"unit": d["unit"], "median": q2, "q1": q1, "q3": q3, "spread": spread, "values": v}
            if "bound" in d:
                row["bound"] = d["bound"]
                row["within_bound"] = spread is not None and spread <= d["bound"]
                row["within_third_of_bound"] = spread is not None and spread <= d["bound"] / 3
            rows[d["name"]] = row
            flag = "" if row.get("within_third_of_bound", True) else "  <-- spread above bound/3"
            shown = "    n/a" if spread is None else f"{spread:7.3f}"
            print(f"  {w:13s} {d['name']:34s} median {q2:14.4f} {d['unit']:6s} spread {shown}{flag}")
        report["workloads"][w] = {"metrics": rows, "wall_s_max": max(walls), "wall_s_median": statistics.median(walls)}
        print(f"  {w}: run wall time median {statistics.median(walls):.1f}s, max {max(walls):.1f}s", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
