#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes each metric.

From the repository root:

    python3 perfbench/repeat.py --seeds 2                 # everything, one more seed
    python3 perfbench/repeat.py --seeds 1-10 --trace 0    # the spread check
    python3 perfbench/repeat.py --workloads release --seeds 1-5 --json out.json

For every workload and metric it prints the median, the first and third
quartiles (Python's statistics.quantiles(values, n=4)) and the spread,
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.
Run length defaults to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if "FAILED CHECK" in line:
            print(f"  {workload} seed {seed}: {line}", file=sys.stderr)
    return json.loads(lines[-1]), wall


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0,1", help="0, 1 or 0,1")
    ap.add_argument("--json", help="also write the summary here")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        for trace in [int(t) for t in args.trace.split(",")]:
            values, attempted, failed, walls = {}, 0, 0, []
            for seed in seeds(args.seeds):
                res, wall = run(workload, seed, args.seconds, trace)
                walls.append(wall)
                attempted += res["attempted"]
                failed += res["failed"]
                for name, m in res["metrics"].items():
                    values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
            key = f"{workload}/trace{trace}"
            summary[key] = {"attempted": attempted, "failed": failed, "wall_s": walls, "metrics": {}}
            print(f"{key}: attempted {attempted}, failed {failed}, wall per run {min(walls):.0f}-{max(walls):.0f} s")
            for name, (vals, unit) in sorted(values.items()):
                s = summarize(vals)
                s["unit"] = unit
                summary[key]["metrics"][name] = s
                bound = bounds.get(name) if trace == 0 else None
                flag = ""
                if bound is not None and name != "setup_s" and s["spread"] > bound / 3:
                    flag = "  <-- spread above bound/3"
                print(f"  {name:34s} {s['median']:14.6g} {unit:6s} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                      f"spread {s['spread']:.4f}" + (f" bound {bound}" if bound is not None else "") + flag)
            sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
