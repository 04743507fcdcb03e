#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

Usage, from the repository root:

    python3 bench/collect.py [--workloads reproduce,gain-sweep,pe-scan]
                             [--seeds 1-10] [--seconds 15] [--trace 0|1]
                             [--out FILE]

Runs ``bench/run.py`` once per workload and seed, one run at a time, and
prints per metric the median, the quartiles (``statistics.quantiles`` with
n=4) and the interquartile spread as a share of the median. ``--out`` also
writes every run's result and the summary as JSON; ``baseline/`` holds files
written this way.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("reproduce", "gain-sweep", "pe-scan")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["run_s"] = time.perf_counter() - t0
    result["report"] = proc.stdout.strip().splitlines()[:-1]
    return result


def summarise(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    doc = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            results.append(run_once(workload, seed, args.seconds, args.trace))
            r = results[-1]
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} run {r['run_s']:.1f}s", flush=True)
        summary = summarise(results)
        doc["workloads"][workload] = {"summary": summary, "runs": results}
        for name, s in summary.items():
            print(f"  {name:32s} median {s['median']:.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
