#!/usr/bin/env python3
"""Run the benchmark in alternating pairs against a parent checkout and record both sides.

Each pair runs ``bench/run.py --workload W --seed S`` once in PARENT_DIR and
once in the checkout this script sits in, the parent first on odd pairs. The
last line a run prints is its JSON result; its readable report gives the pass
count, the percentile item_s.tail lands on, and raw.wall_s; the pass counts
and percentile labels are kept per run. The pairs go into FILE under
"W/seedS" ("W/seedS/traced" with --trace), merged with what FILE already
holds: other keys are kept and the runs of each side are appended to earlier
pairs of the same key. Every metric whose direction the checkout's
BENCHMARK.json declares (raw.* metrics take the direction of the metric they
are the raw form of) gets each side's median, inclusive quartiles and runs,
pr_wins (pairs in which this checkout is better; ties count for neither) and
change (median over parent median, minus 1). FILE records the parent's
commit: --parent-commit, else HEAD of PARENT_DIR when it is a git checkout,
else the commit the parent's run reports (a ``git archive`` copy has none,
so pass --parent-commit). The resolved paths of PARENT_DIR and of this
checkout must be of equal length: a run's times move with the length of the
path it runs from, so the script refuses unequal ones before any run.

Usage: python scripts/bench_pairs.py PARENT_DIR --workload W [--seed S]
           --pairs N --out FILE [--trace] [--parent-commit SHA]
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "pr")
ENV_KEYS = ("nproc", "cpu", "python", "numpy", "threads")
COMMAND = ("python3 bench/run.py --workload W --seed S [--trace 1], default --seconds, "
           "run from the parent's checkout and from this change's")
METHOD = ("parent and change alternate, the parent first on odd pairs; each value is one "
          "run's reported metric (end-to-end times at reference-machine speed, raw.wall_s "
          "unscaled); quartiles are inclusive; pr_wins counts pairs where the change is better")
PASSES = re.compile(r"^\s+passes: (\d+)$")
RAW_WALL = re.compile(r"^\s+raw\.wall_s = (\S+) s$")
ENVIRONMENT = re.compile(r"^\s+environment: (\{.*\})$")
TAIL_PERCENTILE = re.compile(r'^\s+item_s\.tail_percentile: "(.*)"$')


def run_bench(checkout: Path, workload: str, seed: int, trace: bool) -> dict:
    """One benchmark run in ``checkout``: its metrics, pass count, tail
    percentile label, environment and whether every item passed the
    correctness gate."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd += ["--trace", "1"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(cmd[1:])} in {checkout} exited {proc.returncode}\n"
                 f"{proc.stderr}")
    result = json.loads(lines[-1])
    run = {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
           "correct": bool(result["correct"]) and result["failed"] == 0,
           "passes": None, "tail_percentile": None, "environment": {}}
    for line in lines[:-1]:
        if match := PASSES.match(line):
            run["passes"] = int(match[1])
        elif match := TAIL_PERCENTILE.match(line):
            run["tail_percentile"] = match[1]
        elif (match := RAW_WALL.match(line)) and not trace:
            run["metrics"]["raw.wall_s"] = float(match[1])
        elif match := ENVIRONMENT.match(line):
            run["environment"] = json.loads(match[1])
    return run


def git_head(checkout: Path) -> str | None:
    """HEAD of ``checkout`` when it is a git checkout itself, else None."""
    if not (checkout / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    head = proc.stdout.strip()
    return head if proc.returncode == 0 and head else None


def directions(checkout: Path) -> dict:
    """Metric name -> "lower" or "higher", as BENCHMARK.json declares it."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def sig(x: float) -> float:
    return float(f"{x:.6g}")


def summary(runs: list) -> dict:
    if len(runs) > 1:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = median = q3 = runs[0]
    return {"median": sig(median), "q1": sig(q1), "q3": sig(q3), "runs": runs}


def merge(entry: dict, new: dict, better: dict) -> dict:
    """``entry`` (a workload's record, possibly empty) with the pairs of ``new``
    (side -> list of runs) appended and every statistic recomputed."""
    passes = entry.get("passes_per_run", {side: [] for side in SIDES})
    tails = entry.get("tail_percentile_per_run", {side: [] for side in SIDES})
    metrics = entry.get("metrics", {})
    for side in SIDES:
        passes[side] += [run["passes"] for run in new[side]]
        tails[side] += [run["tail_percentile"] for run in new[side]]
    names = [name for name in new["pr"][0]["metrics"]
             if better.get(name.removeprefix("raw.")) is not None]
    for name in names:
        way = better[name.removeprefix("raw.")]
        old = metrics.get(name, {})
        runs = {side: old.get(side, {}).get("runs", [])
                + [sig(run["metrics"][name]) for run in new[side]] for side in SIDES}
        sign = 1.0 if way == "lower" else -1.0
        wins = sum(sign * (pr - parent) < 0 for parent, pr in zip(runs["parent"], runs["pr"]))
        record = {"better": way, **{side: summary(runs[side]) for side in SIDES},
                  "pr_wins": wins}
        base = record["parent"]["median"]
        record["change"] = sig(record["pr"]["median"] / base - 1.0) if base else None
        metrics[name] = record
    return {"pairs": entry.get("pairs", 0) + len(new["pr"]),
            "all_correct": entry.get("all_correct", True)
            and all(run["correct"] for side in SIDES for run in new[side]),
            "passes_per_run": passes, "tail_percentile_per_run": tails, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true",
                        help="run with --trace 1 and record the per-layer metrics")
    parser.add_argument("--parent-commit",
                        help="the commit PARENT_DIR holds (default: its git HEAD)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if not (args.parent_dir / "bench" / "run.py").is_file():
        parser.error(f"no bench/run.py under {args.parent_dir}")

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    key = f"{args.workload}/seed{args.seed}" + ("/traced" if args.trace else "")
    entry = doc.get("workloads", {}).get(key, {})
    checkouts = {"parent": args.parent_dir.resolve(), "pr": ROOT}
    if len(str(checkouts["parent"])) != len(str(ROOT)):
        sys.exit(f"error: the checkout paths {checkouts['parent']} and {ROOT} differ in "
                 "length; run both from paths of equal length")
    new = {side: [] for side in SIDES}
    for pair in range(entry.get("pairs", 0) + 1, entry.get("pairs", 0) + args.pairs + 1):
        for side in SIDES if pair % 2 else SIDES[::-1]:
            new[side].append(run_bench(checkouts[side], args.workload, args.seed, args.trace))
        name = next(iter(new["pr"][-1]["metrics"]))
        print(f"pair {pair}: {name} parent {new['parent'][-1]['metrics'][name]:.6g} "
              f"pr {new['pr'][-1]['metrics'][name]:.6g}", flush=True)

    doc.setdefault("command", COMMAND)
    doc.setdefault("method", METHOD)
    env = new["pr"][0]["environment"]
    doc.setdefault("environment", {k: env[k] for k in ENV_KEYS if k in env})
    parent_commit = (args.parent_commit or git_head(checkouts["parent"])
                     or new["parent"][0]["environment"].get("commit"))
    if parent_commit:
        doc.setdefault("parent_commit", parent_commit)
    doc.setdefault("workloads", {})[key] = merged = merge(entry, new, directions(ROOT))
    args.out.write_text(json.dumps(doc, indent=1) + "\n")

    print(f"{key}: {merged['pairs']} pairs, all correct: {merged['all_correct']}")
    for name, m in merged["metrics"].items():
        print(f"  {name:32s} {m['parent']['median']:>12.6g} -> {m['pr']['median']:<12.6g} "
              f"change {m['change']}  pr_wins {m['pr_wins']}/{merged['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
