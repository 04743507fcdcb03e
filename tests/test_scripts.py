"""Smoke tests: the scripts/ entry points run against the package in src/."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)


def test_excitation_tables_prints_six_tables():
    proc = run_script("excitation_tables.py", "--step", "20")
    assert proc.returncode == 0, proc.stderr
    headers = [line for line in proc.stdout.splitlines() if line.startswith("# example")]
    assert len(headers) == 6


def test_run_all_scenarios_writes_csv_and_svg(tmp_path):
    proc = run_script("run_all_scenarios.py", "--out", tmp_path, "--dt", "0.01")
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.rglob("*.csv"))) == 12
    assert len(list(tmp_path.rglob("*.svg"))) == 6


def test_compare_runs_against_itself_and_a_changed_copy(tmp_path):
    proc = run_script("compare_runs.py", ROOT / "src", "--t-end", "0.2")
    assert proc.returncode == 0, proc.stderr
    assert ("30 runs, 6 excitation tables, 6 failing line-ups, largest run gap 0, "
            "largest excitation gap 0, 0 differing errors, largest allowed gap 0: ok"
            ) in proc.stdout
    errors = [line.split() for line in proc.stdout.splitlines()[39:45]]
    assert [row[1:] for row in errors] == [
        ["ConfigurationError", "1", "same"], ["DivergenceError", "1", "same"],
        ["DivergenceError", "1", "same"], ["DivergenceError", "1", "same"],
        ["ConfigurationError", "8", "same"], ["SignalEvalError", "0", "same"]]

    # a copy whose example1 gain differs shows a gap on that run alone, and
    # one whose divergence message differs differs on the diverging line-ups
    shutil.copytree(ROOT / "src" / "paramest", tmp_path / "paramest",
                    ignore=shutil.ignore_patterns("__pycache__"))
    scenario = tmp_path / "paramest" / "scenarios" / "example1.json"
    doc = json.loads(scenario.read_text())
    doc["estimators"][0]["tau"] *= 1.5
    scenario.write_text(json.dumps(doc))
    sim = tmp_path / "paramest" / "sim.py"
    sim.write_text(sim.read_text().replace("state diverged by", "state blew up by"))
    proc = run_script("compare_runs.py", tmp_path, "--t-end", "0.2")
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["run", "t", "theta_hat", "err_norm", "residual", "storage"]
    assert lines[31].split() == ["excitation", "t", "rho"]
    runs = {line.split()[0]: line.split()[1:] for line in lines[1:31]}
    assert len(runs) == 30 and sum(name.startswith("mixed/") for name in runs) == 10
    assert [name for name in runs if name.startswith("q")] == [
        "q1/DREM", "q1/GE", "q1/MRE", "q5/DREM", "q5/GE", "q5/MGE", "q5/MGE_MRE", "q5/MRE"]
    assert [name for name, gaps in runs.items() if float(gaps[1]) > 0] == ["example1/MGE"]
    # the gain does not touch the regressor: every excitation table matches
    tables = {line.split()[0]: line.split()[1:] for line in lines[32:38]}
    assert sorted(tables) == [f"example{i}" for i in range(1, 7)]
    assert all(float(gap) == 0 for gaps in tables.values() for gap in gaps)
    assert lines[38].split() == ["error", "type", "index", "sides"]
    errors = {line.split()[0]: line.split()[-1] for line in lines[39:-1]
              if not line.startswith(" ")}
    assert [name for name, sides in errors.items() if sides == "DIFFER"] == [
        "early-late", "late-bad_theta", "late-early"]
    assert "  this: DivergenceError at 1: state diverged by t=0.001 " in proc.stdout
    assert "  other: DivergenceError at 1: state blew up by t=0.001 " in proc.stdout
    summary = lines[-1].split(", ")
    assert summary[3].startswith("largest run gap ") and float(summary[3].split()[-1]) > 0
    assert summary[4:] == ["largest excitation gap 0", "3 differing errors",
                           "largest allowed gap 0: FAIL"]


STUB_RUN = '''\
import json, os, sys
from pathlib import Path
here = Path(__file__).resolve().parents[1]
log = here.parent / "order.log"
calls = len(log.read_text().split()) if log.exists() else 0  # runs before this one
with open(log, "a") as fh:
    fh.write(here.name + "\\n")
with open(here.parent / "bytecode.log", "a") as fh:
    fh.write(os.environ.get("PYTHONDONTWRITEBYTECODE", "unset") + "\\n")
print("# paramest benchmark: stub")
print("  passes: %(passes)d")
print('  item_s.tail_percentile: "%(tail)s"')
print('  environment: {"nproc": 2, "cpu": "stub", "python": "3", "numpy": "2", '
      '"commit": "%(commit)s", "threads": {}}')
print("  raw.wall_s = %(raw)s s")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
    "wall_s": {"value": %(wall)s, "unit": "s"},
    "work_per_s": {"value": %(work)s, "unit": "1/s"},
    "peak_rss_mb": {"value": %(rss)s, "unit": "MB"}}}))
'''


def stub_checkouts(tmp_path, parent_commit):
    """Parent and change checkouts under tmp_path, at paths of equal length,
    whose bench/run.py is STUB_RUN; the parent's run reports ``parent_commit``
    as its commit."""
    # the parent's wall_s is 10 plus the number of runs before it: 10, 13, 14, 17
    sides = {"parent": dict(passes=2, tail="max of 6", commit=parent_commit, raw=11.0,
                            wall="10.0 + calls", work=5.0, rss=40.0),
             "change": dict(passes=3, tail="max of 9", commit="def", raw=9.0, wall=8.0, work=6.0,
                        rss=41.0)}
    for side, values in sides.items():
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text(STUB_RUN % values)
    (tmp_path / "change" / "scripts").mkdir()
    shutil.copy(ROOT / "scripts" / "bench_pairs.py", tmp_path / "change" / "scripts")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "change")


def run_bench_pairs(tmp_path, out, pairs, *args, parent="parent"):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return subprocess.run(
        [sys.executable, str(tmp_path / "change" / "scripts" / "bench_pairs.py"),
         str(tmp_path / parent), "--workload", "reproduce", "--seed", "7",
         "--pairs", str(pairs), "--out", str(out), *args],
        env=env, capture_output=True, text=True, timeout=120)


def test_bench_pairs_alternates_and_merges(tmp_path):
    stub_checkouts(tmp_path, "abc")
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"change": "kept"}))

    def run(pairs):
        return run_bench_pairs(tmp_path, out, pairs)

    proc = run(3)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "order.log").read_text().split() == \
        ["parent", "change", "change", "parent", "parent", "change"]
    proc = run(1)  # pair 4: the change runs first, and the runs are appended
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "order.log").read_text().split()[-2:] == ["change", "parent"]

    doc = json.loads(out.read_text())
    assert doc["change"] == "kept" and doc["parent_commit"] == "abc"
    assert doc["environment"] == {"nproc": 2, "cpu": "stub", "python": "3", "numpy": "2",
                                  "threads": {}}
    entry = doc["workloads"]["reproduce/seed7"]
    assert entry["pairs"] == 4 and entry["all_correct"] is True
    assert entry["passes_per_run"] == {"parent": [2] * 4, "pr": [3] * 4}
    assert entry["tail_percentile_per_run"] == {"parent": ["max of 6"] * 4,
                                                "pr": ["max of 9"] * 4}
    metrics = entry["metrics"]
    assert set(metrics) == {"wall_s", "work_per_s", "peak_rss_mb", "raw.wall_s"}
    wall = metrics["wall_s"]
    assert wall["better"] == "lower" and wall["pr_wins"] == 4
    assert wall["parent"] == {"median": 13.5, "q1": 12.25, "q3": 14.75,
                              "runs": [10.0, 13.0, 14.0, 17.0]}
    assert wall["pr"] == {"median": 8.0, "q1": 8.0, "q3": 8.0, "runs": [8.0] * 4}
    assert wall["change"] == round(8.0 / 13.5 - 1.0, 6)
    assert metrics["work_per_s"]["pr_wins"] == 4 and metrics["work_per_s"]["change"] == 0.2
    assert metrics["peak_rss_mb"]["pr_wins"] == 0
    assert metrics["raw.wall_s"]["better"] == "lower" and metrics["raw.wall_s"]["pr_wins"] == 4


def test_bench_pairs_records_the_parent_commit_of_a_copy(tmp_path):
    # the parent's run reports no commit, as in a git archive copy
    stub_checkouts(tmp_path, "")
    proc = run_bench_pairs(tmp_path, tmp_path / "none.json", 1)
    assert proc.returncode == 0, proc.stderr
    assert "parent_commit" not in json.loads((tmp_path / "none.json").read_text())
    proc = run_bench_pairs(tmp_path, tmp_path / "given.json", 1, "--parent-commit", "f00d")
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "given.json").read_text())["parent_commit"] == "f00d"

    # a parent that is a git checkout: its HEAD, found by git
    git = ["git", "-C", str(tmp_path / "parent"), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "bench"], ["commit", "-q", "-m", "stub"]):
        subprocess.run(git + args, check=True, capture_output=True, timeout=60)
    head = subprocess.run(git + ["rev-parse", "HEAD"], check=True, capture_output=True,
                          text=True, timeout=60).stdout.strip()
    proc = run_bench_pairs(tmp_path, tmp_path / "git.json", 1)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "git.json").read_text())["parent_commit"] == head


def test_bench_pairs_refuses_checkouts_at_paths_of_unequal_length(tmp_path):
    stub_checkouts(tmp_path, "abc")
    shutil.copytree(tmp_path / "parent", tmp_path / "par")
    proc = run_bench_pairs(tmp_path, tmp_path / "bench.json", 1, parent="par")
    assert proc.returncode == 1
    assert str(tmp_path / "par") in proc.stderr and str(tmp_path / "change") in proc.stderr
    assert not (tmp_path / "order.log").exists() and not (tmp_path / "bench.json").exists()


def test_bench_pairs_refuses_bytecode_caches_and_runs_without_them(tmp_path):
    stub_checkouts(tmp_path, "abc")
    caches = [tmp_path / "parent" / "src" / "paramest" / "__pycache__",
              tmp_path / "change" / "bench" / "__pycache__"]
    for cache in caches:
        cache.mkdir(parents=True)
    proc = run_bench_pairs(tmp_path, tmp_path / "bench.json", 1)
    assert proc.returncode == 1
    assert all(str(cache) in proc.stderr for cache in caches)
    assert not (tmp_path / "order.log").exists() and not (tmp_path / "bench.json").exists()

    # without the caches both sides run, each told not to write bytecode,
    # though the script itself was started without that setting
    for cache in caches:
        cache.rmdir()
    proc = run_bench_pairs(tmp_path, tmp_path / "bench.json", 1)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "bytecode.log").read_text().split() == ["1", "1"]
