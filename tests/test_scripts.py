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
    assert "12 runs, largest allowed gap 0: ok" in proc.stdout

    # a copy whose example1 gain differs shows a gap on that run alone
    shutil.copytree(ROOT / "src" / "paramest", tmp_path / "paramest",
                    ignore=shutil.ignore_patterns("__pycache__"))
    scenario = tmp_path / "paramest" / "scenarios" / "example1.json"
    doc = json.loads(scenario.read_text())
    doc["estimators"][0]["tau"] *= 1.5
    scenario.write_text(json.dumps(doc))
    proc = run_script("compare_runs.py", tmp_path, "--t-end", "0.2")
    assert proc.returncode == 1, proc.stderr
    rows = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()[1:-1]}
    assert len(rows) == 12
    assert [name for name, gaps in rows.items() if float(gaps[1]) > 0] == ["example1/MGE"]
