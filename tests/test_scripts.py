"""Smoke tests: the scripts/ entry points run against the package in src/."""
import os
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
