#!/usr/bin/env python3
"""Compare the 12 builtin runs of this checkout against another source tree.

Each side runs every estimator of every builtin scenario through
``harness.run_scenario`` in its own subprocess, with PYTHONPATH set to this
checkout's src/ or to OTHER_SRC. For each run the script prints the largest
absolute gap in t, theta_hat, error norm, manifold residual and storage, and
exits 1 when any gap exceeds --atol (default 0: bit-identical; NaN matches
NaN) or when the two sides do not record the same runs and shapes.

Usage: python scripts/compare_runs.py OTHER_SRC [--atol A] [--t-end T]
"""
import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
FIELDS = ("t", "theta_hat", "err_norm", "residual", "storage")


def dump(path: str, t_end) -> None:
    """Run every builtin and save each trajectory field as '<name>/<label>/<field>'."""
    from paramest import harness
    from paramest.catalog import BUILTIN_NAMES

    arrays = {}
    for name in BUILTIN_NAMES:
        result = harness.run_scenario(harness.scenario_from_name(name, t_end=t_end))
        for run in result.runs:
            traj = run.trajectory
            values = (traj.times, traj.estimates, traj.err_norms,
                      traj.manifold_residuals, traj.storage_values)
            for field, value in zip(FIELDS, values):
                arrays[f"{name}/{run.label}/{field}"] = value
    np.savez(path, **arrays)


def load(path: str) -> dict:
    with np.load(path) as npz:
        return {key: npz[key] for key in npz.files}


def max_gap(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        return float("inf")
    both_nan = np.isnan(a) & np.isnan(b)
    with np.errstate(invalid="ignore"):
        gap = np.where(both_nan, 0.0, np.abs(a - b))
    return float(np.nan_to_num(gap, nan=np.inf).max(initial=0.0))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("other_src", help="src/ directory of the tree to compare against")
    parser.add_argument("--atol", type=float, default=0.0,
                        help="largest allowed absolute gap (default 0: bit-identical)")
    parser.add_argument("--t-end", type=float, default=None,
                        help="horizon override for every scenario [s]")
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.dump:
        dump(args.dump, args.t_end)
        return 0
    if not os.path.isdir(os.path.join(args.other_src, "paramest")):
        print(f"error: {args.other_src} has no paramest package", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        sides = {"this": str(SRC), "other": os.path.abspath(args.other_src)}
        procs = {}
        for side, src in sides.items():
            argv = [sys.executable, __file__, src, "--dump", os.path.join(tmp, side + ".npz")]
            if args.t_end is not None:
                argv += ["--t-end", str(args.t_end)]
            procs[side] = subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=src),
                                           stderr=subprocess.PIPE, text=True)
        errors = {side: proc.communicate()[1] for side, proc in procs.items()}
        for side, proc in procs.items():
            if proc.returncode != 0:
                print(f"error: the runs under {sides[side]} failed:\n{errors[side]}",
                      file=sys.stderr)
                return 1
        this, other = (load(os.path.join(tmp, side + ".npz")) for side in sides)
        runs = sorted({key.rsplit("/", 1)[0] for key in (*this, *other)})
        print(f"{'run':24s}" + "".join(f"{field:>12s}" for field in FIELDS))
        failed = False
        for run in runs:
            gaps = [max_gap(this[key], other[key]) if key in this and key in other
                    else float("inf") for key in (f"{run}/{field}" for field in FIELDS)]
            failed |= any(gap > args.atol for gap in gaps)
            print(f"{run:24s}" + "".join(f"{gap:12.3g}" for gap in gaps))
    print(f"{len(runs)} runs, largest allowed gap {args.atol:g}: "
          + ("FAIL" if failed else "ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
