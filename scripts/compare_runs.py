#!/usr/bin/env python3
"""Compare the 12 builtin runs, a mixed line-up of 10 runs and 6 failing
line-ups of this checkout against another source tree.

Each side runs every estimator of every builtin scenario through
``harness.run_scenario`` in its own subprocess, with PYTHONPATH set to this
checkout's src/ or to OTHER_SRC, and then the line-up ``mixed``: example6's
problem and settings with the five variants at filter_init 0 and 0.1, each
from its own initial estimate, so that one walk holds the unfiltered tables,
two filter states and more configs than one scan. For each run the script
prints the largest absolute gap in t, theta_hat, error norm, manifold
residual and storage, and for each builtin the largest gap in its
excitation table (``ScenarioResult.excitation``: window start t and rho).
Each side then runs the failing line-ups (``failing``) through
``sim.simulate_all``, at fixed horizons, and the script prints each one's
error type and ``config_index`` on this side and whether the two sides raise
the same type, message and index (the messages of both sides follow a line
that differs). A summary line closes with the largest gap in each table and
the number of differing errors. It exits 1 when any gap exceeds --atol
(default 0: bit-identical; NaN matches NaN), when any error differs, or when
the two sides do not record the same runs, tables and shapes. A zero on one
side and a zero of the other sign on the other is an infinite gap, since the
CSV export writes them as "-0" and "0".

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
# table -> its columns; a row is one run, or one scenario's excitation table
TABLES = {"run": ("t", "theta_hat", "err_norm", "residual", "storage"),
          "excitation": ("t", "rho")}


def mixed(t_end):
    """The line-up 'mixed': example6 with every variant at filter_init 0 and
    0.1, each config from its own fixed initial estimate."""
    from paramest import harness
    from paramest.types import EstimatorConfig, Variant

    base = harness.scenario_from_name("example6", t_end=t_end)
    lineup = [(init, variant) for init in (0.0, 0.1) for variant in Variant]
    estimators = [EstimatorConfig(variant=variant, tau=10.0, mu=0.95,
                                  theta_hat_0=[0.5 * j, 1.0 - 0.25 * j, 2.0 + 0.1 * j],
                                  filter_init=init, label=f"{variant.value}_{init:g}")
                  for j, (init, variant) in enumerate(lineup)]
    return harness.ScenarioConfig(name="mixed", problem=base.problem, estimators=estimators,
                                  settings=base.settings)


def off_builtin(t_end):
    """The line-ups 'q1' (GE, MRE, DREM) and 'q5' (every variant) on the
    regressor of sin((k + 1.5) t) components, k = 0 .. q - 1, over 5 s unless
    t_end is given: the dimensions on either side of the builtins' 2 and 3."""
    from paramest import harness
    from paramest.signals import regressor_from_strings
    from paramest.sim import SimSettings
    from paramest.types import EstimationProblem, EstimatorConfig, Variant

    lineups = {"q1": (1, [Variant.GE, Variant.MRE, Variant.DREM]), "q5": (5, list(Variant))}
    return [harness.ScenarioConfig(
        name=name,
        problem=EstimationProblem(regressor_from_strings(
            [f"sin({k + 1.5:g}*t)" for k in range(q)]), np.arange(1.0, q + 1.0)),
        estimators=[EstimatorConfig(variant=variant, tau=5.0, mu=0.5) for variant in variants],
        settings=SimSettings(t_end=t_end or 5.0)) for name, (q, variants) in lineups.items()]


def failing():
    """The failing line-ups, by name: (problem, configs, settings), at fixed
    horizons. On ["1", "cos(t)"] a converging MRE goes first, then two of
    'late' (MGE, diverges at t = 1.222, in the third chunk), 'early' (GE,
    diverges at the first step) and 'bad_theta' (a theta_hat_0 of the wrong
    length), in four orders; in 'regressor' a regressor component turns nan
    at t = 1.3, in the third chunk; 'law' puts an MGE_MRE, whose law raises
    at q = 1, at index SCAN_CONFIGS, the head of the second scan."""
    from paramest.signals import regressor_from_strings
    from paramest.sim import SCAN_CONFIGS, SimSettings
    from paramest.types import EstimationProblem, EstimatorConfig, Variant

    def problem(regressor, theta):
        return EstimationProblem(regressor_from_strings(regressor), np.array(theta, dtype=float))

    two = problem(["1", "cos(t)"], [1, 2])
    ok = EstimatorConfig(variant=Variant.MRE, tau=1.0)
    ends = {"late": EstimatorConfig(variant=Variant.MGE, tau=1.0, mu=32.0),
            "early": EstimatorConfig(variant=Variant.GE, tau=1e9),
            "bad_theta": EstimatorConfig(variant=Variant.GE, tau=1.0, theta_hat_0=np.zeros(3))}
    horizon = SimSettings(t_end=2.0)
    lineups = {f"{a}-{b}": (two, [ok, ends[a], ends[b]], horizon)
               for a, b in [("late", "early"), ("early", "late"), ("late", "bad_theta"),
                            ("bad_theta", "late")]}
    lineups["regressor"] = (problem(["1", "pow(1.3 - t, 0.5)"], [1, 2]),
                            [ok, EstimatorConfig(variant=Variant.GE, tau=1.0)], horizon)
    lineups["law"] = (problem(["1 + 0.5*sin(t)"], [1.5]),
                      [EstimatorConfig(variant=Variant.GE, tau=1.0 + j)
                       for j in range(SCAN_CONFIGS)]
                      + [EstimatorConfig(variant=Variant.MGE_MRE, tau=1.0, mu=0.5),
                         EstimatorConfig(variant=Variant.GE, tau=1e9)],
                      SimSettings(t_end=1.0))
    return lineups


def dump(path: str, t_end) -> None:
    """Run every builtin and the line-up 'mixed', and save each trajectory
    field as 'run/<name>/<label>/<field>' and each builtin's excitation column
    as 'excitation/<name>/<t or rho>'; then run each failing line-up and save
    its error's type, message and config_index as 'error/<name>' ('none'
    when it does not fail)."""
    from paramest import harness
    from paramest.catalog import BUILTIN_NAMES
    from paramest.sim import simulate_all

    arrays = {}
    configs = [harness.scenario_from_name(name, t_end=t_end) for name in BUILTIN_NAMES]
    for config in configs + [mixed(t_end)] + off_builtin(t_end):
        name = config.name
        result = harness.run_scenario(config)
        for run in result.runs:
            traj = run.trajectory
            values = (traj.times, traj.estimates, traj.err_norms,
                      traj.manifold_residuals, traj.storage_values)
            for field, value in zip(TABLES["run"], values):
                arrays[f"run/{name}/{run.label}/{field}"] = value
        if name not in BUILTIN_NAMES:  # the line-ups: only the builtins' tables are kept
            continue
        columns = np.array(result.excitation, dtype=float).reshape(-1, 2).T
        for field, value in zip(TABLES["excitation"], columns):
            arrays[f"excitation/{name}/{field}"] = value
    for name, lineup in failing().items():
        try:
            simulate_all(*lineup)
            error = ("none", "", "")
        except Exception as exc:
            error = (type(exc).__name__, str(exc), str(getattr(exc, "config_index", None)))
        arrays[f"error/{name}"] = np.array(error)
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
    # -0.0 and 0.0 are equal but export as "-0" and "0": a sign flip is a gap
    gap[np.isnan(gap) | (a == b) & (np.signbit(a) != np.signbit(b))] = np.inf
    return float(gap.max(initial=0.0))


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
        failed = False
        counts, largest = {}, {}
        for table, fields in TABLES.items():
            rows = sorted({key.rsplit("/", 1)[0] for key in (*this, *other)
                           if key.startswith(table + "/")})
            counts[table] = len(rows)
            largest[table] = 0.0
            print(f"{table:24s}" + "".join(f"{field:>12s}" for field in fields))
            for row in rows:
                gaps = [max_gap(this[key], other[key]) if key in this and key in other
                        else float("inf") for key in (f"{row}/{field}" for field in fields)]
                failed |= any(gap > args.atol for gap in gaps)
                largest[table] = max(largest[table], *gaps)
                print(f"{row.split('/', 1)[1]:24s}" + "".join(f"{gap:12.3g}" for gap in gaps))
        lineups = sorted({key.split("/", 1)[1] for key in (*this, *other)
                          if key.startswith("error/")})
        differ = 0
        print(f"{'error':24s}{'type':>20s}{'index':>6s}  sides")
        for name in lineups:
            pair = [side.get(f"error/{name}", np.array(["missing", "", ""])).tolist()
                    for side in (this, other)]
            same = pair[0] == pair[1]
            differ += not same
            kind, _, index = pair[0]
            print(f"{name:24s}{kind:>20s}{index:>6s}  " + ("same" if same else "DIFFER"))
            if not same:
                for side, (kind, message, index) in zip(sides, pair):
                    print(f"  {side}: {kind} at {index}: {message}")
        failed |= differ > 0
    print(f"{counts['run']} runs, {counts['excitation']} excitation tables, "
          f"{len(lineups)} failing line-ups, "
          + "".join(f"largest {table} gap {gap:.2g}, " for table, gap in largest.items())
          + f"{differ} differing errors, "
          + f"largest allowed gap {args.atol:g}: " + ("FAIL" if failed else "ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
