#!/usr/bin/env python3
"""Write the reference theta_hat trajectories the reproduce gate compares against.

Runs every builtin scenario at its catalog defaults through
``harness.run_scenario`` and stores, per estimator, the recorded times and
theta_hat rows in ``bench/reference/reproduce_theta.npz``. The stored set
comes from the loop integrator and is meant to stay fixed: regenerate it only
when a change to the trajectories is intended, and say so in the change.

Usage, from the repository root:  python3 bench/make_reference.py
"""
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from oracle import REFERENCE_PATH  # noqa: E402
from paramest import catalog, harness  # noqa: E402


def main() -> int:
    arrays = {}
    for name in catalog.BUILTIN_NAMES:
        result = harness.run_scenario(harness.scenario_from_name(name))
        for run in result.runs:
            arrays[f"{name}/{run.label}/t"] = run.trajectory.times
            arrays[f"{name}/{run.label}/theta"] = run.trajectory.estimates
        print(f"{name}: {', '.join(run.label for run in result.runs)}")
    os.makedirs(os.path.dirname(REFERENCE_PATH), exist_ok=True)
    np.savez_compressed(REFERENCE_PATH, **arrays)
    print(f"wrote {REFERENCE_PATH} ({os.path.getsize(REFERENCE_PATH)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
