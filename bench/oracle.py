"""Correctness gate of the benchmark.

Every item a timed pass produces is checked here, outside the timed region:

* ``reproduce``: the CSVs the CLI wrote are read back with
  ``read_trajectory_csv`` and their theta_hat columns compared with the stored
  reference set (``reference/reproduce_theta.npz``, written once by
  ``make_reference.py`` from the loop integrator).
* ``gain-sweep``: a prefix of each trajectory is compared with the reference
  integrator, ``rk4_step`` over the public ``*_rhs`` laws on
  ``EstimatorState``/``FilterState``, driven by the closed-form regressor
  below rather than by the package's expression evaluator.
* ``pe-scan``: examples 1 and 3 must give rho = pi on every 2*pi window (their
  Gram matrices are diag(2*pi, pi) and pi*I); for the other regressors a
  seeded subsample of windows is recomputed with an independent trapezoid
  Gram matrix and ``numpy.linalg.eigvalsh``.

Each check returns ``None`` when the item is correct and a one-line reason
otherwise. The tolerances sit three orders of magnitude below the 1e-6
perturbation the self-tests inject, and far above the round-off a
re-associated integrator or quadrature produces (about 1e-12).
"""
from __future__ import annotations

import math
import os

import numpy as np

from paramest.errors import ParamestError
from paramest.estimators import drem_rhs, ge_rhs, mge_mre_rhs, mge_rhs, mre_rhs
from paramest.filters import FilterState, filter_rhs
from paramest.harness import read_trajectory_csv
from paramest.sim import rk4_step
from paramest.types import EstimatorState, Variant

ABS_TOL = 1e-9
REL_TOL = 1e-9
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference", "reproduce_theta.npz")
PE_CLOSED_FORM = {"example1": math.pi, "example3": math.pi}
PE_SAMPLED_WINDOWS = 8


def _decaying(t):
    return (np.sin(t) + np.cos(t)) / np.sqrt(1.0 + t) - np.sin(t) / (2.0 * (1.0 + t) ** 1.5)


def _ones(t):
    return np.ones_like(t)


# the builtin regressors written out directly, independent of signals.parse_expr
REGRESSORS = {
    "example1": (_ones, np.sin),
    "example2": (_ones, _decaying),
    "example3": (np.sin, np.cos, lambda t: np.sin(2.0 * t)),
    "example4": (_ones, _decaying),
    "example5": (_ones, lambda t: np.exp(-0.25 * t)),
    "example6": (_ones, np.cos, _decaying),
}


def regressor_values(name: str, ts) -> np.ndarray:
    """w(t) of a builtin scenario on an array of times, shape (len(ts), q)."""
    ts = np.asarray(ts, dtype=float)
    return np.stack([f(ts) for f in REGRESSORS[name]], axis=1)


def _mismatch(got, want) -> float:
    """Largest violation of |got - want| <= ABS_TOL + REL_TOL*|want| (<= 0 passes)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    excess = np.abs(got - want) - (ABS_TOL + REL_TOL * np.abs(want))
    excess = np.where(np.isfinite(excess), excess, math.inf)
    return float(np.max(excess)) if excess.size else 0.0


# --------------------------------------------------------------------------
# reproduce: stored reference trajectories
# --------------------------------------------------------------------------

def load_reference(path: str = REFERENCE_PATH) -> dict[str, np.ndarray]:
    """Reference arrays keyed "<scenario>/<label>/t" and "<scenario>/<label>/theta"."""
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def check_csv(path: str, ref_t: np.ndarray, ref_theta: np.ndarray) -> str | None:
    """Compare the time and theta_hat columns of one exported CSV with the reference."""
    try:
        traj = read_trajectory_csv(path)
    except (OSError, ValueError, ParamestError) as exc:
        return f"{path}: unreadable ({exc})"
    if traj.estimates.shape != ref_theta.shape:
        return f"{path}: shape {traj.estimates.shape}, reference {ref_theta.shape}"
    if _mismatch(traj.times, ref_t) > 0:
        return f"{path}: time column differs from the reference"
    excess = _mismatch(traj.estimates, ref_theta)
    if excess > 0:
        worst = float(np.max(np.abs(traj.estimates - ref_theta)))
        return f"{path}: theta_hat off the reference by {worst:.3g}"
    return None


# --------------------------------------------------------------------------
# gain-sweep: reference integrator on a prefix
# --------------------------------------------------------------------------

def _law(config, q: int):
    """Flat-state derivative built from the public *_rhs laws."""
    tau, mu, variant = config.tau, config.mu, config.variant
    if not variant.uses_filter:
        def rhs(y, w, g):
            state = EstimatorState(theta_hat=y)
            if variant is Variant.GE:
                return ge_rhs(state, w, g, tau)
            return mge_rhs(state, w, g, tau, mu)
        return rhs

    def rhs(y, w, g):
        filt = FilterState(y[q:q + q * q].reshape(q, q), y[q + q * q:])
        state = EstimatorState(theta_hat=y[:q], filter=filt)
        if variant is Variant.MRE:
            d_theta = mre_rhs(state, tau)
        elif variant is Variant.MGE_MRE:
            d_theta = mge_mre_rhs(state, tau, mu)
        else:
            d_theta = drem_rhs(state, tau)
        d_filt = filter_rhs(filt, w, g)
        return np.concatenate([d_theta, d_filt.omega_ext.ravel(), d_filt.g_ext])
    return rhs


def reference_prefix(name: str, theta: np.ndarray, config, dt: float,
                     n_steps: int, record_every: int) -> np.ndarray:
    """theta_hat at every recorded step k <= n_steps, by rk4_step over the laws.

    The regressor is pre-evaluated on the half-step grid so the stage times
    index it exactly.
    """
    q = theta.shape[0]
    grid = regressor_values(name, 0.5 * dt * np.arange(2 * n_steps + 1))
    outputs = grid @ theta
    law = _law(config, q)
    state0 = config.initial_state(q)
    if config.variant.uses_filter:
        y = np.concatenate([state0.theta_hat, state0.filter.omega_ext.ravel(),
                            state0.filter.g_ext])
    else:
        y = state0.theta_hat.copy()

    def rhs(t, v):
        i = int(round(2.0 * t / dt))
        return law(v, grid[i], outputs[i])

    rows = [y[:q].copy()]
    for k in range(n_steps):
        y = rk4_step(rhs, k * dt, y, dt)
        if (k + 1) % record_every == 0:
            rows.append(y[:q].copy())
    return np.array(rows)


def check_trajectory(traj, expected_rows: int, prefix: np.ndarray) -> str | None:
    """Full length, finite, and the leading rows on the reference integrator."""
    if len(traj) != expected_rows:
        return f"{len(traj)} recorded rows, expected {expected_rows}"
    if not np.all(np.isfinite(traj.estimates)):
        return "non-finite estimate"
    excess = _mismatch(traj.estimates[:prefix.shape[0]], prefix)
    if excess > 0:
        worst = float(np.max(np.abs(traj.estimates[:prefix.shape[0]] - prefix)))
        return f"prefix off the reference integrator by {worst:.3g}"
    return None


# --------------------------------------------------------------------------
# pe-scan: closed form and independent Gram matrices
# --------------------------------------------------------------------------

def gram_min_eigenvalue(name: str, start: float, window: float, dt: float) -> float:
    """Smallest eigenvalue of the trapezoid Gram integral of w over one window."""
    n = int(round(window / dt))
    h = window / n
    w = regressor_values(name, start + h * np.arange(n + 1))
    gram = h * (w.T @ w) - 0.5 * h * (np.outer(w[0], w[0]) + np.outer(w[-1], w[-1]))
    return float(np.linalg.eigvalsh(0.5 * (gram + gram.T))[0])


def sampled_windows(rng: np.random.Generator, n: int) -> np.ndarray:
    """Indices of the windows the gate recomputes for a non-closed-form regressor."""
    return np.sort(rng.choice(n, size=min(n, PE_SAMPLED_WINDOWS), replace=False))


def check_sweep(name: str, starts: np.ndarray, table, window: float, dt: float,
                rng: np.random.Generator) -> str | None:
    """Compare one excitation_sweep table with the closed form or the oracle."""
    if len(table) != len(starts):
        return f"{name}: {len(table)} windows, expected {len(starts)}"
    got_starts = np.array([s for s, _ in table])
    rhos = np.array([rho for _, rho in table])
    if _mismatch(got_starts, starts) > 0:
        return f"{name}: window starts differ from the requested ones"
    if name in PE_CLOSED_FORM:
        idx = np.arange(len(starts))
        want = np.full(len(starts), PE_CLOSED_FORM[name])
    else:
        idx = sampled_windows(rng, len(starts))
        want = np.array([gram_min_eigenvalue(name, starts[i], window, dt) for i in idx])
    if _mismatch(rhos[idx], want) > 0:
        worst = float(np.max(np.abs(rhos[idx] - want)))
        return f"{name}: rho off the oracle by {worst:.3g}"
    return None
