"""Acceptance suite: one callable check per release criterion.

Each criterion returns (passed, detail) and is registered with a number and
title; ``run_all`` executes them in order and reports one line each. The
same checks back the pytest acceptance module and the CLI ``verify``
subcommand. Tolerances are fixed here, not configurable.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import catalog
from .estimators import ge_closed_form_scalar, mge_gain, mge_mre_rhs
from .filters import FilterState
from .harness import read_trajectory_csv, run_scenario, scenario_from_name
from .signals import excitation_report, regressor_from_strings
from .sim import (
    SimSettings,
    affine_rk4,
    convergence_time,
    simulate,
    stage_index,
    stage_tables,
)
from .types import EstimationProblem, EstimatorConfig, EstimatorState, Variant

_SEED = 20250810


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float


def _ulp_close(a: float, b: float) -> bool:
    return abs(a - b) <= math.ulp(max(abs(a), abs(b), 1e-300))


def random_regressor(rng: np.random.Generator, q: int):
    """Bounded random multi-tone regressor (also exercises the parser)."""
    comps = []
    for _ in range(q):
        c0, c1, c2 = rng.uniform(-1.0, 1.0, size=3)
        a, b = rng.uniform(0.3, 3.0, size=2)
        comps.append(f"{c0:.6f} + {c1:.6f}*sin({a:.6f}*t) + {c2:.6f}*cos({b:.6f}*t)")
    return regressor_from_strings(comps)


def _suffix_increase(values: np.ndarray) -> float:
    """max over i<=j of values[j] - values[i] (0 when non-increasing)."""
    suffix_max = np.maximum.accumulate(values[::-1])[::-1]
    return float(np.max(suffix_max - values))


# --- criteria ---------------------------------------------------------------

def _c1_gain_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(_SEED)
    for _ in range(1000):
        tau = rng.uniform(0.05, 20.0)
        mu = rng.uniform(-1.5, 1.5)

        w2 = rng.normal(size=2)
        k2 = mge_gain(w2, tau, mu)
        exp2 = (tau * w2[0], 2 * tau * w2[1] - mu * tau * w2[0])
        w3 = rng.normal(size=3)
        k3 = mge_gain(w3, tau, mu)
        exp3 = (tau * w3[0], tau * w3[1],
                2 * tau * w3[2] + tau * w3[1] - 2 * mu * tau * w3[0])
        for got, expect in ((k2, exp2), (k3, exp3)):
            for gi, ei in zip(got, expect):
                if not _ulp_close(gi, ei):
                    return False, f"gain mismatch: got {gi!r}, expected {ei!r}"

        for q in (2, 3):
            om = rng.normal(size=(q, q))
            gv = rng.normal(size=q)
            th = rng.normal(size=q)
            state = EstimatorState(theta_hat=th, filter=FilterState(om, gv))
            d = mge_mre_rhs(state, tau, mu)
            eps = gv - om @ th
            if q == 2:
                last = 2 * tau * eps[1] - mu * tau * eps[0]
            else:
                last = 2 * tau * eps[2] + tau * eps[1] - 2 * mu * tau * eps[0]
            for gi, ei in zip(d[:-1], tau * eps[:-1]):
                if not _ulp_close(gi, ei):
                    return False, f"filtered-row mismatch: {gi!r} vs {ei!r}"
            if not _ulp_close(d[-1], last):
                return False, f"filtered last row mismatch: {d[-1]!r} vs {last!r}"
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        return False, f"took {elapsed:.2f}s (budget 1s)"
    return True, f"1000 draws x (q=2, q=3), direct + filtered; ok, {elapsed:.2f}s"


def _c2_ge_monotone():
    start = time.perf_counter()
    rng = np.random.default_rng(_SEED + 2)
    settings = SimSettings(t_end=30.0, dt=1e-3)
    cases = []
    for name in catalog.BUILTIN_NAMES:
        spec, theta, tau, _ = catalog.builtin(name)
        cases.append((name, EstimationProblem(spec, theta), tau))
    for i in range(20):
        q = int(rng.integers(2, 4))
        spec = random_regressor(rng, q)
        theta = rng.uniform(-3.0, 3.0, size=q)
        cases.append((f"random{i}", EstimationProblem(spec, theta), 1.0))

    worst = 0.0
    for name, problem, tau in cases:
        traj = simulate(problem, EstimatorConfig(variant=Variant.GE, tau=tau), settings)
        slack = 1e-8 * (1.0 + traj.err_norms[0])
        inc = _suffix_increase(traj.err_norms)
        worst = max(worst, inc)
        if inc > slack:
            return False, f"{name}: error norm grew by {inc:.2e} (slack {slack:.2e})"
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        return False, f"took {elapsed:.1f}s (budget 30s)"
    return True, f"26 trajectories, worst increase {worst:.2e}, {elapsed:.1f}s"


def _c3_scalar_closed_form():
    spec = regressor_from_strings(["sin(t)"])
    problem = EstimationProblem(spec, np.array([1.0]))
    t_end = 2.0 * math.pi
    traj = simulate(problem, EstimatorConfig(variant=Variant.GE, tau=1.0),
                    SimSettings(t_end=t_end, dt=1e-3))
    oracle = math.exp(-math.pi)  # theta_err_0 * exp(-integral of sin^2 over a period)
    sim_err = float(traj.err_norms[-1])
    closed = ge_closed_form_scalar(spec, 1.0, 1.0, t_end, dt=1e-3)
    d_sim = abs(sim_err - oracle)
    d_closed = abs(closed - oracle)
    ok = d_sim < 1e-6 and d_closed < 1e-6 and abs(sim_err - closed) < 1e-6
    return ok, (f"sim vs exp(-pi): {d_sim:.2e}, closed-form vs exp(-pi): "
                f"{d_closed:.2e} (tol 1e-6)")


def _integrate_error_ode(spec, theta_err_0, tau, mu, settings):
    """RK4 run of the modified-gain parameter-error dynamics
    d(err)/dt = -k(w) w^T err, a law written here from ``mge_gain`` alone, so
    it is independent of the estimator law that ``simulate`` integrates. It is
    linear in err, so its stage table is -w k(w)^T over the value row of the
    law at theta_err_0, where the run starts."""
    w = spec.sample(settings.half_step_times())[stage_index(settings.n_steps)]
    q = w.shape[-1]
    f = np.empty((len(w), q + 1, q))
    f[:, :q] = -w[:, :, None] * mge_gain(w, tau, mu)[:, None, :]
    f[:, q] = theta_err_0 @ f[:, :q]
    return affine_rk4(theta_err_0, f, settings.dt)[settings.record_steps]


def _c4_duality():
    worst = 0.0
    for name in ("example1", "example2", "example3"):
        spec, theta, tau, mu = catalog.builtin(name)
        settings = SimSettings(t_end=30.0, dt=1e-3)
        problem = EstimationProblem(spec, theta)
        traj = simulate(problem, EstimatorConfig(variant=Variant.MGE, tau=tau, mu=mu),
                        settings)
        err = _integrate_error_ode(spec, theta.copy(), tau, mu, settings)
        mismatch = float(np.max(np.abs(traj.estimates + err - theta[None, :])))
        worst = max(worst, mismatch)
        if mismatch > 1e-9:
            return False, f"{name}: estimate+error deviates from theta by {mismatch:.2e}"
    return True, f"examples 1-3, worst |estimate + error - theta| = {worst:.2e} (tol 1e-9)"


def _filter_states(spec, settings):
    """Omega after every step of the filter run from zero by ``stage_tables``,
    the tables ``simulate_all`` integrates the filtered configs over, over
    ``spec`` with g = 0."""
    q = spec.dimension
    problem = EstimationProblem(spec, np.zeros(q))
    states = []
    for _, _, omega_stages, _, end in stage_tables(problem, FilterState.uniform(q), settings):
        states.append(omega_stages[::4])  # stage 0 of each step is its start state
    return np.concatenate(states + [end.omega_ext[None]])


def _c5_filter():
    # constant regressor against the closed-form first-order response
    w = np.array([1.0, 0.5])
    dt = 1e-3
    om = _filter_states(regressor_from_strings(["1", "0.5"]), SimSettings(t_end=1.0, dt=dt))[-1]
    target = (1.0 - math.exp(-1.0)) * np.outer(w, w)
    d = float(np.max(np.abs(om - target)))
    if d >= 1e-8:
        return False, f"constant-regressor filter off by {d:.2e} at t=1 (tol 1e-8)"

    # symmetry / positive semidefiniteness after every step along every builtin
    settings = SimSettings(t_end=30.0, dt=dt)
    worst_asym, worst_eig = 0.0, 0.0
    for name in catalog.BUILTIN_NAMES:
        om = _filter_states(catalog.builtin(name)[0], settings)
        scale = np.maximum(1.0, np.max(np.abs(om), axis=(1, 2)))
        asym = np.max(np.abs(om - om.swapaxes(1, 2)), axis=(1, 2)) / scale
        worst_asym = max(worst_asym, float(np.max(asym)))
        worst_eig = min(worst_eig, float(np.min(np.linalg.eigvalsh(om)[:, 0])))
        if worst_asym > 1e-12 or worst_eig < -1e-9:
            return False, (f"{name}: asymmetry {worst_asym:.2e} or min eig "
                           f"{worst_eig:.2e} out of tolerance")
    return True, (f"closed-form gap {d:.2e}; worst asymmetry {worst_asym:.2e}, "
                  f"worst min eig {worst_eig:.2e}")


def _c6_example1():
    start = time.perf_counter()
    result = run_scenario(scenario_from_name("example1"))
    traj = result.runs[0].trajectory
    final_err = float(traj.err_norms[-1])
    dev = np.abs(traj.estimates[-1] - result.config.problem.true_params)
    rel = dev / np.abs(result.config.problem.true_params)
    elapsed = time.perf_counter() - start
    ok = final_err < 0.05 and np.all(rel < 0.02) and elapsed < 5.0
    return ok, (f"final error {final_err:.2e} (<0.05), max relative deviation "
                f"{float(np.max(rel)):.2e} (<0.02), {elapsed:.1f}s (<5s)")


def _cts(name, tol=0.1):
    result = run_scenario(scenario_from_name(name))
    return {run.label: run.convergence_times[tol] for run in result.runs}


def _le(a, b):  # None means "never converged" = +inf
    a = math.inf if a is None else a
    b = math.inf if b is None else b
    return a <= b


def _fmt_ct(x):
    return "never" if x is None else f"{x:.2f}s"


def _c7_example3():
    cts = _cts("example3")
    ok = (cts["MGE"] is not None and cts["GE"] is not None
          and cts["MGE"] <= cts["GE"])
    return ok, f"convergence to 0.1: MGE {_fmt_ct(cts['MGE'])} vs GE {_fmt_ct(cts['GE'])}"


def _c8_examples45():
    cts4 = _cts("example4")
    cts5 = _cts("example5")
    ok4 = _le(cts4["MGE_MRE"], cts4["MRE"])
    ok5 = _le(cts5["MGE_MRE"], cts5["MRE"])
    before60 = cts5["MGE_MRE"] is not None and cts5["MGE_MRE"] < 60.0
    ok = ok4 and ok5 and before60
    return ok, (f"example4: MGE_MRE {_fmt_ct(cts4['MGE_MRE'])} vs MRE "
                f"{_fmt_ct(cts4['MRE'])}; example5: MGE_MRE {_fmt_ct(cts5['MGE_MRE'])} "
                f"(<60s) vs MRE {_fmt_ct(cts5['MRE'])}")


def _c9_example6():
    cts = _cts("example6")
    mm = cts["MGE_MRE"]
    ok = all(_le(mm, cts[other]) for other in ("GE", "MRE", "DREM"))
    listing = ", ".join(f"{k} {_fmt_ct(v)}" for k, v in cts.items())
    return ok, f"convergence to 0.1: {listing}"


def _c10_drem_monotone():
    worst = 0.0
    for name in ("example3", "example6"):
        spec, theta, tau, _ = catalog.builtin(name)
        problem = EstimationProblem(spec, theta)
        traj = simulate(problem, EstimatorConfig(variant=Variant.DREM, tau=tau),
                        SimSettings(t_end=catalog.builtin_t_end(name)))
        for i in range(problem.dimension):
            inc = _suffix_increase(np.abs(theta[i] - traj.estimates[:, i]))
            worst = max(worst, inc)
            if inc > 1e-8:
                return False, f"{name}: coordinate {i} error grew by {inc:.2e}"
    return True, f"examples 3 and 6, worst per-coordinate increase {worst:.2e} (slack 1e-8)"


def _rk4_global_error(dt: float) -> float:
    """Error at t = 1 of the production engine on dy/dt = -y, y(0) = 1."""
    n = SimSettings(t_end=1.0, dt=dt).n_steps
    # dy/dt = -y expanded at y(0) = 1
    y = affine_rk4(np.array([1.0]), np.tile([[-1.0], [-1.0]], (4 * n, 1, 1)), dt)[-1]
    return abs(float(y[0]) - math.exp(-1.0))


def _c11_rk4_order():
    e1 = _rk4_global_error(0.1)
    e2 = _rk4_global_error(0.05)
    factor = e1 / e2
    return 12.0 <= factor <= 20.0, (
        f"global error {e1:.3e} -> {e2:.3e} when halving dt, factor {factor:.1f} "
        f"(expected within [12, 20])")


def _c12_excitation():
    rep = excitation_report(catalog.builtin("example1")[0], 0.0, 2.0 * math.pi, 1e-3)
    target = np.array([[2.0 * math.pi, 0.0], [0.0, math.pi]])
    d = float(np.max(np.abs(rep.gram - target)))
    rho5 = excitation_report(catalog.builtin("example5")[0], 100.0, 10.0, 1e-3).min_eigenvalue
    ok = d < 1e-4 and rho5 < 1e-2
    return ok, (f"example1 gram within {d:.2e} of closed form (tol 1e-4); "
                f"example5 window eigenvalue at t=100 is {rho5:.2e} (<1e-2)")


def _c13_roundtrip():
    from . import cli

    with tempfile.TemporaryDirectory() as tmp:
        d1, d2 = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        for d in (d1, d2):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", "--scenario", "example1",
                                 "--t-end", "5", "--out", d])
            if code != 0:
                return False, f"run exited with {code}"
        f1 = os.path.join(d1, "example1_MGE.csv")
        f2 = os.path.join(d2, "example1_MGE.csv")
        with open(f1, "rb") as fh:
            b1 = fh.read()
        with open(f2, "rb") as fh:
            b2 = fh.read()
        if b1 != b2:
            return False, "repeated runs produced different CSV bytes"

        config = scenario_from_name("example1", t_end=5.0)
        traj = run_scenario(config).runs[0].trajectory
        parsed = read_trajectory_csv(f1)
        exact = (np.array_equal(parsed.times, traj.times)
                 and np.array_equal(parsed.estimates, traj.estimates)
                 and np.array_equal(parsed.err_norms, traj.err_norms)
                 and np.array_equal(parsed.manifold_residuals, traj.manifold_residuals)
                 and np.array_equal(parsed.storage_values, traj.storage_values))
        if not exact:
            return False, "CSV parse-back does not reproduce the trajectory exactly"
    return True, f"byte-identical CSV across runs ({len(b1)} bytes); parse-back exact"


def _c14_equilibria():
    # truth plus zero-initialized filter is a fixed point of every variant
    worst = 0.0
    for name in ("example1", "example3"):
        spec, theta, tau, mu = catalog.builtin(name)
        problem = EstimationProblem(spec, theta)
        for variant in Variant:
            cfg = EstimatorConfig(variant=variant, tau=tau, mu=mu,
                                  theta_hat_0=theta.copy())
            traj = simulate(problem, cfg, SimSettings(t_end=5.0))
            peak = float(np.max(traj.err_norms))
            worst = max(worst, peak)
            if peak > 1e-12:
                return False, f"{name}/{variant.value}: error reached {peak:.2e}"
    return True, f"10 variant/problem pairs, worst drift {worst:.2e} (tol 1e-12)"


def _c15_structural_invariants():
    rng = np.random.default_rng(_SEED + 15)
    worst_asym, worst_eig = 0.0, 0.0
    for i in range(10):
        q = int(rng.integers(1, 4))
        spec = random_regressor(rng, q)
        start = float(rng.uniform(0.0, 10.0))
        window = float(rng.uniform(0.5, 8.0))
        rep = excitation_report(spec, start, window, window / 64)
        worst_asym = max(worst_asym, float(np.max(np.abs(rep.gram - rep.gram.T))))
        worst_eig = min(worst_eig, rep.min_eigenvalue)
        if worst_asym > 1e-9 or worst_eig < -1e-9:
            return False, f"gram asymmetry {worst_asym:.2e} / min eig {worst_eig:.2e}"

        theta = rng.uniform(-2.0, 2.0, size=q)
        traj = simulate(EstimationProblem(spec, theta),
                        EstimatorConfig(variant=Variant.GE, tau=1.0),
                        SimSettings(t_end=1.0, record_every=int(rng.integers(1, 20))))
        n = len(traj)
        aligned = (traj.estimates.shape == (n, q) and traj.err_norms.shape == (n,)
                   and traj.manifold_residuals.shape == (n,)
                   and traj.storage_values.shape == (n,)
                   and bool(np.all(np.diff(traj.times) > 0)))
        if not aligned:
            return False, f"trajectory misaligned for sample {i}"
    return True, (f"10 random specs: gram asymmetry <= {worst_asym:.2e}, min eig >= "
                  f"{worst_eig:.2e}, trajectories aligned")


CRITERIA = (
    (1, "modified-gain formula fidelity (direct and filtered)", _c1_gain_fidelity),
    (2, "gradient estimator error norm is non-increasing", _c2_ge_monotone),
    (3, "scalar closed-form error solution", _c3_scalar_closed_form),
    (4, "estimate/error dynamics are dual", _c4_duality),
    (5, "memory filter: closed form, symmetry, PSD", _c5_filter),
    (6, "example1 reproduction (modified gain converges)", _c6_example1),
    (7, "example3 reproduction (MGE no slower than GE)", _c7_example3),
    (8, "examples 4-5 reproduction (filtered modified gain wins)", _c8_examples45),
    (9, "example6 reproduction (MGE_MRE no slower than all)", _c9_example6),
    (10, "DREM per-coordinate monotonicity", _c10_drem_monotone),
    (11, "RK4 global order check", _c11_rk4_order),
    (12, "excitation diagnostics closed forms", _c12_excitation),
    (13, "determinism and CSV round-trip", _c13_roundtrip),
    # aggregate invariant sweeps (not release criteria, still gating)
    (14, "equilibrium fixed points across variants", _c14_equilibria),
    (15, "randomized structural invariants", _c15_structural_invariants),
)


def run_criterion(number: int) -> CriterionResult:
    for num, title, fn in CRITERIA:
        if num == number:
            start = time.perf_counter()
            passed, detail = fn()
            return CriterionResult(num, title, passed, detail,
                                   time.perf_counter() - start)
    raise ValueError(f"no criterion numbered {number}")


def format_result(r: CriterionResult) -> str:
    status = "PASS" if r.passed else "FAIL"
    return f"[{status}] {r.number:02d} {r.title}: {r.detail} ({r.seconds:.1f}s)"


def run_all(numbers=None, report=print) -> list[CriterionResult]:
    results = []
    for num, _, _ in CRITERIA:
        if numbers is not None and num not in numbers:
            continue
        r = run_criterion(num)
        results.append(r)
        if report is not None:
            report(format_result(r))
    return results
