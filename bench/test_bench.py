"""Fast self-tests of the benchmark: input generators, correctness gate,
metric names, the RK4 stability margin of the gain-sweep draws, and the
host-speed calibration.

Run with:  PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""
import json
import math
import os
import re
import signal
import time
from types import SimpleNamespace

import numpy as np

import calib
import oracle
import run
import workloads
from paramest import catalog, harness
from paramest.estimators import mge_gain
from paramest.signals import excitation_report
from paramest.sim import SimSettings, simulate
from paramest.types import EstimatorConfig, Trajectory, Variant

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (run.DEFAULT_SEED, run.HELD_OUT_SEED, 2)


def _config_tuple(c):
    return (c.variant, c.tau, c.mu, c.theta_hat_0.tolist(), c.label)


def test_generators_are_deterministic_per_seed():
    for seed in SEEDS:
        assert workloads.reproduce_order(seed) == workloads.reproduce_order(seed)
        assert sorted(workloads.reproduce_order(seed)) == sorted(catalog.BUILTIN_NAMES)
        assert ([_config_tuple(c) for c in workloads.sweep_configs(seed)]
                == [_config_tuple(c) for c in workloads.sweep_configs(seed)])
        a, b = workloads.scan_starts(seed), workloads.scan_starts(seed)
        assert all(np.array_equal(a[name], b[name]) for name in catalog.BUILTIN_NAMES)
    taus = {tuple(c.tau for c in workloads.sweep_configs(s)) for s in SEEDS}
    phases = {workloads.scan_starts(s)["example1"][0] for s in SEEDS}
    assert len(taus) == len(SEEDS) and len(phases) == len(SEEDS)


def test_sweep_cost_does_not_depend_on_the_seed():
    for seed in SEEDS:
        configs = workloads.sweep_configs(seed)
        assert len(configs) == 24
        assert [c.variant for c in configs] == [
            workloads.SWEEP_VARIANTS[i % 5] for i in range(24)]
        assert sum(c.variant.uses_filter for c in configs) == 14
        assert all(c.filter_init == 0.0 for c in configs)
        n = sum(len(s) for s in workloads.scan_starts(seed).values())
        assert 5030 <= n <= 5060


def test_sweep_draws_keep_rk4_stability_margin():
    # tau * max|w|^2 * dt, and the modified gain's |k||w| * dt, stay a tenth
    # of the RK4 real-axis stability limit (about 2.78) for every draw
    margin = 2.78 / 10
    ts = np.linspace(0.0, workloads.SWEEP_T_END, 20001)
    w = oracle.regressor_values(workloads.SWEEP_PROBLEM, ts)
    w2 = float(np.max(np.sum(w * w, axis=1)))
    tau_max = workloads.SWEEP_TAU[1]
    assert tau_max * w2 * workloads.DT < margin
    for mu in workloads.SWEEP_MU:
        gain = max(float(np.linalg.norm(mge_gain(row, tau_max, mu)) * np.linalg.norm(row))
                   for row in w[::50])
        assert gain * workloads.DT < margin
    for seed in range(200):
        assert all(c.tau <= tau_max and workloads.SWEEP_MU[0] <= c.mu <= workloads.SWEEP_MU[1]
                   for c in workloads.sweep_configs(seed))


def _write_csv(tmp_path, times, theta):
    zeros = np.zeros(len(times))
    traj = Trajectory(times=times, estimates=theta, err_norms=zeros,
                      manifold_residuals=zeros, storage_values=zeros)
    result = SimpleNamespace(runs=[SimpleNamespace(label="MGE", trajectory=traj)])
    [path] = harness.export_csv(result, str(tmp_path / "example1"))
    return path


def test_reproduce_gate_catches_a_theta_perturbation(tmp_path):
    ref = oracle.load_reference()
    t, theta = ref["example1/MGE/t"], ref["example1/MGE/theta"]
    assert oracle.check_csv(_write_csv(tmp_path, t, theta.copy()), t, theta) is None
    bad = theta.copy()
    bad[1234, 1] += 1e-6
    assert "theta_hat" in oracle.check_csv(_write_csv(tmp_path, t, bad), t, theta)


def test_pe_gate_catches_a_rho_perturbation():
    T, dt = workloads.PE_WINDOW, workloads.DT
    starts = workloads.scan_starts(5)
    closed = [(float(s), math.pi) for s in starts["example1"]]
    assert oracle.check_sweep("example1", starts["example1"], closed, T, dt, None) is None
    closed[100] = (closed[100][0], math.pi + 1e-6)
    assert "rho" in oracle.check_sweep("example1", starts["example1"], closed, T, dt, None)

    name = "example5"
    spec = catalog.builtin(name)[0]
    idx = oracle.sampled_windows(np.random.default_rng(0), len(starts[name]))
    table = [(float(s), 0.0) for s in starts[name]]
    for i in idx:
        table[i] = (table[i][0], excitation_report(spec, starts[name][i], T, dt).min_eigenvalue)
    assert oracle.check_sweep(name, starts[name], table, T, dt,
                              np.random.default_rng(0)) is None
    table[idx[-1]] = (table[idx[-1]][0], table[idx[-1]][1] + 1e-6)
    assert "rho" in oracle.check_sweep(name, starts[name], table, T, dt,
                                       np.random.default_rng(0))


def test_reference_integrator_matches_simulate_on_every_variant():
    problem = catalog.builtin_problem("example6")
    settings = SimSettings(t_end=0.1, dt=1e-3)
    for variant in Variant:
        config = EstimatorConfig(variant=variant, tau=5.0, mu=0.5,
                                 theta_hat_0=np.array([0.5, -1.0, 2.0]))
        traj = simulate(problem, config, settings)
        prefix = oracle.reference_prefix("example6", problem.true_params, config,
                                         1e-3, 100, 10)
        assert oracle.check_trajectory(traj, 11, prefix) is None, variant


def test_metric_names_match_the_declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    for group, emitted in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in declared[group]] == list(emitted.items())
        assert all(pattern.fullmatch(name) for name in emitted)
    assert {w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(48))) == (37, "p79 of 48")
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3")


def test_calibration_cancels_a_host_slowdown():
    cal = calib.Calibration("step")
    ref = calib.REFERENCE_UNIT_S["step"]
    cal.times = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0]
    cal.samples = [ref] * 4 + [2.0 * ref] * 4
    assert cal.factor(0.2, 2.8) == 1.0
    assert cal.factor(10.5, 12.5) == 0.5  # an item timed at half speed is scaled back
    assert cal.factor(30.0, 31.0) == 0.5  # too few samples near it: the nearest four


def test_calibration_samples_while_running_and_stops():
    cal = calib.Calibration("grid")
    handler = signal.getsignal(signal.SIGALRM)
    cal.start()
    try:
        t_end = time.perf_counter() + 4 * calib.INTERVAL_S
        while time.perf_counter() < t_end:
            sum(range(1000))
    finally:
        cal.stop()
    assert len(cal.samples) >= 2 and cal.spent_s >= sum(cal.samples)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
