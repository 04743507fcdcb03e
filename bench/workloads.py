"""The three benchmark workloads: seeded inputs, warm-up, one timed pass, gate.

Each workload is built from ``--seed`` alone, drives paramest only through
its public API, and produces a list of items per pass (one CLI run, one
estimator config, or one scenario sweep). ``check`` runs the correctness gate
on a pass's items after the pass has been timed. Each item records when it
ran and its time without the calibration samples (``calib.py``) taken during
it, from which ``run.py`` derives its time at the reference machine's speed.

* ``reproduce``  -- the paper's six reference cases through ``paramest run``
  (cli.main) at catalog defaults: 11 estimator runs, 620k estimator steps,
  CSV + SVG written per scenario. The seed only permutes the scenario order.
* ``gain-sweep`` -- one ScenarioConfig on example6's problem (q=3) with 24
  seeded estimator configs, integrated by one ``harness.run_scenario`` call
  per pass and nothing exported. All configs share one regressor grid and
  the 14 filtered ones the same filter trajectory, so batched or
  shared-filter integrators show here. The cost of a pass does not depend on
  the seed: the variant mix and horizon are fixed, only gains and initial
  estimates are drawn.
* ``pe-scan``    -- ``excitation_sweep`` over every builtin regressor with
  2*pi windows at a 0.05 s stride (plus a seeded phase in [0, 0.05)); about
  5050 windows. No simulation, so integrator changes must leave it flat.

``min_passes`` is set so that, on a 2-core Xeon at the seed commit, the
minimum pass count already covers the default 15 s: the pass count, and with
it the percentile ``item_s.tail`` lands on, then stays the same from run to
run. For pe-scan, 16 passes put 16 items of the slowest sweep (example6) in
every run and the tail on the sixth fastest of them, not on the second (as
12 passes would), which is much steadier from run to run.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

import oracle
from calib import Calibration
from paramest import catalog, cli, harness, signals
from paramest.sim import SimSettings
from paramest.types import EstimatorConfig, Variant

DT = 1e-3


@dataclass
class Item:
    """One unit of work of a pass and its outcome."""

    label: str
    seconds: float  # without the calibration samples taken meanwhile
    output: object = None
    error: str | None = None
    t0: float = 0.0  # perf_counter at the start and end of the item
    t1: float = 0.0
    scaled: float = 0.0  # seconds at the reference machine's speed


class Workload:
    """Shared part of the workloads: the run's calibration, with the kernel
    (``calib.KERNELS``) that matches the workload's hot path."""

    calib_kernel = "step"

    def __init__(self):
        self.calib = Calibration(self.calib_kernel)

    def _timed(self, label: str, fn, *args) -> Item:
        """Run one item; one that raises is recorded as failed and the pass goes on."""
        spent0, t0 = self.calib.spent_s, time.perf_counter()
        output, error = None, None
        try:
            output = fn(*args)
        except Exception as exc:
            error = f"raised {exc!r}"
        t1 = time.perf_counter()
        return Item(label, t1 - t0 - (self.calib.spent_s - spent0), output=output,
                    error=error, t0=t0, t1=t1)


def n_steps(t_end: float, dt: float = DT) -> int:
    return max(int(round(t_end / dt)), 1)


def _quiet(fn, *args):
    """Call fn with its standard output discarded (the CLI prints a summary)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


# --------------------------------------------------------------------------
# reproduce
# --------------------------------------------------------------------------

def reproduce_order(seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    return [catalog.BUILTIN_NAMES[i] for i in rng.permutation(len(catalog.BUILTIN_NAMES))]


class Reproduce(Workload):
    name = "reproduce"
    min_passes = 1
    work_unit = "est_steps"

    def __init__(self, seed: int, scratch: str):
        super().__init__()
        self.order = reproduce_order(seed)
        self.scratch = scratch
        self.work_per_pass = sum(
            len(catalog.builtin_estimators(name)) * n_steps(catalog.builtin_t_end(name))
            for name in self.order)
        self._reference = None

    def warm_up(self):
        for name in ("example1", "example6"):
            out = os.path.join(self.scratch, "warm-up")
            code = _quiet(cli.main, ["run", "--scenario", name, "--t-end", "1", "--out", out])
            if code != 0:
                raise RuntimeError(f"warm-up run of {name} exited with {code}")

    def run_pass(self, index: int) -> list[Item]:
        self._out = os.path.join(self.scratch, f"pass{index}")
        return [self._timed(name, _quiet, cli.main,
                            ["run", "--scenario", name, "--out", os.path.join(self._out, name)])
                for name in self.order]

    def check(self, items: list[Item]):
        if self._reference is None:
            self._reference = oracle.load_reference()
        for item in items:
            if item.error is None:
                item.error = self._check_run(item.label, item.output,
                                             os.path.join(self._out, item.label))
        shutil.rmtree(self._out, ignore_errors=True)

    def _check_run(self, name: str, code: int, out: str) -> str | None:
        if code != 0:
            return f"paramest run exited with {code}"
        svg = os.path.join(out, name + ".svg")
        if not os.path.isfile(svg) or os.path.getsize(svg) == 0:
            return f"{svg} missing or empty"
        for est in catalog.builtin_estimators(name):
            label = est.resolved_label
            path = harness.csv_path_for(os.path.join(out, name), label)
            error = oracle.check_csv(path, self._reference[f"{name}/{label}/t"],
                                     self._reference[f"{name}/{label}/theta"])
            if error:
                return error
        return None


# --------------------------------------------------------------------------
# gain-sweep
# --------------------------------------------------------------------------

SWEEP_PROBLEM = "example6"
SWEEP_CONFIGS = 24
SWEEP_T_END = 10.0
SWEEP_RECORD_EVERY = 10
SWEEP_VARIANTS = (Variant.GE, Variant.MGE, Variant.MRE, Variant.MGE_MRE, Variant.DREM)
SWEEP_TAU = (0.5, 20.0)
SWEEP_MU = (0.05, 0.95)
SWEEP_THETA0_SD = 2.0
# the gate integrates the first 0.5 s of every config with the reference laws
SWEEP_PREFIX_STEPS = 500


def sweep_configs(seed: int, q: int = 3) -> list[EstimatorConfig]:
    """24 configs cycling the five variants; tau log-uniform, mu uniform,
    theta_hat_0 normal."""
    rng = np.random.default_rng(seed)
    taus = np.exp(rng.uniform(math.log(SWEEP_TAU[0]), math.log(SWEEP_TAU[1]), SWEEP_CONFIGS))
    mus = rng.uniform(SWEEP_MU[0], SWEEP_MU[1], SWEEP_CONFIGS)
    theta0 = rng.normal(0.0, SWEEP_THETA0_SD, (SWEEP_CONFIGS, q))
    configs = []
    for i in range(SWEEP_CONFIGS):
        variant = SWEEP_VARIANTS[i % len(SWEEP_VARIANTS)]
        configs.append(EstimatorConfig(variant=variant, tau=float(taus[i]), mu=float(mus[i]),
                                       theta_hat_0=theta0[i], label=f"c{i:02d}_{variant.value}"))
    return configs


class _SimulateTimer:
    """Times each ``simulate`` call run_scenario makes, to give per-config items.

    Installed at ``paramest.harness.simulate``, the name run_scenario looks up.
    """

    def __init__(self, calib):
        self.spans = []  # (t0, t1, seconds without calibration samples)
        self._calib = calib

    def __enter__(self):
        self._inner = harness.simulate

        def timed(*args, **kwargs):
            spent0, t0 = self._calib.spent_s, time.perf_counter()
            try:
                return self._inner(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.spans.append((t0, t1, t1 - t0 - (self._calib.spent_s - spent0)))

        harness.simulate = timed
        return self

    def __exit__(self, *exc):
        harness.simulate = self._inner


class GainSweep(Workload):
    name = "gain-sweep"
    min_passes = 2
    work_unit = "est_steps"

    def __init__(self, seed: int, scratch: str):
        super().__init__()
        problem = catalog.builtin_problem(SWEEP_PROBLEM)
        self.config = harness.ScenarioConfig(
            name="gain-sweep", problem=problem,
            estimators=sweep_configs(seed, problem.dimension),
            settings=SimSettings(t_end=SWEEP_T_END, dt=DT, record_every=SWEEP_RECORD_EVERY))
        self.work_per_pass = SWEEP_CONFIGS * n_steps(SWEEP_T_END)
        self._prefixes = None

    def warm_up(self):
        short = harness.ScenarioConfig(
            name="warm-up", problem=self.config.problem,
            estimators=self.config.estimators[:len(SWEEP_VARIANTS)],
            settings=SimSettings(t_end=0.1, dt=DT))
        harness.run_scenario(short)

    def run_pass(self, index: int) -> list[Item]:
        labels = [e.resolved_label for e in self.config.estimators]
        with _SimulateTimer(self.calib) as timer:
            call = self._timed("run_scenario", harness.run_scenario, self.config)
        if call.error is not None:  # a raising pass fails all of its items
            return [Item(label, call.seconds / len(labels), error=call.error,
                         t0=call.t0, t1=call.t1) for label in labels]
        if len(timer.spans) == len(labels):
            spans = timer.spans
        else:  # configs integrated jointly: charge each an equal share of the call
            spans = [(call.t0, call.t1, call.seconds / len(labels))] * len(labels)
        runs = {run.label: run for run in call.output.runs}
        return [Item(label, s, output=runs.get(label), t0=t0, t1=t1)
                for label, (t0, t1, s) in zip(labels, spans)]

    def check(self, items: list[Item]):
        if self._prefixes is None:
            theta = self.config.problem.true_params
            self._prefixes = {
                e.resolved_label: oracle.reference_prefix(
                    SWEEP_PROBLEM, theta, e, DT, SWEEP_PREFIX_STEPS, SWEEP_RECORD_EVERY)
                for e in self.config.estimators}
        rows = n_steps(SWEEP_T_END) // SWEEP_RECORD_EVERY + 1
        for item in items:
            if item.error is not None:
                continue
            if item.output is None:
                item.error = "no result for this config"
                continue
            error = oracle.check_trajectory(item.output.trajectory, rows,
                                            self._prefixes[item.label])
            item.error = error and f"{item.label}: {error}"


# --------------------------------------------------------------------------
# pe-scan
# --------------------------------------------------------------------------

PE_WINDOW = 2.0 * math.pi
PE_STRIDE = 0.05


def scan_starts(seed: int) -> dict[str, np.ndarray]:
    """Window starts per builtin: stride 0.05 s from a seeded phase in [0, 0.05),
    up to the scenario horizon minus one window."""
    rng = np.random.default_rng(seed)
    starts = {}
    for name in catalog.BUILTIN_NAMES:
        phase = rng.uniform(0.0, PE_STRIDE)
        last = catalog.builtin_t_end(name) - PE_WINDOW
        count = int(math.floor((last - phase) / PE_STRIDE)) + 1
        starts[name] = phase + PE_STRIDE * np.arange(count)
    return starts


class PeScan(Workload):
    name = "pe-scan"
    min_passes = 16
    work_unit = "windows"
    calib_kernel = "grid"

    def __init__(self, seed: int, scratch: str):
        super().__init__()
        self.starts = scan_starts(seed)
        # the gate's window subsample differs per seed and per pass
        self._gate_rng = np.random.default_rng([seed, 1])
        self.specs = {name: catalog.builtin(name)[0] for name in self.starts}
        self.work_per_pass = sum(len(s) for s in self.starts.values())

    def warm_up(self):
        for name, spec in self.specs.items():
            signals.excitation_sweep(spec, self.starts[name][:1], PE_WINDOW, DT)

    def run_pass(self, index: int) -> list[Item]:
        return [self._timed(name, signals.excitation_sweep, spec, self.starts[name],
                            PE_WINDOW, DT)
                for name, spec in self.specs.items()]

    def check(self, items: list[Item]):
        for item in items:
            if item.error is None:
                item.error = oracle.check_sweep(item.label, self.starts[item.label], item.output,
                                                PE_WINDOW, DT, self._gate_rng)
            item.output = None


WORKLOADS = {w.name: w for w in (Reproduce, GainSweep, PeScan)}
