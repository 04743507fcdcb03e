"""Scenario runner: batch simulation, diagnostics, CSV export, config files.

A scenario bundles one estimation problem with one or more estimator
configurations and shared integration settings. Running it produces, per
estimator, the recorded trajectory, convergence times at the standard
tolerances, and the count of storage increases (the manifold-attractivity
diagnostic the modified-gain variants are expected to keep near zero), plus
a sliding-window excitation summary of the shared regressor.

Scenario files are JSON with the field names of ScenarioConfig plus an
optional one-line ``note``; the six builtins ship as such files in
``paramest/scenarios/``. ``problem`` is either a builtin scenario name or an
inline object with regressor expression strings and true parameters. One
reader (``_scenario_from_doc``) serves both ``load_scenario`` and
``scenario_from_name``: it rejects unknown fields at every level and maps
every bad value to ConfigurationError naming the field.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import catalog
from .errors import ConfigurationError
# bench/workloads.py and bench/tracing.py wrap the simulate bound here
from .sim import SimSettings, convergence_time, simulate, simulate_all  # noqa: F401
from .signals import excitation_sweep, format_float, regressor_from_strings
from .types import EstimationProblem, EstimatorConfig, Trajectory, check_name

CONVERGENCE_TOLERANCES = (0.1, 0.01)
STORAGE_BAND = 1e-10
_PE_WINDOW = 2.0 * math.pi
_PE_STRIDE = 1.0


@dataclass
class OutputPaths:
    """Optional explicit output locations; csv is a per-estimator prefix."""

    csv: str | None = None
    svg: str | None = None


@dataclass
class ScenarioConfig:
    name: str
    problem: EstimationProblem
    estimators: list[EstimatorConfig]
    settings: SimSettings
    outputs: OutputPaths = field(default_factory=OutputPaths)

    def __post_init__(self):
        check_name("name", self.name)
        if not self.estimators:
            raise ConfigurationError(f"scenario {self.name!r} configures no estimators")
        labels = [e.resolved_label for e in self.estimators]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(
                f"estimator labels must be unique within scenario {self.name!r}: {labels}"
            )


@dataclass
class EstimatorRun:
    label: str
    config: EstimatorConfig
    trajectory: Trajectory
    convergence_times: dict[float, float | None]
    storage_violations: int | None
    mu_flagged: bool


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    runs: list[EstimatorRun]
    excitation: list[tuple[float, float]]


def count_storage_violations(traj: Trajectory, band: float = STORAGE_BAND) -> int:
    """Recorded steps on which the storage value grew by more than band."""
    return int(np.sum(np.diff(traj.storage_values) > band))


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Simulate every configured estimator against the shared problem, all in
    one walk over the time chunks (``sim.simulate_all``): each chunk's
    regressor samples and filter runs are shared by every estimator.

    Result blocks keep the configuration order. When estimators fail, the
    error of the first failing one in configuration order is re-raised with
    its label attached, as simulating them one after another would raise it.
    """
    try:
        trajectories = simulate_all(config.problem, config.estimators, config.settings)
    except Exception as exc:
        label = config.estimators[exc.config_index].resolved_label
        exc.args = (f"[{config.name}/{label}] {exc}",) + exc.args[1:]
        raise
    runs = []
    for est, traj in zip(config.estimators, trajectories):
        cts = {tol: convergence_time(traj, tol) for tol in CONVERGENCE_TOLERANCES}
        has_manifold = est.variant.uses_manifold_gain and traj.dimension > 1
        violations = count_storage_violations(traj) if has_manifold else None
        runs.append(EstimatorRun(
            label=est.resolved_label, config=est, trajectory=traj,
            convergence_times=cts, storage_violations=violations,
            mu_flagged=est.mu_flag(),
        ))

    window = min(_PE_WINDOW, config.settings.t_end)
    last_start = max(config.settings.t_end - window, 0.0)
    starts = np.arange(0.0, last_start + 1e-9, _PE_STRIDE)
    dt = min(config.settings.dt, window / 10.0)
    excitation = excitation_sweep(config.problem.regressor, starts, window, dt)

    return ScenarioResult(config=config, runs=runs, excitation=excitation)


# --------------------------------------------------------------------------
# CSV export
# --------------------------------------------------------------------------

def csv_path_for(base: str, label: str) -> str:
    return f"{base}_{label}.csv"


def export_csv(result: ScenarioResult, base: str) -> list[str]:
    """Write one CSV per estimator next to the base path (suffix _<label>.csv).

    Columns: t, theta_hat_1..theta_hat_q, err_norm, manifold_residual,
    storage. Values use shortest round-trip formatting and newline-terminated
    rows, so repeated exports of the same result are byte-identical.
    """
    parent = os.path.dirname(base)
    if parent:
        os.makedirs(parent, exist_ok=True)
    paths = []
    for run in result.runs:
        path = csv_path_for(base, run.label)
        try:
            _write_trajectory_csv(run.trajectory, path)
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc
        paths.append(path)
    return paths


def _csv_header(q: int) -> str:
    cols = ["t"] + [f"theta_hat_{i + 1}" for i in range(q)]
    cols += ["err_norm", "manifold_residual", "storage"]
    return ",".join(cols)


def _write_trajectory_csv(traj: Trajectory, path: str):
    rows = np.column_stack([traj.times, traj.estimates, traj.err_norms,
                            traj.manifold_residuals, traj.storage_values]).tolist()
    lines = [_csv_header(traj.dimension)]
    lines += [",".join(map(format_float, row)) for row in rows]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trajectory_csv(path: str) -> Trajectory:
    """Parse a file written by export_csv back into a Trajectory. A file of
    another schema, a row of another length or a non-numeric cell raises
    ConfigurationError, naming the file and, for a row, its line."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [(number, line.strip().split(",")) for number, line in enumerate(fh, 2)
                if line.strip()]
    q = len(header) - 4
    if q < 1 or header != _csv_header(q).split(","):
        raise ConfigurationError(f"{path} does not have the trajectory CSV schema")
    data = np.empty((len(rows), len(header)))
    for j, (number, cells) in enumerate(rows):
        try:  # a non-numeric cell, or a row whose length is not the header's
            data[j] = [float(c) for c in cells]
        except ValueError as exc:
            raise ConfigurationError(f"{path} line {number}: {exc}") from None
    return Trajectory(
        times=data[:, 0],
        estimates=data[:, 1:1 + q],
        err_norms=data[:, 1 + q],
        manifold_residuals=data[:, 2 + q],
        storage_values=data[:, 3 + q],
    )


# --------------------------------------------------------------------------
# Scenario construction: builtins and JSON files
# --------------------------------------------------------------------------

_FIELDS = {
    "top-level": {"name", "note", "problem", "estimators", "settings", "outputs"},
    "problem": {"regressor", "true_params"},
    "estimator": {"variant", "tau", "mu", "theta_hat_0", "filter_init", "label"},
    "settings": {"t_end", "dt", "record_every"},
    "outputs": {"csv", "svg"},
}


def scenario_from_name(name: str, dt: float | None = None,
                       t_end: float | None = None) -> ScenarioConfig:
    """Default scenario for a builtin problem: its shipped scenario file."""
    return _scenario_from_doc(catalog.document(name), name, dt, t_end)


def load_scenario(path: str, dt: float | None = None,
                  t_end: float | None = None) -> ScenarioConfig:
    """Load a scenario config file (JSON), with optional dt/t_end overrides."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read scenario file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"invalid JSON in {path}: {exc}") from exc
    return _scenario_from_doc(doc, path, dt, t_end)


def _scenario_from_doc(doc, source: str, dt, t_end) -> ScenarioConfig:
    """Read one scenario document; source (a file path or builtin name) names
    it in messages, and its stem is the default scenario name."""
    doc = _fields("top-level", doc)
    if isinstance(doc.get("problem"), str):
        # a builtin reference: the builtin's problem, plus its estimators and
        # settings wherever this document leaves them out
        base = catalog.document(doc["problem"])
        doc = {**doc, "problem": base["problem"],
               "settings": {**base["settings"], **_fields("settings", doc.get("settings"))}}
        if doc.get("estimators") is None:
            doc["estimators"] = base["estimators"]
    if not isinstance(doc.get("note", ""), str):
        raise ConfigurationError(f"note must be a string, got {doc['note']!r}")

    problem = _fields("problem", doc.get("problem"))
    try:
        spec = regressor_from_strings(problem["regressor"])
        theta = _vector("true_params", problem["true_params"])
    except KeyError as exc:
        raise ConfigurationError(f"problem object missing field {exc}") from None

    est_nodes = doc.get("estimators")
    if est_nodes is not None and not isinstance(est_nodes, list):
        raise ConfigurationError(f"estimators must be a list, got {est_nodes!r}")
    estimators = [_estimator_from_json(n) for n in (est_nodes or [])]

    st = _fields("settings", doc.get("settings"))
    if t_end is None:
        t_end = st.get("t_end")
    if t_end is None:
        raise ConfigurationError(f"{source}: settings.t_end is required for inline problems")
    settings = SimSettings(t_end=t_end, dt=dt if dt is not None else st.get("dt", 1e-3),
                           record_every=st.get("record_every", 10))

    out = _fields("outputs", doc.get("outputs"))
    for key, value in out.items():
        if value is not None and not isinstance(value, str):
            raise ConfigurationError(f"outputs.{key} must be a string, got {value!r}")
    name = doc.get("name")
    if name is None:
        name = os.path.splitext(os.path.basename(source))[0]
    return ScenarioConfig(name=name, problem=EstimationProblem(regressor=spec, true_params=theta),
                          estimators=estimators, settings=settings, outputs=OutputPaths(**out))


def _fields(kind: str, node) -> dict:
    """node as a dict holding only the known fields of kind; None reads as {}."""
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigurationError(f"{kind} must be an object, got {node!r}")
    unknown = set(node) - _FIELDS[kind]
    if unknown:
        raise ConfigurationError(f"unknown {kind} fields: {sorted(unknown)}")
    return node


def _number(field: str, value) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigurationError(f"{field} must be a number, got {value!r}")


def _vector(field: str, value) -> np.ndarray:
    if not isinstance(value, list):
        raise ConfigurationError(f"{field} must be a list of numbers, got {value!r}")
    return np.array([_number(f"{field}[{i}]", v) for i, v in enumerate(value)])


def _estimator_from_json(node) -> EstimatorConfig:
    node = _fields("estimator", node)
    if "variant" not in node:
        raise ConfigurationError("each estimator entry needs at least a variant")
    theta0 = node.get("theta_hat_0")
    return EstimatorConfig(
        variant=node["variant"],
        tau=_number("tau", node.get("tau", 1.0)),
        mu=_number("mu", node.get("mu", 0.0)),
        theta_hat_0=None if theta0 is None else _vector("theta_hat_0", theta0),
        filter_init=_number("filter_init", node.get("filter_init", 0.0)),
        label=node.get("label"),
    )
