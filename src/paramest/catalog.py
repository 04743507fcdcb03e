"""Builtin benchmark scenarios.

Six named problems spanning persistently exciting, decaying, and mixed
regressors, each with the learning rate and manifold slope used in the
reference runs. Each builtin is one scenario file shipped as package data in
``scenarios/<name>.json``, with the schema of ``harness.load_scenario`` plus
a one-line ``note``; ``document`` returns the parsed file and
``harness.scenario_from_name`` reads it into a full scenario configuration.
The accessors below read the same document: ``builtin`` returns the raw
(regressor, theta, tau, mu) tuple, with tau and mu from the first estimator
entry (all entries of a builtin share them).
"""
from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .errors import ScenarioNotFoundError
from .signals import RegressorSpec, regressor_from_strings
from .types import EstimationProblem, EstimatorConfig

_SCENARIOS = resources.files(__package__).joinpath("scenarios")

BUILTIN_NAMES = tuple(sorted(entry.name[:-len(".json")] for entry in _SCENARIOS.iterdir()
                             if entry.name.endswith(".json")))


def document(name: str) -> dict:
    """The parsed scenario file of a builtin name."""
    if name not in BUILTIN_NAMES:
        raise ScenarioNotFoundError(
            f"unknown scenario {name!r}; builtins are {', '.join(BUILTIN_NAMES)}"
        )
    return json.loads(_SCENARIOS.joinpath(f"{name}.json").read_text())


def builtin(name: str) -> tuple[RegressorSpec, np.ndarray, float, float]:
    """Regressor, true parameters, and default (tau, mu) for a builtin name."""
    doc = document(name)
    spec = regressor_from_strings(doc["problem"]["regressor"])
    # builtin expressions are validated up front: finite on a broad time grid
    spec.sample(np.linspace(0.0, 200.0, 501))
    first = doc["estimators"][0]
    return spec, np.array(doc["problem"]["true_params"], dtype=float), first["tau"], first["mu"]


def builtin_problem(name: str) -> EstimationProblem:
    spec, theta, _, _ = builtin(name)
    return EstimationProblem(regressor=spec, true_params=theta)


def builtin_estimators(name: str) -> list[EstimatorConfig]:
    """Default estimator line-up for a builtin scenario (reference gains)."""
    return [EstimatorConfig(**entry) for entry in document(name)["estimators"]]


def builtin_t_end(name: str) -> float:
    return document(name)["settings"]["t_end"]


def describe(name: str) -> str:
    doc = document(name)
    problem, first = doc["problem"], doc["estimators"][0]
    comps = ", ".join(problem["regressor"])
    variants = "+".join(entry["variant"] for entry in doc["estimators"])
    return (f"{name}: w=({comps}), theta={problem['true_params']}, "
            f"tau={first['tau']:g}, mu={first['mu']:g}, estimators={variants} -- {doc['note']}")
