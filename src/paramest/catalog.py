"""Builtin benchmark scenarios.

Six named problems spanning persistently exciting, decaying, and mixed
regressors, each with the learning rate and manifold slope used in the
reference runs. Each builtin is one scenario file shipped as package data in
``scenarios/<name>.json``, with the schema of ``harness.load_scenario`` plus
a one-line ``note``; ``document`` returns the parsed file and
``harness.scenario_from_name`` reads it into a full scenario configuration.
The accessors below are fields of that configuration: ``builtin`` returns the
(regressor, theta, tau, mu) tuple, with tau and mu from the first estimator
(all estimators of a builtin share them).
"""
from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .errors import ScenarioNotFoundError
from .signals import RegressorSpec
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


def _scenario(name: str):
    # harness imports this module, so its reader is imported on use
    from .harness import scenario_from_name
    return scenario_from_name(name)


def builtin(name: str) -> tuple[RegressorSpec, np.ndarray, float, float]:
    """Regressor, true parameters, and default (tau, mu) for a builtin name."""
    config = _scenario(name)
    first = config.estimators[0]
    return config.problem.regressor, config.problem.true_params, first.tau, first.mu


def builtin_problem(name: str) -> EstimationProblem:
    return _scenario(name).problem


def builtin_estimators(name: str) -> list[EstimatorConfig]:
    """Default estimator line-up for a builtin scenario (reference gains)."""
    return _scenario(name).estimators


def builtin_t_end(name: str) -> float:
    return _scenario(name).settings.t_end


def describe(name: str) -> str:
    doc = document(name)
    problem, first = doc["problem"], doc["estimators"][0]
    comps = ", ".join(problem["regressor"])
    variants = "+".join(entry["variant"] for entry in doc["estimators"])
    return (f"{name}: w=({comps}), theta={problem['true_params']}, "
            f"tau={first['tau']:g}, mu={first['mu']:g}, estimators={variants} -- {doc['note']}")
