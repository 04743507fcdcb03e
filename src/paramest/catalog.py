"""Builtin benchmark scenarios.

Six named problems spanning persistently exciting, decaying, and mixed
regressors, each with the learning rate and manifold slope used in the
reference runs. ``builtin`` returns the raw (regressor, theta, tau, mu)
tuple; ``harness.scenario_from_name`` wraps it in a full scenario
configuration with the default estimator line-up and integration settings for
that case.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScenarioNotFoundError
from .signals import RegressorSpec, regressor_from_strings
from .types import EstimationProblem, EstimatorConfig, Variant

# the decaying two-tone component shared by examples 2, 4 and 6
_DECAYING = "(sin(t)+cos(t))/pow(1+t,0.5) - sin(t)/(2*pow(1+t,1.5))"


@dataclass(frozen=True)
class _Entry:
    expressions: tuple[str, ...]
    theta: tuple[float, ...]
    tau: float
    mu: float
    variants: tuple[Variant, ...]
    t_end: float
    note: str


_CATALOG: dict[str, _Entry] = {
    "example1": _Entry(
        expressions=("1", "sin(t)"),
        theta=(-2.0, 2.0), tau=1.0, mu=0.95,
        variants=(Variant.MGE,), t_end=30.0,
        note="persistently exciting (1, sin t); modified-gain estimator",
    ),
    "example2": _Entry(
        expressions=("1", _DECAYING),
        theta=(-2.0, 2.0), tau=1.0, mu=0.95,
        variants=(Variant.MGE,), t_end=30.0,
        note="decaying second component (not PE); modified-gain estimator",
    ),
    "example3": _Entry(
        expressions=("sin(t)", "cos(t)", "sin(2*t)"),
        theta=(1.0, 2.0, 3.0), tau=1.0, mu=0.55,
        variants=(Variant.GE, Variant.MGE), t_end=50.0,
        note="persistently exciting three-tone; gradient vs modified gain",
    ),
    "example4": _Entry(
        expressions=("1", _DECAYING),
        theta=(-2.0, 2.0), tau=1.0, mu=0.75,
        variants=(Variant.MRE, Variant.MGE_MRE), t_end=30.0,
        note="not PE; filtered estimator vs filtered + modified gain",
    ),
    "example5": _Entry(
        expressions=("1", "exp(-0.25*t)"),
        theta=(-2.0, 2.0), tau=50.0, mu=0.75,
        variants=(Variant.MRE, Variant.MGE_MRE), t_end=100.0,
        note="exponentially decaying component (not PE); high learning rate",
    ),
    "example6": _Entry(
        expressions=("1", "cos(t)", _DECAYING),
        theta=(1.0, 2.0, 3.0), tau=10.0, mu=0.95,
        variants=(Variant.GE, Variant.MRE, Variant.DREM, Variant.MGE_MRE), t_end=50.0,
        note="mixed three-component regressor; four-way comparison",
    ),
}

BUILTIN_NAMES = tuple(_CATALOG)


def _lookup(name: str) -> _Entry:
    try:
        return _CATALOG[name]
    except KeyError:
        raise ScenarioNotFoundError(
            f"unknown scenario {name!r}; builtins are {', '.join(BUILTIN_NAMES)}"
        ) from None


def builtin(name: str) -> tuple[RegressorSpec, np.ndarray, float, float]:
    """Regressor, true parameters, and default (tau, mu) for a builtin name."""
    entry = _lookup(name)
    spec = regressor_from_strings(entry.expressions)
    # builtin expressions are validated up front: finite on a broad time grid
    spec.sample(np.linspace(0.0, 200.0, 501))
    return spec, np.array(entry.theta), entry.tau, entry.mu


def builtin_problem(name: str) -> EstimationProblem:
    spec, theta, _, _ = builtin(name)
    return EstimationProblem(regressor=spec, true_params=theta)


def builtin_estimators(name: str) -> list[EstimatorConfig]:
    """Default estimator line-up for a builtin scenario (reference gains)."""
    entry = _lookup(name)
    return [EstimatorConfig(variant=v, tau=entry.tau, mu=entry.mu)
            for v in entry.variants]


def builtin_t_end(name: str) -> float:
    return _lookup(name).t_end


def describe(name: str) -> str:
    entry = _lookup(name)
    comps = ", ".join(entry.expressions)
    variants = "+".join(v.value for v in entry.variants)
    return (f"{name}: w=({comps}), theta={list(entry.theta)}, "
            f"tau={entry.tau:g}, mu={entry.mu:g}, estimators={variants} -- {entry.note}")
