"""Core domain types: estimation problems, estimator configuration and state,
and recorded trajectories.

The measurable pair is (w(t), g(t)) with g = w(t)^T theta for an unknown
constant parameter vector theta. An estimator maintains theta_hat and, for
the filtered variants, the extended pair (Omega, G).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigurationError
from .filters import FilterState
from .signals import RegressorSpec


class Variant(str, Enum):
    """Estimator update laws supported by the simulator."""

    GE = "GE"            # gradient estimator
    MGE = "MGE"          # gradient estimator with modified last-row gain
    MRE = "MRE"          # gradient on the filtered (memory-extended) system
    MGE_MRE = "MGE_MRE"  # modified last-row gain on the filtered system
    DREM = "DREM"        # determinant-mixed filtered system, per-coordinate

    @property
    def uses_filter(self) -> bool:
        return self in (Variant.MRE, Variant.MGE_MRE, Variant.DREM)

    @property
    def uses_manifold_gain(self) -> bool:
        return self in (Variant.MGE, Variant.MGE_MRE)


def check_name(field: str, value) -> None:
    """Reject a scenario name or estimator label unfit for an output file name:
    each must be a non-empty string with no path separator, and not ``..``."""
    if not isinstance(value, str) or value in ("", "..") or any(c in value for c in "/\\\0"):
        raise ConfigurationError(
            f"{field} must be a non-empty string with no path separator and not '..', "
            f"got {value!r}")


@dataclass(frozen=True)
class EstimationProblem:
    """A regressor plus the true parameters it multiplies."""

    regressor: RegressorSpec
    true_params: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.true_params, dtype=float)
        object.__setattr__(self, "true_params", theta)
        if theta.ndim != 1 or theta.shape[0] != self.regressor.dimension:
            raise ConfigurationError(
                f"true_params length {theta.shape} does not match regressor "
                f"dimension {self.regressor.dimension}"
            )
        if not np.all(np.isfinite(theta)):
            raise ConfigurationError("true_params must be finite")

    @property
    def dimension(self) -> int:
        return self.regressor.dimension


@dataclass(frozen=True)
class EstimatorConfig:
    """Variant choice plus gains and initial conditions.

    tau is the scalar learning rate (applied as tau * identity); mu is the
    manifold slope used by the modified-gain variants and ignored elsewhere.
    theta_hat_0 defaults to the zero vector. filter_init seeds every entry of
    the filter state for the filtered variants.
    """

    variant: Variant
    tau: float
    mu: float = 0.0
    theta_hat_0: np.ndarray | None = None
    filter_init: float = 0.0
    label: str | None = None

    def __post_init__(self):
        try:
            object.__setattr__(self, "variant", Variant(self.variant))
        except ValueError:
            names = ", ".join(v.value for v in Variant)
            raise ConfigurationError(
                f"variant must be one of {names}, got {self.variant!r}") from None
        if not (0 < self.tau < np.inf):
            raise ConfigurationError(f"tau must be positive and finite, got {self.tau}")
        if self.variant.uses_manifold_gain and not np.isfinite(self.mu):
            raise ConfigurationError("mu must be finite for the modified-gain variants")
        if self.variant.uses_filter and not np.isfinite(self.filter_init):
            raise ConfigurationError(
                f"filter_init must be finite for the filtered variants, got {self.filter_init}")
        if self.theta_hat_0 is not None:
            th0 = np.asarray(self.theta_hat_0, dtype=float)
            object.__setattr__(self, "theta_hat_0", th0)
            if th0.ndim != 1 or not np.all(np.isfinite(th0)):
                raise ConfigurationError("theta_hat_0 must be a finite vector")
        if self.label is not None:
            check_name("label", self.label)

    @property
    def resolved_label(self) -> str:
        return self.label if self.label is not None else self.variant.value

    def mu_flag(self) -> bool:
        """True when the manifold slope sits outside the (0, 1) band the
        builtin scenarios use; reported as a diagnostic, never an error."""
        return self.variant.uses_manifold_gain and not (0.0 < self.mu < 1.0)

    def initial_state(self, q: int) -> "EstimatorState":
        th0 = np.zeros(q) if self.theta_hat_0 is None else self.theta_hat_0
        if th0.shape[0] != q:
            raise ConfigurationError(
                f"theta_hat_0 length {th0.shape[0]} does not match dimension {q}"
            )
        filt = FilterState.uniform(q, self.filter_init) if self.variant.uses_filter else None
        return EstimatorState(theta_hat=th0.copy(), filter=filt)


@dataclass
class EstimatorState:
    """Mutable per-run state: the estimate and, when present, the filter."""

    theta_hat: np.ndarray
    filter: FilterState | None = None

    def __post_init__(self):
        self.theta_hat = np.asarray(self.theta_hat, dtype=float)


@dataclass
class Trajectory:
    """Recorded time series of one simulation run.

    All arrays share the leading length; manifold_residuals and
    storage_values are NaN for one-dimensional problems where the manifold
    is undefined.
    """

    times: np.ndarray                # (n,)
    estimates: np.ndarray            # (n, q)
    err_norms: np.ndarray            # (n,)
    manifold_residuals: np.ndarray   # (n,)
    storage_values: np.ndarray       # (n,)

    def __post_init__(self):
        n = self.times.shape[0]
        for name in ("estimates", "err_norms", "manifold_residuals", "storage_values"):
            arr = getattr(self, name)
            if arr.shape[0] != n:
                raise ConfigurationError(f"trajectory field {name} length mismatch")
        if n > 1 and not np.all(np.diff(self.times) > 0):
            raise ConfigurationError("trajectory times must be strictly increasing")

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def dimension(self) -> int:
        return self.estimates.shape[1]
