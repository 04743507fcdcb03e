"""First-order memory extension of a linear regression equation.

Multiplying g = w^T theta by the regressor and pushing both sides through the
unit-pole low-pass filter 1/(s+1) yields a square extended system
Omega * theta = G with

    dOmega/dt = -Omega + w w^T        (q x q)
    dG/dt     = -G + w g              (q,)

Omega inherits symmetry from its source and, when started at zero, stays
positive semidefinite because it is a positively weighted integral of rank-1
outer products. The filter pole is fixed at 1; only this filter is supported.

``filter_law`` is the one array form of this derivative (over leading axes);
``sim.simulate`` integrates it and ``filter_rhs`` applies it to a ``FilterState``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass
class FilterState:
    """Extended regressor matrix and extended output vector."""

    omega_ext: np.ndarray  # (q, q)
    g_ext: np.ndarray      # (q,)

    def __post_init__(self):
        self.omega_ext = np.asarray(self.omega_ext, dtype=float)
        self.g_ext = np.asarray(self.g_ext, dtype=float)
        q = self.g_ext.shape[0]
        if self.omega_ext.shape != (q, q):
            raise ConfigurationError(
                f"filter state shapes disagree: {self.omega_ext.shape} vs ({q},)"
            )

    @classmethod
    def uniform(cls, q: int, value: float = 0.0) -> "FilterState":
        """All entries set to one scalar; zero is the default startup state."""
        return cls(np.full((q, q), float(value)), np.full(q, float(value)))

    def copy(self) -> "FilterState":
        return FilterState(self.omega_ext.copy(), self.g_ext.copy())


def filter_law(omega_ext: np.ndarray, g_ext: np.ndarray, w: np.ndarray, g):
    """(dOmega/dt, dG/dt) = (w w^T - Omega, w g - G) for instantaneous (w, g),
    with Omega ``[..., q, q]``, G and w ``[..., q]`` and g ``[...]``."""
    return (w[..., :, None] * w[..., None, :] - omega_ext,
            w * np.asarray(g)[..., None] - g_ext)


def filter_rhs(state: FilterState, omega: np.ndarray, g: float) -> FilterState:
    """Time derivative of the filter state for instantaneous (w, g)."""
    omega = np.asarray(omega, dtype=float)
    q = state.g_ext.shape[0]
    if omega.shape != (q,):
        raise ConfigurationError(f"regressor length {omega.shape} != filter dimension {q}")
    return FilterState(*filter_law(state.omega_ext, state.g_ext, omega, g))
