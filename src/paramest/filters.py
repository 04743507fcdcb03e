"""First-order memory extension of a linear regression equation.

Multiplying g = w^T theta by the regressor and pushing both sides through the
unit-pole low-pass filter 1/(s+1) yields a square extended system
Omega * theta = G with

    dOmega/dt = -Omega + w w^T        (q x q)
    dG/dt     = -G + w g              (q,)

Omega inherits symmetry from its source and, when started at zero, stays
positive semidefinite because it is a positively weighted integral of rank-1
outer products. The filter pole is fixed at 1; only this filter is supported.

``filter_law`` is the one array form of this derivative (over leading axes)
and ``filter_rhs`` applies it to a ``FilterState``. The filter does not depend
on the estimate, so ``filter_scan`` integrates it apart from the estimator: RK4
on this linear time-invariant system is exactly the affine recurrence
``x_{k+1} = rho x_k + F_k`` (x = [Omega.ravel(), G]), run as a blocked scan
in blocks of ceil(sqrt(m)) of a chunk's m steps, the rule ``sim._scan``
blocks the estimate's step maps by.
"""
from __future__ import annotations

import math
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


def filter_law(omega_ext: np.ndarray, g_ext: np.ndarray, w: np.ndarray, g):
    """(dOmega/dt, dG/dt) = (w w^T - Omega, w g - G) for instantaneous (w, g),
    with Omega ``[..., q, q]``, G and w ``[..., q]`` and g ``[...]``."""
    return (w[..., :, None] * w[..., None, :] - omega_ext,
            w * np.asarray(g)[..., None] - g_ext)


def filter_scan(state: FilterState, w: np.ndarray, g: np.ndarray, dt: float):
    """RK4 steps of the filter from ``state`` over (w, g) sampled on the
    half-step grid of m steps: w ``[2m+1, q]``, g ``[2m+1]``, entry 2k at the
    start of step k and 2k+1 at its midpoint.

    With x = [Omega.ravel(), G] and u = filter_law(0, 0, w, g), the filter is
    dx/dt = u - x, so stage s of step k evaluates the law at
    ``alpha_s x_k + beta_{s,k}`` and the step is ``x_{k+1} = rho x_k + F_k``, rho
    the RK4 polynomial at -dt. Returns the Omega stages ``[4, m, q, q]`` and G
    stages ``[4, m, q]``, views of one buffer with each stage contiguous
    (stage 0 is the state x_k itself), and the state after step m.
    """
    q, m = w.shape[-1], (len(w) - 1) // 2
    width = q * q + q
    u = np.empty((len(w), width))
    u[:, :q * q], u[:, q * q:] = (part.reshape(len(w), -1)
                                  for part in filter_law(0.0, 0.0, w, g))
    u0, uh, u1 = u[:-1:2], u[1::2], u[2::2]
    alpha2 = 1.0 - 0.5 * dt
    alpha3 = 1.0 - 0.5 * dt * alpha2
    alpha4 = 1.0 - dt * alpha3
    rho = 1.0 - dt / 6.0 * (1.0 + 2.0 * (alpha2 + alpha3) + alpha4)

    # stages[s] = alpha_s x_k + beta_{s,k}; the beta go in first, in place
    stages = np.empty((4, m, width))
    beta2, beta3, beta4 = stages[1:]
    np.multiply(0.5 * dt, u0, out=beta2)
    np.subtract(uh, beta2, out=beta3)
    beta3 *= 0.5 * dt
    np.subtract(uh, beta3, out=beta4)
    beta4 *= dt

    # x_{bB+i+1} = rho^(i+1) x_{bB} + sum_{l <= i} rho^(i-l) F_{bB+l} in block b
    block = math.isqrt(m - 1) + 1  # ceil(sqrt(m))
    n_blocks = -(-m // block)
    padded = np.zeros((n_blocks * block, width))
    forcing = padded[:m]
    np.multiply(4.0, uh, out=forcing)
    forcing += u0
    forcing += u1
    forcing -= 2.0 * (beta2 + beta3)
    forcing -= beta4
    forcing *= dt / 6.0
    i = np.arange(block)
    lags = i[:, None] - i[None, :]
    powers = np.where(lags >= 0, rho ** np.maximum(lags, 0), 0.0)
    xs = powers @ padded.reshape(n_blocks, block, width)
    carry = (rho ** (i + 1))[:, None]
    x = np.concatenate([state.omega_ext.ravel(), state.g_ext])
    stages[0, 0] = x
    for b in range(n_blocks):
        xs[b] += carry * x
        x = xs[b, -1]
    xs = xs.reshape(-1, width)
    stages[0, 1:] = xs[:m - 1]
    for s, alpha in ((1, alpha2), (2, alpha3), (3, alpha4)):
        stages[s] += alpha * stages[0]

    x = xs[m - 1].copy()  # not a view: the state outlives the chunk's scan
    end = FilterState(x[:q * q].reshape(q, q), x[q * q:])
    return stages[..., :q * q].reshape(4, m, q, q), stages[..., q * q:], end


def filter_rhs(state: FilterState, omega: np.ndarray, g: float) -> FilterState:
    """Time derivative of the filter state for instantaneous (w, g)."""
    omega = np.asarray(omega, dtype=float)
    q = state.g_ext.shape[0]
    if omega.shape != (q,):
        raise ConfigurationError(f"regressor length {omega.shape} != filter dimension {q}")
    return FilterState(*filter_law(state.omega_ext, state.g_ext, omega, g))
