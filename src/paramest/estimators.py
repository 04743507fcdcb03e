"""The five estimator update laws, each written once.

All updates share the structure "gain times scalar prediction error". The
plain gradient estimator uses the gain tau*w on the instantaneous error
g - w^T theta_hat. The modified gradient estimator keeps the first q-1 rows
and replaces the last-row gain with

    k_q = 2 tau w_q + tau (w_2 + ... + w_{q-1}) - (q-1) mu tau w_1,

which drives the parameter error onto the linear manifold
theta_err_2 + ... + theta_err_q = (q-1) mu theta_err_1 while descending the
prediction error. The filtered variants (MRE family) apply the same two gain
patterns to the per-row residuals of the extended system G - Omega theta_hat,
and the DREM baseline mixes the extended system through its determinant so
each coordinate error evolves independently. The DREM equations follow the
standard determinant-mixing construction from the adaptive-estimation
literature (determinant and adjugate of the extended regressor matrix).

``LAWS`` maps each ``Variant`` to its law ``(theta_hat, a, b, tau, mu)``, with
(a, b) = (w, g) for GE/MGE and (Omega, G) for MRE/MGE_MRE/DREM; ``simulate``
integrates these, and the ``*_rhs`` functions apply them to ``EstimatorState``.

The laws, ``mge_gain``, ``det`` and ``adjugate`` take leading batch axes that
broadcast against each other (theta_hat, w, G ``[..., q]``; g ``[...]``; Omega
``[..., q, q]``); each leading index gets exactly its one-state numbers.

Every function here is pure: state in, derivative out.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, UnsupportedDimensionError
from .signals import RegressorSpec
from .types import EstimatorState, Variant


def mge_gain(omega: np.ndarray, tau: float, mu: float) -> np.ndarray:
    """Instantaneous gain vector of the modified gradient estimator.

    Rows 1..q-1 keep the gradient gain tau*w_i; the last row carries the
    manifold-coupled gain. For q = 1 no last-row modification is definable
    and the gradient gain is returned unchanged. ``omega`` is ``[..., q]``.
    """
    omega = np.asarray(omega, dtype=float)
    q = omega.shape[-1]
    if q == 0:
        raise ConfigurationError("regressor dimension must be at least 1")
    k = tau * omega
    if q >= 2:
        # .T puts the component axis first: w[j] is entry j at every leading index
        w = omega.T
        k.T[-1] = 2.0 * tau * w[-1] + tau * np.add.reduce(w[1:-1]) \
            - (q - 1) * mu * tau * w[0]
    return k


# Contractions are matmuls over a trailing unit axis: for one state they round
# exactly as w @ theta_hat and Omega @ theta_hat (np.sum and einsum do not).
# numpy sends a matrix times a vector to BLAS gemv, which rounds each row of
# its matrix alone, so one taller matrix of stacked matrices changes no entry:
# when Omega has one leading axis more than theta_hat, _residual transposes it
# next to the rows (np.moveaxis leaves garbage that raises the memory peak),
# and each point meets the whole stack in one gemv call, not one per matrix.
# One 1 x q row times a vector goes to dot, which need not round as gemv does,
# so _prediction_error is not folded.
# [()] leaves one state's error a numpy scalar, much cheaper than a 0-d array.
def _prediction_error(theta_hat, w, g):  # g - w^T theta_hat: [...]
    return g - (w[..., None, :] @ theta_hat[..., None])[..., 0, 0][()]


def _residual(theta_hat, omega_ext, g_ext):  # G - Omega theta_hat: [..., q]
    k, n, q = theta_hat.ndim, omega_ext.shape[0], omega_ext.shape[-1]
    if omega_ext.ndim != k + 2:
        return g_ext - (omega_ext @ theta_hat[..., None])[..., 0]
    tall = omega_ext.transpose(*range(1, k), 0, k, k + 1)  # axis 0 next to the rows
    out = (tall.reshape(tall.shape[:-3] + (n * q, q)) @ theta_hat[..., None])[..., 0]
    return g_ext - out.reshape(out.shape[:-1] + (n, q)).transpose(k - 1, *range(k - 1), k)


def _ge(theta_hat, w, g, tau, mu):
    return w * (tau * _prediction_error(theta_hat, w, g))[..., None]


def _mge(theta_hat, w, g, tau, mu):
    return mge_gain(w, tau, mu) * _prediction_error(theta_hat, w, g)[..., None]


def _mre(theta_hat, omega_ext, g_ext, tau, mu):
    return tau * _residual(theta_hat, omega_ext, g_ext)


def _mge_mre(theta_hat, omega_ext, g_ext, tau, mu):
    if theta_hat.shape[-1] < 2:
        raise ConfigurationError("modified filtered update needs dimension >= 2")
    return mge_gain(_residual(theta_hat, omega_ext, g_ext), tau, mu)


def _drem(theta_hat, omega_ext, g_ext, tau, mu):
    delta, adj = _det_adjugate(omega_ext)
    return (tau * delta)[..., None] * ((adj @ g_ext[..., None])[..., 0]
                                       - delta[..., None] * theta_hat)


LAWS = {Variant.GE: _ge, Variant.MGE: _mge, Variant.MRE: _mre,
        Variant.MGE_MRE: _mge_mre, Variant.DREM: _drem}


def ge_rhs(state: EstimatorState, omega: np.ndarray, g: float, tau: float) -> np.ndarray:
    """Gradient update: d theta_hat/dt = tau * w * (g - w^T theta_hat)."""
    return _ge(state.theta_hat, np.asarray(omega, dtype=float), g, tau, 0.0)


def mge_rhs(state: EstimatorState, omega: np.ndarray, g: float,
            tau: float, mu: float) -> np.ndarray:
    """Modified gradient update: mge_gain(w) * (g - w^T theta_hat)."""
    return _mge(state.theta_hat, np.asarray(omega, dtype=float), g, tau, mu)


def _filtered(law, state: EstimatorState, tau: float, mu: float) -> np.ndarray:
    if state.filter is None:
        raise ConfigurationError("estimator variant needs a filter state")
    return law(state.theta_hat, state.filter.omega_ext, state.filter.g_ext, tau, mu)


def mre_rhs(state: EstimatorState, tau: float) -> np.ndarray:
    """Filtered-system gradient update: tau * (G - Omega theta_hat)."""
    return _filtered(_mre, state, tau, 0.0)


def mge_mre_rhs(state: EstimatorState, tau: float, mu: float) -> np.ndarray:
    """Modified last-row gain applied to the filtered residuals:
    mge_gain(eps, tau, mu) with eps = G - Omega theta_hat."""
    return _filtered(_mge_mre, state, tau, mu)


def drem_rhs(state: EstimatorState, tau: float) -> np.ndarray:
    """Determinant-mixed update on the extended system.

    Delta = det(Omega), Y = adj(Omega) G; each coordinate evolves as
    tau * Delta * (Y_i - Delta * theta_hat_i). Delta = 0 stalls the update
    (zero derivative) by construction; that is expected startup behavior,
    not an error.
    """
    return _filtered(_drem, state, tau, 0.0)


def manifold_residual(theta_err: np.ndarray, mu: float):
    """Signed distance-like residual of the combined linear manifold:
    sum of theta_err_2..theta_err_q minus (q-1)*mu*theta_err_1, taken over
    the last axis (a scalar for one error vector, one value per row of an
    (n, q) array)."""
    theta_err = np.asarray(theta_err, dtype=float)
    q = theta_err.shape[-1]
    if q < 2:
        raise ConfigurationError("manifold residual needs dimension >= 2")
    return np.sum(theta_err[..., 1:], axis=-1) - (q - 1) * mu * theta_err[..., 0]


def storage(residual):
    """Quadratic storage value of the manifold residual: residual**2 / 2."""
    return 0.5 * residual * residual


def ge_closed_form_scalar(omega: RegressorSpec, tau: float, theta_err_0: float,
                          t: float, dt: float = 1e-3) -> float:
    """Exact scalar-gradient error: theta_err_0 * exp(-tau * int_0^t w(s)^2 ds).

    Only valid for one-dimensional regressors; the matrix-exponential analog
    is not the solution when w(t) w(t)^T fails to commute across time, so
    larger dimensions are rejected outright. The integral uses composite
    trapezoid with the given step.
    """
    if omega.dimension != 1:
        raise UnsupportedDimensionError(
            f"closed-form error solution is scalar-only, got dimension {omega.dimension}"
        )
    if t < 0:
        raise ConfigurationError("time must be nonnegative")
    if t == 0:
        return float(theta_err_0)
    n = max(1, int(round(t / dt)))
    h = t / n
    ts = h * np.arange(n + 1)
    w2 = omega.sample(ts)[:, 0] ** 2
    integral = h * (np.sum(w2) - 0.5 * (w2[0] + w2[-1]))
    return float(theta_err_0 * np.exp(-tau * integral))


# --------------------------------------------------------------------------
# Determinant and adjugate over leading axes in one pass, as DREM needs both:
# closed forms for q <= 3 unpacked by one reshaped transpose (m[..., i, j] costs
# 2-4x); above, the LU determinant and Stewart's SVD form of the adjugate
# ("On the adjugate matrix", LAA 283, 1998), O(q^3) per matrix and exact zeros
# at m = 0. The adjugate is C-contiguous: a matmul rounds a stack as its single
# matrices only so.
# --------------------------------------------------------------------------

def det(m: np.ndarray) -> np.ndarray:
    """Determinant of ``m`` ``[..., q, q]``: ``[...]``, np.float64 for one matrix."""
    return _det_adjugate(m)[0]


def adjugate(m: np.ndarray) -> np.ndarray:
    """Transpose of the cofactor matrix of ``m`` ``[..., q, q]``;
    adj(m) @ m = det(m) * I for every leading index."""
    return _det_adjugate(m)[1]


def _det_adjugate(m: np.ndarray):
    """(det(m), adjugate(m)) of ``m`` ``[..., q, q]``."""
    m = np.asarray(m, dtype=float)
    q = m.shape[-1]
    if q == 1:
        return m[..., 0, 0][()], np.ones_like(m)
    if q == 2:
        a, b, c, d = m.reshape(*m.shape[:-2], 4).T
        delta, adj = a * d - b * c, (d, -b, -c, a)
    elif q == 3:
        a, b, c, d, e, f, g, h, i = m.reshape(*m.shape[:-2], 9).T
        adj = (e * i - f * h, c * h - b * i, b * f - c * e,
               f * g - d * i, a * i - c * g, c * d - a * f,
               d * h - e * g, b * g - a * h, a * e - b * d)
        delta = a * adj[0] - b * (d * i - f * g) + c * adj[6]
    else:
        # adj(m) = det(U) det(Vh) V diag(prod_{j != i} s_j) U^T for m = U diag(s) Vh,
        # the products taken without division so that a zero s is safe. The SVD
        # raises on nan and does not return on inf, so non-finite m get a nan adjugate.
        bad = ~np.isfinite(m).all(axis=(-2, -1))[..., None, None]
        u, s, vh = np.linalg.svd(np.where(bad, 0.0, m))
        others = np.where(np.eye(q, dtype=bool), 1.0, s[..., None, :]).prod(-1)
        sign = np.sign(np.linalg.det(u) * np.linalg.det(vh))[..., None, None]
        adj = (sign * vh.swapaxes(-1, -2) * others[..., None, :]) @ u.swapaxes(-1, -2)
        return np.linalg.det(m), np.where(bad, np.nan, adj)
    return delta.T, np.ascontiguousarray(np.array(adj).T).reshape(m.shape)
