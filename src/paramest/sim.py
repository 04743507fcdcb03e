"""Fixed-step RK4 integration of the joint estimator + filter state.

The estimator ODEs are smooth and short-horizon, so a classical fixed-step
fourth-order Runge-Kutta scheme is used everywhere: runs are deterministic,
the order is testable, and no step-size heuristics enter the results.
Signals are evaluated at the RK4 stage times (t, t+dt/2, t+dt), not held
constant over a step. ``rk4_on_grid`` is the one integration loop, over
signals pre-sampled on ``SimSettings.half_step_times``; ``simulate`` and the
acceptance criteria integrate through it, and ``rk4_step`` is the independent
one-step reference the tests pin it to. ``simulate`` integrates the laws of
``estimators.LAWS`` and ``filters.filter_law``.

Divergence is detected at recording points: any non-finite state entry or a
state norm above 1e12 aborts the run with the offending time and component.
Error norms and manifold diagnostics are computed from the recorded
estimates after the loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .estimators import LAWS, manifold_residual, storage
# bench/tracing.py counts calls to these law helpers by wrapping them here
from .estimators import adjugate, det, mge_gain  # noqa: F401
from .filters import filter_law
from .signals import MAX_STEPS
from .types import EstimationProblem, EstimatorConfig, Trajectory

_STATE_NORM_LIMIT = 1e12


@dataclass(frozen=True)
class SimSettings:
    """Step size, horizon, and trajectory subsampling factor.

    t_end and dt must be finite numbers (bools are rejected) and are stored
    as floats; record_every must be an integral number >= 1 and is stored as
    an int. t_end / dt may be at most ``signals.MAX_STEPS`` steps.
    """

    t_end: float
    dt: float = 1e-3
    record_every: int = 10

    def __post_init__(self):
        for name in ("t_end", "dt", "record_every"):
            value = getattr(self, name)
            try:
                finite = not isinstance(value, bool) and math.isfinite(value)
            except (TypeError, OverflowError):
                finite = False
            if not finite:
                raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not (self.dt > 0 and self.t_end > 0 and self.dt <= self.t_end):
            raise ConfigurationError(
                f"need 0 < dt <= t_end, got dt={self.dt}, t_end={self.t_end}"
            )
        if not (self.record_every >= 1 and self.record_every.is_integer()):
            raise ConfigurationError(
                f"record_every must be an integer >= 1, got {self.record_every:g}")
        object.__setattr__(self, "record_every", int(self.record_every))
        steps = self.t_end / self.dt
        if steps > MAX_STEPS + 0.5:
            raise ConfigurationError(
                f"t_end={self.t_end:g} with dt={self.dt:g} needs {steps:.3g} steps, "
                f"more than the limit of {MAX_STEPS}")

    @property
    def n_steps(self) -> int:
        """t_end / dt rounded to a whole number of steps (>= 1 as dt <= t_end)."""
        return int(round(self.t_end / self.dt))

    @property
    def record_steps(self) -> list[int]:
        """Step indices to record: every record_every-th from 0, plus the last."""
        return list(range(0, self.n_steps, self.record_every)) + [self.n_steps]

    @property
    def half_step_times(self) -> np.ndarray:
        """The grid ``rk4_on_grid`` indexes: entry 2k is t_k, 2k+1 is t_k + dt/2."""
        return 0.5 * self.dt * np.arange(2 * self.n_steps + 1)


def rk4_step(rhs, t: float, state: np.ndarray, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of ``d state/dt = rhs(t, state)``."""
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    state = np.asarray(state, dtype=float)
    half = 0.5 * dt
    k1 = _checked_stage(rhs(t, state), t)
    k2 = _checked_stage(rhs(t + half, state + half * k1), t + half)
    k3 = _checked_stage(rhs(t + half, state + half * k2), t + half)
    k4 = _checked_stage(rhs(t + dt, state + dt * k3), t + dt)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _checked_stage(value, t: float) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(value)):
        bad = int(np.nonzero(~np.isfinite(np.atleast_1d(value)))[0][0])
        raise DivergenceError(f"non-finite stage value at t={t} (component {bad})")
    return value


def rk4_on_grid(f, y, dt: float, record_ks, record):
    """Classical RK4 on ``dy/dt = f(y, i)``, ``i`` indexing the half-step grid
    (step k evaluates i = 2k, 2k+1 twice, 2k+2). Calls ``record(slot, k, y)``
    after each step k of the increasing ``record_ks`` (k = 0 is the initial
    state) and stops after the last one, or when ``record`` raises.
    Returns the final state.
    """
    half = 0.5 * dt
    sixth = dt / 6.0
    done = 0
    for slot, k in enumerate(record_ks):
        for i in range(2 * done, 2 * k, 2):
            k1 = f(y, i)
            k2 = f(y + half * k1, i + 1)
            k3 = f(y + half * k2, i + 1)
            k4 = f(y + dt * k3, i + 2)
            y = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        record(slot, k, y)
        done = k
    return y


def simulate(problem: EstimationProblem, config: EstimatorConfig,
             settings: SimSettings) -> Trajectory:
    """Integrate one estimator against one problem and record its trajectory.

    Rows are recorded at ``settings.record_steps``, always including t = 0
    and the final step. Deterministic: identical inputs give identical
    trajectories.
    """
    q = problem.dimension
    state0 = config.initial_state(q)
    variant = config.variant
    dt = settings.dt

    w_grid = problem.regressor.sample(settings.half_step_times)
    g_grid = w_grid @ problem.true_params

    tau, mu = config.tau, config.mu
    law = LAWS[variant]
    if variant.uses_filter:
        # flat joint state [theta_hat, Omega.ravel(), G]
        y = np.concatenate([state0.theta_hat,
                            state0.filter.omega_ext.ravel(),
                            state0.filter.g_ext])
        q2 = q * q

        def f(y, i):
            th, om, ge = y[:q], y[q:q + q2].reshape(q, q), y[q + q2:]
            d_om, d_g = filter_law(om, ge, w_grid[i], g_grid[i])
            return np.concatenate([law(th, om, ge, tau, mu), d_om.ravel(), d_g])
    else:
        y = state0.theta_hat.copy()

        def f(y, i):
            return law(y, w_grid[i], g_grid[i], tau, mu)

    record_ks = settings.record_steps
    n_rec = len(record_ks)
    estimates = np.empty((n_rec, q))

    def record(slot: int, k: int, yk: np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):
            bounded = np.all(np.isfinite(yk)) and float(yk @ yk) <= _STATE_NORM_LIMIT ** 2
        if not bounded:
            nonfin = np.nonzero(~np.isfinite(yk))[0]
            comp = int(nonfin[0]) if nonfin.size else int(np.argmax(np.abs(yk)))
            raise DivergenceError(
                f"state diverged by t={k * dt} (component {comp}, "
                f"variant {variant.value}, dt={dt})"
            )
        estimates[slot] = yk[:q]

    rk4_on_grid(f, y, dt, record_ks, record)

    terr = problem.true_params - estimates
    # batched matmul rounds each row exactly as the vector dot terr_i @ terr_i
    err_norms = np.sqrt((terr[:, None, :] @ terr[:, :, None]).ravel())
    if q >= 2:
        residuals = manifold_residual(terr, mu)
    else:
        residuals = np.full(n_rec, np.nan)
    return Trajectory(times=np.array(record_ks) * dt, estimates=estimates,
                      err_norms=err_norms, manifold_residuals=residuals,
                      storage_values=storage(residuals))


def convergence_time(traj: Trajectory, tol: float) -> float | None:
    """Earliest recorded time after which the error norm stays within tol.

    None when the final recorded error still exceeds tol.
    """
    if tol <= 0:
        raise ConfigurationError("tolerance must be positive")
    above = np.nonzero(traj.err_norms > tol)[0]
    if above.size == 0:
        return float(traj.times[0])
    last_bad = int(above[-1])
    if last_bad == len(traj) - 1:
        return None
    return float(traj.times[last_bad + 1])
