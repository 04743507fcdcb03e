"""Fixed-step RK4 integration of the estimators.

The estimator ODEs are smooth and short-horizon, so a classical fixed-step
fourth-order Runge-Kutta scheme is used everywhere: runs are deterministic,
the order is testable, and no step-size heuristics enter the results.
Signals are evaluated at the RK4 stage times (t, t+dt/2, t+dt), not held
constant over a step. ``affine_rk4`` is the one integration loop. Every law
it integrates is affine in the state, so it reads affine stage tables (c, At)
at the stage index 4k + s (stage s of step k; the two midpoint stages share a
time but not a filter value). One classical RK4 step of
``f(y) = c_s + (y - theta_s) @ At_s`` is exactly
``y+ = y + (m_k + (y - theta_s) @ N_k)``, so ``step_maps`` folds the four
stages of every step into one affine step map with batched ``[K, q, q]``
products, and the loop makes one affine update per step instead of four
right-hand-side evaluations and the stage sums. ``simulate`` and the
acceptance criteria integrate through it, and ``rk4_step`` is the independent
one-step reference the tests pin it to.

``simulate`` walks the time axis in chunks of ``CHUNK_STEPS`` (512) steps,
so its memory is bounded by a chunk and the recorded rows, not by the
horizon; the step maps need no long chunks to amortize their build.
``stage_tables`` is that chunk walk: per chunk it samples the regressor on
the half-step grid and builds the stage tables (a, b) the law of
``estimators.LAWS`` reads: (w, g) at each stage time
for GE/MGE, and for the filtered variants the (Omega, G) stage values that
``filters.filter_scan`` computes for the whole chunk at once, since the filter
does not depend on the estimate. Every law is affine in the estimate, so from
(a, b) one vectorized call each builds the affine stage tables (c, At) of the
law expanded at the estimate theta_s the chunk starts from:
``law(y, a[i], b[i]) = c[i] + (y - theta_s) @ At[i]``. The estimate alone then
runs through ``affine_rk4`` on those tables, whatever the variant, and is
carried with the filter state from chunk to chunk. Expanding at theta_s, not
at 0, and keeping y, not the deviation y - theta_s, as the loop state keeps
an estimate at rest exactly where the law puts it: started at the truth, the
unfiltered estimates never move.

The affine tables are sized for small q, as in the builtins (q <= 3), where
their speed-up was measured: At holds q^2 entries per stage and N q^2 per
step for every variant, the law runs twice over each chunk's table, once for
c and once for At, and the map build costs O(q^3) per step. On a sin(k t)
regressor at q = 16 a GE run peaks at 9 MB (tracemalloc), and DREM, whose
law is a determinant and adjugate evaluated twice per chunk, takes about
1.7x the time of a per-stage loop over the law.

Divergence is detected after every step, checked once per chunk on the
states ``affine_rk4`` returns: the first step with a non-finite estimate entry
or an estimate norm above 1e12 aborts the run with its time and component.
Error norms and manifold diagnostics are computed from the recorded
estimates after the loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .estimators import LAWS, manifold_residual, storage
# bench/tracing.py counts calls to these law helpers by wrapping them here
from .estimators import adjugate, det, mge_gain  # noqa: F401
from .filters import FilterState, filter_scan
from .signals import MAX_STEPS
from .types import EstimationProblem, EstimatorConfig, Trajectory

_STATE_NORM_LIMIT = 1e12
# steps per chunk of the time axis: enough to vectorize the table and map
# builds, few enough that a chunk's tables stay near 100 kB at q = 3
CHUNK_STEPS = 512
# half-step grid offsets of the four RK4 stages of a step: t_k, t_k + dt/2 twice, t_k + dt
_STAGE_HALF_STEPS = np.array([0, 1, 1, 2])


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

    @cached_property
    def record_times(self) -> np.ndarray:
        """Times of ``record_steps``: one read-only array, shared by every
        trajectory ``simulate`` records under these settings."""
        times = np.array(self.record_steps) * self.dt
        times.setflags(write=False)
        return times

    def half_step_times(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Half-step grid of steps start..stop (default: all): entry 2j is
        t_{start+j}, 2j+1 is t_{start+j} + dt/2, the last is t_stop."""
        stop = self.n_steps if stop is None else stop
        return 0.5 * self.dt * np.arange(2 * start, 2 * stop + 1)

    @property
    def chunks(self) -> list[tuple[int, int]]:
        """(start, stop) steps of the chunks ``simulate`` walks, in order."""
        n = self.n_steps
        return [(k, min(k + CHUNK_STEPS, n)) for k in range(0, n, CHUNK_STEPS)]


def stage_index(m: int) -> np.ndarray:
    """Half-step grid index of stage s of step k at entry 4k + s, for k < m."""
    return (2 * np.arange(m)[:, None] + _STAGE_HALF_STEPS).ravel()


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


def step_maps(c: np.ndarray, at: np.ndarray, dt: float):
    """(m, N) of the classical RK4 steps over affine stage tables.

    Stage s of step k reads ``f(y) = c[4k+s] + (y - o) @ at[4k+s]`` (c
    ``[4K, q]``, at ``[4K, q, q]``, o any expansion point); one RK4 step from
    y is then exactly ``y + (m[k] + (y - o) @ N[k])``, with m ``[K, q]`` and N
    ``[K, q, q]`` built for all K steps at once. Stage s is itself affine,
    ``u_s + (y - o) @ L_s``: u_0 = c_0 and L_0 = A_0, and stage s >= 1 reads
    the law at ``y + h_s k_{s-1}`` (h_s = dt/2, dt/2, dt), so
    u_s = c_s + h_s u_{s-1} @ A_s and L_s = A_s + h_s L_{s-1} @ A_s; m and N
    are the RK4 sums dt/6 (x_0 + 2 x_1 + 2 x_2 + x_3) of the u_s and L_s.
    """
    q = c.shape[-1]
    c = c.reshape(-1, 4, 1, q)
    at = at.reshape(-1, 4, q, q)
    u, lin = c[:, 0], at[:, 0]
    u_sum, lin_sum = u, lin
    for s, h, weight in ((1, 0.5 * dt, 2.0), (2, 0.5 * dt, 2.0), (3, dt, 1.0)):
        a = at[:, s]
        u = c[:, s] + (h * u) @ a
        lin = a + (h * lin) @ a
        u_sum, lin_sum = u_sum + weight * u, lin_sum + weight * lin
    sixth = dt / 6.0
    return sixth * u_sum[:, 0], sixth * lin_sum


def affine_rk4(y: np.ndarray, origin: np.ndarray, c: np.ndarray, at: np.ndarray,
               dt: float) -> np.ndarray:
    """Classical RK4 from y on ``dy/dt = c[i] + (y - origin) @ at[i]``, i = 4k + s
    naming stage s of step k (stage 0 at t_k, stages 1 and 2 at t_k + dt/2,
    stage 3 at t_k + dt), one affine step map per step (``step_maps``).
    Returns the states ``[K + 1, q]`` of the K = len(c) / 4 steps: row k is
    the state after k steps, row 0 is y. Overflow and invalid-value warnings
    are silenced: a state that leaves its bounds shows as inf or nan in the
    rows, for the caller to find.
    """
    ys = np.empty((len(c) // 4 + 1, len(y)))
    ys[0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        m, n = step_maps(c, at, dt)
        for j in range(len(m)):
            # y - origin is exactly 0 while y rests at the expansion point, so
            # an estimate at rest moves only by m[j], to the bit
            y = y + (m[j] + (y - origin).dot(n[j]))
            ys[j + 1] = y
    return ys


def _sampled(problem: EstimationProblem, settings: SimSettings, start: int, stop: int):
    """The regressor w and the output g = w^T theta on the half-step grid of
    steps start..stop."""
    w = problem.regressor.sample(settings.half_step_times(start, stop))
    return w, w @ problem.true_params


def stage_tables(problem: EstimationProblem, state: FilterState | None,
                 settings: SimSettings):
    """Yield (start, stop, a, b, filter state after the chunk) for each chunk
    of ``settings.chunks``, with (a[4j+s], b[4j+s]) the law's inputs at stage
    s of step start+j: the filter run from ``state`` by ``filters.filter_scan``
    (a ``[4m, q, q]``, b ``[4m, q]``), or (w, g) when ``state`` is None. This is
    the one chunk walk ``simulate`` integrates over."""
    for start, stop in settings.chunks:
        a, b, state = _chunk_tables(problem, state, settings, start, stop)
        yield start, stop, a, b, state
        del a, b  # released before the next chunk's are built


def _chunk_tables(problem: EstimationProblem, state: FilterState | None,
                  settings: SimSettings, start: int, stop: int):
    w, g = _sampled(problem, settings, start, stop)
    if state is None:
        index = stage_index(stop - start)
        return w[index], g[index], None
    q = problem.dimension
    omega_ext, g_ext, state = filter_scan(state, w, g, settings.dt)
    return omega_ext.reshape(-1, q, q), g_ext.reshape(-1, q), state


def _affine_tables(law, theta_s: np.ndarray, a: np.ndarray, b: np.ndarray,
                   tau: float, mu: float):
    """(c, At) with ``law(y, a[i], b[i]) = c[i] + (y - theta_s) @ At[i]``.

    Every law is affine in the estimate, so c[i] = law(theta_s, a[i], b[i])
    and row j of At[i], column j of the law's matrix, is law(e_j, a[i], 0).
    Each is one call over the whole table, At's with the identity on a
    leading axis; c is ``[n, q]`` and At a C-contiguous ``[n, q, q]``.
    """
    q = theta_s.shape[-1]
    c = law(theta_s, a, b, tau, mu)
    at = law(np.eye(q), a[:, None], np.zeros_like(b)[:, None], tau, mu)
    return c, np.ascontiguousarray(at)


def simulate(problem: EstimationProblem, config: EstimatorConfig,
             settings: SimSettings) -> Trajectory:
    """Integrate one estimator against one problem and record its trajectory.

    Rows are recorded at ``settings.record_steps``, always including t = 0
    and the final step. Deterministic: identical inputs give identical
    trajectories.
    """
    q = problem.dimension
    state0 = config.initial_state(q)
    theta_s = state0.theta_hat
    variant = config.variant
    dt = settings.dt
    tau, mu = config.tau, config.mu
    law = LAWS[variant]
    times = settings.record_times
    ks = np.array(settings.record_steps)
    estimates = np.empty((len(times), q))
    for start, stop, a, b, _ in stage_tables(problem, state0.filter, settings):
        c, at = _affine_tables(law, theta_s, a, b, tau, mu)
        ys = affine_rk4(theta_s, theta_s, c, at, dt)
        # release this chunk's tables before the next chunk's are built
        del a, b, c, at
        # the squared norm of a row holding inf or nan is inf or nan, so it
        # fails the bound as well
        with np.errstate(over="ignore", invalid="ignore"):
            bounded = np.einsum("ij,ij->i", ys, ys) <= _STATE_NORM_LIMIT ** 2
        if not bounded.all():
            j = int(np.argmin(bounded))
            nonfin = np.nonzero(~np.isfinite(ys[j]))[0]
            comp = int(nonfin[0]) if nonfin.size else int(np.argmax(np.abs(ys[j])))
            raise DivergenceError(
                f"state diverged by t={(start + j) * dt} (component {comp}, "
                f"variant {variant.value}, dt={dt})"
            )
        lo, hi = np.searchsorted(ks, [start, stop + 1])
        estimates[lo:hi] = ys[ks[lo:hi] - start]
        theta_s = ys[-1]

    terr = problem.true_params - estimates
    # batched matmul rounds each row exactly as the vector dot terr_i @ terr_i
    err_norms = np.sqrt((terr[:, None, :] @ terr[:, :, None]).ravel())
    if q >= 2:
        residuals = manifold_residual(terr, mu)
    else:
        residuals = np.full(len(times), np.nan)
    return Trajectory(times=times, estimates=estimates,
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
