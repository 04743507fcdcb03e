"""Fixed-step RK4 integration of the estimators.

The estimator ODEs are smooth and short-horizon, so a classical fixed-step
fourth-order Runge-Kutta scheme is used everywhere: runs are deterministic,
the order is testable, and no step-size heuristics enter the results.
Signals are evaluated at the RK4 stage times (t, t+dt/2, t+dt), not held
constant over a step. ``affine_rk4`` is the one integration engine. Every
law it integrates is affine in the state, so it reads one affine stage table
f ``[4K, q + 1, q]`` at the stage index 4k + s (stage s of step k; the two
midpoint stages share a time but not a filter value): rows ``:q`` of f[i]
are the law's linear part and row q its value at the expansion point
theta_s, ``law(y) = [y - theta_s, 1] @ f[i]``. One classical RK4 step of
that law is exactly ``y+ = y + [y - theta_s, 1] @ d[k]``, and ``step_maps``
builds the step table d ``[K, q + 1, q]`` with batched products. The maps
compose associatively, so ``affine_rk4`` runs them as a blocked scan
(Blelloch 1990, "Prefix sums and their applications"): about sqrt(K)
batched products and two short loops per chunk of K steps, instead of four
right-hand-side evaluations and the stage sums per step. Its states match
the per-step update to rounding (at most 5.3e-13 over the builtin runs), an
estimate at rest stays there to the bit, and a config whose scan is not
finite falls back to the per-step update. It reads step tables expanded at
the state they start from, ``affine_rk4(y, step_maps(f, dt))``, on leading
config axes that one scan runs, each config to the bit as alone: every scan
starts from z = 0, and the step maps before the first step that would move
y are zeroed into identity maps. ``simulate_all`` and the acceptance
criteria integrate through it, and ``rk4_step`` is the independent one-step
reference the tests pin it to.

``simulate_all`` walks the time axis in chunks of ``CHUNK_STEPS`` (512)
steps, once per scenario, for all of its estimator configs at once, so its
memory is bounded by a chunk and the recorded rows, not by the horizon; the
step maps need no long chunks to amortize their build. Per chunk it samples
the regressor once on the half-step grid and builds the stage tables (a, b)
the laws of ``estimators.LAWS`` read: (w, g) at each stage time for GE/MGE,
built once, and for the filtered variants the (Omega, G) stage values that
``filters.filter_scan`` computes for the whole chunk at once, since the
filter does not depend on the estimate: one scan for each distinct
``filter_init``, its state carried from chunk to chunk (``stage_tables``
yields the same tables for one filter state). Every law is affine in the
estimate, so for each config one vectorized call of its law at the q + 1
points [e_1 ... e_q, theta_s] builds the affine stage table f of the law
expanded at the estimate theta_s the chunk starts from. The running configs
go in config order, ``SCAN_CONFIGS`` (8) at a time whatever their variants
and table keys: each f becomes its config's row of the slice's step tables
``[S, K, q + 1, q]`` at once, one ``affine_rk4`` scan runs the slice, and
each estimate is carried to the next chunk. ``simulate`` is that walk over
one config. Expanding at theta_s, not at 0, keeps an estimate at rest
exactly where the law puts it: y - theta_s is exactly 0 until the estimate
moves, and the identity maps ``affine_rk4`` puts before the first step that
moves it keep it at theta_s to the bit. Started at the truth, the unfiltered
estimates never move.

The affine tables are sized for small q, as in the builtins (q <= 3), where
their speed-up was measured: f holds q^2 + q entries per stage and d as many
per step for every variant (197 and 49 kB per chunk and config at q = 3; one
f and one slice's d are alive at a time, so a chunk's memory does not grow
with the number of configs), the law runs over q + 1 points per stage, and
the map build costs O(q^3) per step. On a sin((k + 1.5) t) regressor at
q = 16 over t_end = 5 a GE run peaks at 9.5 MB (tracemalloc), and DREM takes
1.8 s, most of it in the SVD adjugate of its one law call per chunk.

Divergence is detected after every step, checked once per chunk on the
states ``affine_rk4`` returns: the first step with a non-finite estimate entry
or an estimate norm above 1e12 aborts that config's run with its time and
component, and the walk goes on with the configs listed before it.
The tables and the engine run with numpy's overflow and invalid-value
warnings silenced, so a diverging run reports only that step.
The recorded estimates of all configs go into one ``[configs, rows, q]``
array. A recorded trajectory keeps a view of its rows only, and computes its
error norms and manifold diagnostics from them each time they are read.
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
# running configs per scan, in config order: a chunk holds this many step tables
SCAN_CONFIGS = 8
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
        trajectory ``simulate_all`` records under these settings."""
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
        """(start, stop) steps of the chunks ``simulate_all`` walks, in order."""
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


def step_maps(f: np.ndarray, dt: float) -> np.ndarray:
    """The classical RK4 steps over the affine stage table f, as one step
    table d ``[K, q + 1, q]``.

    Stage s of step k reads ``law(y) = [y - o, 1] @ f[4k+s]`` (f
    ``[4K, q + 1, q]``, o any expansion point): rows ``:q`` of f[i] are the
    law's linear part and row q its value at o. One RK4 step from y is then
    exactly ``y + [y - o, 1] @ d[k]``, built for all K steps at once. Stage s
    is itself affine in y, ``[y - o, 1] @ G_s``: G_0 = F_0, and stage s >= 1
    reads the law at ``y + h_s k_{s-1}`` (h_s = dt/2, dt/2, dt), so
    ``G_s = F_s + (h_s G_{s-1}) @ F_s[:q]``; d is the RK4 sum
    dt/6 (G_0 + 2 G_1 + 2 G_2 + G_3).
    """
    q = f.shape[-1]
    f = f.reshape(-1, 4, q + 1, q)
    g = g_sum = f[:, 0]
    for s, h, weight in ((1, 0.5 * dt, 2.0), (2, 0.5 * dt, 2.0), (3, dt, 1.0)):
        g = f[:, s] + (h * g) @ f[:, s, :q]
        g_sum = g_sum + weight * g
    return (dt / 6.0) * g_sum


def affine_rk4(y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Classical RK4 from y over the step tables d of a law expanded at the
    state it starts from, ``d = step_maps(f, dt)`` for f the stage table of
    ``dx/dt = [x - y, 1] @ f[i]``. Leading axes run independent configs:
    y ``[..., q]``, d ``[..., K, q + 1, q]``. Returns the states
    ``[..., K + 1, q]``: row k is the state after k steps, row 0 is y.
    Overflow and invalid-value warnings are silenced: a state that leaves its
    bounds shows as inf or nan in the rows, for the caller to find.

    d[k] holds m_k = d[k, q] and N_k = d[k, :q], and the steps run as one
    blocked scan over all configs of the maps ``z+ = z + m_k + z @ N_k`` of
    z = x - y from z = 0 (``_scan``). The rows agree with the per-step update
    ``x+ = x + (m_k + (x - y) @ N_k)`` (``_step_loop``) to rounding, not to
    the bit: over the 12 builtin runs the largest gap is 5.3e-13 (example5
    MGE_MRE). Two things are exact. A y at rest stays there, to the bit,
    until the first step the per-step update moves it (``y + m_k != y``, or
    a non-finite N_k): the maps before that step are zeroed into identity
    maps, in d itself, so the scan keeps z at 0 over them, and its first
    moving row is ``[0, 1] @ D_k = m_k``, the per-step update's. In z,
    sub-ulp m_k would add up where y absorbs them. And a config whose
    scanned rows are not all finite is recomputed by the per-step update, so
    an overflow shows at the step it happens, and a block product that
    overflows on a component the state does not hold cannot turn ``0 * inf``
    into a false nan.
    """
    (k, _, q), lead = d.shape[-3:], y.shape[:-1]
    y, d = y.reshape(-1, q), d.reshape(-1, k, q + 1, q)
    ys = np.empty((len(y), k + 1, q))
    ys[:, 0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        # a step moves y when y + m_k rounds to a new value, or when 0 @ N_k
        # is nan; the steps before the first one that moves keep y
        moves = ((y[:, None] + d[:, :, -1] != y[:, None]).any(axis=2)
                 | ~np.isfinite(d[:, :, :-1]).all(axis=(2, 3)))
        d[~np.logical_or.accumulate(moves, axis=1)] = 0.0
        ys[:, 1:] = y[:, None] + _scan(d)
        for j in np.flatnonzero(~np.isfinite(ys[:, 1:]).all(axis=(1, 2))):
            _step_loop(ys[j], d[j])
    return ys.reshape(lead + (k + 1, q))


def _step_loop(ys: np.ndarray, d: np.ndarray) -> None:
    """Apply the step maps d one at a time from ys[0], the expansion point,
    filling rows 1 to len(d)."""
    y = y0 = ys[0]
    for j in range(len(d)):
        # y - y0 is exactly 0 while y rests at the expansion point, so an
        # estimate at rest moves only by m_j, to the bit
        y = y + (d[j, -1] + (y - y0).dot(d[j, :-1]))
        ys[j + 1] = y


def _scan(d: np.ndarray) -> np.ndarray:
    """z after each of the K affine maps ``z+ = z + [z, 1] @ d[c, k]`` from
    z = 0, ``[C, K, q]``, for each of the C configs of d ``[C, K, q + 1, q]``,
    as one two-level blocked scan.

    In homogeneous coordinates [z, 1] each map is the square matrix I + D_k,
    D_k holding d[c, k] in its first q columns and 0 in its last. The K maps
    are split into blocks of about sqrt(K). One loop over the position i in
    a block builds, for all configs and blocks at once, the prefix products
    ``I + Q_i = (I + D_0) ... (I + D_i)`` in the form
    ``Q_i = Q_{i-1} + D_i + Q_{i-1} @ D_i``, which keeps the small N_k apart
    from the identity; the top rows of I + Q_i are the prefix product P_i of
    the I + N_k and its last row the offset S_i. A short loop carries the
    states z_b over the block starts from ``[0, 1]``, and every row is then
    ``z_b @ P_i + S_i = z_b + z_b @ Q_i`` at once. Zero maps leave z at 0
    exactly, and the first row after them is the next map's offset, m_k.
    Every product is one config's, so each config's rows are those of a scan
    of its maps alone, to the bit.
    """
    c, k, q = d.shape[0], d.shape[1], d.shape[-1]
    size = math.isqrt(k - 1) + 1  # ceil(sqrt(K)): blocks of ~sqrt(K) steps
    n_blocks = -(-k // size)
    # the padded steps are identity maps, D = 0
    sq = np.zeros((c, n_blocks * size, q + 1, q + 1))
    sq[:, :k, :, :q] = d
    sq = sq.reshape(c * n_blocks, size, q + 1, q + 1)
    for i in range(1, size):
        prod = sq[:, i - 1] @ sq[:, i]
        prod += sq[:, i - 1]
        sq[:, i] += prod
    # block b of every config is sq[b::n_blocks]
    starts = np.empty((c * n_blocks, 1, q + 1))
    zb = np.tile(np.eye(q + 1)[q], (c, 1, 1))  # [z, 1] at z = 0
    for b in range(n_blocks):
        starts[b::n_blocks] = zb
        zb = zb + zb @ sq[b::n_blocks, -1]
    rows = starts + (starts[:, None] @ sq)[:, :, 0]
    return rows.reshape(c, -1, q + 1)[:, :k, :q]


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
    (a ``[4m, q, q]``, b ``[4m, q]``), or (w, g) when ``state`` is None. These
    are the tables ``simulate_all`` builds, chunk by chunk, for the configs
    that start from ``state``."""
    for start, stop in settings.chunks:
        w, g = _sampled(problem, settings, start, stop)
        a, b, state = _chunk_tables(w, g, state, settings.dt)
        yield start, stop, a, b, state
        del w, g, a, b  # released before the next chunk's are built


def _chunk_tables(w: np.ndarray, g: np.ndarray, state: FilterState | None, dt: float):
    """(a, b, filter state after the chunk) over one chunk's half-step samples
    (w, g), as ``stage_tables`` yields them."""
    if state is None:
        index = stage_index((len(w) - 1) // 2)
        return w[index], g[index], None
    q = w.shape[-1]
    omega_ext, g_ext, state = filter_scan(state, w, g, dt)
    return omega_ext.reshape(-1, q, q), g_ext.reshape(-1, q), state


def _check_bounded(ys: np.ndarray, config: EstimatorConfig, dt: float, start: int) -> None:
    """Raise DivergenceError at the first row of ys ``[m + 1, q]``, the
    estimates of ``config`` over the chunk from step ``start``, past the bound."""
    # the squared norm of a row holding inf or nan is inf or nan, so it
    # fails the bound as well
    bounded = np.einsum("ij,ij->i", ys, ys) <= _STATE_NORM_LIMIT ** 2
    if not bounded.all():
        j = int(np.argmin(bounded))
        nonfin = np.nonzero(~np.isfinite(ys[j]))[0]
        comp = int(nonfin[0]) if nonfin.size else int(np.argmax(np.abs(ys[j])))
        raise DivergenceError(
            f"state diverged by t={(start + j) * dt} (component {comp}, "
            f"variant {config.variant.value}, dt={dt})"
        )


def simulate_all(problem: EstimationProblem, configs: list[EstimatorConfig],
                 settings: SimSettings) -> list[Trajectory]:
    """Integrate every config against one problem in one walk over the
    chunks, and record one trajectory per config, in config order.

    Each chunk samples the regressor once, builds the (w, g) stage tables
    once, and runs the filter once for each distinct ``filter_init`` among
    the filtered configs, carrying each filter state to the next chunk; the
    running configs then integrate their estimates over the tables they read,
    ``SCAN_CONFIGS`` to a scan, in config order. Each trajectory is what
    ``simulate`` records for its config alone, to the bit: its estimates are
    a view of one ``[len(configs), rows, q]`` array, and its error norms,
    residuals and storage are computed from them when read.

    A config whose run fails leaves the walk, and so do the configs after it;
    those before it in its scan are still scanned and recorded.
    When any fails, the error of the first failing config in config order is
    raised, as running ``simulate`` on each config in order would raise it,
    with that config's index in ``configs`` set as its ``config_index``; a
    regressor that fails at a chunk fails every config still running.
    """
    if not configs:
        return []
    q = problem.dimension
    dt = settings.dt
    ks = np.array(settings.record_steps)
    runs = {}  # config index -> (table key, estimate the next chunk starts from)
    states = {}  # table key -> filter state the next chunk starts from
    failed = []  # (config index, error) of the first failing config

    def fail(i, exc):
        failed[:] = [(i, exc)]
        for j in [j for j in runs if j >= i]:
            del runs[j]

    for i, config in enumerate(configs):
        try:
            state0 = config.initial_state(q)
        except Exception as exc:
            fail(i, exc)
            break
        # the configs of one key start from bit-identical filter states
        key = None if state0.filter is None else float(config.filter_init).hex()
        states.setdefault(key, state0.filter)
        runs[i] = key, state0.theta_hat
    if runs:
        try:
            estimates = np.empty((len(configs), len(ks), q))
        except Exception as exc:
            fail(min(runs), exc)
    # the tables of a diverging chunk overflow from the step it diverges at
    # on; every non-finite entry reaches the state it feeds, so the bound
    # check names that step, and no warning leaks
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop in settings.chunks:
            if not runs:
                break
            try:
                w, g = _sampled(problem, settings, start, stop)
                d = np.empty((min(len(runs), SCAN_CONFIGS), stop - start, q + 1, q))
            except Exception as exc:
                fail(min(runs), exc)
                break
            lo, hi = np.searchsorted(ks, [start, stop + 1])
            tables = {}  # table key -> its point tables of this chunk, built once
            running = list(runs)
            for s in range(0, len(running), SCAN_CONFIGS):
                part = running[s:s + SCAN_CONFIGS]
                if part[0] not in runs:  # a failure removed the rest
                    break
                built = []  # the configs whose step maps fill the rows of d
                try:
                    for i in part:
                        key, theta = runs[i]
                        if key not in tables:
                            a, b, states[key] = _chunk_tables(w, g, states[key], dt)
                            b_points = np.zeros((len(b), q + 1) + b.shape[1:])
                            b_points[:, q] = b
                            tables[key] = a[:, None], b_points
                        # the law at the points [e_1 ... e_q, theta] is the
                        # affine stage table f of the law expanded at theta
                        c = configs[i]
                        d[len(built)] = step_maps(LAWS[c.variant](
                            np.vstack([np.eye(q), theta]), *tables[key], c.tau, c.mu), dt)
                        built.append(i)
                except Exception as exc:
                    fail(i, exc)
                if not built:
                    continue
                try:
                    i = built[0]
                    ys = affine_rk4(np.array([runs[i][1] for i in built]), d[:len(built)])
                    for i, ys_i in zip(built, ys):
                        _check_bounded(ys_i, configs[i], dt, start)
                        estimates[i, lo:hi] = ys_i[ks[lo:hi] - start]
                        runs[i] = runs[i][0], ys_i[-1].copy()
                except Exception as exc:
                    fail(i, exc)
            # release this chunk's tables before the next chunk's are built
            del w, g, d, tables
    if failed:
        (i, exc), = failed
        exc.config_index = i
        raise exc

    return [_RecordedTrajectory(settings.record_times, estimates[i], problem.true_params,
                                config.mu)
            for i, config in enumerate(configs)]


class _RecordedTrajectory(Trajectory):
    """The trajectory of one run: it keeps its times and estimates only, and
    computes the error norms, manifold residuals and storage values from them,
    the true parameters and mu, each time they are read. A kept run then
    holds one ``[rows, q]`` array, not that and three ``[rows]`` arrays."""

    def __init__(self, times: np.ndarray, estimates: np.ndarray,
                 true_params: np.ndarray, mu: float):
        self.times, self.estimates = times, estimates
        self._true_params, self._mu = true_params, mu

    @property
    def err_norms(self) -> np.ndarray:
        terr = self._true_params - self.estimates
        # batched matmul rounds each row exactly as the vector dot terr_i @ terr_i
        return np.sqrt((terr[:, None, :] @ terr[:, :, None]).ravel())

    @property
    def manifold_residuals(self) -> np.ndarray:
        if self.dimension < 2:
            return np.full(len(self), np.nan)
        return manifold_residual(self._true_params - self.estimates, self._mu)

    @property
    def storage_values(self) -> np.ndarray:
        return storage(self.manifold_residuals)


def simulate(problem: EstimationProblem, config: EstimatorConfig,
             settings: SimSettings) -> Trajectory:
    """Integrate one estimator against one problem and record its trajectory:
    ``simulate_all`` on that one config.

    Rows are recorded at ``settings.record_steps``, always including t = 0
    and the final step. Deterministic: identical inputs give identical
    trajectories.
    """
    return simulate_all(problem, [config], settings)[0]


def convergence_time(traj: Trajectory, tol: float) -> float | None:
    """Earliest recorded time after which the error norm stays within tol.

    None when the final recorded error still exceeds tol.
    """
    if not tol > 0:
        raise ConfigurationError("tolerance must be positive")
    above = np.nonzero(traj.err_norms > tol)[0]
    if above.size == 0:
        return float(traj.times[0])
    last_bad = int(above[-1])
    if last_bad == len(traj) - 1:
        return None
    return float(traj.times[last_bad + 1])
