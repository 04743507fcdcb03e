"""Fixed-step RK4 integration of the estimators.

The estimator ODEs are smooth and short-horizon, so a classical fixed-step
fourth-order Runge-Kutta scheme is used everywhere: runs are deterministic,
the order is testable, and no step-size heuristics enter the results.
Signals are evaluated at the RK4 stage times (t, t+dt/2, t+dt), not held
constant over a step. ``affine_rk4`` is the one integration engine. Every
law it integrates is affine in the state, so it reads four affine stage
tables f_s ``[K, q + 1, q]``, one per RK4 stage (the two midpoint stages
share a time but not a filter value): rows ``:q`` of f_s[k] are the law's
linear part at stage s of step k and row q its value at the expansion point
theta_s, ``law(y) = [y - theta_s, 1] @ f_s[k]``. One classical RK4 step of
that law is exactly ``y+ = y + [y - theta_s, 1] @ d[k]``, and ``step_maps``
builds the step table d ``[K, q + 1, q]`` with batched products. The maps
compose associatively, so ``affine_rk4`` runs them as a blocked scan
(Blelloch 1990, "Prefix sums and their applications"): about sqrt(K)
batched products and two short loops per chunk of K steps, instead of four
right-hand-side evaluations and the stage sums per step. It reads step
tables expanded at the state they start from, ``affine_rk4(y,
step_maps(f, dt))``, on leading config axes that one scan runs, each config
to the bit as alone; an estimate at rest stays there to the bit.
``simulate_all`` and the acceptance criteria integrate through it, and
``rk4_step`` is the independent one-step reference the tests pin it to.

``simulate_all`` walks the time axis in chunks of ``CHUNK_STEPS`` (512)
steps, once per scenario, for all of its estimator configs at once, so its
memory is bounded by a chunk and the recorded rows, not by the horizon. The
walk is ``stage_tables``: per chunk of m steps it samples the regressor once
on the half-step grid and builds, once per table key, the distinct stage
inputs the laws of ``estimators.LAWS`` read: (w, g) at the 2m + 1 half-step
points for GE/MGE, as the midpoint stages share a time and stage 3 of a step
is stage 0 of the next, and for the filtered variants the 4m (Omega, G)
stage values of one ``filters.filter_scan`` per distinct ``filter_init``,
its state carried from chunk to chunk. For each config one vectorized call
of its law at the q + 1 points [e_1 ... e_q, theta_s] over those inputs
builds the affine table of the law expanded at the estimate theta_s the
chunk starts from, and four slices of it are its stage tables f_s. The
running configs go in config order, ``SCAN_CONFIGS`` (8) at a time whatever
their variants and table keys: their step tables fill one ``[S, K, q + 1, q]``
array, one ``affine_rk4`` scan runs the slice, and each estimate is carried
to the next chunk. ``simulate`` is that walk over one config. Expanding at
theta_s, not at 0, keeps an estimate at rest exactly where the law puts it:
started at the truth, the unfiltered estimates never move.

The affine tables are sized for small q, as in the builtins (q <= 3): the
law's table holds q^2 + q entries per stage input and d as many per step (at
q = 3, 197 kB per chunk and config for the filtered variants, 98 kB for
GE/MGE, 49 kB of d; one table and one slice's d are alive at a time, beside
each filter key's 147 kB of contiguous Omega stages and 197 kB of G at the
points), and the map build costs O(q^3) per step. On a sin((k + 1.5) t)
regressor at q = 16 over t_end = 5 a GE run peaks at 8.2 MB (tracemalloc),
and DREM takes 1.1 s (2 cores, numpy 2.4.6), most of it in the SVD adjugate
of its one law call per chunk.

Divergence is checked once per chunk on the states ``affine_rk4`` returns:
the first step with a non-finite estimate entry or an estimate norm above
1e12 times the largest of 1, |theta| and the config's |theta_hat_0| aborts
that config's run with its time and component, and ends the runs of the
configs listed after it. The tables and the engine run with numpy's overflow
and invalid-value warnings silenced, so a diverging run reports only that
step. Each config records its estimates into a ``[rows, q]`` array of its
own, and its trajectory computes the error norms and manifold diagnostics
from them each time they are read.
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
from .filters import filter_scan
from .signals import MAX_STEPS
from .types import EstimationProblem, EstimatorConfig, Trajectory

_STATE_NORM_LIMIT = 1e12
# steps per chunk of the time axis: enough to vectorize the table and map
# builds, few enough that a chunk's tables stay near 100 kB at q = 3
CHUNK_STEPS = 512
# running configs per scan, in config order: a chunk holds this many step tables
SCAN_CONFIGS = 8


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
    def record_steps(self) -> np.ndarray:
        """Step indices to record: every record_every-th from 0, plus the last."""
        steps = np.arange(0, self.n_steps + self.record_every, self.record_every)
        steps[-1] = self.n_steps  # the first multiple of record_every from n_steps on
        return steps

    @cached_property
    def record_times(self) -> np.ndarray:
        """Times of ``record_steps``: one read-only array, shared by every
        trajectory ``simulate_all`` records under these settings."""
        times = self.record_steps * self.dt
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


def step_maps(f, dt: float) -> np.ndarray:
    """The classical RK4 steps over the affine stage tables f, as one step
    table d ``[K, q + 1, q]``.

    Stage s of step k reads ``law(y) = [y - o, 1] @ f[s][k]`` (f the four
    stage tables ``[K, q + 1, q]``, o any expansion point): rows ``:q`` of
    f[s][k] are the law's linear part and row q its value at o. One RK4 step
    from y is then exactly ``y + [y - o, 1] @ d[k]``, built for all K steps at
    once. Stage s is itself affine in y, ``[y - o, 1] @ G_s``: G_0 = F_0, and
    stage s >= 1 reads the law at ``y + h_s k_{s-1}`` (h_s = dt/2, dt/2, dt),
    so ``G_s = F_s + (h_s G_{s-1}) @ F_s[:q]``; d is dt/6 (G_0 + 2 G_1 + 2 G_2 + G_3).
    """
    q = f[0].shape[-1]
    g = g_sum = f[0]
    for s, h, weight in ((1, 0.5 * dt, 2.0), (2, 0.5 * dt, 2.0), (3, dt, 1.0)):
        g = f[s] + (h * g) @ f[s][:, :q]
        g_sum = g_sum + weight * g
    return (dt / 6.0) * g_sum


def affine_rk4(y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Classical RK4 from y over the step tables d of a law expanded at the
    state it starts from, ``d = step_maps(f, dt)`` for f the stage tables of
    ``dx/dt = [x - y, 1] @ f[s][k]``. Leading axes run independent configs:
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
        # is nan; the steps before each config's first moving step keep y
        moves = (y[:, None] + d[:, :, -1] != y[:, None]).reshape(len(y), -1)
        first = np.where(moves.any(axis=1), moves.argmax(axis=1) // q, k)
        if not np.isfinite(d).all():
            bad = ~np.isfinite(d[:, :, :-1]).all(axis=(2, 3))
            first = np.minimum(first, np.where(bad.any(axis=1), bad.argmax(axis=1), k))
        for j, stop in enumerate(first):
            d[j, :stop] = 0.0
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
    are split into blocks of about sqrt(K), kept position-major so that
    position i of every block and config is one contiguous stack. One loop
    over i builds, for all configs and blocks at once, the prefix products
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
    n_blocks, rest = divmod(k, size)
    # step b * size + i of config c is sq[i, b, c]; the padded steps are
    # identity maps, D = 0
    sq = np.zeros((size, -(-k // size), c, q + 1, q + 1))
    blocks = sq[..., :q].transpose(2, 1, 0, 3, 4)  # [C, n_blocks, size, q + 1, q]
    blocks[:, :n_blocks] = d[:, :n_blocks * size].reshape(c, n_blocks, size, q + 1, q)
    if rest:
        blocks[:, n_blocks, :rest] = d[:, n_blocks * size:]
    for i in range(1, size):
        prod = sq[i - 1] @ sq[i]
        prod += sq[i - 1]
        sq[i] += prod
    starts = np.empty(sq.shape[1:3] + (1, q + 1))
    zb = np.tile(np.eye(q + 1)[q], (c, 1, 1))  # [z, 1] at z = 0
    for b, last in enumerate(sq[-1]):  # block b ends at sq[-1, b]
        starts[b] = zb
        zb = zb + zb @ last
    rows = (starts + starts @ sq)[..., 0, :q]  # [size, n_blocks, C, q]
    return rows.transpose(2, 1, 0, 3).reshape(c, -1, q)[:, :k]


def stage_tables(problem: EstimationProblem, states: dict, settings: SimSettings):
    """Yield, for each chunk of ``settings.chunks``, the tables the laws of
    ``estimators.LAWS`` read, by table key: for each key of ``states``,
    ``(a[:, None], b_points, stages)``. (a[i], b[i]) are the law's distinct
    stage inputs over the chunk's m steps, b_points holds b at the last of the
    q + 1 points and 0 at the others, and ``stages`` holds the four slices of
    the law's output that are the stage tables ``step_maps`` reads, in stage
    order. A key whose state is None reads (w, g) at the 2m + 1 points of the
    half-step grid: stage 0 of step start+j reads point 2j, stages 1 and 2
    point 2j + 1 and stage 3 point 2j + 2. A filter state reads the filter run
    from it by ``filters.filter_scan``, stage-major (a ``[4m, q, q]``, copied
    C-contiguous so that a law folds it as a view, b ``[4m, q]``, stage s in
    rows sm to (s + 1)m), and is replaced by the state after the chunk. A key
    deleted from ``states`` between chunks is no longer built, and once
    ``states`` is empty the walk ends without sampling the next chunk."""
    q = problem.dimension
    half_steps = (slice(0, -1, 2), slice(1, None, 2), slice(1, None, 2), slice(2, None, 2))
    for start, stop in settings.chunks:
        if not states:
            return
        w = problem.regressor.sample(settings.half_step_times(start, stop))
        g = w @ problem.true_params
        tables = {}
        for key, state in states.items():
            if state is None:
                a, b, stages = w, g, half_steps
            else:
                a, b, states[key] = filter_scan(state, w, g, settings.dt)
                a, b = np.ascontiguousarray(a).reshape(-1, q, q), b.reshape(-1, q)
                m = stop - start
                stages = tuple(slice(s * m, (s + 1) * m) for s in range(4))
            b_points = np.zeros((len(b), q + 1) + b.shape[1:])
            b_points[:, q] = b
            tables[key] = a[:, None], b_points, stages
            del a, b, b_points  # only tables holds them now
        yield tables
        del w, g, tables  # released before the next chunk's are built


def _check_bounded(ys: np.ndarray, config: EstimatorConfig, dt: float, start: int) -> None:
    """Raise DivergenceError at the first row of ys ``[m + 1, q]``, the
    estimates of ``config`` over the chunk from step ``start`` divided by the
    scale of its bound (a division by 1 is exact), past the bound."""
    # the squared norm of a row holding inf or nan is inf or nan, so it
    # fails the bound as well
    bounded = np.einsum("ij,ij->i", ys, ys) <= _STATE_NORM_LIMIT ** 2
    if not bounded.all():
        j = int(np.argmin(bounded))
        nonfin = np.nonzero(~np.isfinite(ys[j]))[0]
        comp = int(nonfin[0]) if nonfin.size else int(np.argmax(np.abs(ys[j])))
        t = float(f"{(start + j) * dt:.12g}")  # 0.009, not 9 * 1e-3 = 0.009000000000000001
        raise DivergenceError(
            f"state diverged by t={t} (component {comp}, "
            f"variant {config.variant.value}, dt={dt})"
        )


def simulate_all(problem: EstimationProblem, configs: list[EstimatorConfig],
                 settings: SimSettings) -> list[Trajectory]:
    """Integrate every config against one problem in one walk over the
    chunks, and record one trajectory per config, in config order.

    The tables come from one ``stage_tables`` walk, keyed by None for (w, g)
    and by each distinct ``filter_init`` among the filtered configs; a key
    leaves the walk with the last run that reads it, so the walk ends with
    the last run. The running configs, always a prefix ``configs[:n]``,
    integrate their estimates over their tables, ``SCAN_CONFIGS`` to a scan.
    Each trajectory is what ``simulate`` records for its config alone, to
    the bit, in an estimates array of its own.

    A failure at config i ends the runs of i and of the configs after it
    (n = i); those before it in its scan are still scanned and recorded. The
    error of the first failing config in config order is raised, as running
    ``simulate`` on each config in order would raise it, with its index as
    ``config_index``. A regressor that fails at a chunk, or arrays that cannot
    be built (a MemoryError), fail config 0.
    """
    q = problem.dimension
    dt = settings.dt
    ks = settings.record_steps
    n, error = len(configs), None  # configs[:n] run; error ended the run of configs[n]
    keys, scales = [], []  # per config: table key, its estimates' divisor in the bound check
    thetas = np.empty((n, q))  # per config: the estimate the next chunk starts from
    states = {}  # table key -> filter state the next chunk starts from

    def fail(i, exc):
        nonlocal n, error
        n, error = i, exc
        # the walk builds no more tables for the keys no running config reads
        for key in states.keys() - set(keys[:n]):
            del states[key]

    for i, config in enumerate(configs):
        try:
            state0 = config.initial_state(q)
        except Exception as exc:
            fail(i, exc)
            break
        # the configs of one key start from bit-identical filter states
        keys.append(None if state0.filter is None else float(config.filter_init).hex())
        states.setdefault(keys[i], state0.filter)
        thetas[i] = state0.theta_hat
        scales.append(max(1.0, math.hypot(*problem.true_params), math.hypot(*thetas[i])))
    try:
        estimates = [np.empty((len(ks), q)) for _ in range(n)]
        # the tables of a diverging chunk overflow from the step it diverges
        # at on; every non-finite entry reaches the state it feeds, so the
        # bound check names that step, and no warning leaks
        with np.errstate(over="ignore", invalid="ignore"):
            for (start, stop), tables in zip(settings.chunks,
                                             stage_tables(problem, states, settings)):
                d = np.empty((min(n, SCAN_CONFIGS), stop - start, q + 1, q))
                lo, hi = np.searchsorted(ks, [start, stop + 1])
                for s in range(0, n, SCAN_CONFIGS):
                    try:
                        for i in range(s, min(s + SCAN_CONFIGS, n)):
                            # the law at the points [e_1 ... e_q, theta] over the
                            # distinct stage inputs is the affine table f of the
                            # law expanded at theta; its stage slices are the f_s
                            c = configs[i]
                            a, b, stages = tables[keys[i]]
                            f = LAWS[c.variant](np.vstack([np.eye(q), thetas[i]]), a, b,
                                                c.tau, c.mu)
                            d[i - s] = step_maps([f[stage] for stage in stages], dt)
                            del f  # not kept alive through the scan
                    except Exception as exc:
                        fail(i, exc)
                    if s >= n:  # a failure ended this slice's runs and the rest
                        break
                    e = min(s + SCAN_CONFIGS, n)
                    i = s  # an engine failure fails the slice's first config
                    try:
                        ys = affine_rk4(thetas[s:e], d[:e - s])
                        thetas[s:e] = ys[:, -1]
                        for i, ys_i in enumerate(ys, s):
                            _check_bounded(ys_i / scales[i], configs[i], dt, start)
                            estimates[i][lo:hi] = ys_i[ks[lo:hi] - start]
                    except Exception as exc:
                        fail(i, exc)
                # release this chunk's tables before the next chunk's are built
                del d, tables
    except Exception as exc:
        fail(0, exc)
    if error is not None:
        error.config_index = n
        raise error

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
