import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paramest import estimators
from paramest.catalog import BUILTIN_NAMES, builtin, builtin_estimators, builtin_t_end
from paramest.errors import ConfigurationError, DivergenceError
from paramest.estimators import adjugate, det, ge_rhs, mge_mre_rhs, mge_rhs, mre_rhs
from paramest.filters import FilterState, filter_rhs
from paramest.signals import MAX_STEPS, RegressorSpec, regressor_from_strings
from paramest.sim import (
    CHUNK_STEPS,
    SCAN_CONFIGS,
    SimSettings,
    _scan,
    _step_loop,
    affine_rk4,
    convergence_time,
    rk4_step,
    simulate,
    simulate_all,
    step_maps,
)
from paramest.types import (
    EstimationProblem,
    EstimatorConfig,
    EstimatorState,
    Trajectory,
    Variant,
)


def make_problem(name):
    spec, theta, tau, mu = builtin(name)
    return EstimationProblem(spec, theta), tau, mu


class TestSettings:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimSettings(t_end=1.0, dt=0.0)
        with pytest.raises(ConfigurationError):
            SimSettings(t_end=0.5, dt=1.0)  # dt > t_end
        with pytest.raises(ConfigurationError):
            SimSettings(t_end=1.0, record_every=0)

    @pytest.mark.parametrize("field,kwargs", [
        ("t_end", {"t_end": math.inf}),
        ("t_end", {"t_end": math.nan}),
        ("t_end", {"t_end": 10 ** 400}),
        ("t_end", {"t_end": "1"}),
        ("dt", {"t_end": 1.0, "dt": True}),
        ("dt", {"t_end": 1.0, "dt": math.nan}),
        ("record_every", {"t_end": 1.0, "record_every": math.inf}),
        ("record_every", {"t_end": 1.0, "record_every": 2.5}),
        ("record_every", {"t_end": 1.0, "record_every": False}),
    ])
    def test_rejects_non_finite_bool_and_fractional_values(self, field, kwargs):
        with pytest.raises(ConfigurationError, match=field):
            SimSettings(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"t_end": 1e8},
        {"t_end": 1e300, "dt": 1e-300},
    ], ids=["too-many-steps", "step-count-overflows"])
    def test_rejects_more_steps_than_the_limit(self, kwargs):
        with pytest.raises(ConfigurationError, match=r"t_end=.* dt=.* steps"):
            SimSettings(**kwargs)

    def test_step_count_and_recorded_steps(self):
        settings = SimSettings(t_end=0.1, dt=1e-3, record_every=7)
        assert settings.n_steps == 100
        assert SimSettings(t_end=MAX_STEPS * 1e-3).n_steps == MAX_STEPS
        assert settings.record_steps == list(range(0, 99, 7)) + [100]
        assert SimSettings(t_end=0.1, dt=1e-3, record_every=10).record_steps[-2:] == [90, 100]
        assert SimSettings(t_end=1.0, dt=0.4).record_steps == [0, 2]  # 2.5 rounds to 2
        assert np.array_equal(SimSettings(t_end=1.0, dt=0.5).half_step_times(),
                              [0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.array_equal(SimSettings(t_end=1.0, dt=0.25).half_step_times(1, 3),
                              [0.25, 0.375, 0.5, 0.625, 0.75])

    def test_chunks_cover_the_steps_in_order(self):
        n = 2 * CHUNK_STEPS + 5
        assert SimSettings(t_end=n * 1e-3).chunks == [
            (0, CHUNK_STEPS), (CHUNK_STEPS, 2 * CHUNK_STEPS), (2 * CHUNK_STEPS, n)]
        assert SimSettings(t_end=0.01).chunks == [(0, 10)]

    def test_stores_floats_and_an_int_stride(self):
        settings = SimSettings(t_end=3, dt=np.float64(0.5), record_every=2.0)
        assert (settings.t_end, settings.dt, settings.record_every) == (3.0, 0.5, 2)
        assert [type(v) for v in (settings.t_end, settings.dt, settings.record_every)] == \
            [float, float, int]


class TestRk4Step:
    def test_zero_rhs_keeps_state(self):
        y = np.array([1.0, -2.0])
        out = rk4_step(lambda t, v: np.zeros_like(v), 0.0, y, 0.1)
        assert np.array_equal(out, y)

    def test_exponential_decay_single_step(self):
        out = rk4_step(lambda t, v: -v, 0.0, np.array([1.0]), 0.1)
        assert abs(float(out[0]) - math.exp(-0.1)) < 1e-6

    def test_fourth_order_convergence(self):
        def global_error(dt):
            y = np.array([1.0])
            for k in range(int(round(1.0 / dt))):
                y = rk4_step(lambda t, v: -v, k * dt, y, dt)
            return abs(float(y[0]) - math.exp(-1.0))

        factor = global_error(0.1) / global_error(0.05)
        assert 12.0 <= factor <= 20.0

    def test_nonfinite_stage_raises(self):
        def rhs(t, v):
            return np.array([float("nan")])

        with pytest.raises(DivergenceError, match="t=0"):
            rk4_step(rhs, 0.0, np.array([1.0]), 0.1)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ConfigurationError):
            rk4_step(lambda t, v: v, 0.0, np.array([1.0]), 0.0)


def affine_table(at, c):
    """Stage table f ``[n, q + 1, q]`` of dy/dt = c[i] + (y - o) @ at[i]."""
    return np.concatenate([at, c[:, None]], axis=1)


def decay_table(y, n_steps):
    """Affine stage table f of dy/dt = -y over n_steps steps, expanded at y."""
    f = np.tile(np.vstack([-np.eye(len(y)), np.zeros(len(y))]), (4 * n_steps, 1, 1))
    f[:, -1] += y @ f[:, :-1]
    return f


class TestAffineRk4:
    def test_returns_every_step_from_the_input(self):
        ys = affine_rk4(np.array([1.0]), step_maps(decay_table(np.array([1.0]), 7), 0.1))
        assert ys.shape == (8, 1)
        assert ys[0, 0] == 1.0

    def test_matches_repeated_rk4_step(self):
        dt = 0.01
        y = np.array([1.0, -2.0])
        states = affine_rk4(y, step_maps(decay_table(y, 100), dt))
        for k in range(101):
            assert np.max(np.abs(states[k] - y)) <= 1e-15
            y = rk4_step(lambda t, v: -v, k * dt, y, dt)

    def test_overflowing_block_product_keeps_a_state_at_zero(self):
        # component 0 starts at 0 and each step maps it to about 4e16 times
        # itself, so it stays 0, while a product of 19 such steps overflows:
        # 0 * inf must not turn the rows into nan; the law is expanded at
        # y = [0, 1]
        n_steps = 512
        f = np.tile([[-4e7, 0.0], [0.0, -1.0], [0.0, -1.0]], (4 * n_steps, 1, 1))
        ys = affine_rk4(np.array([0.0, 1.0]), step_maps(f, 1e-3))
        assert ys.shape == (n_steps + 1, 2) and np.all(np.isfinite(ys))
        assert np.all(ys[:, 0] == 0.0)
        assert ys[-1, 1] == pytest.approx(math.exp(-n_steps * 1e-3), rel=1e-12)

    @given(q=st.integers(1, 3), n_steps=st.integers(1, 600),
           seed=st.integers(0, 2 ** 32 - 1), dt=st.floats(1e-3, 0.1), at_rest=st.booleans())
    def test_matches_the_per_step_update(self, q, n_steps, seed, dt, at_rest):
        # random stable tables over horizons that end anywhere in a block,
        # expanded at y; at rest, the first steps' m_k, scaled through the
        # value row of f (m_k is linear in it), lie below half an ulp of y:
        # the per-step update keeps y there, though two of them add up to an
        # ulp
        rng = np.random.default_rng(seed)
        o = rng.uniform(1.0, 4.0, size=q) * rng.choice([-1.0, 1.0], size=q)
        c = rng.normal(size=(4 * n_steps, q))
        at = -np.eye(q) + 0.3 * rng.normal(size=(4 * n_steps, q, q))
        f = affine_table(at, c)
        if at_rest:
            y = o
            rest = rng.integers(0, n_steps + 1)
            m = step_maps(f[:4 * rest], dt)[:, q]
            scale = 0.4 * np.min(np.spacing(np.abs(y))) / np.max(np.abs(m), axis=1)
            f[:4 * rest, q] *= np.repeat(scale, 4)[:, None]
        else:
            y = o + rng.normal(size=q)
            f[:, q] += (y - o) @ f[:, :q]
        d = step_maps(f, dt)
        ref = [y]
        for d_k in d:
            ref.append(ref[-1] + (d_k[q] + (ref[-1] - y) @ d_k[:q]))
        ref = np.array(ref)
        ys = affine_rk4(y, step_maps(f, dt))
        rests = np.all(ref == y, axis=1)
        assert np.all(ys[rests] == y)
        if not rests.all():
            # the first step off rest is the per-step update's, to the bit
            first = int(np.argmin(rests))
            assert np.array_equal(ys[first], ref[first])
        np.testing.assert_allclose(ys, ref, rtol=1e-12, atol=1e-12)

    @given(q=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           dt=st.floats(1e-3, 0.5))
    def test_step_map_is_one_rk4_step_of_the_affine_law(self, q, seed, dt):
        rng = np.random.default_rng(seed)
        c, at = rng.normal(size=(4, q)), rng.normal(size=(4, q, q))
        origin, y = rng.normal(size=q), rng.normal(size=q)
        d = step_maps(affine_table(at, c), dt)
        stage = iter(range(4))

        def rhs(t, v):  # stages are called in order, stage s at call s
            i = next(stage)
            return c[i] + (v - origin) @ at[i]

        ref = rk4_step(rhs, 0.0, y, dt)
        out = y + np.append(y - origin, 1.0) @ d[0]
        assert d.shape == (1, q + 1, q)
        assert np.max(np.abs(out - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def stable_table(rng, q, n_steps):
    """A random stable affine stage table f over n_steps steps."""
    at = -np.eye(q) + 0.3 * rng.normal(size=(4 * n_steps, q, q))
    return affine_table(at, rng.normal(size=(4 * n_steps, q)))


class TestConfigAxis:
    """Configs on a leading axis run in one scan, each to the bit as alone."""

    @pytest.mark.parametrize("configs", [1, 2, 5])
    @pytest.mark.parametrize("n_steps", [1, 13, 512])
    def test_batched_scan_is_each_configs_scan(self, configs, n_steps):
        rng = np.random.default_rng(configs * 1000 + n_steps)
        d = 1e-2 * rng.normal(size=(configs, n_steps, 4, 3))
        rows = _scan(d)
        assert rows.shape == (configs, n_steps, 3)
        for j in range(configs):
            assert np.array_equal(rows[j], _scan(d[j:j + 1])[0])

    def test_non_finite_config_falls_back_alone(self):
        # the middle config's block products overflow to 0 * inf = nan (see
        # test_overflowing_block_product_keeps_a_state_at_zero), so only it
        # takes the per-step update; its mates keep their scanned rows
        n_steps, dt = 512, 1e-3
        rng = np.random.default_rng(3)
        overflowing = np.tile([[-4e7, 0.0], [0.0, -1.0], [0.0, -1.0]], (4 * n_steps, 1, 1))
        tables = [stable_table(rng, 2, n_steps), overflowing, stable_table(rng, 2, n_steps)]
        y = np.array([[0.5, -1.0], [0.0, 1.0], [2.0, 0.3]])
        d = np.stack([step_maps(f, dt) for f in tables])
        ys = affine_rk4(y, d.copy())
        assert ys.shape == (3, n_steps + 1, 2) and np.all(np.isfinite(ys))
        assert np.all(ys[1, :, 0] == 0.0)
        for j, f in enumerate(tables):
            assert np.array_equal(ys[j], affine_rk4(y[j], step_maps(f, dt)))
        stepped = np.empty_like(ys)
        stepped[:, 0] = y
        for j in range(3):
            _step_loop(stepped[j], d[j])
        assert np.array_equal(ys[1], stepped[1])
        for j in (0, 2):
            scanned = y[j] + _scan(d[j:j + 1])[0]
            assert np.array_equal(ys[j, 1:], scanned)
            assert not np.array_equal(ys[j], stepped[j])  # the two differ by rounding

    def test_config_at_rest_stays_there_in_a_group(self):
        # three configs in one scan, as simulate_all scans a slice of its
        # running configs: the middle config's first 300 step offsets lie
        # below half an ulp of its state, as in
        # test_matches_the_per_step_update; it rests exactly until step 300
        # while its mates in the scan move from step 0
        n_steps, rest, dt = 512, 300, 1e-2
        rng = np.random.default_rng(5)
        tables = [stable_table(rng, 3, n_steps) for _ in range(3)]
        y = rng.uniform(1.0, 4.0, size=(3, 3))
        m = step_maps(tables[1][:4 * rest], dt)[:, 3]
        scale = 0.4 * np.min(np.spacing(y[1])) / np.max(np.abs(m), axis=1)
        tables[1][:4 * rest, 3] *= np.repeat(scale, 4)[:, None]
        ys = affine_rk4(y, np.stack([step_maps(f, dt) for f in tables]))
        assert np.all(ys[1, :rest + 1] == y[1]) and np.any(ys[1, rest + 1] != y[1])
        assert np.all(np.any(ys[[0, 2], 1] != y[[0, 2]], axis=1))
        for j, f in enumerate(tables):
            assert np.array_equal(ys[j], affine_rk4(y[j], step_maps(f, dt)))

    def test_gain_sweep_matches_each_simulate_call(self):
        # 24 seeded configs cycling the five variants, two filter_init
        # values: three slices of SCAN_CONFIGS configs, each one scan
        problem, _, _ = make_problem("example6")
        rng = np.random.default_rng(2026)
        variants = list(Variant)
        configs = [EstimatorConfig(variant=variants[i % 5],
                                   tau=float(np.exp(rng.uniform(-0.7, 3.0))),
                                   mu=float(rng.uniform(0.05, 0.95)),
                                   theta_hat_0=rng.normal(0.0, 2.0, 3),
                                   filter_init=0.1 * (i % 3 == 0))
                   for i in range(24)]
        settings = SimSettings(t_end=(2 * CHUNK_STEPS + 76) * 1e-3, record_every=3)
        for config, joint in zip(configs, simulate_all(problem, configs, settings)):
            alone = simulate(problem, config, settings)
            assert joint.estimates.tobytes() == alone.estimates.tobytes()
            assert joint.err_norms.tobytes() == alone.err_norms.tobytes()

    def test_earlier_config_raises_when_groups_diverge_in_one_chunk(self):
        # configs 1 (MGE) and 2 (GE) of one slice both diverge at the first
        # step, and config 1, the first in config order, raises
        problem = EstimationProblem(regressor_from_strings(["1", "cos(t)"]),
                                    np.array([1.0, 2.0]))
        configs = [EstimatorConfig(variant=Variant.GE, tau=1.0),
                   EstimatorConfig(variant=Variant.MGE, tau=1e9, mu=0.5),
                   EstimatorConfig(variant=Variant.GE, tau=1e9)]
        settings = SimSettings(t_end=1.0)
        with pytest.raises(DivergenceError) as alone:
            simulate(problem, configs[1], settings)
        with pytest.raises(DivergenceError) as joint:
            simulate_all(problem, configs, settings)
        assert str(joint.value) == str(alone.value)
        assert "variant MGE" in str(joint.value) and joint.value.config_index == 1

    @pytest.mark.parametrize("kind", ["diverges", "law raises"])
    @pytest.mark.parametrize("index", [0, SCAN_CONFIGS - 1, SCAN_CONFIGS, SCAN_CONFIGS + 1])
    def test_first_failing_config_raises_across_slices(self, index, kind):
        # 2 * SCAN_CONFIGS + 3 configs on a scalar problem, so the last slice
        # is short. Config `index` fails at the first step: GE at tau = 1e9
        # diverges, and MGE_MRE raises in its law at q = 1 (at the head of a
        # slice no row of its scan is built). The two configs after it (MGE
        # diverging, MGE_MRE) and the last config also fail at the first
        # step, and must not win.
        problem = EstimationProblem(regressor_from_strings(["1 + 0.5*sin(t)"]),
                                    np.array([1.5]))
        rng = np.random.default_rng(index)
        variants = [Variant.GE, Variant.MGE, Variant.MRE, Variant.DREM]
        configs = [EstimatorConfig(variant=variants[i % 4],
                                   tau=float(rng.uniform(0.5, 5.0)), mu=0.5,
                                   theta_hat_0=rng.normal(0.0, 2.0, 1),
                                   filter_init=0.1 * (i % 3 == 0))
                   for i in range(2 * SCAN_CONFIGS + 3)]
        diverging = EstimatorConfig(variant=Variant.GE, tau=1e9)
        raising = EstimatorConfig(variant=Variant.MGE_MRE, tau=1.0, mu=0.5)
        first = diverging if kind == "diverges" else raising
        configs[index], configs[index + 2], configs[-1] = first, raising, diverging
        configs[index + 1] = EstimatorConfig(variant=Variant.MGE, tau=1e9, mu=0.5)
        settings = SimSettings(t_end=(CHUNK_STEPS + 10) * 1e-3)
        with pytest.raises(Exception) as alone:
            simulate(problem, first, settings)
        with pytest.raises(Exception) as joint:
            simulate_all(problem, configs, settings)
        assert type(joint.value) is type(alone.value)
        assert str(joint.value) == str(alone.value)
        assert joint.value.config_index == index

    def test_configs_before_a_law_failure_are_scanned(self):
        # config 1's law raises in the first chunk; config 0, before it in
        # its slice, still runs that chunk and diverges only in the third
        # (tau * dt = 2.8, just past RK4's stability limit), so its error
        # wins with the time simulate gives it alone
        problem = EstimationProblem(regressor_from_strings(["1"]), np.array([1.0]))
        configs = [EstimatorConfig(variant=Variant.GE, tau=2800.0),
                   EstimatorConfig(variant=Variant.MGE_MRE, tau=1.0, mu=0.5)]
        settings = SimSettings(t_end=4 * CHUNK_STEPS * 1e-3)
        with pytest.raises(DivergenceError) as alone:
            simulate(problem, configs[0], settings)
        with pytest.raises(DivergenceError) as joint:
            simulate_all(problem, configs, settings)
        assert str(joint.value) == str(alone.value) and joint.value.config_index == 0
        assert float(str(alone.value).split("t=")[1].split(" ")[0]) > 2 * CHUNK_STEPS * 1e-3


class TestSimulate:
    @pytest.mark.parametrize("name,variant", [
        (name, variant)
        for name in BUILTIN_NAMES
        for variant in Variant
    ])
    def test_truth_is_equilibrium(self, name, variant):
        # an estimate started at the truth stays there to the bit, across
        # chunk ends: each chunk's tables expand the law at the estimate it
        # starts from, where the unfiltered laws are exactly 0 and the
        # filtered ones are too small to move the estimate by an ulp
        problem, tau, mu = make_problem(name)
        cfg = EstimatorConfig(variant=variant, tau=tau, mu=mu,
                              theta_hat_0=problem.true_params.copy())
        settings = SimSettings(t_end=(2 * CHUNK_STEPS + 100) * 1e-3, record_every=1)
        traj = simulate(problem, cfg, settings)
        if (name, variant) == ("example5", Variant.MGE_MRE):
            # tau = 50 and the modified last-row gain lift the filter's
            # rounding-level residual G - Omega theta above half an ulp of
            # theta from t = 2.558 on; a one-state loop over the law moves
            # at the same step
            assert np.max(traj.err_norms) <= 1e-14
        else:
            assert np.max(traj.err_norms) == 0.0

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @pytest.mark.parametrize("variant", [Variant.GE, Variant.MGE])
    def test_truth_is_equilibrium_at_high_gain(self, name, variant):
        # g - w^T theta is exactly 0 at the truth, so the unfiltered laws stay
        # at rest at any gain. At tau = 100 (tau |w|^2 dt <= 0.3 on every
        # builtin) the rounding of a law expanded away from the carried
        # estimate, e.g. at 0, would move it by an ulp.
        problem, _, mu = make_problem(name)
        cfg = EstimatorConfig(variant=variant, tau=100.0, mu=mu,
                              theta_hat_0=problem.true_params.copy())
        settings = SimSettings(t_end=(2 * CHUNK_STEPS + 100) * 1e-3, record_every=1)
        assert np.max(simulate(problem, cfg, settings).err_norms) == 0.0

    def test_law_runs_once_per_chunk(self, monkeypatch):
        # each chunk's affine table comes from one call of the law, so DREM
        # takes the determinant and adjugate of its stage tables once a chunk
        calls = []
        det_adjugate = estimators._det_adjugate

        def counted(m):
            calls.append(m.shape)
            return det_adjugate(m)

        monkeypatch.setattr(estimators, "_det_adjugate", counted)
        problem, tau, _ = make_problem("example6")
        settings = SimSettings(t_end=(CHUNK_STEPS + 10) * 1e-3)
        simulate(problem, EstimatorConfig(variant=Variant.DREM, tau=tau), settings)
        assert len(settings.chunks) == 2 and len(calls) == 2

    def test_recording_includes_endpoints_and_subsamples(self):
        problem, tau, _ = make_problem("example1")
        cfg = EstimatorConfig(variant=Variant.GE, tau=tau)
        traj = simulate(problem, cfg, SimSettings(t_end=1.0, dt=1e-3, record_every=10))
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert len(traj) == 101
        assert np.allclose(np.diff(traj.times), 0.01)

    def test_partial_final_record(self):
        problem, tau, _ = make_problem("example1")
        cfg = EstimatorConfig(variant=Variant.GE, tau=tau)
        traj = simulate(problem, cfg, SimSettings(t_end=0.1, dt=1e-3, record_every=7))
        assert traj.times[-1] == pytest.approx(0.1, abs=1e-12)
        assert np.all(np.diff(traj.times) > 0)

    def test_deterministic(self):
        problem, tau, mu = make_problem("example1")
        cfg = EstimatorConfig(variant=Variant.MGE, tau=tau, mu=mu)
        settings = SimSettings(t_end=2.0)
        a = simulate(problem, cfg, settings)
        b = simulate(problem, cfg, settings)
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.err_norms, b.err_norms)
        assert np.array_equal(a.storage_values, b.storage_values)

    @pytest.mark.parametrize("tau,t_end,every", [
        (1e7, 1.0, 10), (1e7, 3.0, 100), (1e7, 3.0, 1012), (1e300, 3.0, 1012)])
    def test_divergence_detected_with_context(self, tau, t_end, every):
        # one RK4 step at dt * tau = 1e4 multiplies the error by about 4e14,
        # so the first step leaves the bound, whichever steps are recorded;
        # at tau = 1e300 the step maps themselves overflow, without a warning
        problem = EstimationProblem(regressor_from_strings(["1"]), np.array([1.0]))
        cfg = EstimatorConfig(variant=Variant.GE, tau=tau)
        settings = SimSettings(t_end=t_end, dt=1e-3, record_every=every)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError,
                               match=r"by t=0\.001 \(component 0, variant GE, dt=0\.001\)"):
                simulate(problem, cfg, settings)

    def test_scalar_problem_has_nan_manifold_diagnostics(self):
        problem = EstimationProblem(regressor_from_strings(["sin(t)"]), np.array([1.0]))
        traj = simulate(problem, EstimatorConfig(variant=Variant.GE, tau=1.0),
                        SimSettings(t_end=1.0))
        assert np.all(np.isnan(traj.manifold_residuals))
        assert np.all(np.isnan(traj.storage_values))

    def test_ge_energy_decay_stepwise(self):
        # squared error-norm decreases and its increments match the analytic
        # derivative -tau*(w^T err)^2 at the recorded midpoints
        problem, tau, _ = make_problem("example1")
        traj = simulate(problem, EstimatorConfig(variant=Variant.GE, tau=tau),
                        SimSettings(t_end=10.0))
        energy = 0.5 * traj.err_norms ** 2
        assert np.all(np.diff(energy) <= 1e-10)

        errs = problem.true_params[None, :] - traj.estimates
        w = problem.regressor.sample(traj.times)
        deriv = -tau * np.einsum("ij,ij->i", w, errs) ** 2
        assert np.all(deriv <= 0.0)
        fd = (energy[2:] - energy[:-2]) / (traj.times[2:] - traj.times[:-2])
        gap = np.abs(fd - deriv[1:-1])
        assert np.max(gap / (1.0 + np.abs(deriv[1:-1]))) < 1e-3

    def test_mismatched_initial_estimate_rejected(self):
        problem, tau, _ = make_problem("example1")
        cfg = EstimatorConfig(variant=Variant.GE, tau=tau, theta_hat_0=np.zeros(3))
        with pytest.raises(ConfigurationError):
            simulate(problem, cfg, SimSettings(t_end=1.0))


def reference_estimates(problem, cfg, dt, n_steps):
    """theta_hat after every step of rk4_step over the public *_rhs laws,
    on the flat state [theta_hat, Omega.ravel(), G].

    DREM is written out here instead: drem_rhs and simulate share one law,
    so a wrong DREM law would pass a comparison through drem_rhs."""
    q = problem.dimension
    tau, mu = cfg.tau, cfg.mu

    def rhs(t, y):
        w = problem.regressor.evaluate(t)
        g = float(w @ problem.true_params)
        if cfg.variant is Variant.GE:
            return ge_rhs(EstimatorState(y), w, g, tau)
        if cfg.variant is Variant.MGE:
            return mge_rhs(EstimatorState(y), w, g, tau, mu)
        filt = FilterState(y[q:q + q * q].reshape(q, q), y[q + q * q:])
        state = EstimatorState(y[:q], filt)
        if cfg.variant is Variant.MRE:
            d_theta = mre_rhs(state, tau)
        elif cfg.variant is Variant.MGE_MRE:
            d_theta = mge_mre_rhs(state, tau, mu)
        else:
            delta = det(filt.omega_ext)
            d_theta = tau * delta * (adjugate(filt.omega_ext) @ filt.g_ext - delta * y[:q])
        d_filt = filter_rhs(filt, w, g)
        return np.concatenate([d_theta, d_filt.omega_ext.ravel(), d_filt.g_ext])

    state0 = cfg.initial_state(q)
    y = state0.theta_hat
    if cfg.variant.uses_filter:
        y = np.concatenate([y, state0.filter.omega_ext.ravel(), state0.filter.g_ext])
    rows = [y[:q]]
    for k in range(n_steps):
        y = rk4_step(rhs, k * dt, y, dt)
        rows.append(y[:q])
    return np.array(rows)


class TestReferenceIntegrator:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @pytest.mark.parametrize("variant", list(Variant))
    def test_simulate_matches_rk4_step_over_rhs_laws(self, name, variant):
        problem, tau, mu = make_problem(name)
        cfg = EstimatorConfig(variant=variant, tau=tau, mu=mu)
        # DREM's estimate stays below 1e-9 over 0.2 s (below 1e-28 on
        # example6) while det(Omega) builds up; by 3 s a sign error in its
        # law moves it by more than 3e-11 on every builtin
        n_steps = 3000 if variant is Variant.DREM else 200
        traj = simulate(problem, cfg,
                        SimSettings(t_end=n_steps * 1e-3, dt=1e-3, record_every=1))
        ref = reference_estimates(problem, cfg, 1e-3, n_steps)
        assert traj.estimates.shape == ref.shape
        assert np.max(np.abs(traj.estimates - ref)) <= 1e-12


class TestChunkBoundaries:
    """simulate carries the estimate and the filter across chunk ends, and
    expands each chunk's law at the estimate it carries in; the reference
    horizon above sits inside one chunk and cannot see either."""

    N_STEPS = 2 * CHUNK_STEPS + CHUNK_STEPS // 2

    @pytest.mark.parametrize("variant", list(Variant))
    def test_matches_reference_across_chunks(self, variant, monkeypatch):
        problem, tau, mu = make_problem("example6")
        cfg = EstimatorConfig(variant=variant, tau=tau, mu=mu, filter_init=0.1)
        ref = reference_estimates(problem, cfg, 1e-3, self.N_STEPS)

        sampled = []
        sample = RegressorSpec.sample

        def spy(spec, ts):
            sampled.append(len(ts))
            return sample(spec, ts)

        monkeypatch.setattr(RegressorSpec, "sample", spy)
        for every in (1, 7, CHUNK_STEPS + 500):
            settings = SimSettings(t_end=self.N_STEPS * 1e-3, record_every=every)
            traj = simulate(problem, cfg, settings)
            assert np.array_equal(traj.times, np.array(settings.record_steps) * 1e-3)
            assert np.max(np.abs(traj.estimates - ref[settings.record_steps])) <= 1e-12
        assert sampled and max(sampled) <= 2 * CHUNK_STEPS + 1


class TestDtRobustness:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_half_step_changes_little(self, name):
        problem, _, _ = make_problem(name)
        t_end = builtin_t_end(name)
        for cfg in builtin_estimators(name):
            coarse = simulate(problem, cfg, SimSettings(t_end=t_end, dt=1e-3))
            fine = simulate(problem, cfg, SimSettings(t_end=t_end, dt=5e-4))
            gap = np.linalg.norm(coarse.estimates[-1] - fine.estimates[-1])
            assert gap < 1e-4, f"{name}/{cfg.resolved_label}: {gap:.2e}"


class TestConvergenceTime:
    def _traj(self, times, errs):
        n = len(times)
        return Trajectory(times=np.asarray(times, float),
                          estimates=np.zeros((n, 2)),
                          err_norms=np.asarray(errs, float),
                          manifold_residuals=np.zeros(n),
                          storage_values=np.zeros(n))

    def test_zero_error_converges_at_start(self):
        traj = self._traj([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        assert convergence_time(traj, 0.1) == 0.0

    def test_monotone_crossing(self):
        times = np.arange(0.0, 10.1, 0.1)
        errs = 1.0 / (1.0 + times)  # crosses 0.5 exactly at t=1.0
        traj = self._traj(times, errs)
        assert convergence_time(traj, 0.5) == pytest.approx(1.0)

    def test_never_converges(self):
        traj = self._traj([0.0, 1.0, 2.0], [1.0, 0.05, 0.2])
        assert convergence_time(traj, 0.1) is None

    def test_relapse_moves_time_back(self):
        traj = self._traj([0.0, 1.0, 2.0, 3.0], [1.0, 0.05, 0.2, 0.01])
        assert convergence_time(traj, 0.1) == 3.0

    def test_tolerance_validated(self):
        traj = self._traj([0.0], [0.0])
        with pytest.raises(ConfigurationError):
            convergence_time(traj, 0.0)

    def test_nan_tolerance_rejected(self):
        # no error compares above nan, so it would report convergence at the
        # first recorded time
        traj = self._traj([0.0, 1.0], [3.0, 2.5])
        with pytest.raises(ConfigurationError, match="tolerance must be positive"):
            convergence_time(traj, float("nan"))
