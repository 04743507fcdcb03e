import math

import numpy as np
import pytest

from paramest.catalog import BUILTIN_NAMES, builtin
from paramest.errors import ConfigurationError
from paramest.filters import FilterState, filter_rhs
from paramest.signals import regressor_from_strings
from paramest.sim import CHUNK_STEPS, SimSettings, rk4_step, stage_tables
from paramest.types import EstimationProblem


def end_state(spec, theta, t_end, dt=1e-3):
    """The filter state at t_end of the run from zero over ``spec`` with
    g = w^T theta, read from the ``stage_tables`` walk that simulate_all runs."""
    states = {"filter": FilterState.uniform(spec.dimension)}
    problem = EstimationProblem(spec, np.asarray(theta, dtype=float))
    for _ in stage_tables(problem, states, SimSettings(t_end=t_end, dt=dt)):
        pass
    return states["filter"]


class TestRhs:
    def test_direct_substitution(self):
        state = FilterState.uniform(2, 0.0)
        d = filter_rhs(state, np.array([1.0, 0.0]), 0.0)
        assert np.array_equal(d.omega_ext, [[1.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(d.g_ext, [0.0, 0.0])

    def test_symmetry_preserved_exactly(self, rng):
        om = rng.normal(size=(3, 3))
        om = om + om.T
        state = FilterState(om, rng.normal(size=3))
        d = filter_rhs(state, rng.normal(size=3), 1.7)
        assert np.array_equal(d.omega_ext, d.omega_ext.T)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            filter_rhs(FilterState.uniform(2), np.ones(3), 0.0)
        with pytest.raises(ConfigurationError):
            FilterState(np.zeros((2, 2)), np.zeros(3))


class TestTrajectories:
    def test_constant_regressor_matches_closed_form(self):
        # dx/dt = -x + c from 0 has x(t) = (1 - e^-t) c, applied entrywise
        w = np.array([1.0, 0.5])
        state = end_state(regressor_from_strings(["1", "0.5"]), [0.0, 0.0], t_end=1.0)
        target = (1.0 - math.exp(-1.0)) * np.outer(w, w)
        assert np.max(np.abs(state.omega_ext - target)) < 1e-8

    def test_steady_state_is_source(self):
        # g = w^T theta = 0.8 * 1.5625 = 1.25 exactly
        w = np.array([0.8, -0.3])
        g = 1.25
        state = end_state(regressor_from_strings(["0.8", "-0.3"]), [1.5625, 0.0], t_end=40.0)
        assert np.max(np.abs(state.omega_ext - np.outer(w, w))) < 1e-8
        assert np.max(np.abs(state.g_ext - w * g)) < 1e-8

    def test_extended_pair_consistent_with_truth(self):
        # G - Omega theta filters the residual of g = w^T theta, which is zero
        spec, theta, _, _ = builtin("example1")
        state = end_state(spec, theta, t_end=10.0)
        gap = np.linalg.norm(state.g_ext - state.omega_ext @ theta)
        assert gap < 1e-6

    def test_output_filter_is_linear_in_g(self, rng):
        spec, _, _, _ = builtin("example1")
        thetas = rng.uniform(-2.0, 2.0, size=(2, 2))

        def run(theta):
            return end_state(spec, theta, t_end=2.0).g_ext

        g_a = run(thetas[0])
        g_b = run(thetas[1])
        g_ab = run(thetas[0] + thetas[1])
        assert np.max(np.abs(g_ab - (g_a + g_b))) < 1e-12

    def test_psd_from_zero_init_along_scenarios(self):
        for name in ("example1", "example5"):
            spec, theta, _, _ = builtin(name)
            state = end_state(spec, theta, t_end=8.0, dt=2e-3)
            asym = np.max(np.abs(state.omega_ext - state.omega_ext.T))
            assert asym <= 1e-12 * max(1.0, np.max(np.abs(state.omega_ext)))
            assert np.linalg.eigvalsh(state.omega_ext)[0] >= -1e-9


class TestScan:
    """The production scan against rk4_step over filter_rhs, stage by stage."""

    # blocks are ceil(sqrt(m)) steps: 16 steps fill four blocks of 4, and
    # 13 steps end one step past the edge of their third block of 4
    @pytest.mark.parametrize("n_steps", [2 * CHUNK_STEPS + 100, 1, 16, 13],
                             ids=["chunks", "one-step", "block-edge", "part-block"])
    @pytest.mark.parametrize("init", [0.0, 0.1])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_states_and_stages_match_rk4_step(self, name, init, n_steps):
        spec, theta, _, _ = builtin(name)
        q = spec.dimension
        dt = 1e-3
        stages = []  # every state the reference evaluates the law at, in order

        def rhs(t, y):
            stages.append(y)
            w = spec.evaluate(t)
            d = filter_rhs(FilterState(y[:q * q].reshape(q, q), y[q * q:]), w, w @ theta)
            return np.concatenate([d.omega_ext.ravel(), d.g_ext])

        y = np.full(q * q + q, init)
        for k in range(n_steps):
            y = rk4_step(rhs, k * dt, y, dt)
        ref_stages = np.array(stages).reshape(n_steps, 4, q * q + q)

        states = {"filter": FilterState.uniform(q, init)}
        chunks = [tables["filter"] for tables in stage_tables(
            EstimationProblem(spec, theta), states, SimSettings(t_end=n_steps * dt, dt=dt))]
        # estimators._residual folds a's stage axis into its rows as a view
        assert all(a.flags.c_contiguous for a, _, _ in chunks)
        # the walk's point tables hold the stages in a, and b at the last
        # point, stage s of the chunk's steps at the rows of its slice
        omega_ext = np.concatenate([np.stack([a[s, 0] for s in stages], axis=1)
                                    for a, _, stages in chunks]).reshape(n_steps, 4, q * q)
        g_ext = np.concatenate([np.stack([b[s, q] for s in stages], axis=1)
                                for _, b, stages in chunks]).reshape(n_steps, 4, q)
        end = states["filter"]
        got = np.concatenate([omega_ext, g_ext], axis=-1)
        got_end = np.concatenate([end.omega_ext.ravel(), end.g_ext])
        for ours, ref in ((got, ref_stages), (got_end, y)):
            assert np.max(np.abs(ours - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-12
