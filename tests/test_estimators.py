import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paramest.errors import ConfigurationError, UnsupportedDimensionError
from paramest.estimators import (
    LAWS,
    adjugate,
    det,
    drem_rhs,
    ge_closed_form_scalar,
    ge_rhs,
    manifold_residual,
    mge_gain,
    mge_mre_rhs,
    mge_rhs,
    mre_rhs,
    storage,
)
from paramest.filters import FilterState, filter_law
from paramest.signals import regressor_from_strings
from paramest.types import EstimatorState, Variant

finite = st.floats(-10.0, 10.0, allow_nan=False)
gains = st.floats(0.05, 20.0)


def state(theta_hat, omega_ext=None, g_ext=None):
    filt = None
    if omega_ext is not None:
        filt = FilterState(np.asarray(omega_ext, float), np.asarray(g_ext, float))
    return EstimatorState(theta_hat=np.asarray(theta_hat, float), filter=filt)


class TestGradient:
    def test_zero_error_at_truth(self):
        w = np.array([1.0, 0.0])
        g = float(w @ np.array([-2.0, 2.0]))
        assert np.array_equal(ge_rhs(state([-2.0, 2.0]), w, g, tau=1.0), [0.0, 0.0])

    def test_zero_regressor(self):
        assert np.array_equal(
            ge_rhs(state([3.0, -1.0]), np.zeros(2), 5.0, tau=2.0), [0.0, 0.0])

    def test_direct_substitution(self):
        # w=(1, 0.5), theta=(-2, 2): g = -1, prediction error -1
        w = np.array([1.0, 0.5])
        rhs = ge_rhs(state([0.0, 0.0]), w, -1.0, tau=1.0)
        assert np.allclose(rhs, [-1.0, -0.5])


class TestModifiedGain:
    def test_q2_example(self):
        assert np.allclose(mge_gain(np.array([1.0, 0.5]), 1.0, 0.95), [1.0, 0.05])

    def test_q3_example(self):
        assert np.allclose(mge_gain(np.array([0.0, 1.0, 0.0]), 1.0, 0.55), [0.0, 1.0, 1.0])

    def test_zero_mu_doubles_last_row(self):
        k = mge_gain(np.array([1.0, 0.5]), 2.0, 0.0)
        assert np.allclose(k, [2.0, 2.0])

    def test_scalar_falls_back_to_gradient(self):
        assert np.array_equal(mge_gain(np.array([0.7]), 3.0, 0.9), [0.7 * 3.0])

    def test_empty_regressor_rejected(self):
        with pytest.raises(ConfigurationError):
            mge_gain(np.array([]), 1.0, 0.5)

    @given(w1=finite, w2=finite, tau=gains, mu=st.floats(-1.5, 1.5))
    def test_q2_specialization_to_one_ulp(self, w1, w2, tau, mu):
        k = mge_gain(np.array([w1, w2]), tau, mu)
        expected = (tau * w1, 2 * tau * w2 - mu * tau * w1)
        for a, b in zip(k, expected):
            assert abs(a - b) <= math.ulp(max(abs(a), abs(b), 1e-300))

    @given(w1=finite, w2=finite, w3=finite, tau=gains, mu=st.floats(-1.5, 1.5))
    def test_q3_specialization_to_one_ulp(self, w1, w2, w3, tau, mu):
        k = mge_gain(np.array([w1, w2, w3]), tau, mu)
        expected = (tau * w1, tau * w2, 2 * tau * w3 + tau * w2 - 2 * mu * tau * w1)
        for a, b in zip(k, expected):
            assert abs(a - b) <= math.ulp(max(abs(a), abs(b), 1e-300))


class TestModifiedGradient:
    def test_equilibrium_at_truth(self):
        w = np.array([0.3, -1.2])
        theta = np.array([-2.0, 2.0])
        rhs = mge_rhs(state(theta), w, float(w @ theta), tau=1.0, mu=0.95)
        assert np.allclose(rhs, [0.0, 0.0], atol=1e-15)

    def test_example1_initial_row(self):
        w = np.array([1.0, 0.0])
        g = float(w @ np.array([-2.0, 2.0]))
        rhs = mge_rhs(state([0.0, 0.0]), w, g, tau=1.0, mu=0.95)
        assert np.allclose(rhs, [-2.0, 1.9])

    def test_example3_initial_row(self):
        w = np.array([0.0, 1.0, 0.0])
        g = float(w @ np.array([1.0, 2.0, 3.0]))
        rhs = mge_rhs(state([0.0, 0.0, 0.0]), w, g, tau=1.0, mu=0.55)
        assert np.allclose(rhs, [0.0, 2.0, 2.0])


class TestFilteredUpdates:
    def test_startup_is_stationary(self):
        s = state([0.0, 0.0], np.zeros((2, 2)), np.zeros(2))
        assert np.array_equal(mre_rhs(s, tau=1.0), [0.0, 0.0])

    def test_consistent_extension_at_truth(self):
        om = np.array([[1.0, 0.2], [0.2, 0.8]])
        theta = np.array([-2.0, 2.0])
        s = state(theta, om, om @ theta)
        assert np.allclose(mre_rhs(s, tau=3.0), [0.0, 0.0], atol=1e-15)

    def test_hand_example_against_loop_oracle(self):
        om = np.array([[1.0, 0.0], [0.0, 0.0]])
        gv = np.array([-2.0, 0.0])
        th = np.array([0.0, 0.0])
        got = mre_rhs(state(th, om, gv), tau=1.0)
        # independent matrix-vector evaluation, no numpy matmul
        expected = [1.0 * (gv[i] - sum(om[i, j] * th[j] for j in range(2)))
                    for i in range(2)]
        assert np.allclose(got, expected)
        assert np.allclose(got, [-2.0, 0.0])

    def test_missing_filter_rejected(self):
        with pytest.raises(ConfigurationError):
            mre_rhs(state([0.0, 0.0]), tau=1.0)
        with pytest.raises(ConfigurationError):
            mge_mre_rhs(state([0.0, 0.0]), tau=1.0, mu=0.5)

    def test_modified_rows_q2(self, rng):
        om = rng.normal(size=(2, 2))
        gv = rng.normal(size=2)
        th = rng.normal(size=2)
        tau, mu = 1.7, 0.6
        d = mge_mre_rhs(state(th, om, gv), tau, mu)
        eps = gv - om @ th
        assert d[0] == pytest.approx(tau * eps[0], rel=1e-15)
        assert d[1] == pytest.approx(2 * tau * eps[1] - mu * tau * eps[0], rel=1e-14)

    def test_modified_rows_q3(self, rng):
        om = rng.normal(size=(3, 3))
        gv = rng.normal(size=3)
        th = rng.normal(size=3)
        tau, mu = 0.9, 0.55
        d = mge_mre_rhs(state(th, om, gv), tau, mu)
        eps = gv - om @ th
        assert np.allclose(d[:2], tau * eps[:2])
        assert d[2] == pytest.approx(
            2 * tau * eps[2] + tau * eps[1] - 2 * mu * tau * eps[0], rel=1e-14)

    def test_zero_residual_is_equilibrium(self, rng):
        om = rng.normal(size=(3, 3))
        th = rng.normal(size=3)
        s = state(th, om, om @ th)
        assert np.allclose(mge_mre_rhs(s, tau=2.0, mu=0.8), np.zeros(3), atol=1e-14)


class TestDrem:
    def test_startup_stalls(self):
        s = state([5.0, -3.0], np.zeros((2, 2)), np.zeros(2))
        assert np.array_equal(drem_rhs(s, tau=1.0), [0.0, 0.0])

    def test_identity_extension_decouples(self):
        theta = np.array([-2.0, 2.0])
        s = state([0.0, 0.0], np.eye(2), theta)
        assert np.allclose(drem_rhs(s, tau=1.0), theta)

    def test_hand_example_against_2x2_oracle(self):
        om = np.array([[2.0, 0.0], [0.0, 1.0]])
        gv = np.array([-4.0, 2.0])
        got = drem_rhs(state([0.0, 0.0], om, gv), tau=1.0)
        # independent 2x2 determinant/adjugate arithmetic
        delta = om[0, 0] * om[1, 1] - om[0, 1] * om[1, 0]
        adj = [[om[1, 1], -om[0, 1]], [-om[1, 0], om[0, 0]]]
        y = [adj[0][0] * gv[0] + adj[0][1] * gv[1],
             adj[1][0] * gv[0] + adj[1][1] * gv[1]]
        expected = [1.0 * delta * (y[i] - delta * 0.0) for i in range(2)]
        assert np.allclose(got, expected)
        assert np.allclose(got, [-8.0, 8.0])

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_det_and_adjugate_identities(self, q, rng):
        for m in (rng.normal(size=(q, q)), rng.normal(size=(2, 3, q, q))):
            d = det(m)
            assert d.shape == m.shape[:-2]
            assert np.allclose(d, np.linalg.det(m), rtol=1e-10, atol=1e-12)
            assert np.allclose(adjugate(m) @ m, d[..., None, None] * np.eye(q), atol=1e-10)
        assert isinstance(det(m[0, 0]), np.float64)


def _minors_adjugate(m):
    """Reference adjugate of ``m`` ``[..., q, q]``: the transposed signed LU
    determinants of its q^2 minors, O(q^5) per matrix."""
    q = m.shape[-1]
    # keep[i] lists the indices other than i; minors[..., i, j] drops row i, column j
    keep = np.array([[k for k in range(q) if k != i] for i in range(q)])
    sign = (-1.0) ** np.add.outer(np.arange(q), np.arange(q))
    minors = m[..., keep[:, None, :, None], keep[None, :, None, :]]
    return (sign * np.linalg.det(minors)).swapaxes(-1, -2)


class TestAdjugateAboveQ3:
    """The SVD form against the minors, at every rank of a PSD matrix."""

    @pytest.mark.parametrize("q", [4, 6, 8, 16])
    def test_matches_the_minors_at_every_rank(self, q, rng):
        a = [rng.normal(size=(q, r)) for r in range(1, q + 1)]
        m = np.stack([x @ x.T for x in a])
        got, ref = adjugate(m), _minors_adjugate(m)
        gap = np.abs(got - ref).max(axis=(-2, -1))
        sigma_max = np.linalg.norm(m, 2, axis=(-2, -1))
        assert np.all(gap <= 1e-10 * sigma_max ** (q - 1))
        # at rank q - 1 (adj is rank one) and q (adj is det * inverse) the
        # adjugate is nonzero, and the gap is small against it too
        top = np.abs(ref[-2:]).max(axis=(-2, -1))
        assert np.all(top > 0) and np.all(gap[-2:] <= 1e-10 * top)

    @pytest.mark.parametrize("q", [4, 6, 8, 16])
    def test_zero_matrix_gives_exact_zeros(self, q):
        zero = np.zeros((q, q))
        assert det(zero) == 0.0
        assert np.array_equal(adjugate(zero), zero)

    @pytest.mark.parametrize("q", [4, 6])
    def test_non_finite_matrices_get_a_nan_adjugate(self, q, rng):
        # np.linalg.svd raises on nan and does not return on inf, so these
        # matrices never reach it
        m = rng.normal(size=(4, q, q))
        m[1, 0, 2], m[3, 1, 1] = np.inf, np.nan
        with np.errstate(invalid="ignore"):  # det(m) of those two, as in a run
            adj = adjugate(m)
            assert np.isnan(adjugate(m[1])).all() and np.isnan(adjugate(m[3])).all()
        assert np.isnan(adj[[1, 3]]).all()
        for i in (0, 2):
            assert np.array_equal(adj[i], adjugate(m[i]))


def _draw(rng, shape):
    """Normal entries scaled by 10^-3..10^3, so rounding differences show."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)


def _law_inputs(variant, rng, lead, q):
    """(a, b) of one law: (w, g) for GE/MGE, (Omega, G) for the filtered variants."""
    if variant in (Variant.GE, Variant.MGE):
        return _draw(rng, lead + (q,)), _draw(rng, lead)
    return _draw(rng, lead + (q, q)), _draw(rng, lead + (q,))


LEADS = ((), (3,), (2, 3))
SEEDS = st.integers(0, 2**32 - 1)


class TestLeadingAxes:
    """Every law over a stack equals the loop of its one-state calls, bit for bit."""

    @staticmethod
    def assert_stack_is_loop(stacked, lead, one):
        for idx in np.ndindex(*lead):
            assert np.array_equal(stacked[idx], one(idx)), idx

    @pytest.mark.parametrize("variant", list(Variant))
    @given(q=st.integers(1, 5), seed=SEEDS, tau=gains, mu=st.floats(-1.5, 1.5),
           batched=st.sampled_from(["all", "a_b", "theta", "points"]))
    def test_law_on_a_stack_is_the_loop(self, variant, q, seed, tau, mu, batched):
        """batched names the stacked inputs: all three, only (a, b), only theta,
        or "points", as simulate_all calls the laws: theta the q + 1 points
        [e_1 ... e_q, theta_s], a stacked ``[*lead, 1, ...]`` and b given at
        every point, so that the law folds a's stack against each point."""
        if variant is Variant.MGE_MRE and q < 2:
            q = 2
        rng = np.random.default_rng(seed)
        law = LAWS[variant]
        for lead in LEADS:
            a, b = _law_inputs(variant, rng, lead if batched != "theta" else (), q)
            if batched == "points":
                theta = np.vstack([np.eye(q), _draw(rng, (q,))])
                b = _law_inputs(variant, rng, lead + (q + 1,), q)[1]
                # a reversed stack folds from a copy, and a theta with a unit
                # axis for each stack axis but the first folds at every lead
                padded = theta.reshape((1,) * (len(lead) - 1) + theta.shape)
                for a, th in [(a, theta), (a[::-1], theta), (a, padded)]:
                    stacked = law(th, np.expand_dims(a, len(lead)), b, tau, mu)
                    assert stacked.shape == lead + (q + 1, q)
                    self.assert_stack_is_loop(stacked, lead + (q + 1,), lambda idx: law(
                        theta[idx[-1]], a[idx[:-1]], b[idx], tau, mu))
                continue
            theta = _draw(rng, (lead if batched != "a_b" else ()) + (q,))
            stacked = law(theta, a, b, tau, mu)
            assert stacked.shape == lead + (q,)
            self.assert_stack_is_loop(stacked, lead, lambda idx: law(
                theta if batched == "a_b" else theta[idx],
                *((a, b) if batched == "theta" else (a[idx], b[idx])), tau, mu))

    @given(q=st.integers(1, 5), seed=SEEDS, tau=gains, mu=st.floats(-1.5, 1.5))
    def test_helpers_on_a_stack_are_the_loop(self, q, seed, tau, mu):
        rng = np.random.default_rng(seed)
        for lead in LEADS:
            w, g = _draw(rng, lead + (q,)), _draw(rng, lead)
            m, v = _draw(rng, lead + (q, q)), _draw(rng, lead + (q,))
            self.assert_stack_is_loop(mge_gain(w, tau, mu), lead,
                                      lambda idx: mge_gain(w[idx], tau, mu))
            for fn in (det, adjugate):
                self.assert_stack_is_loop(fn(m), lead, lambda idx: fn(m[idx]))
            d_omega, d_g = filter_law(m, v, w, g)
            for stacked, part in ((d_omega, 0), (d_g, 1)):
                self.assert_stack_is_loop(stacked, lead, lambda idx: filter_law(
                    m[idx], v[idx], w[idx], g[idx])[part])

    @pytest.mark.parametrize("q", [4, 6, 16])
    def test_det_adjugate_of_a_stack_is_the_loop(self, q):
        # above q = 3 one batched SVD serves the whole stack
        rng = np.random.default_rng(q)
        lead = (5, 24)
        m = _draw(rng, lead + (q, q))
        for fn in (det, adjugate):
            self.assert_stack_is_loop(fn(m), lead, lambda idx: fn(m[idx]))

    @pytest.mark.parametrize("variant", list(Variant))
    @given(lead=st.sampled_from(LEADS), q=st.integers(1, 5), seed=SEEDS, tau=gains,
           mu=st.floats(-1.5, 1.5))
    def test_law_is_affine_in_theta(self, variant, lead, q, seed, tau, mu):
        """law(theta, a, b) = A theta + c with c = law(0, a, b) and column j of A
        law(e_j, a, 0): the form an affine-map integrator builds from these laws."""
        if variant is Variant.MGE_MRE and q < 2:
            q = 2
        rng = np.random.default_rng(seed)
        a, b = _law_inputs(variant, rng, lead, q)
        theta = _draw(rng, lead + (q,))
        law = LAWS[variant]
        c = law(np.zeros(q), a, b, tau, mu)
        A = np.stack([law(e, a, np.zeros_like(b), tau, mu) for e in np.eye(q)], axis=-1)
        # per state, the largest of the terms A_ij theta_j and c_i
        scale = np.maximum((np.abs(A) * np.abs(theta)[..., None, :]).max(axis=(-2, -1)),
                           np.abs(c).max(axis=-1))
        gap = np.abs(law(theta, a, b, tau, mu) - ((A @ theta[..., None])[..., 0] + c))
        assert np.all(gap.max(axis=-1) <= 1e-12 * scale)


class TestManifoldDiagnostics:
    def test_on_manifold_point(self):
        assert manifold_residual(np.array([1.0, 0.95]), mu=0.95) == pytest.approx(0.0)

    def test_off_manifold_q3(self):
        assert manifold_residual(np.array([1.0, 1.0, 1.0]), mu=0.5) == pytest.approx(1.0)

    def test_origin_is_on_manifold(self):
        assert manifold_residual(np.zeros(4), mu=0.3) == 0.0

    def test_scalar_rejected(self):
        with pytest.raises(ConfigurationError):
            manifold_residual(np.array([1.0]), mu=0.5)

    def test_rows_of_an_array(self, rng):
        errs = rng.normal(size=(5, 3))
        rows = manifold_residual(errs, mu=0.7)
        assert np.array_equal(rows, [manifold_residual(e, mu=0.7) for e in errs])

    @pytest.mark.parametrize("residual,expected", [(0.0, 0.0), (2.0, 2.0), (-3.0, 4.5)])
    def test_storage(self, residual, expected):
        assert storage(residual) == expected


class TestClosedFormScalar:
    def test_constant_unit_signal(self):
        spec = regressor_from_strings(["1"])
        got = ge_closed_form_scalar(spec, tau=1.0, theta_err_0=1.0, t=1.0)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_zero_signal_freezes_error(self):
        spec = regressor_from_strings(["0"])
        for t in (0.0, 1.0, 17.0):
            assert ge_closed_form_scalar(spec, 2.0, 0.7, t) == pytest.approx(0.7)

    def test_sine_over_one_period(self):
        # integral of sin^2 over a period is pi
        spec = regressor_from_strings(["sin(t)"])
        got = ge_closed_form_scalar(spec, 1.0, 1.0, 2 * math.pi)
        assert got == pytest.approx(math.exp(-math.pi), abs=1e-6)

    def test_vector_dimension_rejected(self):
        spec = regressor_from_strings(["1", "sin(t)"])
        with pytest.raises(UnsupportedDimensionError):
            ge_closed_form_scalar(spec, 1.0, 1.0, 1.0)
