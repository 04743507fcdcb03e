import numpy as np
import pytest

from paramest.errors import ConfigurationError
from paramest.signals import regressor_from_strings
from paramest.types import (
    EstimationProblem,
    EstimatorConfig,
    Trajectory,
    Variant,
)


class TestProblem:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            EstimationProblem(regressor_from_strings(["1", "t"]), np.zeros(3))

    def test_rejects_nonfinite_params(self):
        with pytest.raises(ConfigurationError):
            EstimationProblem(regressor_from_strings(["1"]), np.array([np.inf]))


class TestEstimatorConfig:
    def test_tau_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            EstimatorConfig(variant=Variant.GE, tau=0.0)
        with pytest.raises(ConfigurationError):
            EstimatorConfig(variant=Variant.GE, tau=-1.0)

    def test_mu_must_be_finite_for_manifold_variants(self):
        with pytest.raises(ConfigurationError):
            EstimatorConfig(variant=Variant.MGE, tau=1.0, mu=float("nan"))
        # ignored elsewhere
        EstimatorConfig(variant=Variant.GE, tau=1.0, mu=float("nan"))

    def test_variant_accepts_strings(self):
        cfg = EstimatorConfig(variant="MGE_MRE", tau=1.0, mu=0.5)
        assert cfg.variant is Variant.MGE_MRE

    def test_filter_usage_table(self):
        assert not Variant.GE.uses_filter and not Variant.MGE.uses_filter
        assert all(v.uses_filter for v in (Variant.MRE, Variant.MGE_MRE, Variant.DREM))
        assert Variant.MGE.uses_manifold_gain and Variant.MGE_MRE.uses_manifold_gain
        assert not Variant.DREM.uses_manifold_gain

    def test_initial_state_defaults_and_filter(self):
        cfg = EstimatorConfig(variant=Variant.MRE, tau=1.0, filter_init=0.5)
        state = cfg.initial_state(2)
        assert np.array_equal(state.theta_hat, [0.0, 0.0])
        assert np.all(state.filter.omega_ext == 0.5)
        assert np.all(state.filter.g_ext == 0.5)
        plain = EstimatorConfig(variant=Variant.GE, tau=1.0).initial_state(2)
        assert plain.filter is None

    def test_initial_state_length_checked(self):
        cfg = EstimatorConfig(variant=Variant.GE, tau=1.0,
                              theta_hat_0=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ConfigurationError):
            cfg.initial_state(2)

    def test_mu_flag_outside_unit_interval(self):
        assert EstimatorConfig(variant=Variant.MGE, tau=1.0, mu=1.5).mu_flag()
        assert EstimatorConfig(variant=Variant.MGE, tau=1.0, mu=0.0).mu_flag()
        assert not EstimatorConfig(variant=Variant.MGE, tau=1.0, mu=0.95).mu_flag()
        assert not EstimatorConfig(variant=Variant.GE, tau=1.0, mu=7.0).mu_flag()

    def test_labels(self):
        assert EstimatorConfig(variant=Variant.GE, tau=1.0).resolved_label == "GE"
        assert EstimatorConfig(variant=Variant.GE, tau=1.0,
                               label="baseline").resolved_label == "baseline"


class TestTrajectory:
    def test_rejects_misaligned_fields(self):
        with pytest.raises(ConfigurationError):
            Trajectory(times=np.arange(3.0), estimates=np.zeros((2, 2)),
                       err_norms=np.zeros(3), manifold_residuals=np.zeros(3),
                       storage_values=np.zeros(3))

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ConfigurationError):
            Trajectory(times=np.array([0.0, 1.0, 1.0]), estimates=np.zeros((3, 1)),
                       err_norms=np.zeros(3), manifold_residuals=np.zeros(3),
                       storage_values=np.zeros(3))
