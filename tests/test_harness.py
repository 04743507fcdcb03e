import glob
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paramest.catalog import BUILTIN_NAMES, builtin_problem
from paramest.errors import ConfigurationError
from paramest.harness import (
    OutputPaths,
    ScenarioConfig,
    count_storage_violations,
    csv_path_for,
    export_csv,
    format_float,
    load_scenario,
    read_trajectory_csv,
    run_scenario,
    scenario_from_name,
)
from paramest.sim import SimSettings
from paramest.types import EstimatorConfig, Trajectory, Variant


def short_scenario(name="example1", t_end=2.0):
    return scenario_from_name(name, t_end=t_end)


@pytest.fixture(scope="module")
def example1_result():
    return run_scenario(short_scenario())


class TestRunScenario:
    def test_result_blocks_follow_config_order(self):
        config = scenario_from_name("example6", t_end=1.0)
        result = run_scenario(config)
        assert [r.label for r in result.runs] == ["GE", "MRE", "DREM", "MGE_MRE"]

    def test_convergence_tolerances_present(self, example1_result):
        run = example1_result.runs[0]
        assert set(run.convergence_times) == {0.1, 0.01}

    def test_storage_violations_only_for_manifold_variants(self):
        config = scenario_from_name("example6", t_end=1.0)
        result = run_scenario(config)
        by_label = {r.label: r for r in result.runs}
        assert by_label["GE"].storage_violations is None
        assert by_label["DREM"].storage_violations is None
        assert isinstance(by_label["MGE_MRE"].storage_violations, int)

    def test_excitation_summary_attached(self, example1_result):
        assert len(example1_result.excitation) >= 1
        for t, rho in example1_result.excitation:
            assert rho >= -1e-9

    def test_zero_estimators_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(name="x", problem=builtin_problem("example1"),
                           estimators=[], settings=SimSettings(t_end=1.0))

    def test_duplicate_labels_rejected(self):
        est = EstimatorConfig(variant=Variant.GE, tau=1.0)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(name="x", problem=builtin_problem("example1"),
                           estimators=[est, est], settings=SimSettings(t_end=1.0))

    def test_errors_tagged_with_label(self):
        config = ScenarioConfig(
            name="boom", problem=builtin_problem("example1"),
            estimators=[EstimatorConfig(variant=Variant.GE, tau=1e9, label="hot")],
            settings=SimSettings(t_end=1.0))
        with pytest.raises(Exception, match="boom/hot"):
            run_scenario(config)

    def test_storage_violation_counter(self):
        n = 4
        traj = Trajectory(times=np.arange(n, dtype=float),
                          estimates=np.zeros((n, 2)),
                          err_norms=np.zeros(n),
                          manifold_residuals=np.zeros(n),
                          storage_values=np.array([0.0, 1.0, 0.5, 0.5 + 1e-12]))
        assert count_storage_violations(traj) == 1


class TestCsv:
    def test_header_and_first_row(self, tmp_path, example1_result):
        base = str(tmp_path / "example1")
        paths = export_csv(example1_result, base)
        assert paths == [csv_path_for(base, "MGE")]
        lines = open(paths[0]).read().splitlines()
        assert lines[0] == "t,theta_hat_1,theta_hat_2,err_norm,manifold_residual,storage"
        # t=0, estimates 0, error norm ||(-2,2)|| = 2*sqrt(2)
        assert lines[1].startswith("0,0,0,2.8284271247461903,")

    def test_q3_schema(self, tmp_path):
        result = run_scenario(scenario_from_name("example3", t_end=1.0))
        paths = export_csv(result, str(tmp_path / "ex3"))
        header = open(paths[0]).readline().strip()
        assert header == ("t,theta_hat_1,theta_hat_2,theta_hat_3,"
                          "err_norm,manifold_residual,storage")

    def test_empty_trajectory_writes_header_only(self, tmp_path, example1_result):
        empty = Trajectory(times=np.empty(0), estimates=np.empty((0, 2)),
                           err_norms=np.empty(0), manifold_residuals=np.empty(0),
                           storage_values=np.empty(0))
        result = run_scenario(short_scenario())
        result.runs[0].trajectory = empty
        path = export_csv(result, str(tmp_path / "empty"))[0]
        content = open(path).read()
        assert content == "t,theta_hat_1,theta_hat_2,err_norm,manifold_residual,storage\n"

    def test_round_trip_is_exact(self, tmp_path, example1_result):
        path = export_csv(example1_result, str(tmp_path / "rt"))[0]
        traj = example1_result.runs[0].trajectory
        parsed = read_trajectory_csv(path)
        assert np.array_equal(parsed.times, traj.times)
        assert np.array_equal(parsed.estimates, traj.estimates)
        assert np.array_equal(parsed.err_norms, traj.err_norms)
        assert np.array_equal(parsed.manifold_residuals, traj.manifold_residuals)
        assert np.array_equal(parsed.storage_values, traj.storage_values)

    def test_double_export_is_byte_identical(self, tmp_path, example1_result):
        p1 = export_csv(example1_result, str(tmp_path / "a"))[0]
        p2 = export_csv(example1_result, str(tmp_path / "b"))[0]
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_rejects_foreign_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigurationError):
            read_trajectory_csv(str(bad))

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_format_float_round_trips(self, x):
        assert float(format_float(x)) == x

    def test_format_float_trims_integral_values(self):
        assert format_float(0.0) == "0"
        assert format_float(2.0) == "2"
        assert format_float(2.8284271247461903) == "2.8284271247461903"
        assert format_float(float("nan")) == "nan"


class TestConfigFiles:
    def test_inline_problem(self, tmp_path):
        doc = {
            "name": "custom",
            "problem": {"regressor": ["1", "sin(t)"], "true_params": [-2, 2]},
            "estimators": [
                {"variant": "MGE", "tau": 1.0, "mu": 0.95},
                {"variant": "GE", "tau": 1.0, "label": "baseline"},
            ],
            "settings": {"dt": 0.001, "t_end": 2.0, "record_every": 10},
        }
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(doc))
        config = load_scenario(str(path))
        assert config.name == "custom"
        assert [e.resolved_label for e in config.estimators] == ["MGE", "baseline"]
        assert config.settings.t_end == 2.0
        result = run_scenario(config)
        assert len(result.runs) == 2

    def test_builtin_reference_fills_defaults(self, tmp_path):
        path = tmp_path / "ref.json"
        path.write_text(json.dumps({"name": "ex5", "problem": "example5"}))
        config = load_scenario(str(path))
        assert config.settings.t_end == 100.0
        assert [e.variant for e in config.estimators] == [Variant.MRE, Variant.MGE_MRE]
        assert config.estimators[0].tau == 50.0

    def test_inline_problem_requires_t_end(self, tmp_path):
        path = tmp_path / "no_t.json"
        path.write_text(json.dumps({
            "problem": {"regressor": ["1"], "true_params": [1]},
            "estimators": [{"variant": "GE", "tau": 1.0}],
        }))
        with pytest.raises(ConfigurationError, match="t_end"):
            load_scenario(str(path))

    def test_unknown_estimator_field_rejected(self, tmp_path):
        path = tmp_path / "bad_field.json"
        path.write_text(json.dumps({
            "problem": "example1",
            "estimators": [{"variant": "GE", "tau": 1.0, "gamma": 2.0}],
        }))
        with pytest.raises(ConfigurationError, match="gamma"):
            load_scenario(str(path))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            load_scenario(str(path))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_scenario("/nonexistent/scenario.json")

    def test_outputs_paths_parsed(self, tmp_path):
        path = tmp_path / "outs.json"
        path.write_text(json.dumps({
            "problem": "example1",
            "outputs": {"csv": "runs/ex1", "svg": "runs/ex1.svg"},
        }))
        config = load_scenario(str(path))
        assert config.outputs == OutputPaths(csv="runs/ex1", svg="runs/ex1.svg")

    def test_overrides_apply(self, tmp_path):
        path = tmp_path / "ovr.json"
        path.write_text(json.dumps({"problem": "example1"}))
        config = load_scenario(str(path), dt=0.01, t_end=3.0)
        assert config.settings.dt == 0.01
        assert config.settings.t_end == 3.0

    def test_shipped_configs_load(self):
        # one canonical config ships per builtin scenario and equals the catalog's
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = glob.glob(os.path.join(here, "configs", "*.json"))
        names = sorted(os.path.splitext(os.path.basename(p))[0] for p in paths)
        assert names == sorted(BUILTIN_NAMES)
        for name in names:
            got = load_scenario(os.path.join(here, "configs", f"{name}.json"))
            want = scenario_from_name(name)
            assert got.name == want.name
            assert [str(c) for c in got.problem.regressor.components] == \
                [str(c) for c in want.problem.regressor.components]
            assert np.array_equal(got.problem.true_params, want.problem.true_params)
            assert got.estimators == want.estimators
            assert got.settings == want.settings

    def test_scenario_name_validation(self):
        with pytest.raises(ConfigurationError):
            scenario_from_name("example99")
