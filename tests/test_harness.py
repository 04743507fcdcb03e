import collections
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import paramest
from paramest import sim
from paramest.catalog import BUILTIN_NAMES, builtin_problem
from paramest.errors import ConfigurationError, SignalEvalError
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
from paramest.signals import RegressorSpec, regressor_from_strings
from paramest.sim import CHUNK_STEPS, SimSettings, simulate
from paramest.types import EstimationProblem, EstimatorConfig, Trajectory, Variant


ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = pathlib.Path(paramest.__file__).parent / "scenarios"

# scenario documents over the schema's keys: each key is left out, holds a
# value of its expected shape (three times in four), or holds any JSON value;
# now and then an extra key appears, or the whole document is any JSON value
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=3),
    max_leaves=8)
_NUMBER = st.integers(-2, 20) | st.floats()
_NAME = st.text(max_size=4) | st.sampled_from(["..", "a/b", "ok"])


def _mostly(shape, other):
    return st.integers(0, 3).flatmap(lambda i: other if i == 3 else shape)


def _over(fields, required=()):
    known = st.fixed_dictionaries(
        {k: _mostly(v, _JSON) for k, v in fields.items() if k in required},
        optional={k: _mostly(v, _JSON) for k, v in fields.items() if k not in required})
    extra = st.dictionaries(st.text(max_size=6), _JSON, min_size=1, max_size=1)
    return st.builds(lambda a, b: {**b, **a}, known, _mostly(st.just({}), extra))


_ESTIMATOR = _over({
    "variant": st.sampled_from([v.value for v in Variant]), "tau": _NUMBER, "mu": _NUMBER,
    "theta_hat_0": st.lists(_NUMBER, max_size=3), "filter_init": _NUMBER, "label": _NAME,
})
_PROBLEM = _over({
    "regressor": st.lists(st.sampled_from(["1", "t", "sin(t)", "1/t", "pow(t,"])
                          | st.text(max_size=6), max_size=3),
    "true_params": st.lists(_NUMBER, max_size=3),
})
_DOCUMENTS = _mostly(_over({
    "name": _NAME, "note": st.text(max_size=6),
    "problem": st.sampled_from(BUILTIN_NAMES + ("nosuch",)) | _PROBLEM,
    "estimators": st.lists(_ESTIMATOR, max_size=3),
    "settings": _over({"t_end": _NUMBER, "dt": _NUMBER, "record_every": _NUMBER}),
    "outputs": _over({"csv": _NAME, "svg": _NAME}),
}, required=("problem",)), _JSON)


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

    @pytest.mark.parametrize("first,second", [
        ("late", "early"), ("early", "late"), ("late", "bad_theta"), ("bad_theta", "late")])
    def test_error_names_the_first_listed_failing_estimator(self, first, second):
        # "late" diverges in the third chunk, "early" in the first and
        # "bad_theta" before any step; run one after another, the first listed
        # failing estimator raises, whichever fails first in time
        problem = EstimationProblem(regressor_from_strings(["1", "cos(t)"]),
                                    np.array([1.0, 2.0]))
        failing = {
            "late": EstimatorConfig(variant=Variant.MGE, tau=1.0, mu=30.0, label="late"),
            "early": EstimatorConfig(variant=Variant.GE, tau=1e9, label="early"),
            "bad_theta": EstimatorConfig(variant=Variant.GE, tau=1.0,
                                         theta_hat_0=np.zeros(3), label="bad_theta"),
        }
        settings = SimSettings(t_end=2.0)
        ok = EstimatorConfig(variant=Variant.MRE, tau=1.0, label="ok")
        config = ScenarioConfig(name="boom", problem=problem, settings=settings,
                                estimators=[ok, failing[first], failing[second]])
        with pytest.raises(Exception) as alone:
            simulate(problem, failing[first], settings)
        with pytest.raises(type(alone.value)) as joint:
            run_scenario(config)
        assert str(joint.value) == f"[boom/{first}] {alone.value}"

    def test_regressor_failure_names_the_first_running_estimator(self):
        problem = EstimationProblem(regressor_from_strings(["1", "pow(1.3 - t, 0.5)"]),
                                    np.array([1.0, 2.0]))
        config = ScenarioConfig(
            name="boom", problem=problem, settings=SimSettings(t_end=2.0),
            estimators=[EstimatorConfig(variant=Variant.MRE, tau=1.0, label="a"),
                        EstimatorConfig(variant=Variant.GE, tau=1.0, label="b")])
        with pytest.raises(SignalEvalError, match=r"^\[boom/a\] component 1 non-finite"):
            run_scenario(config)

    def test_stage_tables_are_built_once_per_chunk(self, monkeypatch):
        # example6's four estimators share one regressor sample and, three
        # of them filtered from one filter_init, one filter scan per chunk
        calls = collections.Counter()
        scan, sample = sim.filter_scan, RegressorSpec.sample

        def counted_scan(*args):
            calls["filter_scan"] += 1
            return scan(*args)

        def counted_sample(*args):
            calls["sample"] += 1
            return sample(*args)

        monkeypatch.setattr(sim, "filter_scan", counted_scan)
        monkeypatch.setattr(RegressorSpec, "sample", counted_sample)
        config = scenario_from_name("example6", t_end=(2 * CHUNK_STEPS + 100) * 1e-3)
        assert len(config.estimators) == 4 and len(config.settings.chunks) == 3
        run_scenario(config)
        assert calls == {"filter_scan": 3, "sample": 3}

    def test_joint_walk_matches_each_estimator_alone(self):
        # every variant from a generic start with filter_init 0.1, and again
        # from the truth with filter_init 0: each run is its simulate call's,
        # to the bit, and the runs at the truth stay there exactly
        problem = builtin_problem("example6")
        truth = problem.true_params
        estimators = []
        for variant in Variant:
            estimators += [
                EstimatorConfig(variant=variant, tau=10.0, mu=0.95, theta_hat_0=[0.5, -1.0, 2.0],
                                filter_init=0.1, label=f"{variant.value}_start"),
                EstimatorConfig(variant=variant, tau=10.0, mu=0.95, theta_hat_0=truth.copy(),
                                label=f"{variant.value}_truth")]
        settings = SimSettings(t_end=(2 * CHUNK_STEPS + 100) * 1e-3, record_every=7)
        assert settings.n_steps % CHUNK_STEPS != 0
        result = run_scenario(ScenarioConfig(name="joint", problem=problem,
                                             estimators=estimators, settings=settings))
        fields = ("times", "estimates", "err_norms", "manifold_residuals", "storage_values")
        for est, run in zip(estimators, result.runs):
            alone = simulate(problem, est, settings)
            for name in fields:
                ours, ref = getattr(run.trajectory, name), getattr(alone, name)
                assert ours.shape == ref.shape and ours.tobytes() == ref.tobytes(), \
                    f"{run.label}.{name}"
            if run.label.endswith("_truth"):
                assert np.all(run.trajectory.err_norms == 0.0), run.label

    def test_kept_runs_hold_their_estimates_only(self):
        # error norms, residuals and storage are computed from the estimates
        # when read, so a kept result holds about one [rows, q] array per run
        config = scenario_from_name("example6", t_end=10.0)
        run_scenario(config)  # first-call caches: record times, compiled regressor
        tracemalloc.start()
        try:
            result = run_scenario(config)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        rows, q = len(config.settings.record_steps), config.problem.dimension
        runs = len(result.runs)
        assert kept < runs * rows * (q + 1) * 8  # not one more [rows] array a run

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

    def test_builtin_reference_keeps_the_documents_own_keys(self, tmp_path):
        path = tmp_path / "ref.json"
        path.write_text(json.dumps({
            "note": "coarser step", "problem": "example5",
            "settings": {"dt": 0.01},
            "estimators": [{"variant": "GE", "tau": 2.0}],
        }))
        config = load_scenario(str(path))
        assert config.name == "ref"
        assert config.settings == SimSettings(t_end=100.0, dt=0.01, record_every=10)
        assert [(e.variant, e.tau) for e in config.estimators] == [(Variant.GE, 2.0)]
        assert np.array_equal(config.problem.true_params, [-2.0, 2.0])

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_DOCUMENTS)
    def test_any_json_document_loads_or_raises_configuration_error(self, tmp_path, doc):
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(doc))
        try:
            config = load_scenario(str(path))
        except ConfigurationError:
            return
        assert isinstance(config, ScenarioConfig)

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

    def test_shipped_scenarios_are_the_builtins(self):
        # one shipped scenario file per builtin name, each a valid scenario file
        paths = sorted(SCENARIOS.glob("*.json"))
        assert [p.stem for p in paths] == list(BUILTIN_NAMES) == \
            [f"example{i}" for i in range(1, 7)]
        for path in paths:
            config = load_scenario(str(path))
            assert config.name == path.stem
            assert config.estimators

    def test_package_data_ships_every_scenario_file(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as fh:
            globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["paramest"]
        package = SCENARIOS.parent
        shipped = {p for pattern in globs for p in package.glob(pattern)}
        assert set(SCENARIOS.iterdir()) <= shipped

    def test_scenario_name_validation(self):
        with pytest.raises(ConfigurationError):
            scenario_from_name("example99")
