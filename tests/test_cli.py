import contextlib
import json
import os
import tracemalloc
import warnings

import pytest

from paramest.cli import main


class TestList:
    def test_six_builtin_lines(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        for i, line in enumerate(lines, start=1):
            assert line.startswith(f"example{i}:")


class TestRun:
    UNIT = {"regressor": ["1"], "true_params": [1]}
    OVERFLOWING = {"regressor": ["exp(1000*t)", "1"], "true_params": [1, 2]}
    # w stays finite over the first chunk but w w^T overflows in it, so at q = 4
    # DREM's SVD adjugate meets a non-finite Omega inside a chunk
    OVERFLOWING_Q4 = {"regressor": ["exp(1000*t)", "1", "sin(t)", "cos(t)"],
                      "true_params": [1, 2, 3, 4]}

    def test_builtin_writes_csv_and_svg(self, tmp_path, capsys):
        code = main(["run", "--scenario", "example1", "--t-end", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "example1_MGE.csv").exists()
        assert (tmp_path / "example1.svg").exists()
        out = capsys.readouterr().out
        assert "MGE" in out and "wrote" in out

    def test_config_file_with_explicit_outputs(self, tmp_path, capsys):
        doc = {
            "name": "mini",
            "problem": {"regressor": ["1", "sin(t)"], "true_params": [-2, 2]},
            "estimators": [{"variant": "GE", "tau": 1.0}],
            "settings": {"t_end": 1.0},
            "outputs": {"csv": str(tmp_path / "alt" / "mini"),
                        "svg": str(tmp_path / "alt" / "mini.svg")},
        }
        cfg = tmp_path / "mini.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "alt" / "mini_GE.csv").exists()
        assert (tmp_path / "alt" / "mini.svg").exists()

    def test_unknown_scenario_exits_1(self, capsys):
        assert main(["run", "--scenario", "nosuch"]) == 1
        assert "nosuch" in capsys.readouterr().err

    @pytest.mark.parametrize("problem,estimator,settings,t", [
        (UNIT, {"variant": "GE", "tau": 1e9}, {"t_end": 1.0}, "0.001"),
        (UNIT, {"variant": "GE", "tau": 1e7}, {"t_end": 3.0, "record_every": 100}, "0.001"),
        # the regressor overflows, and the chunk's tables hold inf and nan
        # from there on
        (OVERFLOWING, {"variant": "MRE", "tau": 1}, {"t_end": 3.0}, "0.011"),
        (OVERFLOWING, {"variant": "GE", "tau": 1}, {"t_end": 3.0}, "0.007"),
        (OVERFLOWING, {"variant": "DREM", "tau": 1}, {"t_end": 3.0}, "0.011"),
        (OVERFLOWING_Q4, {"variant": "DREM", "tau": 1}, {"t_end": 2.0}, "0.029"),
        # 9 * 1e-3 is 0.009000000000000001 in floating point
        (UNIT, {"variant": "GE", "tau": 5600}, {"t_end": 1.0}, "0.009"),
    ], ids=["tau1e9", "record_every100", "overflow-MRE", "overflow-GE", "overflow-DREM",
            "overflow-DREM-q4", "tau5600-float-noise"])
    def test_divergent_run_exits_2(self, tmp_path, capsys, problem, estimator, settings, t):
        doc = {"problem": problem, "estimators": [estimator], "settings": settings}
        cfg = tmp_path / "hot.json"
        cfg.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--scenario", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        # the first step past the bound is the one named
        assert len(err.splitlines()) == 1
        assert err.startswith("simulation diverged: ")
        assert f"diverged by t={t} " in err and "Warning" not in err

    @pytest.mark.parametrize("field,patch", [
        ("variant", {"estimators": [{"variant": "XX"}]}),
        ("tau", {"estimators": [{"variant": "GE", "tau": "abc"}]}),
        ("settings", {"settings": [1]}),
        ("estimators", {"estimators": 5}),
        ("regressor", {"problem": {"regressor": None, "true_params": [1]}}),
        ("regressor", {"problem": {"regressor": "t", "true_params": [1]}}),
        ("component 0", {"problem": {"regressor": [1, 2], "true_params": [1, 1]}}),
        ("true_params", {"problem": {"regressor": ["1"], "true_params": ["x"]}}),
        ("theta_hat_0", {"estimators": [{"variant": "GE", "theta_hat_0": ["a", 1]}]}),
        ("tau", {"estimators": [{"variant": "GE", "tau": "1e400"}]}),
        ("t_end", {"settings": {"t_end": "1e400"}}),
        ("record_every", {"settings": {"t_end": 1.0, "record_every": "1e400"}}),
        ("record_every", {"settings": {"t_end": 1.0, "record_every": 2.5}}),
        ("dt", {"settings": {"t_end": 1.0, "dt": True}}),
        ("settinsg", {"settinsg": {"t_end": 1.0}}),
        ("record_evry", {"settings": {"t_end": 1.0, "record_evry": 5}}),
        ("extra", {"problem": {"regressor": ["1"], "true_params": [1], "extra": 1}}),
        ("png", {"outputs": {"png": "x.png"}}),
        ("name", {"name": "../escaped"}),
        ("name", {"name": 5}),
        ("outputs.csv", {"outputs": {"csv": 5}}),
        ("label", {"estimators": [{"variant": "GE", "label": 5}]}),
        ("label", {"estimators": [{"variant": "GE", "label": "../../x"}]}),
        ("filter_init", {"estimators": [{"variant": "MRE", "tau": 1, "filter_init": "1e400"}]}),
        ("dimension >= 2", {"estimators": [{"variant": "MGE_MRE", "tau": 1}]}),
        ("theta_hat_0 length",
         {"estimators": [{"variant": "GE", "tau": 1, "theta_hat_0": [1, 2]}]}),
    ], ids=["variant", "tau", "settings", "estimators", "regressor-null",
            "regressor-string", "regressor-component", "true_params",
            "theta_hat_0", "tau-inf", "t_end-inf", "record_every-inf",
            "record_every-fraction", "dt-bool", "unknown-top-level-key",
            "unknown-settings-key", "unknown-problem-key", "unknown-outputs-key",
            "name-escapes-out", "name-number", "outputs-csv-number", "label-number",
            "label-escapes-out", "filter_init-inf", "mge_mre-scalar",
            "theta_hat_0-length"])
    def test_bad_config_value_exits_1_naming_field(self, tmp_path, capsys, field, patch):
        doc = {
            "problem": {"regressor": ["1"], "true_params": [1]},
            "estimators": [{"variant": "GE", "tau": 1.0}],
            "settings": {"t_end": 1.0},
            **patch,
        }
        cfg = tmp_path / "bad.json"
        # a bare 1e400 in the file, which JSON reads as inf
        cfg.write_text(json.dumps(doc).replace('"1e400"', "1e400"))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    @pytest.mark.parametrize("flags,field", [
        (["--t-end", "inf"], "t_end"),
        (["--t-end", "nan"], "t_end"),
        (["--dt", "nan"], "dt"),
        (["--t-end", "1e8"], "t_end"),
        (["--t-end", "1e300"], "t_end"),
    ])
    def test_bad_flag_value_exits_1_naming_field(self, tmp_path, capsys, flags, field):
        assert main(["run", "--scenario", "example1", *flags, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("regressor", [
        "(" * 3000 + "t" + ")" * 3000,
        "-" * 3000 + "t",
        "+".join(["t"] * 5000),
    ], ids=["parentheses", "unary-minus", "long-sum"])
    def test_deeply_nested_regressor_exits_1(self, tmp_path, capsys, regressor):
        doc = {
            "problem": {"regressor": [regressor], "true_params": [1]},
            "estimators": [{"variant": "GE", "tau": 1.0}],
            "settings": {"t_end": 1.0},
        }
        cfg = tmp_path / "deep.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nested" in err
        assert len(err.splitlines()) == 1

    def test_dt_override(self, tmp_path):
        code = main(["run", "--scenario", "example1", "--t-end", "1",
                     "--dt", "0.01", "--out", str(tmp_path)])
        assert code == 0
        rows = open(tmp_path / "example1_MGE.csv").read().splitlines()
        assert len(rows) == 1 + 11  # header + 0..1s recorded every 10*0.01s


class TestUsage:
    def test_unknown_flag_exits_1(self, capsys):
        assert main(["run", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out


class TestCheckPe:
    def test_prints_table(self, capsys):
        code = main(["check-pe", "--scenario", "example1", "--window", "6.2832",
                     "--t-max", "2", "--step", "1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].split() == ["t", "rho"]
        assert len(lines) == 2 + 3  # comment, header, starts 0/1/2

    @pytest.mark.parametrize("flags,field", [
        (["--window", "inf"], "--window"),
        (["--window", "nan"], "--window"),
        (["--window", "6.2832", "--dt", "nan"], "quadrature step"),
        (["--window", "6.2832", "--step", "nan"], "--step"),
        (["--window", "6.2832", "--step", "inf"], "--step"),
        (["--window", "6.2832", "--t-max", "nan"], "--t-max"),
        (["--window", "6.2832", "--t-max", "inf"], "--t-max"),
        (["--window", "6", "--t-max", "1e300", "--step", "1e-300"], "--step"),
        (["--window", "6", "--step", "1e-12"], "--step"),
        (["--window", "6", "--dt", "1e-300"], "quadrature step"),
        (["--window", "6", "--dt", "1e-9"], "quadrature step"),
        (["--window", "6", "--t-max", "-5"], "--t-max"),
    ])
    def test_bad_flag_value_exits_1_naming_field(self, capsys, flags, field):
        assert main(["check-pe", "--scenario", "example1", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert len(err.splitlines()) == 1

    def test_rows_are_printed_block_by_block(self):
        # 7251 windows: their starts and (start, rho) rows held at once would
        # take about 1.2 MB; made and printed a block at a time they do not add up
        args = ["check-pe", "--scenario", "example1", "--window", "1", "--dt", "0.1"]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main(args + ["--step", "1"]) == 0  # first-call imports and caches
            tracemalloc.start()
            try:
                assert main(args + ["--step", "0.004"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 400_000

    def test_coarse_quadrature_rejected(self, capsys):
        code = main(["check-pe", "--scenario", "example1", "--window", "0.005"])
        assert code == 1
        assert "too coarse" in capsys.readouterr().err

    def test_config_file_with_inline_regressor(self, tmp_path, capsys):
        doc = {"name": "mini", "problem": {"regressor": ["1", "sin(t)"], "true_params": [1, 2]},
               "estimators": [{"variant": "GE", "tau": 1.0}], "settings": {"t_end": 8.5}}
        cfg = tmp_path / "mini.json"
        cfg.write_text(json.dumps(doc))
        # no --t-max: the last start is the config's t_end minus the window
        assert main(["check-pe", "--scenario", str(cfg), "--window", "6.2832",
                     "--step", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("# mini: ")
        rows = [line.split() for line in lines[2:]]
        assert [float(t) for t, _ in rows] == [0.0, 1.0, 2.0]
        # example1's regressor: rho is pi over a full period from any start
        assert all(abs(float(rho) - 3.14159) < 1e-4 for _, rho in rows)

    def test_gram_overflow_exits_2_naming_the_window(self, tmp_path, capsys):
        # w stays finite, but 1e200 squared does not
        doc = {"name": "huge", "problem": {"regressor": ["1e200", "sin(t)"],
                                           "true_params": [1, 2]},
               "estimators": [{"variant": "GE", "tau": 1.0}], "settings": {"t_end": 8.5}}
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["check-pe", "--scenario", str(cfg), "--window", "6.2832",
                         "--step", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "nan" not in captured.out
        assert captured.err.strip().endswith("Gram matrix not finite over the window at t=0.0")

    def test_signal_error_has_its_own_prefix(self, tmp_path, capsys):
        # check-pe simulates nothing, so its signal errors are not divergences
        doc = {"name": "huge", "problem": {"regressor": ["1e200", "sin(t)"],
                                           "true_params": [1, 2]},
               "estimators": [{"variant": "GE", "tau": 1.0}], "settings": {"t_end": 8.5}}
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(doc))
        assert main(["check-pe", "--scenario", str(cfg), "--window", "1"]) == 2
        assert capsys.readouterr().err == (
            "signal error: Gram matrix not finite over the window at t=0.0\n")

    def test_unknown_scenario_exits_1(self, capsys):
        assert main(["check-pe", "--scenario", "nosuch", "--window", "6.2832"]) == 1
        assert "unknown scenario 'nosuch'" in capsys.readouterr().err


class TestVerify:
    def test_single_criterion_passes(self, capsys):
        assert main(["verify", "--criterion", "11"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] 11" in out
        assert "1/1 criteria passed" in out

    def test_unknown_criterion_rejected(self, capsys):
        assert main(["verify", "--criterion", "99"]) == 1
