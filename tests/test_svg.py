import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from paramest.harness import run_scenario, scenario_from_name
from paramest.svgplot import emit_plot
from paramest.types import EstimatorConfig, Variant

SVG_NS = "{http://www.w3.org/2000/svg}"


def render(tmp_path, config, name="plot.svg"):
    result = run_scenario(config)
    path = str(tmp_path / name)
    emit_plot(result, path)
    return result, ET.parse(path).getroot(), open(path).read()


def polylines(root, group_id):
    for g in root.iter(f"{SVG_NS}g"):
        if g.get("id") == group_id:
            return g.findall(f"{SVG_NS}polyline")
    raise AssertionError(f"group {group_id} missing")


class TestSvg:
    def test_well_formed_and_curve_counts(self, tmp_path):
        config = scenario_from_name("example1", t_end=2.0)
        result, root, _ = render(tmp_path, config)
        # single estimator: one polyline per parameter on top, one below
        assert len(polylines(root, "estimates")) == result.config.problem.dimension
        assert len(polylines(root, "error")) == 1

    def test_multi_estimator_counts_and_legend(self, tmp_path):
        config = scenario_from_name("example6", t_end=1.0)
        result, root, text = render(tmp_path, config)
        q = result.config.problem.dimension
        assert len(polylines(root, "estimates")) == 4 * q
        assert len(polylines(root, "error")) == 4
        for run in result.runs:
            assert run.label in text

    def test_true_values_drawn_as_dashed_lines_not_polylines(self, tmp_path):
        config = scenario_from_name("example1", t_end=2.0)
        _, root, _ = render(tmp_path, config)
        for g in root.iter(f"{SVG_NS}g"):
            if g.get("id") == "estimates":
                dashed = [ln for ln in g.findall(f"{SVG_NS}line")
                          if ln.get("stroke-dasharray")]
                assert len(dashed) == 2

    def test_zero_error_clamped_at_log_floor(self, tmp_path):
        config = scenario_from_name("example1", t_end=2.0)
        config.estimators = [EstimatorConfig(
            variant=Variant.MGE, tau=1.0, mu=0.95,
            theta_hat_0=config.problem.true_params.copy())]
        result, root, text = render(tmp_path, config)
        assert np.max(result.runs[0].trajectory.err_norms) == 0.0
        assert "inf" not in text and "nan" not in text
        assert len(polylines(root, "error")) == 1

    def test_labels_are_escaped(self, tmp_path):
        config = scenario_from_name("example1", t_end=2.0)
        config.estimators = [EstimatorConfig(variant=Variant.MGE, tau=1.0,
                                             mu=0.95, label="a<b&c")]
        _, _, text = render(tmp_path, config, "esc.svg")
        assert "a&lt;b&amp;c" in text


def test_package_import_leaves_out_the_network_stack():
    # xml.sax.saxutils pulls in urllib.request, http.client and ssl, several MB
    # of resident memory that nothing in the package uses
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, paramest; "
            "print(sorted({'ssl', 'urllib.request'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
