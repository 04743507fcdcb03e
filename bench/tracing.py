"""Spans and counters recorded from the benchmark's side of paramest's API.

A ``Tracer`` replaces public functions with wrappers at the names their
callers look up (``paramest.harness.simulate``, ``paramest.cli.main``,
``RegressorSpec.sample`` on the class, ...), records one span per call and
restores the originals on ``uninstall``. Spans are kept in memory; each has a
name, id, parent id, phase, start and end. The per-stage law helpers
(``mge_gain``, ``det``, ``adjugate``, looked up in ``paramest.sim``) are
counted, not spanned.

Self time of a span is its duration minus the durations of its direct
children; the layer of a span is the part of its name before the first dot.
"""
from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from paramest import catalog, cli, harness, signals, sim, svgplot

LAYERS = ("cli", "catalog", "harness", "sim", "signals", "svgplot")
VARIANTS = ("GE", "MGE", "MRE", "MGE_MRE", "DREM")
LAW_HELPERS = ("mge_gain", "det", "adjugate")


@dataclass
class Span:
    name: str
    id: int
    parent: int
    phase: str
    start: float = 0.0
    end: float = 0.0
    tag: str = ""


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # (phase, counter name) -> count
        self.grids: dict = {}  # (phase, regressor id, step) -> [t_min, t_max, regressor]
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list = []

    # -- installation -------------------------------------------------------

    def install(self):
        spanned = [
            (cli, "main", "cli.run", None),
            (catalog, "builtin", "catalog.builtin", None),
            (catalog, "builtin_problem", "catalog.builtin_problem", None),
            (catalog, "builtin_estimators", "catalog.builtin_estimators", None),
            (catalog, "builtin_t_end", "catalog.builtin_t_end", None),
            (harness, "run_scenario", "harness.run_scenario", None),
            (harness, "export_csv", "harness.export_csv", self._note_csv),
            (svgplot, "emit_plot", "svgplot.emit_plot", self._note_svg),
            (harness, "simulate", "sim.simulate", self._note_simulate),
            (harness, "excitation_sweep", "signals.excitation", self._note_sweep),
            (signals, "excitation_sweep", "signals.excitation", self._note_sweep),
            (signals.RegressorSpec, "sample", "signals.sample", self._note_sample),
        ]
        for owner, attr, name, note in spanned:
            self._patch(owner, attr, self._spanned(name, getattr(owner, attr), note))
        for attr in LAW_HELPERS:
            self._patch(sim, attr, self._counted(getattr(sim, attr)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _spanned(self, name, fn, note):
        def wrapper(*args, **kwargs):
            span = Span(name, len(self.spans), self._stack[-1] if self._stack else -1,
                        self.phase)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if note is not None:
                note(span, args, result)
            return result
        return wrapper

    def _counted(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[self.phase, "estimators.law_calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- per-call notes -----------------------------------------------------

    def _count(self, name, value):
        self.counts[self.phase, name] += value

    def _note_simulate(self, span, args, trajectory):
        _, config, settings = args
        steps = max(int(round(settings.t_end / settings.dt)), 1)
        span.tag = config.variant.value
        self._count("sim.est_steps", steps)
        self._count(f"sim.est_steps.{span.tag}", steps)
        self._count("sim.record_rows", len(trajectory))

    def _note_csv(self, span, args, paths):
        self._count("harness.export_csv.rows", sum(len(r.trajectory) for r in args[0].runs))
        self._count("harness.export_csv.bytes", sum(os.path.getsize(p) for p in paths))

    def _note_svg(self, span, args, path):
        self._count("svgplot.emit_plot.bytes", os.path.getsize(path))

    def _note_sweep(self, span, args, table):
        self._count("signals.excitation.windows", len(table))

    def _note_sample(self, span, args, values):
        spec, ts = args
        self._count("signals.sample.points", len(ts))
        if len(ts) < 2:
            return
        # keyed by regressor object (each scenario builds its own; holding it
        # keeps its id from being reused) and by step, rounded because the
        # windows of one sweep share a step but not a grid origin
        key = (self.phase, id(spec), float(f"{ts[1] - ts[0]:.9g}"))
        grid = self.grids.setdefault(key, [ts[0], ts[-1], spec])
        grid[0] = min(grid[0], ts[0])
        grid[1] = max(grid[1], ts[-1])

    # -- reduction ------------------------------------------------------------

    def self_times(self, phase: str) -> dict[tuple[str, str], float]:
        """Total self time per (span name, tag) within one phase."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals = defaultdict(float)
        for span in self.spans:
            if span.phase == phase:
                totals[span.name, span.tag] += span.end - span.start - child_time[span.id]
        return totals

    def calls(self, phase: str) -> Counter:
        return Counter(span.name for span in self.spans if span.phase == phase)

    def distinct_grid_points(self, phase: str) -> int:
        """Points of the union of sampled intervals, per regressor and step."""
        return sum(int(round((t1 - t0) / step)) + 1
                   for (ph, _, step), (t0, t1, _) in self.grids.items() if ph == phase)

    def layer_metrics(self, phase: str, passes: int, pass_s: float) -> dict:
        """Per-pass layer metrics of the traced passes (name -> value).

        pass_s is the mean traced pass time the layer self times are shares of;
        catalog.build_s adds the catalog time of the set-up phase.
        """
        tagged = self.self_times(phase)
        selfs = defaultdict(float)
        for (name, _), t in tagged.items():
            selfs[name] += t
        calls = self.calls(phase)
        count = {name: value for (ph, name), value in self.counts.items() if ph == phase}
        steps = count.get("sim.est_steps", 0)
        points = count.get("signals.sample.points", 0)
        distinct = self.distinct_grid_points(phase)
        m = {
            "sim.simulate.calls": calls["sim.simulate"],
            "sim.simulate.self_s": selfs["sim.simulate"],
            "sim.est_steps": steps,
            "sim.record_rows": count.get("sim.record_rows", 0),
            "estimators.law_calls": count.get("estimators.law_calls", 0),
            "signals.sample.calls": calls["signals.sample"],
            "signals.sample.points": points,
            "signals.sample.self_s": selfs["signals.sample"],
            "signals.excitation.windows": count.get("signals.excitation.windows", 0),
            "signals.excitation.self_s": selfs["signals.excitation"],
            "harness.run_scenario.self_s": selfs["harness.run_scenario"],
            "harness.export_csv.self_s": selfs["harness.export_csv"],
            "harness.export_csv.rows": count.get("harness.export_csv.rows", 0),
            "harness.export_csv.bytes": count.get("harness.export_csv.bytes", 0),
            "svgplot.emit_plot.self_s": selfs["svgplot.emit_plot"],
            "svgplot.emit_plot.bytes": count.get("svgplot.emit_plot.bytes", 0),
            "cli.run.self_s": selfs["cli.run"],
        }
        m = {name: value / passes for name, value in m.items()}
        m["estimators.law_calls_per_step"] = (
            count.get("estimators.law_calls", 0) / steps if steps else 0.0)
        m["signals.resample_ratio"] = points / passes / distinct if distinct else 0.0
        for v in VARIANTS:
            v_steps = count.get(f"sim.est_steps.{v}", 0)
            m[f"sim.us_per_est_step.{v}"] = (
                1e6 * tagged["sim.simulate", v] / v_steps if v_steps else 0.0)
        for layer in LAYERS:
            m[f"layer.{layer}.self_s"] = sum(
                t for name, t in selfs.items() if name.split(".")[0] == layer) / passes
        m["layer.sim.share"] = m["layer.sim.self_s"] / pass_s
        m["trace.accounted_frac"] = sum(m[f"layer.{layer}.self_s"] for layer in LAYERS) / pass_s
        setup_catalog_s = sum(t for (name, _), t in self.self_times("setup").items()
                              if name.startswith("catalog."))
        m["catalog.build_s"] = setup_catalog_s + m["layer.catalog.self_s"]
        return m
