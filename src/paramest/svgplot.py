"""Standalone SVG rendering of scenario results (no plotting dependency).

Two stacked panels: parameter estimates over time with dashed horizontals at
the true values, and the base-10 log of the error norm. Data curves are
<polyline> elements (one per estimator and parameter on top, one per
estimator below); axes, ticks, and true-value markers use <line>, so curve
counts are directly inspectable. Colors cycle per estimator.
"""
from __future__ import annotations

import os
from html import escape

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_LOG_FLOOR = 1e-16

_W = 900
_TOP = dict(x0=72, x1=860, y0=42, y1=330)
_BOT = dict(x0=72, x1=860, y0=396, y1=600)
_H = 645


def _extent(lo: float, hi: float) -> tuple[float, float]:
    if not np.isfinite(lo) or not np.isfinite(hi):
        lo, hi = 0.0, 1.0
    if hi <= lo:
        lo, hi = lo - 1.0, hi + 1.0
    margin = 0.05 * (hi - lo)
    return lo - margin, hi + margin


class _Panel:
    def __init__(self, box, xlim, ylim):
        self.box = box
        self.xlo, self.xhi = xlim
        self.ylo, self.yhi = ylim

    def px(self, x):
        b = self.box
        return b["x0"] + (x - self.xlo) / (self.xhi - self.xlo) * (b["x1"] - b["x0"])

    def py(self, y):
        b = self.box
        return b["y1"] - (y - self.ylo) / (self.yhi - self.ylo) * (b["y1"] - b["y0"])

    def polyline(self, xs, ys, color, dash=None, width=1.2):
        xy = np.column_stack([self.px(xs), self.py(ys)]).ravel().tolist()
        pts = ("%.2f,%.2f " * (len(xy) // 2) % tuple(xy))[:-1]  # one format call for all points
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<polyline fill="none" stroke="{color}" stroke-width="{width}"'
                f'{dash_attr} points="{pts}"/>')

    def hline(self, y, color, dash="6,4"):
        b = self.box
        yy = self.py(y)
        return (f'<line x1="{b["x0"]}" y1="{yy:.2f}" x2="{b["x1"]}" y2="{yy:.2f}" '
                f'stroke="{color}" stroke-width="1" stroke-dasharray="{dash}"/>')

    def axes(self, xlabel, ylabel):
        b = self.box
        parts = [
            f'<line x1="{b["x0"]}" y1="{b["y1"]}" x2="{b["x1"]}" y2="{b["y1"]}" '
            f'stroke="#333" stroke-width="1"/>',
            f'<line x1="{b["x0"]}" y1="{b["y0"]}" x2="{b["x0"]}" y2="{b["y1"]}" '
            f'stroke="#333" stroke-width="1"/>',
        ]
        for xv in np.linspace(self.xlo, self.xhi, 6):
            xx = self.px(xv)
            parts.append(f'<line x1="{xx:.2f}" y1="{b["y1"]}" x2="{xx:.2f}" '
                         f'y2="{b["y1"] + 5}" stroke="#333" stroke-width="1"/>')
            parts.append(f'<text x="{xx:.2f}" y="{b["y1"] + 18}" font-size="11" '
                         f'text-anchor="middle" fill="#333">{xv:.4g}</text>')
        for yv in np.linspace(self.ylo, self.yhi, 5):
            yy = self.py(yv)
            parts.append(f'<line x1="{b["x0"] - 5}" y1="{yy:.2f}" x2="{b["x0"]}" '
                         f'y2="{yy:.2f}" stroke="#333" stroke-width="1"/>')
            parts.append(f'<text x="{b["x0"] - 8}" y="{yy + 4:.2f}" font-size="11" '
                         f'text-anchor="end" fill="#333">{yv:.4g}</text>')
        xm = 0.5 * (b["x0"] + b["x1"])
        parts.append(f'<text x="{xm}" y="{b["y1"] + 34}" font-size="12" '
                     f'text-anchor="middle" fill="#111">{escape(xlabel, quote=False)}</text>')
        parts.append(f'<text x="18" y="{0.5 * (b["y0"] + b["y1"])}" font-size="12" '
                     f'text-anchor="middle" fill="#111" transform="rotate(-90 18 '
                     f'{0.5 * (b["y0"] + b["y1"])})">{escape(ylabel, quote=False)}</text>')
        return parts


def emit_plot(result, path: str) -> str:
    """Render a ScenarioResult to a standalone SVG file."""
    runs = result.runs
    truth = result.config.problem.true_params
    times = runs[0].trajectory.times

    all_est = np.concatenate([r.trajectory.estimates.ravel() for r in runs] + [truth])
    t_lim = _extent(float(times[0]) if len(times) else 0.0,
                    float(times[-1]) if len(times) else 1.0)
    top = _Panel(_TOP, t_lim, _extent(float(np.min(all_est)), float(np.max(all_est))))

    logs = [np.log10(np.maximum(r.trajectory.err_norms, _LOG_FLOOR)) for r in runs]
    lo = min((float(np.min(lg)) for lg in logs if lg.size), default=-1.0)
    hi = max((float(np.max(lg)) for lg in logs if lg.size), default=1.0)
    bot = _Panel(_BOT, t_lim, _extent(lo, hi))

    top_parts = top.axes("t [s]", "estimates")
    for p in truth:
        top_parts.append(top.hline(float(p), "#555"))
    for idx, run in enumerate(runs):
        color = _PALETTE[idx % len(_PALETTE)]
        for j in range(run.trajectory.dimension):
            top_parts.append(top.polyline(run.trajectory.times,
                                          run.trajectory.estimates[:, j], color))

    bot_parts = bot.axes("t [s]", "log10 error norm")
    for idx, (run, lg) in enumerate(zip(runs, logs)):
        color = _PALETTE[idx % len(_PALETTE)]
        bot_parts.append(bot.polyline(run.trajectory.times, lg, color))

    legend = []
    ly = _TOP["y0"] + 6
    for idx, run in enumerate(runs):
        color = _PALETTE[idx % len(_PALETTE)]
        lx = _TOP["x1"] - 150
        legend.append(f'<line x1="{lx}" y1="{ly + 5}" x2="{lx + 24}" y2="{ly + 5}" '
                      f'stroke="{color}" stroke-width="2"/>')
        legend.append(f'<text x="{lx + 30}" y="{ly + 9}" font-size="12" '
                      f'fill="#111">{escape(run.label, quote=False)}</text>')
        ly += 17

    title = escape(result.config.name, quote=False)
    doc = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="24" font-size="15" text-anchor="middle" '
        f'fill="#111">{title}</text>',
        '<g id="estimates">', *top_parts, "</g>",
        '<g id="error">', *bot_parts, "</g>",
        '<g id="legend">', *legend, "</g>",
        "</svg>",
    ]
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(doc) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    return path
