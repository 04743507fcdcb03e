"""Command-line front end.

Subcommands:
    run       simulate a builtin or config-file scenario, write CSV + SVG
    list      show the builtin scenario catalog
    check-pe  print the sliding-window excitation table of a builtin or
              config-file scenario's regressor
    verify    run the acceptance/invariant suite and report pass/fail

Exit codes: 0 success, 1 validation error (bad flags, unknown scenario,
invalid config), 2 simulation divergence.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from . import catalog, harness, svgplot
from .errors import ConfigurationError, DivergenceError, SignalEvalError
from .signals import MAX_STEPS, excitation_blocks


class _Parser(argparse.ArgumentParser):
    """argparse that exits with code 1 on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="paramest",
                     description="online parameter estimation benchmark harness")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_run = sub.add_parser("run", help="run a scenario and export CSV + SVG")
    p_run.add_argument("--scenario", required=True,
                       help="builtin name (see 'list') or path to a JSON config")
    p_run.add_argument("--dt", type=float, default=None, help="integration step [s]")
    p_run.add_argument("--t-end", type=float, default=None, help="horizon [s]")
    p_run.add_argument("--out", default=".", help="output directory (default: cwd)")

    sub.add_parser("list", help="list builtin scenarios")

    p_pe = sub.add_parser("check-pe", help="sliding-window excitation table")
    p_pe.add_argument("--scenario", required=True,
                      help="builtin name (see 'list') or path to a JSON config")
    p_pe.add_argument("--window", type=float, required=True, help="window length T [s]")
    p_pe.add_argument("--step", type=float, default=0.5, help="window start stride [s]")
    p_pe.add_argument("--t-max", type=float, default=None,
                      help="last window start (default: the scenario's t_end - T)")
    p_pe.add_argument("--dt", type=float, default=1e-3, help="quadrature step [s]")

    p_ver = sub.add_parser("verify", help="run the acceptance/invariant suite")
    p_ver.add_argument("--criterion", type=int, action="append", default=None,
                       help="run only this criterion number (repeatable)")

    return parser


def _resolve_scenario(arg: str, dt, t_end) -> harness.ScenarioConfig:
    if arg in catalog.BUILTIN_NAMES:
        return harness.scenario_from_name(arg, dt=dt, t_end=t_end)
    if os.path.exists(arg):
        return harness.load_scenario(arg, dt=dt, t_end=t_end)
    raise ConfigurationError(
        f"unknown scenario {arg!r}: not a builtin name and not a file; "
        f"builtins are {', '.join(catalog.BUILTIN_NAMES)}"
    )


def _cmd_run(args) -> int:
    config = _resolve_scenario(args.scenario, args.dt, args.t_end)
    result = harness.run_scenario(config)

    csv_base = config.outputs.csv or os.path.join(args.out, config.name)
    svg_path = config.outputs.svg or os.path.join(args.out, config.name + ".svg")
    written = harness.export_csv(result, csv_base)
    written.append(svgplot.emit_plot(result, svg_path))

    s = config.settings
    print(f"scenario {config.name}: q={config.problem.dimension}, "
          f"dt={s.dt:g}, t_end={s.t_end:g}")
    for run in result.runs:
        cts = ", ".join(
            f"conv({tol:g})=" + ("never" if t is None else f"{t:.2f}s")
            for tol, t in run.convergence_times.items())
        extra = ""
        if run.storage_violations is not None:
            extra += f", storage increases: {run.storage_violations}"
        if run.mu_flagged:
            extra += " [mu outside (0,1)]"
        print(f"  {run.label}: final error {run.trajectory.err_norms[-1]:.3e}, "
              f"{cts}{extra}")
    if result.excitation:
        rhos = [rho for _, rho in result.excitation]
        print(f"  excitation: min window eigenvalue in [{min(rhos):.3g}, "
              f"{max(rhos):.3g}] over {len(rhos)} windows")
    for path in written:
        print(f"  wrote {path}")
    return 0


def _cmd_list(_args) -> int:
    for name in catalog.BUILTIN_NAMES:
        print(catalog.describe(name))
    return 0


def _cmd_check_pe(args) -> int:
    config = _resolve_scenario(args.scenario, None, None)
    for flag, value in (("--window", args.window), ("--step", args.step)):
        if not 0 < value < math.inf:
            raise ConfigurationError(f"{flag} must be positive and finite, got {value}")
    t_max = args.t_max
    if t_max is None:
        t_max = max(config.settings.t_end - args.window, 0.0)
    if not 0 <= t_max < math.inf:
        raise ConfigurationError(f"--t-max must be finite and >= 0, got {t_max}")
    if t_max / args.step > MAX_STEPS:
        raise ConfigurationError(
            f"--t-max {t_max:g} with --step {args.step:g} gives {t_max / args.step:.3g} "
            f"windows, more than the limit of {MAX_STEPS}")
    # the starts are made, and the rows printed, one block of windows at a time
    starts = (i * args.step for i in range(int(math.floor(t_max / args.step)) + 1))
    blocks = excitation_blocks(config.problem.regressor, starts, args.window, args.dt)
    print(f"# {config.name}: min eigenvalue of the Gram integral over "
          f"[t, t+{args.window:g}]")
    print(f"{'t':>10}  {'rho':>12}")
    for rows in blocks:
        print("\n".join(f"{t:10.3f}  {rho:12.6g}" for t, rho in rows))
    return 0


def _cmd_verify(args) -> int:
    from . import acceptance

    numbers = set(args.criterion) if args.criterion else None
    if numbers is not None:
        known = {num for num, _, _ in acceptance.CRITERIA}
        bad = numbers - known
        if bad:
            raise ConfigurationError(f"unknown criterion numbers: {sorted(bad)}")
    results = acceptance.run_all(numbers=numbers)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help()
        return 1
    handlers = {"run": _cmd_run, "list": _cmd_list,
                "check-pe": _cmd_check_pe, "verify": _cmd_verify}
    try:
        return handlers[args.command](args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DivergenceError, SignalEvalError) as exc:
        prefix = "simulation diverged" if isinstance(exc, DivergenceError) else "signal error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
