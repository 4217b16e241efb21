"""Command line interface: run scenarios, presets, limit sweeps, reports.

Exit code 0 on success; on failure a machine-readable JSON error object is
printed to stderr and the exit code is nonzero.  The output root can be
overridden with the AGGREKIN_OUTPUT_ROOT environment variable.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import kinetic as kin_mod
from .scenarios import (
    PRESET_NAMES,
    SCHEMA,
    SOLVERS,
    RunReport,
    ScenarioError,
    check_kinetic_params,
    load_scenario,
    make_kernel,
    preset,
    report_sync_analysis,
    resolve_output_dir,
    run_scenario,
    initial_grid_state,
)

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aggrekin",
        description="Two-species aggregation dynamics: finite-volume, particle and kinetic solvers.",
        epilog=SCHEMA,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config file")
    p_run.add_argument("config", help="path to a scenario JSON file")
    p_run.add_argument("--solver", choices=SOLVERS)
    p_run.add_argument("--out", help="output root directory")

    p_preset = sub.add_parser("preset", help="run one of the canonical example scenarios")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    # every preset has chi1 = 10, outside the kinetic model's chi (theta1 + theta2) < 1
    p_preset.add_argument("--solver", choices=[s for s in SOLVERS if s != "kinetic"])
    p_preset.add_argument("--dx", type=float, default=5e-4, help="grid spacing (default 5e-4)")
    p_preset.add_argument("--t-final", type=float, dest="t_final", help="override final time")
    p_preset.add_argument("--out", help="output root directory")

    p_limit = sub.add_parser("limit", help="kinetic relaxation-limit sweep over eps_list")
    p_limit.add_argument("config", help="scenario JSON with an eps_list entry")
    p_limit.add_argument("--out", help="output root directory")

    p_report = sub.add_parser("report", help="print the sync analysis of a finished run")
    p_report.add_argument("run_dir", help="directory written by 'run' or 'preset'")
    return parser


def _cmd_run(args) -> int:
    """``run`` a scenario file or a ``preset``; both print the same summary."""
    if args.command == "preset":
        scenario = preset(args.name, solver=args.solver, dx=args.dx, T=args.t_final)
    else:
        scenario = load_scenario(args.config)
        if args.solver:
            scenario = replace(scenario, solver=args.solver)
    report = run_scenario(scenario, out_root=args.out)
    out = resolve_output_dir(scenario, args.out)
    print(f"{args.command} '{scenario.name}' ({scenario.solver}) -> {out}")
    print(report_sync_analysis(report))
    print(json.dumps({"events": len(report.events), "files": report.files}, sort_keys=True))
    return 0


def _cmd_limit(args) -> int:
    scenario = load_scenario(args.config)
    if scenario.eps_list is None:
        raise ScenarioError("eps_list: required for the limit command")
    check_kinetic_params(scenario.params)
    kernel = make_kernel(scenario.kernel_spec)
    st0 = initial_grid_state(scenario)
    rows = kin_mod.limit_experiment(
        st0, scenario.params, list(scenario.eps_list), scenario.T, kernel,
        safety=scenario.cfl_safety,
    )
    out = resolve_output_dir(scenario, args.out)
    kin_mod.write_limit_csv(out / "limit.csv", rows)
    print(f"limit sweep '{scenario.name}' -> {out / 'limit.csv'}")
    for eps, d1, d2 in rows:
        print(f"  epsilon={eps:<8g} w2_species1={d1:.6g} w2_species2={d2:.6g}")
    return 0


def _cmd_report(args) -> int:
    report_path = Path(args.run_dir) / "report.json"
    if not report_path.exists():
        raise ScenarioError(f"no report.json found in {args.run_dir}")
    with report_path.open() as fh:
        print(report_sync_analysis(RunReport.from_dict(json.load(fh))))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "preset": _cmd_run,
        "limit": _cmd_limit,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (ScenarioError, ValueError, RuntimeError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
