"""Command line interface.

Subcommands: run (solve a scenario, write the output bundle), convergence
(refinement study), list (builtin scenarios), slice (sample a finished run
along a segment). Exit codes: 0 success, 2 invalid input, 3 solver
failure, 4 missing data file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .benchmarks import builtin_scenarios, get_scenario
from .dofspace import POLICIES
from .driver import load_solution, run_convergence, run_scenario
from .errors import MissingDataError, SolverError, ValidationError
from .linalg import PRECONDITIONERS
from .scenario import Scenario, SliceSpec, load_scenario_file
from .solution import SIDES, sample_slice, write_profile_csv

__all__ = ["main", "build_parser"]


def _resolve_scenario(spec: str) -> Scenario:
    if spec in builtin_scenarios():
        return get_scenario(spec)
    path = Path(spec)
    if path.exists():
        return load_scenario_file(path)
    if spec.endswith(".json"):
        raise MissingDataError(f"scenario file not found: {spec}")
    raise ValidationError(
        f"unknown scenario {spec!r}: not a builtin name (see 'boxdfm list') "
        "and no such file"
    )


def _add_solver_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--refine", type=int, default=0, metavar="N",
                   help="extra uniform refinement levels")
    p.add_argument("--policy", default=None,
                   choices=[name.replace("_", "-") for name in POLICIES],
                   help="intersection policy override (default: scenario "
                        "setting, barrier-cuts unless stated)")
    p.add_argument("--tol", type=float, default=None, metavar="T",
                   help="solver tolerance override")
    p.add_argument("--precond", default=None,
                   choices=PRECONDITIONERS,
                   help="preconditioner override")
    p.add_argument("--max-iter", type=int, default=None, metavar="M",
                   help="iteration cap override")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="boxdfm",
        description="vertex-centered control-volume solver for Darcy flow "
                    "with conductive fractures and low-permeable barriers",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve a scenario and write its outputs")
    run.add_argument("scenario", help="builtin name or scenario JSON file")
    _add_solver_opts(run)
    run.add_argument("--out", default=None, metavar="DIR",
                     help="output directory (default: out_<scenario>)")

    conv = sub.add_parser("convergence",
                          help="refinement study against the exact solution")
    conv.add_argument("scenario", help="builtin name or scenario JSON file")
    conv.add_argument("--levels", type=int, required=True, metavar="K",
                      help="number of refinements after the base level")
    _add_solver_opts(conv)
    conv.add_argument("--out", default=None, metavar="DIR",
                      help="output directory (default: conv_<scenario>)")

    sub.add_parser("list", help="list builtin scenarios")

    sl = sub.add_parser("slice", help="sample a finished run along a segment")
    sl.add_argument("rundir", help="directory a run wrote its outputs to")
    sl.add_argument("--from", dest="start", required=True, metavar="X,Y[,Z]",
                    help="segment start")
    sl.add_argument("--to", dest="end", required=True, metavar="X,Y[,Z]",
                    help="segment end")
    sl.add_argument("-n", type=int, default=SliceSpec.n, help="number of samples")
    sl.add_argument("--side", choices=SIDES, default=SliceSpec.side,
                    help="trace to report on points lying on a barrier")
    sl.add_argument("--out", default=None, metavar="FILE",
                    help="CSV output file (default: stdout)")
    return ap


def _parse_point(text: str):
    """The coordinates of X,Y[,Z]; sample_slice checks their count."""
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise ValidationError(f"cannot parse coordinates {text!r}") from None


def _cmd_run(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    out = Path(args.out) if args.out else Path(f"out_{scenario.name}")
    res = run_scenario(scenario, refine=args.refine, policy=args.policy,
                       out_dir=out, tol=args.tol,
                       preconditioner=args.precond, max_iter=args.max_iter)
    r = res.report
    print(f"scenario     {r['scenario']}  ({r['description']})")
    print(f"policy       {r['policy']}")
    print(f"mesh         {r['n_vertices']} vertices, {r['n_cells']} cells, "
          f"refine level {r['refine']}")
    print(f"dofs         {r['n_dofs']}")
    s = r["solver"]
    print(f"solver       {s['preconditioner']}, {s['iterations']} iterations, "
          f"relative residual {s['relative_residual']:.3e}, "
          f"setup {s['setup_s']:.3f} s, iterate {s['iterate_s']:.3f} s "
          f"({1e3 * s['iterate_s'] / max(1, s['iterations']):.2f} ms/iteration)")
    bal = r["balance"]
    print(f"balance      outflow {bal['dirichlet_outflow']:.6e}, "
          f"supplied {bal['supplied']:.6e}, "
          f"imbalance {bal['imbalance']:.3e}")
    if "l2_error" in r:
        print(f"l2 error     {r['l2_error']:.6e}")
    for w in r["warnings"]:
        print(f"warning      {w}")
    print(f"outputs      {out}")
    return 0


def _cmd_convergence(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    out = Path(args.out) if args.out else Path(f"conv_{scenario.name}")
    result = run_convergence(scenario, levels=args.levels, policy=args.policy,
                             out_dir=out, tol=args.tol,
                             preconditioner=args.precond, max_iter=args.max_iter)
    print(f"scenario     {result['scenario']}")
    print("level  ndof      l2_error      order")
    for row in result["rows"]:
        o = "  -  " if row["order"] is None else f"{row['order']:.3f}"
        print(f"{row['level']:<6d} {row['ndof']:<9d} "
              f"{row['l2_error']:.6e}  {o}")
    lo, hi = result["order_window"]
    verdict = "within" if result["orders_in_window"] else "OUTSIDE"
    print(f"orders {verdict} window [{lo}, {hi}]")
    print(f"outputs      {out}")
    return 0


def _cmd_list(args) -> int:
    for entry in builtin_scenarios().values():
        status = "" if entry.available else "  [unavailable: data not shipped]"
        print(f"{entry.name:<14} {entry.summary}{status}")
    return 0


def _cmd_slice(args) -> int:
    field = load_solution(args.rundir)
    sample = sample_slice(field, _parse_point(args.start), _parse_point(args.end), args.n,
                          side=args.side)
    if args.out:
        write_profile_csv(args.out, sample)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        write_profile_csv(sys.stdout, sample)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "convergence": _cmd_convergence,
    "list": _cmd_list,
    "slice": _cmd_slice,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SolverError as e:
        print(f"solver error: {e}", file=sys.stderr)
        return 3
    except MissingDataError as e:
        print(f"missing data: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
