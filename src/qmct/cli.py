"""Command-line interface.

Subcommands:
  solve     run a solver mode on an instance file and print a report
  verify    solve, cross-check against the brute-force oracle, run all
            invariant checks; exit 0 only if everything passes
  generate  write a seeded random instance file

Exit codes: 0 success, 2 infeasible, 3 validation failure (an invalid
or unreadable instance file, an unwritable output path, a usage error
or an out-of-range option), 4 horizon or size guard tripped.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io, pipeline, temporal
from .errors import HorizonLimitError, InfeasibleError, ValidationError
from .generate import generate
from .network import validate
from .rationals import rational_str

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INVALID = 3
EXIT_GUARD = 4

_SOLVERS = {
    pipeline.MODE_QUICKEST_MINCOST: pipeline.solve_quickest_mincost,
    pipeline.MODE_QUICKEST: pipeline.solve_quickest,
    # builds no expansion, so a layer limit has nothing to bound
    pipeline.MODE_MINCOST_STATIC: lambda net, max_layers: pipeline.solve_mincost_static(net),
}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as validation errors: argparse's exit 2 means infeasible here."""

    def error(self, message: str):
        raise ValidationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qmct",
        description="Exact quickest minimum-cost transshipment solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.set_defaults(run=_cmd_solve)
    solve.add_argument("file", help="instance JSON file")
    solve.add_argument(
        "--mode", choices=[*_SOLVERS, pipeline.MODE_ORACLE], default=pipeline.MODE_QUICKEST_MINCOST
    )
    solve.add_argument(
        "--emit-schedule", action="store_true", help="include the schedule in the report"
    )
    solve.add_argument(
        "--storage-trace", action="store_true", help="include per-node storage over time"
    )
    solve.add_argument(
        "--max-horizon",
        type=int,
        default=None,
        help="abort expansions beyond this many layers",
    )
    solve.add_argument("--text", action="store_true", help="print a text report, not JSON")

    verify = sub.add_parser("verify", help="solve plus oracle and invariant checks")
    verify.set_defaults(run=_cmd_verify)
    verify.add_argument("file")
    verify.add_argument("--max-horizon", type=int, default=None)

    gen = sub.add_parser("generate", help="write a seeded random instance")
    gen.set_defaults(run=_cmd_generate)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--nodes", type=int, default=5)
    gen.add_argument("--terminals", type=int, default=2, help="max sources and max sinks")
    gen.add_argument("--tau-max", type=int, default=3)
    gen.add_argument("--cap-max", type=int, default=3)
    gen.add_argument("--cost-max", type=int, default=3)
    gen.add_argument("--negative-costs", action="store_true")
    gen.add_argument("--out", required=True)
    return parser


def _print_text_report(report: pipeline.SolveReport) -> None:
    print(f"mode:    {report.mode}")
    print(f"cost:    {rational_str(report.cost)}")
    if report.horizon is not None:
        original = rational_str(report.horizon_original)
        print(f"horizon: {report.horizon} steps ({original} time units, scale {report.scale})")
    if report.transport_optimum is not None:
        print(f"static optimum: {rational_str(report.transport_optimum)}")
    if report.subnetwork is not None:
        print(f"admissible arcs: {sorted(report.subnetwork)}")
    for name, passed in report.checks.items():
        print(f"check {name}: {'pass' if passed else 'FAIL'}")


def _reject_dropped_flags(args) -> None:
    """Raise :class:`ValidationError` for a flag the chosen report leaves out."""
    flags = {"--emit-schedule": args.emit_schedule, "--storage-trace": args.storage_trace}
    reason = "--text prints no schedule or storage"
    if args.mode == pipeline.MODE_ORACLE:
        flags = {"--text": args.text, **flags}
        reason = "--mode oracle prints only its cost and horizon, as JSON"
    elif args.mode == pipeline.MODE_MINCOST_STATIC:
        reason = "--mode mincost-static has no schedule"
    elif not args.text:
        return
    if dropped := [flag for flag, on in flags.items() if on]:
        raise ValidationError(f"{reason}: drop {' and '.join(dropped)}")


def _cmd_solve(args) -> int:
    _reject_dropped_flags(args)
    network = io.load_instance(args.file)
    if args.mode == pipeline.MODE_ORACLE:
        cost, horizon = pipeline.oracle_quickest_mincost(network, max_layers=args.max_horizon)
        report_doc = {"mode": pipeline.MODE_ORACLE, "cost": rational_str(cost), "horizon": horizon}
        print(json.dumps(report_doc, indent=2))
        return EXIT_OK
    report = _SOLVERS[args.mode](network, max_layers=args.max_horizon)
    if not args.text:
        storage = temporal.storage_trace(network, report.schedule) if args.storage_trace else None
        doc = io.report_to_doc(report, include_schedule=args.emit_schedule, storage=storage)
        print(json.dumps(doc, indent=2))
    else:
        _print_text_report(report)
    return EXIT_OK if report.all_checks_pass else 1


def _cmd_verify(args) -> int:
    network = io.load_instance(args.file)
    results = {"validation": validate(network).ok}
    if results["validation"]:
        solved = pipeline.solve_quickest_mincost(network, max_layers=args.max_horizon)
        cost, horizon = pipeline.oracle_quickest_mincost(network, max_layers=args.max_horizon)
        results.update(solved.checks)
        results["oracle_cost_match"] = cost == solved.cost
        results["oracle_horizon_match"] = horizon == solved.horizon
    for name, ok in results.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    if not results["validation"]:
        return EXIT_INVALID
    return EXIT_OK if all(results.values()) else 1


def _cmd_generate(args) -> int:
    try:
        network = generate(
            args.seed,
            nodes=args.nodes,
            terminals=args.terminals,
            tau_max=args.tau_max,
            cap_max=args.cap_max,
            cost_max=args.cost_max,
            negative_costs=args.negative_costs,
        )
    except ValueError as exc:  # an out-of-range option, named by its keyword
        raise ValidationError(str(exc)) from exc
    io.save_instance(network, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "max_horizon", None) is not None and args.max_horizon < 0:
            raise ValidationError(f"--max-horizon must be at least 0, got {args.max_horizon}")
        return args.run(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        if exc.certificate:
            doc = {"certificate": exc.certificate}
            print(json.dumps(doc, indent=2, default=rational_str), file=sys.stderr)
        return EXIT_INFEASIBLE
    except HorizonLimitError as exc:
        print(f"guard tripped: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
