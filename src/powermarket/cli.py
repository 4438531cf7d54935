"""Command-line surface: validate, solve, sweep, verify, emit-lp.

Exit codes: 0 success (optimal and all checks pass), 1 input/parse error,
2 verification failure, 3 model without an optimum (infeasible, unbounded,
or one of the two), 4 solver failure (iteration or time limit, numerical
trouble: the model may still be feasible).
The default output directory can be set with the POWERMARKET_OUT_DIR
environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .formulate import build_lp, write_mps
from .metrics import Ledger, build_report, report_to_json, write_report_csv
# the same encoder bound a second time, so that bench/spans.py times verify's writes apart
from .metrics import report_to_json as verify_report_json
from .scenario import ScenarioError, load_plan, load_scenario
from .solve import NO_OPTIMUM, solve, solve_external, write_solution_file, SolveError
from .sweep import all_verified, run_sweep, sweep_manifest, write_sweep_csv
from .verify import (
    check_cap_tax_equivalence,
    check_subsidy_tax_lift,
    verify_solution,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4


def _out_dir(args) -> str:
    out = args.out_dir or os.environ.get("POWERMARKET_OUT_DIR", ".")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise SystemExit(_error(f"cannot create output directory '{out}': "
                                f"{exc.strerror or exc}", EXIT_INPUT))
    return out


def _error(exc, code: int) -> int:
    """Report ``exc``, an exception or a message, in one ``error:`` line;
    returns the exit code ``code``."""
    print(f"error: {exc}", file=sys.stderr)
    return code


def _read(load, *args):
    """``load(*args)``, whose last argument names an input file: the
    scenario, the plan or the solution file.  A file that cannot be read,
    or that holds no valid input, ends the command in one ``error:`` line
    with exit code 1."""
    try:
        return load(*args)
    except OSError as exc:
        message = f"cannot read '{exc.filename or args[-1]}': {exc.strerror or exc}"
    except (ScenarioError, SolveError) as exc:
        message = str(exc)
    raise SystemExit(_error(message, EXIT_INPUT))


def _write(write, *args, **kwargs):
    """``write(*args, **kwargs)``, whose last positional argument is an output
    file; a file it cannot write ends the command in one ``error:`` line."""
    try:
        write(*args, **kwargs)
    except OSError as exc:
        raise SystemExit(_error(f"cannot write '{exc.filename or args[-1]}': "
                                f"{exc.strerror or exc}", EXIT_INPUT))


def _write_text(text: str, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _not_optimal(sol) -> int:
    """Report a solve that ended without an optimum; returns the exit code."""
    if sol.status in NO_OPTIMUM:
        print(f"model is {sol.status}: {sol.message}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"solver failed ({sol.status}), the model may still be feasible: "
          f"{sol.message}", file=sys.stderr)
    return EXIT_SOLVER


def cmd_validate(args) -> int:
    # loading runs model.validate: a violation ends in _read's error line
    system, _, _ = _read(load_scenario, args.scenario)
    print(f"ok: {len(system.nodes)} node(s), {system.snapshots} snapshot(s), "
          f"{len(system.technologies)} technology placement(s)")
    return EXIT_OK


def cmd_solve(args) -> int:
    system, policy, options = _read(load_scenario, args.scenario)
    out = _out_dir(args)
    name = options["name"]

    lp = build_lp(system, policy)
    if args.emit_lp:
        _write(write_mps, lp, os.path.join(out, f"{name}.mps"))
    if args.external_solution:
        sol = _read(solve_external, lp, args.external_solution)
    else:
        try:
            sol = solve(lp)
        except SolveError as exc:
            return _error(exc, EXIT_SOLVER)
    if sol.status != "optimal":
        return _not_optimal(sol)

    _write(write_solution_file, sol, os.path.join(out, f"{name}.sol"))
    ledger = Ledger.of(system, sol, policy)
    report = build_report(ledger, suppress_negative=options["suppress_negative_prices"])
    _write(_write_text, report_to_json(report), os.path.join(out, f"{name}.metrics.json"))
    _write(write_report_csv, report, os.path.join(out, f"{name}.metrics.csv"),
           scenario=name)

    checks = verify_solution(ledger)
    _write(_write_text, verify_report_json(checks),
           os.path.join(out, f"{name}.verification.json"))
    failures = [c for c in checks if c.verdict == "fail"]
    for c in failures:
        print(f"check failed: {c.check} {c.entity} residual={c.residual:.3e}",
              file=sys.stderr)
    print(f"solved '{name}': objective {sol.objective!r}, "
          f"{len(checks)} checks, {len(failures)} failure(s)")
    return EXIT_VERIFY if failures else EXIT_OK


def cmd_emit_lp(args) -> int:
    system, policy, options = _read(load_scenario, args.scenario)
    out = _out_dir(args)
    lp = build_lp(system, policy)
    path = os.path.join(out, f"{options['name']}.mps")
    _write(write_mps, lp, path)
    print(path)
    return EXIT_OK


def cmd_sweep(args) -> int:
    plan = _read(load_plan, args.plan)
    out = _out_dir(args)
    points = run_sweep(plan)
    _write(write_sweep_csv, plan, points, os.path.join(out, f"{plan.name}.csv"))
    _write(_write_text, json.dumps(sweep_manifest(plan, points), indent=2, sort_keys=True),
           os.path.join(out, f"{plan.name}.manifest.json"))
    solved = sum(1 for p in points if p.status == "optimal")
    verified = all_verified(points)
    print(f"sweep '{plan.name}': {solved}/{len(points)} points optimal, "
          f"verified={verified}")
    return EXIT_OK if verified else EXIT_VERIFY


def cmd_verify(args) -> int:
    system, policy, options = _read(load_scenario, args.scenario)
    out = _out_dir(args)
    lp = build_lp(system, policy)
    try:
        sol = solve(lp)
        if sol.status != "optimal":
            return _not_optimal(sol)
        ledger = Ledger.of(system, sol, policy)
        checks = verify_solution(ledger) + check_cap_tax_equivalence(ledger) \
            + check_subsidy_tax_lift(ledger)
    except SolveError as exc:
        return _error(exc, EXIT_SOLVER)
    _write(_write_text, verify_report_json(checks),
           os.path.join(out, f"{options['name']}.verification.json"))
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for c in checks:
        counts[c.verdict] += 1
        if c.verdict != "pass":
            print(f"{c.verdict}: {c.check} {c.entity} residual={c.residual!r}")
    print(f"verification: {counts['pass']} pass, {counts['fail']} fail, "
          f"{counts['inconclusive']} inconclusive")
    return EXIT_OK if counts["fail"] == 0 else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powermarket",
        description="Long-term electricity market equilibria with policy "
                    "instruments: solve, sweep, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="solve a scenario and write metrics")
    p.add_argument("scenario")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--emit-lp", action="store_true",
                   help="also write the LP in MPS interchange format")
    p.add_argument("--external-solution", default=None, metavar="PATH",
                   help="read a solution file instead of solving in-process")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("emit-lp", help="write the LP without solving")
    p.add_argument("scenario")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_emit_lp)

    p = sub.add_parser("sweep", help="run a scenario grid from a plan file")
    p.add_argument("plan")
    p.add_argument("--out-dir", default=None)
    # ignored: a sweep runs in this process; bench/worker.py still passes it
    p.add_argument("--jobs", type=int, default=0, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="solve and run all theorem checks")
    p.add_argument("scenario")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
