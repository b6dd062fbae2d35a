"""Command-line entry point.

Subcommands: schedule (window construction), simulate (Monte Carlo), exact
(optimal value / exact strategy evaluation), verify (property suites), and
sweep (parameter grids).  Outputs are JSON or CSV with a schema_version
field and the full parameter set echoed, so every result file is
self-describing.

Exit codes: 0 ok, 1 check failed / admissibility violation, 2 bad input,
3 computation over budget.

CSV columns (sweep): cell, d, n, m, strategy, delayed, params, trials,
master_seed, successes, p_hat, wilson_lo, wilson_hi, status, error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import exact as _exact
from . import mc as _mc
from .errors import AdmissibilityError, BudgetError, ScheduleError, SignatureError
from .schedule import (ScheduleParams1D, ScheduleParams2D, Schedule,
                       build_schedule_1d, build_schedule_2d, validate_regime)
from .strategies import STRATEGY_NAMES, strategy_from_spec
from .walk import Problem

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_OVER_BUDGET = 3


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, choices=(1, 2), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)


def _add_schedule_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eta", type=float, default=None,
                   help="stage exponent for d=1 schedules (default 0.5)")
    p.add_argument("--epsilon", type=float, default=None,
                   help="regime parameter for d=2 schedules (default 0.5)")
    p.add_argument("--theta", type=float, default=None,
                   help="d=2 window exponent (default derived from epsilon)")
    p.add_argument("--kappa", type=float, default=None,
                   help="d=2 stage exponent (default derived from epsilon)")


def _strategy_spec_from_args(args, name: str) -> dict:
    spec = {"name": name}
    if name == "windowed_1d":
        spec["eta"] = args.eta if args.eta is not None else 0.5
    if name == "windowed_2d":
        spec["epsilon"] = args.epsilon if args.epsilon is not None else 0.5
        if args.theta is not None:
            spec["theta"] = args.theta
        if args.kappa is not None:
            spec["kappa"] = args.kappa
    if args.delayed:
        spec["delayed"] = True
    return spec


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _cmd_schedule(args) -> int:
    try:
        if args.d == 1:
            params = ScheduleParams1D(n=args.n, m=args.m,
                                      eta=args.eta if args.eta is not None else 0.5)
            sched = build_schedule_1d(params)
            diag = validate_regime(params).to_json_dict()
        else:
            params = ScheduleParams2D(
                n=args.n, m=args.m,
                epsilon=args.epsilon if args.epsilon is not None else 0.5,
                theta=args.theta, kappa=args.kappa)
            sched = build_schedule_2d(params)
            diag = {"theta": params.theta, "kappa": params.kappa,
                    "constraint_ratio": (1 - 2 * params.theta)
                    / (1 - 2 * params.kappa * params.theta)}
    except (ScheduleError, ValueError) as exc:
        print(f"schedule construction failed: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    payload = {"schedule": sched.to_json_dict(), "diagnostics": diag}
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    spec = _strategy_spec_from_args(args, args.strategy)
    try:
        schedule = None
        if args.schedule_json:
            with open(args.schedule_json) as fh:
                data = json.load(fh)
            if isinstance(data, dict):
                data = data.get("schedule", data)
            schedule = Schedule.from_json_dict(data)
        problem = Problem(d=args.d, n=args.n, m=args.m)
        config = _mc.McConfig(problem=problem, strategy=spec, trials=args.trials,
                              master_seed=args.seed, threads=args.threads,
                              per_window=args.per_window,
                              store_failures=args.store_failures,
                              schedule=schedule)
        if args.per_window:
            result = _mc.window_conditionals(config)
            report = result.pop("report")
            payload = report.to_json_dict()
            payload["window_conditionals"] = {
                "stages": result["stages"],
                "stage_product": result["stage_product"]}
        else:
            report = _mc.estimate_success(config)
            payload = report.to_json_dict()
    except (OSError, ScheduleError, ValueError) as exc:
        print(f"simulate failed: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except AdmissibilityError as exc:
        print(f"admissibility violation: {exc} (trial {exc.trial_index})",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    if args.format == "csv":
        import io

        buf = io.StringIO()
        _mc.report_to_csv(report, buf)
        _emit(buf.getvalue(), args.out)
    else:
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return EXIT_OK


def _cmd_exact(args) -> int:
    try:
        problem = Problem(d=args.d, n=args.n, m=args.m)
        if args.eval:
            strategy = strategy_from_spec(_strategy_spec_from_args(args, args.eval),
                                          problem)
            budget = args.budget if args.budget is not None else _exact.DEFAULT_EVAL_BUDGET
            value = _exact.evaluate_strategy_exact(strategy, problem, budget=budget)
            payload = {"schema_version": 1, "mode": "evaluate",
                       "strategy": strategy.spec_dict(),
                       "problem": {"d": args.d, "n": args.n, "m": args.m},
                       "value": value,
                       "runtime": {"engine": _exact.evaluation_engine(strategy, problem)}}
        else:
            want_policy = args.policy_out is not None
            budget = args.budget if args.budget is not None else _exact.DEFAULT_DP_BUDGET
            value, table = _exact.optimal_value(
                problem, budget=budget,
                keep="full" if want_policy else "none",
                want_policy=want_policy)
            if want_policy:
                with open(args.policy_out, "w") as fh:
                    table.to_csv(fh)
            payload = {"schema_version": 1, "mode": "optimal",
                       "problem": {"d": args.d, "n": args.n, "m": args.m},
                       "value": value, "runtime": {"engine": "backward"}}
    except BudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_OVER_BUDGET
    except (SignatureError, ScheduleError, ValueError) as exc:
        print(f"exact failed: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.json:
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        _emit(f"{payload['value']!r}", args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        with open(args.config) as fh:
            config = json.load(fh)
        cells = config["cells"]
        default_trials = int(config.get("trials", 10_000))
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"bad sweep config: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        rows = _mc.sweep(cells, master_seed=args.seed, default_trials=default_trials,
                         threads=args.threads, out_dir=args.state_dir)
    except ValueError as exc:
        print(f"bad sweep arguments: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.out:
        with open(args.out, "w", newline="") as fh:
            _mc.sweep_to_csv(rows, fh)
    else:
        import io

        buf = io.StringIO()
        _mc.sweep_to_csv(rows, buf)
        sys.stdout.write(buf.getvalue())
    bad = [r for r in rows if r["status"] != "ok"]
    if bad:
        print(f"{len(bad)} cell(s) failed; see status/error columns", file=sys.stderr)
    return EXIT_OK


def _verify_suites(args) -> list[tuple[str, bool, str]]:
    from .verify import run_suite

    names = (["reflection", "hoeffding", "localtime", "dominance", "invariants"]
             if args.suite == "all" else [args.suite])
    results = []
    for name in names:
        results.extend(run_suite(name, trials=args.trials, seed=args.seed,
                                 fast=args.fast))
    return results


def _cmd_verify(args) -> int:
    results = _verify_suites(args)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        if not ok:
            failed += 1
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="targetwalk",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="build and print a window schedule")
    _add_problem_args(p)
    _add_schedule_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("simulate", help="Monte Carlo success estimate")
    _add_problem_args(p)
    _add_schedule_args(p)
    p.add_argument("--strategy", required=True, choices=STRATEGY_NAMES)
    p.add_argument("--delayed", action="store_true",
                   help="wrap the strategy's stands into delayed steps")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="master seed (mandatory: no silent entropy)")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--per-window", action="store_true",
                   help="add per-stage window-passage estimates")
    p.add_argument("--store-failures", type=int, default=0)
    p.add_argument("--schedule-json", default=None,
                   help="load the window schedule from a schedule subcommand dump")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("exact", help="optimal value or exact strategy evaluation")
    _add_problem_args(p)
    _add_schedule_args(p)
    p.add_argument("--eval", default=None, choices=STRATEGY_NAMES,
                   help="evaluate this strategy exactly instead of solving")
    p.add_argument("--delayed", action="store_true")
    p.add_argument("--policy-out", default=None,
                   help="write the optimal value/policy table as CSV")
    p.add_argument("--budget", type=float, default=None,
                   help="work cap: DP cell updates (default %g) or, with --eval, "
                        "float entries the plan engine touches, or cell-steps for "
                        "a strategy without a plan (default %g)"
                        % (_exact.DEFAULT_DP_BUDGET, _exact.DEFAULT_EVAL_BUDGET))
    p.add_argument("--json", action="store_true", help="emit JSON instead of the bare value")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--suite", default="all",
                   choices=("reflection", "hoeffding", "localtime", "dominance",
                            "invariants", "all"))
    p.add_argument("--trials", type=int, default=None,
                   help="override the pinned Monte Carlo trial counts")
    p.add_argument("--seed", type=int, default=20240601)
    p.add_argument("--fast", action="store_true",
                   help="smaller pinned sizes (smoke test)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="run a grid of simulate cells from a config file")
    p.add_argument("--config", required=True,
                   help='JSON file: {"trials": int, "cells": [{"d","n","m","strategy",...}]}')
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--state-dir", default=None,
                   help="directory for per-cell completion markers (resumable)")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad input already; normalize None
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_OVER_BUDGET


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
