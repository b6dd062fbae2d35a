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
import os
import sys

from . import exact as _exact
from . import mc as _mc
from .errors import BudgetError, ScheduleError, SignatureError
from .rng import check_seed
from .schedule import (ScheduleParams1D, ScheduleParams2D, Schedule,
                       build_schedule_1d, build_schedule_2d, validate_regime)
from .strategies import STRATEGY_NAMES, strategy_from_spec
from .verify import _SUITES, run_suite
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
    p.add_argument("--eta", type=float, default=0.5,
                   help="stage exponent for d=1 schedules (default 0.5)")
    p.add_argument("--epsilon", type=float, default=0.5,
                   help="regime parameter for d=2 schedules (default 0.5)")
    p.add_argument("--theta", type=float, default=None,
                   help="d=2 window exponent (default derived from epsilon)")
    p.add_argument("--kappa", type=float, default=None,
                   help="d=2 stage exponent (default derived from epsilon)")


def _strategy_spec_from_args(args, name: str) -> dict:
    spec = {"name": name}
    if name == "windowed_1d":
        spec["eta"] = args.eta
    if name == "windowed_2d":
        spec["epsilon"] = args.epsilon
        if args.theta is not None:
            spec["theta"] = args.theta
        if args.kappa is not None:
            spec["kappa"] = args.kappa
    if args.delayed:
        spec["delayed"] = True
    return spec


def _write_file(path: str, write, newline: str | None = None) -> int:
    """Call ``write(fh)`` on ``path`` opened for writing.  A path that cannot
    be written is bad input: ``cannot write <path>: <reason>``, exit 2."""
    try:
        with open(path, "w", newline=newline) as fh:
            write(fh)
    except OSError as exc:
        print(f"cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return EXIT_OK


def _writable(path: str) -> bool:
    """Whether ``path`` can be opened for writing, checked before any work
    runs: an existing file is opened for appending and left as it was, a
    new one is created and removed.  If not, print the ``_write_file``
    message."""
    existed = os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        print(f"cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    if not existed:
        os.remove(path)
    return True


def _emit(text: str, out_path: str | None) -> int:
    if out_path:
        return _write_file(out_path, lambda fh: fh.write(text))
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")
    return EXIT_OK


def _cmd_schedule(args) -> int:
    try:
        if args.d == 1:
            params = ScheduleParams1D(n=args.n, m=args.m, eta=args.eta)
            sched = build_schedule_1d(params)
            diag = validate_regime(params).to_json_dict()
        else:
            params = ScheduleParams2D(n=args.n, m=args.m, epsilon=args.epsilon,
                                      theta=args.theta, kappa=args.kappa)
            sched = build_schedule_2d(params)
            diag = {"theta": params.theta, "kappa": params.kappa,
                    "constraint_ratio": (1 - 2 * params.theta)
                    / (1 - 2 * params.kappa * params.theta)}
    except (ScheduleError, ValueError) as exc:
        print(f"schedule construction failed: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    payload = {"schedule": sched.to_json_dict(), "diagnostics": diag}
    return _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)


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
    if args.format == "csv":
        import io

        buf = io.StringIO()
        _mc.report_to_csv(report, buf)
        return _emit(buf.getvalue(), args.out)
    return _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)


def _cmd_exact(args) -> int:
    if args.policy_out is not None and (args.eval or args.d != 1):
        print("exact failed: --policy-out writes the d=1 optimal table, without --eval",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.delayed and not args.eval:
        print("exact failed: --delayed needs --eval", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        problem = Problem(d=args.d, n=args.n, m=args.m)
        if args.eval:
            strategy = strategy_from_spec(_strategy_spec_from_args(args, args.eval),
                                          problem)
            budget = args.budget if args.budget is not None else _exact.DEFAULT_EVAL_BUDGET
            value = _exact.evaluate_strategy_exact(strategy, problem, budget=budget)
            engine, work = _exact.evaluation_cost(strategy, problem)
            work_key = "plan_entries" if engine == "plan" else "scalar_cell_steps"
            payload = {"schema_version": 1, "mode": "evaluate",
                       "strategy": strategy.spec_dict(),
                       "problem": {"d": args.d, "n": args.n, "m": args.m},
                       "value": value,
                       "runtime": {"engine": engine, work_key: work}}
        else:
            want_policy = args.policy_out is not None
            budget = args.budget if args.budget is not None else _exact.DEFAULT_DP_BUDGET
            value, table = _exact.optimal_value(
                problem, budget=budget,
                keep="full" if want_policy else "none",
                want_policy=want_policy)
            if want_policy and _write_file(args.policy_out, table.to_csv) != EXIT_OK:
                return EXIT_BAD_INPUT
            updates, cells = _exact.dp_cost(problem, kept=want_policy)
            payload = {"schema_version": 1, "mode": "optimal",
                       "problem": {"d": args.d, "n": args.n, "m": args.m},
                       "value": value, "truncation_bound": table.truncation_bound,
                       "runtime": {"engine": "backward", "dp_cell_updates": updates,
                                   "dp_cells_held": cells}}
    except (SignatureError, ScheduleError, ValueError) as exc:
        print(f"exact failed: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.json:
        return _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return _emit(f"{payload['value']!r}", args.out)


def _cmd_sweep(args) -> int:
    try:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"expected a JSON object, got {type(config).__name__}")
        cells = config["cells"]
        default_trials = config.get("trials", 10_000)
        if not isinstance(cells, list) or type(default_trials) is not int or default_trials < 1:
            raise ValueError("'cells' must be a list and 'trials' a positive integer")
    except (OSError, KeyError, ValueError) as exc:
        print(f"bad sweep config: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        rows = _mc.sweep(cells, master_seed=args.seed, default_trials=default_trials,
                         threads=args.threads, out_dir=args.state_dir)
    except ValueError as exc:
        print(f"bad sweep arguments: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.out:
        if _write_file(args.out, lambda fh: _mc.sweep_to_csv(rows, fh),
                       newline="") != EXIT_OK:
            return EXIT_BAD_INPUT
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
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    results = []
    for name in names:
        results.extend(run_suite(name, trials=args.trials, seed=args.seed,
                                 fast=args.fast))
    return results


def _cmd_verify(args) -> int:
    if args.trials is not None and args.trials < 1:
        print(f"verify failed: trials must be >= 1, got {args.trials}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        check_seed(args.seed)
    except ValueError as exc:
        print(f"verify failed: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
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
    p.add_argument("--delayed", action="store_true",
                   help="with --eval: wrap the strategy's stands into delayed steps")
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
    p.add_argument("--suite", default="all", choices=(*_SUITES, "all"))
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
    for path in (getattr(args, "out", None), getattr(args, "policy_out", None)):
        if path and not _writable(path):
            return EXIT_BAD_INPUT
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_OVER_BUDGET


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
