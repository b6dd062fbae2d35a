"""Monte Carlo estimation of success probabilities.

Estimates are reproducible by construction: trials run in fixed chunks of
``_CHUNK``, each chunk draws from streams that depend only on the master
seed and its trial range, chunk results are integer counters, and the thread
count only changes who runs which chunk.
Wilson score intervals are used throughout; unlike the normal-approximation
interval they stay sane at p_hat = 0 or 1, which lazy strategies produce.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from math import sqrt
from typing import Optional

import numpy as np

from .samplers import _CHUNK, make_sampler
from .schedule import Schedule
from .strategies import Strategy, strategy_from_spec
from .walk import Problem, _check_integer

SCHEMA_VERSION = 1
_Z95 = 1.959963984540054

_log = logging.getLogger(__name__)


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    # the exact interval always contains p; keep that under float roundoff
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


@dataclass(frozen=True)
class McConfig:
    """One estimation task: problem, strategy spec, trial count, master seed."""

    problem: Problem
    strategy: dict
    trials: int
    master_seed: int
    threads: int = 1
    per_window: bool = False
    store_failures: int = 0
    schedule: Optional[Schedule] = None

    def __post_init__(self):
        for name in ("trials", "threads", "store_failures"):
            _check_integer(name, getattr(self, name))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.store_failures < 0:
            raise ValueError(f"store_failures must be >= 0, got {self.store_failures}")


@dataclass
class EstimateReport:
    """Success estimate with Wilson interval and optional per-stage counters."""

    problem: Problem
    strategy: dict
    trials: int
    master_seed: int
    successes: int
    p_hat: float
    wilson_lo: float
    wilson_hi: float
    stage_stats: Optional[list[dict]] = None
    failures: Optional[list] = None
    wall_time_s: float = 0.0
    threads: int = 1
    sampler: str = "generic"

    def to_json_dict(self, include_runtime: bool = True) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "problem": {"d": self.problem.d, "n": self.problem.n, "m": self.problem.m},
            "strategy": self.strategy,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "successes": self.successes,
            "p_hat": self.p_hat,
            "wilson_lo": self.wilson_lo,
            "wilson_hi": self.wilson_hi,
        }
        if self.stage_stats is not None:
            out["stage_stats"] = self.stage_stats
        if self.failures is not None:
            out["failures"] = self.failures
        if include_runtime:
            out["runtime"] = {"wall_time_s": self.wall_time_s, "threads": self.threads,
                              "sampler": self.sampler}
        return out

    def to_json(self, include_runtime: bool = True) -> str:
        return json.dumps(self.to_json_dict(include_runtime), indent=2, sort_keys=True)


def _stage_rows(counters: dict[str, np.ndarray], schedule: Schedule) -> list[dict]:
    rows = []
    for k in range(1, schedule.u + 2):
        cond = int(counters["cond"][k])
        stay = int(counters["cond_stay"][k])
        row = {
            "stage": k,
            "t_prev": schedule.times[k - 1],
            "t_k": schedule.times[k],
            "half_width": schedule.half_widths[k],
            "cond_events": cond,
            "stay_events": stay,
            "no_hit_events": int(counters["cond_nohit"][k]),
            "overshoot_events": int(counters["cond_overshoot"][k]),
            "failed_prior_events": int(counters["cond_failed_prior"][k]),
            "alive_trials": int(counters["alive"][k]),
            "hit_trials": int(counters["hit"][k]),
            "overshoot_trials": int(counters["overshoot"][k]),
        }
        if cond > 0:
            lo, hi = wilson_interval(stay, cond)
            row.update(p_stay=stay / cond, wilson_lo=lo, wilson_hi=hi,
                       status="ok")
        else:
            row.update(p_stay=None, wilson_lo=None, wilson_hi=None,
                       status="insufficient data")
        rows.append(row)
    return rows


def _resolve_strategy(config: McConfig) -> tuple[Strategy, Optional[Schedule]]:
    strat = strategy_from_spec(config.strategy, config.problem, config.schedule)
    sched = config.schedule
    if sched is None:
        inner = getattr(strat, "inner", strat)
        sched = getattr(inner, "schedule", None)
    return strat, sched


def estimate_success(config: McConfig, force_generic: bool = False) -> EstimateReport:
    """Monte Carlo success estimate over independent trials.

    Identical configs give identical reports (wall time aside) at any thread
    count.  A strategy that violates admissibility aborts the whole batch
    with the offending trial index.
    """
    t0 = time.perf_counter()
    strategy, schedule = _resolve_strategy(config)
    sampler = make_sampler(strategy, config.problem, force_generic=force_generic)
    chunks = [(lo, min(lo + _CHUNK, config.trials))
              for lo in range(0, config.trials, _CHUNK)]

    def run(span):
        lo, hi = span
        return sampler.run_chunk(config.master_seed, lo, hi,
                                 keep_failures=config.store_failures)

    if config.threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(run, chunks))
    else:
        results = [run(span) for span in chunks]

    successes = sum(r.successes for r in results)
    counters = None
    if sampler.collects_stages:
        counters = {}
        for r in results:
            for key, arr in r.stage_counters.items():
                if key in counters:
                    counters[key] = counters[key] + arr
                else:
                    counters[key] = arr.copy()
    failures = None
    if config.store_failures:
        failures = []
        for r in results:
            if r.failure_samples:
                failures.extend(r.failure_samples)
            if len(failures) >= config.store_failures:
                break
        failures = failures[:config.store_failures]

    lo, hi = wilson_interval(successes, config.trials)
    stage_stats = _stage_rows(counters, schedule) if counters is not None else None
    return EstimateReport(
        problem=config.problem, strategy=strategy.spec_dict(),
        trials=config.trials, master_seed=config.master_seed,
        successes=successes, p_hat=successes / config.trials,
        wilson_lo=lo, wilson_hi=hi, stage_stats=stage_stats,
        failures=failures, wall_time_s=time.perf_counter() - t0,
        threads=config.threads, sampler=sampler.name)


def window_conditionals(config: McConfig,
                        schedule: Optional[Schedule] = None) -> dict:
    """Per-stage window-passage estimates for a windowed strategy.

    For each stage k: the frequency of landing inside window k at t_k among
    trials that were inside window k-1 at t_{k-1}, with its Wilson interval
    and the split of failures into "origin never hit" and "hit but drifted
    out" (plus trials that had already failed an earlier stage).  Also
    reports the product of the stage estimates next to the overall success
    rate; the product is the staged lower-bound shape of the success
    argument and should not exceed the overall rate by more than Monte Carlo
    noise.
    """
    if schedule is not None and config.schedule is None:
        config = replace(config, schedule=schedule, per_window=True)
    report = estimate_success(config)
    if report.stage_stats is None:
        raise ValueError("window_conditionals needs a windowed strategy")
    product = 1.0
    product_defined = True
    for row in report.stage_stats:
        if row["p_stay"] is None:
            product_defined = False
            break
        product *= row["p_stay"]
    return {
        "schema_version": SCHEMA_VERSION,
        "stages": report.stage_stats,
        "stage_product": product if product_defined else None,
        "p_hat": report.p_hat,
        "successes": report.successes,
        "trials": report.trials,
        "report": report,
    }


SWEEP_COLUMNS = ("cell", "d", "n", "m", "strategy", "delayed", "params",
                 "trials", "master_seed", "successes", "p_hat",
                 "wilson_lo", "wilson_hi", "status", "error")


def _sweep_row(spec: dict, d, n, m, trials, master_seed,
               report: Optional[EstimateReport] = None, error: str = "") -> dict:
    """A ``SWEEP_COLUMNS`` row without ``cell`` that echoes ``spec``: the
    estimate in ``report``, or an error row without params when it is None."""
    row = {"d": d, "n": n, "m": m, "strategy": spec.get("name"),
           "delayed": bool(spec.get("delayed", False)), "params": "",
           "trials": trials, "master_seed": master_seed, "successes": None,
           "p_hat": None, "wilson_lo": None, "wilson_hi": None,
           "status": "error", "error": error}
    if report is not None:
        params = {k: v for k, v in spec.items() if k not in ("name", "delayed")}
        row.update(params=json.dumps(params, sort_keys=True),
                   successes=report.successes, p_hat=report.p_hat,
                   wilson_lo=report.wilson_lo, wilson_hi=report.wilson_hi,
                   status="ok")
    return row


def report_to_csv(report: EstimateReport, fh) -> None:
    """One-row CSV rendering of an estimate (sweep column layout)."""
    import csv

    p = report.problem
    row = _sweep_row(report.strategy, p.d, p.n, p.m, report.trials,
                     report.master_seed, report)
    writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
    writer.writeheader()
    writer.writerow(dict(row, cell=0))


def _marker_key(cell: dict, master_seed: int, trials) -> str:
    """Hash of everything a sweep cell's row depends on."""
    blob = json.dumps([cell, master_seed, trials, SCHEMA_VERSION],
                      sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _read_marker(path: str, key: str) -> Optional[dict]:
    """The row stored in a marker, or None if there is none, or if it is
    unreadable, keyed for another configuration (logged) or a failed row."""
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            row = json.load(fh)
    except (OSError, ValueError) as exc:
        _log.warning("%s is unreadable (%s); recomputing the cell", path, exc)
        return None
    if not isinstance(row, dict) or row.pop("key", None) != key:
        _log.warning("%s was written for another cell, seed, trial count or "
                     "schema; recomputing the cell", path)
        return None
    if row.get("status") != "ok":
        # earlier versions also kept markers of failed cells
        _log.info("%s records a failed cell; retrying it", path)
        return None
    return row


def _write_marker(path: str, row: dict, key: str) -> None:
    """Write a keyed marker whole or not at all: temp file, then rename."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(dict(row, key=key), fh, sort_keys=True)
    os.replace(tmp, path)


def sweep(cells: list[dict], master_seed: int, default_trials: int = 10_000,
          threads: int = 1, out_dir: Optional[str] = None) -> list[dict]:
    """Run estimate_success over a grid of cells; failures don't stop the sweep.

    Every cell uses the master seed directly (common random numbers across
    cells, and a one-cell sweep reproduces estimate_success exactly).  With
    ``out_dir`` set, each cell that succeeds is written to cell_NNNN.json
    and skipped on a rerun, making sweeps resumable per cell; a failed cell
    leaves no marker, so a rerun retries it.  A marker is keyed by a hash of
    (cell, master seed, trials, schema version) and written atomically; a
    torn marker or one keyed for another configuration is recomputed.
    ``threads`` below 1 raises ValueError before any cell runs; a cell that
    is not an object with a ``strategy`` object, or whose ``d``, ``n``, ``m``
    or ``trials`` is not an integer in range, is an error row.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    rows = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    for idx, cell in enumerate(cells):
        fields = cell if isinstance(cell, dict) else {}
        shaped = isinstance(fields.get("strategy"), dict)
        spec = fields["strategy"] if shaped else {}
        trials = fields.get("trials", default_trials)
        marker = None
        if out_dir is not None:
            marker = os.path.join(out_dir, f"cell_{idx:04d}.json")
            key = _marker_key(cell, master_seed, trials)
            row = _read_marker(marker, key)
            if row is not None:
                row["cell"] = idx
                rows.append(row)
                continue
        try:
            if not shaped:
                raise TypeError(f"a cell must be an object with a 'strategy' object, "
                                f"got {cell!r}")
            problem = Problem(d=fields.get("d", 1), n=fields["n"], m=fields["m"])
            report = estimate_success(McConfig(
                problem=problem, strategy=dict(spec), trials=trials,
                master_seed=master_seed, threads=threads))
            row = _sweep_row(spec, problem.d, problem.n, problem.m, report.trials,
                             master_seed, report)
        except Exception as exc:  # record and continue
            row = _sweep_row(spec, fields.get("d", 1), fields.get("n"), fields.get("m"),
                             trials, master_seed, error=f"{type(exc).__name__}: {exc}")
        row["cell"] = idx
        if marker is not None and row["status"] == "ok":
            _write_marker(marker, row, key)
        rows.append(row)
    return rows


def sweep_to_csv(rows: list[dict], fh) -> None:
    import csv

    writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in SWEEP_COLUMNS})
