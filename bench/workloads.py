"""The benchmark's four workloads, as fixed task lists over the public API.

Each task is built once (``setup``), run once per pass (``run``), and its
output is checked against a reference after the timed passes (``check``).
Tasks reach the package only through names exported from ``targetwalk`` and
through ``targetwalk.verify.run_suite``, looked up at call time so that the
traced run sees every call.

This module imports no package code at import time; the orchestrator imports
it for the workload names without paying for numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import references

# A 3-standard-error rule, applied to the 14 estimates with an exact
# reference over hundreds of runs with fresh seeds, would flag a correct
# sampler in most sessions.  Five standard errors give a two-sided false-alarm rate of
# 5.7e-7 per estimate while still catching any bias near the 1% level.
MC_Z = 5.0


def master_seed(workload_seed: int, task: str) -> int:
    """Per-task Monte Carlo seed, a fixed function of the workload seed."""
    digest = hashlib.sha256(f"{workload_seed}:{task}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass
class Task:
    """One unit of work: build inputs, run them, check the output."""

    name: str
    build: Callable[[Any, int], dict]          # (package, seed) -> inputs
    run: Callable[[Any, dict], Any]            # (package, inputs) -> output
    check: Callable[[Any, dict, Any], Optional[str]]   # -> failure or None
    canonical: Callable[[Any], str]            # output -> comparable text
    inputs: dict = field(default_factory=dict)
    setup_error: Optional[str] = None


# --------------------------------------------------------------------------
# Monte Carlo tasks
# --------------------------------------------------------------------------

def _schedule(tw, d: int, n: int, m: int, spec: dict):
    if spec["name"] == "windowed_1d":
        return tw.build_schedule_1d(tw.ScheduleParams1D(n=n, m=m, eta=spec["eta"]))
    if spec["name"] == "windowed_2d":
        return tw.build_schedule_2d(tw.ScheduleParams2D(n=n, m=m,
                                                        epsilon=spec["epsilon"]))
    return None


def _mc_reference(tw, name: str, d: int, n: int, m: int, spec: dict) -> float:
    """Exact success probability of a non-windowed Monte Carlo task."""
    if name in references.MC:
        return references.MC[name]
    if spec["name"] == "always_step":
        return tw.ssrw_return_probability(n, d)
    if spec["name"] == "lazy_max" and not spec.get("delayed"):
        return tw.ssrw_return_probability(n // m, d)
    raise KeyError(f"no exact reference for Monte Carlo task {name!r}")


def mc_task(name: str, d: int, n: int, m: int, spec: dict, trials: int,
            threads: int) -> Task:
    windowed = spec["name"].startswith("windowed")

    def build(tw, seed):
        problem = tw.Problem(d=d, n=n, m=m)
        schedule = _schedule(tw, d, n, m, spec)
        config = tw.McConfig(problem=problem, strategy=dict(spec), trials=trials,
                             master_seed=master_seed(seed, name), threads=threads,
                             per_window=windowed, schedule=schedule)
        return {"config": config, "schedule": schedule}

    def run(tw, inputs):
        return tw.estimate_success(inputs["config"])

    def check(tw, inputs, report):
        if windowed:
            # A delayed terminal hold takes Binomial(len, 1/m) steps instead of
            # standing at the origin, so the terminal stage's zero-overshoot
            # rule holds only without ``delayed``.
            exempt = inputs["schedule"].u + 1 if spec.get("delayed") else None
            hoeffding = tw.check_hoeffding(inputs["schedule"], report.stage_stats)
            bad = [r.stage for r in hoeffding.rows
                   if r.status == "ok" and not r.within and r.stage != exempt]
            if bad:
                return f"stage overshoot above the Hoeffding bound at stages {bad}"
            return None
        p = _mc_reference(tw, name, d, n, m, spec)
        se = math.sqrt(p * (1.0 - p) / trials)
        if abs(report.p_hat - p) > MC_Z * se:
            return (f"p_hat {report.p_hat!r} is more than {MC_Z:g} standard errors "
                    f"({se:.3g}) from the exact {p!r}")
        return None

    return Task(name, build, run, check,
                canonical=lambda report: report.to_json(include_runtime=False))


# --------------------------------------------------------------------------
# Exact tasks
# --------------------------------------------------------------------------

def _exact_check(name: str, value: float, dominance_key=None) -> Optional[str]:
    pinned = references.EXACT[name]
    if not math.isclose(value, pinned, rel_tol=references.EXACT_RTOL, abs_tol=0.0):
        return f"value {value!r} differs from the pinned {pinned!r}"
    if dominance_key is not None:
        optimal = references.OPTIMAL_FOR_EVALUATE[dominance_key]
        if value > optimal + references.DOMINANCE_TOL:
            return f"value {value!r} exceeds the optimal {optimal!r}"
    return None


def optimal_task(name: str, d: int, n: int, m: int, full: bool = False) -> Task:
    def build(tw, seed):
        return {"problem": tw.Problem(d=d, n=n, m=m)}

    def run(tw, inputs):
        if full:
            value, table = tw.optimal_value(inputs["problem"], keep="full",
                                            want_policy=True)
            return value, len(table.values), len(table.policy)
        value, _ = tw.optimal_value(inputs["problem"])
        return value, 0, 0

    def check(tw, inputs, out):
        value, kept_values, kept_policy = out
        if full and (kept_values, kept_policy) != (n + 1, n):
            return f"kept {kept_values} value and {kept_policy} policy slices"
        return _exact_check(name, value)

    return Task(name, build, run, check, canonical=lambda out: repr(out))


def evaluate_task(name: str, d: int, n: int, m: int, spec: dict) -> Task:
    def build(tw, seed):
        problem = tw.Problem(d=d, n=n, m=m)
        schedule = _schedule(tw, d, n, m, spec)
        return {"problem": problem,
                "strategy": tw.strategy_from_spec(spec, problem, schedule)}

    def run(tw, inputs):
        return tw.evaluate_strategy_exact(inputs["strategy"], inputs["problem"])

    def check(tw, inputs, value):
        return _exact_check(name, value, dominance_key=(d, n, m))

    return Task(name, build, run, check, canonical=lambda value: repr(value))


# --------------------------------------------------------------------------
# Verification suites
# --------------------------------------------------------------------------

def suite_task(name: str) -> Task:
    # Every suite runs at its default seed, as ``targetwalk verify`` does:
    # the invariants suite holds two 3-standard-error checks that a fresh
    # seed per run would fail about once in two hundred runs.
    def build(tw, seed):
        return {}

    def run(tw, inputs):
        return tw.verify.run_suite(name)

    def check(tw, inputs, results):
        failed = [check_name for check_name, passed, _ in results if not passed]
        if not results:
            return "suite returned no checks"
        return f"checks failed: {failed}" if failed else None

    return Task(name, build, run, check,
                canonical=lambda results: json.dumps(results))


# --------------------------------------------------------------------------
# The workloads
# --------------------------------------------------------------------------

N_CRITERION_7 = 2 ** 16
MS_CRITERION_7 = (64, 128, 256, 512, 1024)
ENDPOINT_THREADS = 2      # the core count of the box the sizes were chosen on


def _mc_staged() -> list[Task]:
    w1 = {"name": "windowed_1d", "eta": 0.5}
    return [
        mc_task("windowed_1d", 1, 10 ** 6, 10 ** 4, w1, 5000, 1),
        mc_task("windowed_1d_delayed", 1, 10 ** 6, 10 ** 4, {**w1, "delayed": True},
                5000, 1),
        mc_task("windowed_2d", 2, 10 ** 6, 10 ** 3,
                {"name": "windowed_2d", "epsilon": 0.5}, 1000, 1),
        mc_task("lazy_then_sprint_d1", 1, 10 ** 5, 100,
                {"name": "lazy_then_sprint"}, 5000, 1),
        mc_task("lazy_then_sprint_d2", 2, 10 ** 5, 100,
                {"name": "lazy_then_sprint"}, 2000, 1),
        mc_task("lazy_max_delayed_d1", 1, 10 ** 5, 100,
                {"name": "lazy_max", "delayed": True}, 20_000, 1),
    ]


def _mc_endpoint() -> list[Task]:
    tasks = [mc_task("always_step_d1", 1, 10 ** 5, 1, {"name": "always_step"},
                     40_000, ENDPOINT_THREADS)]
    for d, trials in ((1, 200_000), (2, 800_000)):
        for m in MS_CRITERION_7:
            tasks.append(mc_task(f"lazy_max_d{d}_m{m}", d, N_CRITERION_7, m,
                                 {"name": "lazy_max"}, trials, ENDPOINT_THREADS))
    return tasks


def _exact_solve() -> list[Task]:
    w1 = {"name": "windowed_1d", "eta": 0.5}
    return [
        optimal_task("optimal_d1_n3000_m64", 1, 3000, 64),
        optimal_task("optimal_d2_n300_m8", 2, 300, 8),
        optimal_task("optimal_full_d1_n400_m64", 1, 400, 64, full=True),
        evaluate_task("evaluate_windowed_1d", 1, 10_000, 100, w1),
        evaluate_task("evaluate_windowed_1d_delayed", 1, 10_000, 100,
                      {**w1, "delayed": True}),
        evaluate_task("evaluate_always_step_d2", 2, 300, 8, {"name": "always_step"}),
    ]


def _verify_suites() -> list[Task]:
    return [suite_task(name) for name in
            ("reflection", "localtime", "invariants", "dominance")]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int
    tasks: Callable[[], list[Task]]


WORKLOADS = {w.name: w for w in (
    Workload("mc_staged",
             "per-trial samplers: one Philox generator, a seek and stage tallies "
             "per trial, thread pool bypassed; the code ROADMAP item 3 replaces",
             1, _mc_staged),
    Workload("mc_endpoint",
             "vectorised EndpointSampler over rng.step_bits words split by a "
             "2-thread pool; seek and per-trial generators bypassed; largest memory",
             ENDPOINT_THREADS, _mc_endpoint),
    Workload("exact_solve",
             "backward induction and forward propagation only, no RNG; the target "
             "of ROADMAP item 2, whose smaller tables show in peak_rss_mb",
             1, _exact_solve),
    Workload("verify_suites",
             "the only workload where walk.run_trajectory and the big-integer "
             "analysis convolutions do the work",
             1, _verify_suites),
)}
