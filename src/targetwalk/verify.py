"""Pinned property suites behind the ``verify`` subcommand.

Each suite returns (check name, passed, detail) tuples; the CLI prints one
line per check and exits nonzero if any fails.  Default sizes match the
acceptance settings; ``fast`` shrinks them for smoke tests.  The
``invariants`` suite runs each built-in strategy as one lockstep batch on the
step-by-step engine of ``walk`` and checks every step of it with the same
validator as ``validate_trajectory``.
"""

from __future__ import annotations

import math

import numpy as np

from . import analysis as _analysis
from . import exact as _exact
from . import strategies as _strategies
from . import walk as _walk
from .errors import ScheduleError
from .mc import McConfig, estimate_success
from .samplers import _CHUNK
from .rng import trial_generator
from .schedule import ScheduleParams1D, ScheduleParams2D, build_schedule_1d, build_schedule_2d
from .walk import Problem

Result = tuple[str, bool, str]


def _suite_reflection(trials, seed, fast) -> list[Result]:
    xmax, lmax = (8, 80) if fast else (20, 400)
    rep = _analysis.check_reflection(xmax=xmax, lmax=lmax)
    detail = (f"{rep.checked_pairs} opposite-parity pairs equal exactly, "
              f"{rep.excluded_same_parity} same-parity pairs excluded")
    if rep.mismatches:
        detail = f"mismatches at (x,l): {rep.mismatches[:8]}"
    return [("reflection.identity", rep.passed, detail)]


def _hoeffding_one(problem: Problem, schedule, spec, trials, seed) -> Result:
    config = McConfig(problem=problem, strategy=spec, trials=trials,
                      master_seed=seed, schedule=schedule)
    report = estimate_success(config)
    hrep = _analysis.check_hoeffding(schedule, report.stage_stats)
    worst = max((r.freq - r.bound for r in hrep.rows
                 if r.status == "ok" and r.freq is not None), default=0.0)
    detail = (f"d={problem.d} n={problem.n} m={problem.m}: all stage overshoot "
              f"frequencies within bound+3se (worst freq-bound {worst:.2e})")
    if not hrep.passed:
        bad = [r.stage for r in hrep.rows if r.status == "ok" and not r.within]
        detail = f"d={problem.d}: overshoot above bound at stages {bad}"
    return (f"hoeffding.d{problem.d}", hrep.passed, detail)


def _suite_hoeffding(trials, seed, fast) -> list[Result]:
    trials = (2000 if fast else 10_000) if trials is None else trials
    out = []
    if fast:
        p1 = Problem(d=1, n=10_000, m=100)
        p2 = Problem(d=2, n=10_000, m=100)
    else:
        p1 = Problem(d=1, n=1_000_000, m=10_000)
        p2 = Problem(d=2, n=1_000_000, m=1_000)
    s1 = build_schedule_1d(ScheduleParams1D(n=p1.n, m=p1.m, eta=0.5))
    out.append(_hoeffding_one(p1, s1, {"name": "windowed_1d", "eta": 0.5},
                              trials, seed))
    s2 = build_schedule_2d(ScheduleParams2D(n=p2.n, m=p2.m, epsilon=0.5))
    out.append(_hoeffding_one(p2, s2, {"name": "windowed_2d", "epsilon": 0.5},
                              trials, seed))
    return out


def _suite_localtime(trials, seed, fast) -> list[Result]:
    horizons = tuple(2 ** k for k in ((10, 11, 12) if fast else (10, 11, 12, 13, 14)))
    rep = _analysis.check_local_time_ratio(horizons=horizons)
    detail = (f"min ratio {rep.min_ratio:.4f} > {rep.ratio_floor}, "
              f"den/log stability {rep.log_stability:.4f} <= 1.1")
    return [("localtime.ratio", rep.passed, detail)]


def _dominance_strategies(problem: Problem):
    yield _strategies.always_step()
    yield _strategies.lazy_max(problem)
    yield _strategies.lazy_then_sprint(problem)
    if problem.n > problem.m and problem.m >= 2:
        try:
            sched = build_schedule_1d(ScheduleParams1D(n=problem.n, m=problem.m))
            yield _strategies.windowed_1d(sched, problem)
        except ScheduleError:
            pass


def _suite_dominance(trials, seed, fast) -> list[Result]:
    ns = (64,) if fast else (64, 256, 1024)
    ms = (4, 16) if fast else (4, 16, 64)
    tol = 1e-10
    worst = -math.inf
    worst_at = None
    ok = True
    for n in ns:
        for m in ms:
            problem = Problem(d=1, n=n, m=m)
            opt, _ = _exact.optimal_value(problem)
            for strat in _dominance_strategies(problem):
                val = _exact.evaluate_strategy_exact(strat, problem)
                gap = val - opt
                if gap > worst:
                    worst, worst_at = gap, (n, m, strat.name)
                if gap > tol:
                    ok = False
    detail = (f"max strategy-value minus optimal over grid: {worst:.3e} "
              f"at {worst_at} (tolerance {tol})")
    return [("dominance.grid", ok, detail)]


def _suite_invariants(trials, seed, fast) -> list[Result]:
    out = []
    reps = 100 if fast else 300
    # trajectory invariants under every built-in strategy, one batch each
    cases = []
    for problem in (Problem(d=1, n=60, m=4), Problem(d=2, n=40, m=3)):
        strategies = [_strategies.always_step(), _strategies.lazy_max(problem),
                      _strategies.lazy_then_sprint(problem)]
        if problem.d == 1:
            sched = build_schedule_1d(ScheduleParams1D(n=problem.n, m=problem.m))
            strategies.append(_strategies.windowed_1d(sched, problem))
        strategies += [_strategies.delayed_wrapper(s, problem)
                       for s in list(strategies)]
        cases += [(problem, strat) for strat in strategies]
    bad = None
    for index, (problem, strat) in enumerate(cases):
        steps = _walk._lockstep(strat, problem, reps, trial_generator(seed, index))
        try:
            _walk._validate_steps(steps, problem)
        except ValueError as exc:       # AdmissibilityError included
            bad = f"{strat.name} on d={problem.d}: {exc}"
            break
    out.append(("invariants.trajectories", bad is None,
                bad or f"{reps} runs per strategy satisfy all invariants"))

    # with m = 1 the process is pure SSRW: endpoint law must match exactly
    p = Problem(d=1, n=10, m=1)
    n_trials = (20_000 if fast else 100_000) if trials is None else trials
    config = McConfig(problem=p, strategy={"name": "lazy_max"}, trials=n_trials,
                      master_seed=seed)
    rep = estimate_success(config)
    exact_p = _exact.ssrw_return_probability(10, 1)
    se = math.sqrt(exact_p * (1 - exact_p) / n_trials)
    ok = abs(rep.p_hat - exact_p) <= 3 * se
    out.append(("invariants.m1_ssrw_law", ok,
                f"lazy_max at m=1 returns {rep.p_hat:.5f} vs SSRW {exact_p:.5f} "
                f"(3se = {3 * se:.5f})"))

    # delayed mode: step count over a pure-delayed horizon is Binomial(n, 1/m);
    # batches of at most _CHUNK trials bound the engine's working arrays
    p = Problem(d=1, n=20, m=4)
    strat = _strategies.delayed_wrapper(_strategies.lazy_max(p), p)
    k = max(n_trials // 10, 1)
    steps = 0
    for batch, lo in enumerate(range(0, k, _CHUNK)):
        for _, before, after in _walk._lockstep(strat, p, min(_CHUNK, k - lo),
                                                trial_generator(seed + 1, batch)):
            steps += int(np.count_nonzero((before != after).any(axis=0)))
    mean = steps / k
    expected = p.n / p.m
    se = math.sqrt(p.n * (1 / p.m) * (1 - 1 / p.m) / k)
    ok = abs(mean - expected) <= 3 * se
    out.append(("invariants.delayed_step_mean", ok,
                f"mean true steps {mean:.3f} vs n/m = {expected} (3se = {3 * se:.3f})"))
    return out


_SUITES = {
    "reflection": _suite_reflection,
    "hoeffding": _suite_hoeffding,
    "localtime": _suite_localtime,
    "dominance": _suite_dominance,
    "invariants": _suite_invariants,
}


def run_suite(name: str, trials: int | None = None, seed: int = 20240601,
              fast: bool = False) -> list[Result]:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(_SUITES)}")
    return _SUITES[name](trials, seed, fast)
