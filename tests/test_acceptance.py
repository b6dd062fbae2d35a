"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v`; the summary lines print through
capture so the gate is visible in any log.
"""

import json
import math
import time
from fractions import Fraction

from targetwalk import (McConfig, Problem, ScheduleParams1D, ScheduleParams2D,
                        brute_force_value, build_schedule_1d, build_schedule_2d,
                        check_hoeffding, check_local_time_ratio, check_reflection,
                        estimate_success, evaluate_strategy_exact, fit_scaling,
                        optimal_value, ssrw_return_probability, wilson_interval)
from targetwalk.cli import main as cli_main
from targetwalk.strategies import (always_step, delayed_wrapper, lazy_max,
                                   lazy_then_sprint, windowed_1d, windowed_2d)


def _report(capsys, idx, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {idx:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_oracle_equivalence(capsys):
    """Optimal value equals exhaustive history enumeration, exact rationals."""
    t0 = time.perf_counter()
    worst = None
    ok = True
    for n in range(1, 7):
        for m in range(1, 4):
            p = Problem(d=1, n=n, m=m)
            dp = Fraction(optimal_value(p)[0])
            bf = brute_force_value(p)
            if dp != bf:
                ok = False
                worst = (n, m, dp, bf)
    dt = time.perf_counter() - t0
    _report(capsys, 1, ok and dt < 10.0,
            f"18 instances (n<=6, m<=3) exact match in {dt:.1f}s"
            + ("" if ok else f"; mismatch {worst}"))


def test_criterion_02_dp_dominance(capsys):
    """No implemented strategy beats the optimal value on the grid."""
    t0 = time.perf_counter()
    tol = 1e-10
    worst_gap, worst_at = -math.inf, None
    for n in (64, 256, 1024):
        for m in (4, 16, 64):
            p = Problem(d=1, n=n, m=m)
            opt, _ = optimal_value(p)
            strategies = [always_step(), lazy_max(p), lazy_then_sprint(p)]
            if n > m:
                sched = build_schedule_1d(ScheduleParams1D(n=n, m=m, eta=0.5))
                strategies.append(windowed_1d(sched, p))
            strategies += [delayed_wrapper(s, p) for s in list(strategies)]
            for strat in strategies:
                gap = evaluate_strategy_exact(strat, p) - opt
                if gap > worst_gap:
                    worst_gap, worst_at = gap, (n, m, strat.name)
    dt = time.perf_counter() - t0
    _report(capsys, 2, worst_gap <= tol and dt < 120.0,
            f"max gap {worst_gap:.2e} at {worst_at} over 9-cell grid in {dt:.1f}s")


def test_criterion_03_mc_calibration(capsys):
    """MC agrees with exact values: binomial reference and forward propagation."""
    t0 = time.perf_counter()
    p_true = 252 / 1024
    cfg = McConfig(problem=Problem(d=1, n=10, m=1),
                   strategy={"name": "always_step"}, trials=10**6, master_seed=301)
    rep = estimate_success(cfg)
    ok1 = rep.wilson_lo <= p_true <= rep.wilson_hi

    p = Problem(d=1, n=10**4, m=100)
    sched = build_schedule_1d(ScheduleParams1D(n=p.n, m=p.m, eta=0.5))
    exact = evaluate_strategy_exact(windowed_1d(sched, p), p)
    cfg = McConfig(problem=p, strategy={"name": "windowed_1d", "eta": 0.5},
                   trials=10**5, master_seed=302, schedule=sched)
    mc = estimate_success(cfg)
    se = math.sqrt(exact * (1 - exact) / cfg.trials)
    ok2 = abs(mc.p_hat - exact) <= 3 * se
    dt = time.perf_counter() - t0
    _report(capsys, 3, ok1 and ok2 and dt < 60.0,
            f"always_step wilson [{rep.wilson_lo:.5f},{rep.wilson_hi:.5f}] covers "
            f"{p_true:.5f}; windowed |{mc.p_hat:.5f}-{exact:.5f}| <= 3se={3*se:.5f}; "
            f"{dt:.1f}s")


def test_criterion_04_reflection_suite(capsys):
    """Hitting tails equal the reflection window counts, exactly."""
    t0 = time.perf_counter()
    rep = check_reflection(xmax=20, lmax=400)
    dt = time.perf_counter() - t0
    _report(capsys, 4, rep.passed and dt < 10.0,
            f"{rep.checked_pairs} opposite-parity pairs exactly equal, "
            f"{rep.excluded_same_parity} same-parity excluded, in {dt:.1f}s")


def test_criterion_05_hoeffding_suite(capsys):
    """Per-stage overshoot frequency within the analytic bound + 3 SE."""
    t0 = time.perf_counter()
    details = []
    ok = True
    p1 = Problem(d=1, n=10**6, m=10**4)
    s1 = build_schedule_1d(ScheduleParams1D(n=p1.n, m=p1.m, eta=0.5))
    rep1 = estimate_success(McConfig(problem=p1,
                                     strategy={"name": "windowed_1d", "eta": 0.5},
                                     trials=10**4, master_seed=501, schedule=s1))
    h1 = check_hoeffding(s1, rep1.stage_stats)
    ok &= h1.passed
    details.append(f"d=1 {'ok' if h1.passed else 'FAIL'}")

    p2 = Problem(d=2, n=10**6, m=10**3)
    s2 = build_schedule_2d(ScheduleParams2D(n=p2.n, m=p2.m, epsilon=0.5))
    rep2 = estimate_success(McConfig(problem=p2,
                                     strategy={"name": "windowed_2d", "epsilon": 0.5},
                                     trials=10**4, master_seed=502, schedule=s2))
    h2 = check_hoeffding(s2, rep2.stage_stats)
    ok &= h2.passed
    details.append(f"d=2 {'ok' if h2.passed else 'FAIL'}")
    dt = time.perf_counter() - t0
    _report(capsys, 5, ok and dt < 300.0,
            f"{'; '.join(details)}; 1e4 trials each, {dt:.1f}s")


def test_criterion_06_local_time_suite(capsys):
    """Local-time ratios positive and log-stable across the horizon grid."""
    t0 = time.perf_counter()
    rep = check_local_time_ratio(horizons=tuple(2**k for k in range(10, 15)))
    dt = time.perf_counter() - t0
    _report(capsys, 6, rep.passed and dt < 120.0,
            f"min ratio {rep.min_ratio:.4f} > 0.05, den/log(N) max/min "
            f"{rep.log_stability:.4f} <= 1.10, in {dt:.1f}s")


def test_criterion_07_scaling_fits(capsys):
    """lazy_max success scales like (m/n)^(d/2)."""
    t0 = time.perf_counter()
    n = 2**16
    ms = (64, 128, 256, 512, 1024)
    ratios = [m / n for m in ms]
    ps1 = [estimate_success(McConfig(problem=Problem(d=1, n=n, m=m),
                                     strategy={"name": "lazy_max"},
                                     trials=200_000, master_seed=701)).p_hat
           for m in ms]
    fit1 = fit_scaling(ratios, ps1)
    ok1 = abs(fit1.slope - 0.5) <= 0.1
    ps2 = [estimate_success(McConfig(problem=Problem(d=2, n=n, m=m),
                                     strategy={"name": "lazy_max"},
                                     trials=800_000, master_seed=702)).p_hat
           for m in ms]
    fit2 = fit_scaling(ratios, ps2)
    ok2 = abs(fit2.slope - 1.0) <= 0.15
    dt = time.perf_counter() - t0
    _report(capsys, 7, ok1 and ok2 and dt < 300.0,
            f"d=1 slope {fit1.slope:.3f}+-{fit1.stderr:.3f} (want 0.5+-0.1), "
            f"d=2 slope {fit2.slope:.3f}+-{fit2.stderr:.3f} (want 1.0+-0.15), "
            f"{dt:.1f}s")


def test_criterion_08_windowed_1d_trend(capsys):
    """Windowed success nondecreasing in m and above lazy_max everywhere."""
    t0 = time.perf_counter()
    n = 10**6
    rows = []
    for m in (10**3, 10**4, 10**5):
        p = Problem(d=1, n=n, m=m)
        sched = build_schedule_1d(ScheduleParams1D(n=n, m=m, eta=0.5))
        rep = estimate_success(McConfig(problem=p,
                                        strategy={"name": "windowed_1d", "eta": 0.5},
                                        trials=10**4, master_seed=801,
                                        schedule=sched))
        lazy_exact = ssrw_return_probability(n // m, 1)
        rows.append((m, rep.p_hat, lazy_exact))
    nondecreasing = all(a[1] <= b[1] for a, b in zip(rows, rows[1:]))
    beats_lazy = all(p_hat > lazy for _, p_hat, lazy in rows)
    dt = time.perf_counter() - t0
    detail = ", ".join(f"m=1e{int(math.log10(m))}: {p:.3f}>{q:.3f}"
                       for m, p, q in rows)
    _report(capsys, 8, nondecreasing and beats_lazy and dt < 600.0,
            f"{detail}; nondecreasing={nondecreasing}; {dt:.1f}s")


def test_criterion_09_windowed_2d_nonvanishing(capsys):
    """2d windowed success stays away from zero as n grows with m = sqrt(n)."""
    t0 = time.perf_counter()
    rows = []
    for n in (10**4, 10**5, 10**6):
        m = int(round(n ** 0.5))
        p = Problem(d=2, n=n, m=m)
        sched = build_schedule_2d(ScheduleParams2D(n=n, m=m, epsilon=0.5))
        rep = estimate_success(McConfig(problem=p,
                                        strategy={"name": "windowed_2d",
                                                  "epsilon": 0.5},
                                        trials=10**4, master_seed=901,
                                        schedule=sched))
        rows.append((n, rep.p_hat, rep.wilson_lo, ssrw_return_probability(n, 2)))
    smallest = min(rows, key=lambda r: r[1])
    above_baseline = smallest[2] > 10.0 * smallest[3]
    ps = [r[1] for r in rows]
    bounded_spread = max(ps) / min(ps) < 3.0
    dt = time.perf_counter() - t0
    detail = ", ".join(f"n=1e{int(math.log10(n))}: {p:.4f}" for n, p, _, _ in rows)
    _report(capsys, 9, above_baseline and bounded_spread and dt < 900.0,
            f"{detail}; min wilson_lo {smallest[2]:.4f} > 10*ssrw "
            f"{10 * smallest[3]:.2e}; spread {max(ps)/min(ps):.2f} < 3; {dt:.1f}s")


def test_criterion_10_reproducibility(tmp_path, capsys):
    """Identical flags give byte-identical reports at any thread count."""
    t0 = time.perf_counter()
    payloads = []
    for run, threads in (("a", "1"), ("b", "8"), ("c", "1")):
        path = tmp_path / f"rep_{run}.json"
        code = cli_main(["simulate", "--d", "1", "--n", "10000", "--m", "100",
                         "--strategy", "windowed_1d", "--eta", "0.5",
                         "--trials", "10000", "--seed", "1001",
                         "--threads", threads, "--per-window",
                         "--out", str(path)])
        assert code == 0
        data = json.loads(path.read_text())
        data.pop("runtime")    # wall-time fields excluded by the criterion
        payloads.append(json.dumps(data, sort_keys=True).encode())
    ok = payloads[0] == payloads[1] == payloads[2]
    dt = time.perf_counter() - t0
    _report(capsys, 10, ok,
            f"3 runs (threads 1/8/1) byte-identical after dropping wall time; "
            f"{dt:.1f}s")


def test_exact_values_at_paper_scale(capsys):
    """Criteria 8 and 9 on exact plan values, and one Monte Carlo cell per
    dimension inside a z = 4 Wilson interval around the exact value (false
    alarm about 6e-5 per cell)."""
    t0 = time.perf_counter()
    n = 10**6
    rows1 = []
    for m in (10**3, 10**4, 10**5):
        p = Problem(d=1, n=n, m=m)
        sched = build_schedule_1d(ScheduleParams1D(n=n, m=m, eta=0.5))
        rows1.append((m, evaluate_strategy_exact(windowed_1d(sched, p), p),
                      ssrw_return_probability(n // m, 1), p, sched))
    nondecreasing = all(a[1] <= b[1] for a, b in zip(rows1, rows1[1:]))
    beats_lazy = all(value > lazy for _, value, lazy, _, _ in rows1)
    rows2 = []
    for n2 in (10**4, 10**5, 10**6):
        m = int(round(n2 ** 0.5))
        p = Problem(d=2, n=n2, m=m)
        sched = build_schedule_2d(ScheduleParams2D(n=n2, m=m, epsilon=0.5))
        rows2.append((n2, evaluate_strategy_exact(windowed_2d(sched, p), p),
                      ssrw_return_probability(n2, 2), p, sched))
    smallest = min(rows2, key=lambda r: r[1])
    above_baseline = smallest[1] > 10.0 * smallest[2]
    values2 = [r[1] for r in rows2]
    bounded_spread = max(values2) / min(values2) < 3.0

    covered = []
    for (_, exact, _, p, sched), spec, seed in (
            (rows1[1], {"name": "windowed_1d", "eta": 0.5}, 1201),
            (rows2[2], {"name": "windowed_2d", "epsilon": 0.5}, 1202)):
        rep = estimate_success(McConfig(problem=p, strategy=spec, trials=10**4,
                                        master_seed=seed, schedule=sched))
        lo, hi = wilson_interval(rep.successes, rep.trials, z=4.0)
        covered.append((p.d, rep.p_hat, exact, lo <= exact <= hi))
    dt = time.perf_counter() - t0
    detail = "; ".join([
        "d=1 " + ", ".join(f"m=1e{int(math.log10(m))}: {v:.6f}>{q:.4f}"
                           for m, v, q, _, _ in rows1),
        "d=2 " + ", ".join(f"n=1e{int(math.log10(n2))}: {v:.6f}"
                           for n2, v, _, _, _ in rows2),
        f"spread {max(values2) / min(values2):.2f} < 3",
        ", ".join(f"MC d={d} {p_hat:.4f} vs exact {exact:.4f} "
                  f"{'inside' if ok else 'OUTSIDE'} z=4 Wilson"
                  for d, p_hat, exact, ok in covered),
        f"{dt:.1f}s"])
    ok = (nondecreasing and beats_lazy and above_baseline and bounded_spread
          and all(c[3] for c in covered))
    with capsys.disabled():
        print(f"ACCEPTANCE exact PASS: {detail}" if ok
              else f"ACCEPTANCE exact FAIL: {detail}")
    assert ok, detail
