import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetwalk import (Decision, Problem, ScheduleParams1D, ScheduleParams2D,
                        build_schedule_1d, build_schedule_2d, evaluate_strategy_exact,
                        run_trajectory)
from targetwalk.rng import trial_generator
from targetwalk.strategies import (FAILED, HOLD, SEEK, DelayedWrapper, Staged,
                                   always_step, delayed_wrapper, lazy_max,
                                   lazy_then_sprint, strategy_from_spec,
                                   windowed_1d, windowed_2d)
from targetwalk.walk import _lockstep, is_origin


def _counters(decisions):
    """Counters J_1..J_n implied by the decisions alone."""
    out, j = [], 0
    for dec in decisions:
        j = j + 1 if dec is Decision.STAND else 0
        out.append(j)
    return out


def _walk_phases(strategy, problem, seed):
    """Run a trajectory and replay its phases from the positions and counters:
    row i holds (time, position, counter, decision, phase) after step i."""
    traj, _ = run_trajectory(strategy, problem, trial_generator(seed, 0))
    phase = strategy.start_phase(problem)
    rows = []
    for i, (w, j, decision) in enumerate(zip(traj.positions[1:],
                                             _counters(traj.decisions),
                                             traj.decisions), start=1):
        phase = strategy.next_phase(phase, i, w, j)
        rows.append((i, w, j, decision, phase))
    return rows


def test_always_step_decides_step_everywhere():
    s = always_step()
    for j in range(5):
        assert s.decide(3, j, 7, None) is Decision.STEP
    assert s.signature == "wj"


def test_always_step_parity_and_reference_value():
    assert evaluate_strategy_exact(always_step(), Problem(d=1, n=10, m=1)) \
        == pytest.approx(252 / 1024, abs=1e-14)
    assert evaluate_strategy_exact(always_step(), Problem(d=1, n=9, m=1)) == 0.0


def test_lazy_max_block_pattern():
    p = Problem(d=1, n=9, m=3)
    traj, _ = run_trajectory(lazy_max(p), p, 4)
    kinds = [d for d in traj.decisions]
    assert kinds == [Decision.STAND, Decision.STAND, Decision.STEP] * 3


def test_lazy_max_reference_values():
    p = Problem(d=1, n=2, m=3)
    assert evaluate_strategy_exact(lazy_max(p), p) == 1.0
    p = Problem(d=1, n=10**4, m=100)
    assert evaluate_strategy_exact(lazy_max(p), p) == pytest.approx(
        math.comb(100, 50) / 2**100, abs=1e-12)


def test_lazy_then_sprint_holds_after_late_hit():
    p = Problem(d=1, n=60, m=8)
    found = 0
    for seed in range(200):
        traj, success = run_trajectory(lazy_then_sprint(p), p, seed)
        hit_times = [t for t in range(p.n - p.m + 1, p.n + 1)
                     if traj.positions[t] == 0]
        if hit_times:
            tau = hit_times[0]
            assert success
            assert all(d is Decision.STAND for d in traj.decisions[tau:])
            found += 1
    assert found > 50  # the event is common at these sizes


def test_lazy_then_sprint_speed_limit():
    p = Problem(d=1, n=60, m=8)
    for seed in range(300):
        traj, success = run_trajectory(lazy_then_sprint(p), p, seed)
        if abs(traj.positions[p.n - p.m]) > p.m:
            assert not success


def test_lazy_then_sprint_mc_monotone_in_m():
    # longer sprints catch the origin more often; record the estimates and
    # compare across m (the spread before the sprint scales like sqrt(n/m),
    # the sprint budget like m)
    from targetwalk import McConfig, estimate_success

    n = 10**4
    ps = []
    for m in (50, 100, 200):
        cfg = McConfig(problem=Problem(d=1, n=n, m=m),
                       strategy={"name": "lazy_then_sprint"},
                       trials=20_000, master_seed=41)
        ps.append(estimate_success(cfg).p_hat)
    assert ps[0] < ps[1] < ps[2]


def test_windowed_first_decision_of_each_stage_is_step():
    p = Problem(d=1, n=200, m=6)
    sched = build_schedule_1d(ScheduleParams1D(n=200, m=6, eta=0.5))
    strat = windowed_1d(sched, p)
    for seed in range(20):
        rows = _walk_phases(strat, p, seed)
        for t_k in sched.times[:-1]:
            # decision made at state time t_k is the (t_k+1)-th entry
            _, _, _, decision, _ = rows[t_k]
            assert decision is Decision.STEP


def test_windowed_hold_forces_step_at_counter_limit():
    p = Problem(d=1, n=100, m=5)
    sched = build_schedule_1d(ScheduleParams1D(n=100, m=5, eta=0.5))
    strat = windowed_1d(sched, p)
    phase = (1, HOLD)
    assert strat.decide(0, p.m - 2, 10, phase) is Decision.STAND
    assert strat.decide(0, p.m - 1, 11, phase) is Decision.STEP


def test_windowed_hold_step_count_matches_pattern():
    # hold of length 2m+3 contains exactly 2 forced steps (m >= 4)
    m = 6
    p = Problem(d=1, n=400, m=m)
    sched = build_schedule_1d(ScheduleParams1D(n=400, m=m, eta=0.5))
    strat = windowed_1d(sched, p)
    steps = 0
    j = 0
    for _ in range(2 * m + 3):
        d = strat.decide(0, j, 0, (1, HOLD))
        if d is Decision.STEP:
            steps += 1
            j = 0
        else:
            j += 1
    assert steps == 2


def test_windowed_phase_matches_visits():
    # holding at time t iff the walk visited 0 strictly inside the stage
    p = Problem(d=1, n=150, m=5)
    sched = build_schedule_1d(ScheduleParams1D(n=150, m=5, eta=0.5))
    strat = windowed_1d(sched, p)
    for seed in range(40):
        rows = _walk_phases(strat, p, seed)
        failed = False
        for k in range(1, sched.u + 2):
            lo, hi = sched.times[k - 1], sched.times[k]
            visited = False
            for (t, w, j, d, phase) in rows[lo:hi]:
                if failed:
                    assert phase == FAILED
                    continue
                visited = visited or is_origin(w)
                if t < hi:
                    expect = (k, HOLD) if visited else (k, SEEK)
                    assert phase == expect, (seed, t, phase, expect)
                else:   # t == hi: stage boundary, phase already advanced
                    if k == sched.u + 1:
                        break
                    if visited or is_origin(w):
                        assert phase == (k + 1, SEEK)
                    else:
                        assert phase == FAILED
            if not failed and not visited and k <= sched.u:
                # check final transition at the boundary row
                t, w, j, d, phase = rows[hi - 1]
                if not is_origin(w):
                    failed = True


def test_windowed_2d_structure():
    p = Problem(d=2, n=100, m=6)
    sched = build_schedule_2d(ScheduleParams2D(n=100, m=6, epsilon=0.5))
    strat = windowed_2d(sched, p)
    rows = _walk_phases(strat, p, 3)
    for t_k in sched.times[:-1]:
        assert rows[t_k][3] is Decision.STEP
    traj, success = run_trajectory(strat, p, 3)
    assert success == (traj.positions[-1] == (0, 0))


def test_windowed_rejects_mismatched_problem():
    sched = build_schedule_1d(ScheduleParams1D(n=100, m=5, eta=0.5))
    with pytest.raises(ValueError):
        Staged("windowed_1d", Problem(d=1, n=100, m=6), 0, sched.times[1:], sched)
    for crawl, times in ((50, (40, 100)), (0, (40, 99)), (90, ())):
        with pytest.raises(ValueError, match="rise strictly to n=100"):
            Staged("staged", Problem(d=1, n=100, m=6), crawl, times)
    with pytest.raises(ValueError):
        windowed_1d(build_schedule_2d(ScheduleParams2D(n=100, m=5)),
                    Problem(d=2, n=100, m=5))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), m=st.integers(3, 8))
def test_every_strategy_emits_admissible_decisions(seed, m):
    # m = 2 collapses the geometric checkpoints at this n (loud ScheduleError,
    # covered elsewhere)
    n = 80
    p = Problem(d=1, n=n, m=m)
    sched = build_schedule_1d(ScheduleParams1D(n=n, m=m, eta=0.5))
    for strat in (always_step(), lazy_max(p), lazy_then_sprint(p),
                  windowed_1d(sched, p),
                  delayed_wrapper(lazy_max(p), p),
                  delayed_wrapper(windowed_1d(sched, p), p)):
        traj, _ = run_trajectory(strat, p, seed)   # raises on violation
        from targetwalk import validate_trajectory

        validate_trajectory(traj, p)


def test_wj_strategies_replay_identically():
    # decisions depend on (w, j) only, whatever history produced the state
    p = Problem(d=1, n=30, m=4)
    for strat in (always_step(), lazy_max(p)):
        assert strat.signature == "wj"
        seen = {}
        for seed in range(30):
            traj, _ = run_trajectory(strat, p, trial_generator(seed, 0))
            counters = [0] + _counters(traj.decisions)
            for key, d in zip(zip(traj.positions, counters), traj.decisions):
                if key in seen:
                    assert seen[key] == d
                seen[key] = d


def test_delayed_wrapper_maps_stand_only():
    p = Problem(d=1, n=10, m=3)
    w = delayed_wrapper(lazy_max(p), p)
    assert w.decide(0, 0, 0, None) is Decision.DELAYED_STEP
    assert w.decide(0, 2, 0, None) is Decision.STEP
    assert w.name == "lazy_max+delayed"
    w2 = delayed_wrapper(always_step(), p)
    assert w2.decide(0, 0, 0, None) is Decision.STEP


def test_delayed_equals_step_when_m_is_one():
    p = Problem(d=1, n=7, m=1)
    strat = delayed_wrapper(always_step(), p)
    traj, _ = run_trajectory(strat, p, 5)
    assert all(a != b for a, b in zip(traj.positions, traj.positions[1:]))


def test_delayed_expected_steps():
    p = Problem(d=1, n=40, m=5)
    strat = delayed_wrapper(lazy_max(p), p)
    trials = 4000
    total = 0
    for _, before, after in _lockstep(strat, p, trials, trial_generator(17, 0)):
        total += np.count_nonzero(before != after)
    mean = total / trials
    se = math.sqrt(p.n * 0.2 * 0.8 / trials)
    assert abs(mean - p.n / p.m) < 3 * se


def test_strategy_from_spec():
    p = Problem(d=1, n=100, m=5)
    s = strategy_from_spec({"name": "windowed_1d", "eta": 0.5}, p)
    assert s.name == "windowed_1d"
    s = strategy_from_spec({"name": "lazy_max", "delayed": True}, p)
    assert isinstance(s, DelayedWrapper)
    p2 = Problem(d=2, n=100, m=5)
    s = strategy_from_spec({"name": "windowed_2d", "epsilon": 0.5,
                            "theta": 0.45, "kappa": 0.444}, p2)
    assert s.schedule.theta == 0.45
    with pytest.raises(ValueError):
        strategy_from_spec({"name": "nope"}, p)
