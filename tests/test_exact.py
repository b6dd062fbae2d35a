import io
import math
from fractions import Fraction

import numpy as np
import pytest

from targetwalk import (BudgetError, Decision, Problem, ScheduleParams1D,
                        ScheduleParams2D, SignatureError, brute_force_value,
                        build_schedule_1d, build_schedule_2d,
                        evaluate_strategy_exact, expected_local_time,
                        hitting_tail_1d, optimal_value, return_probabilities_2d,
                        ssrw_return_probability)
from targetwalk.exact import (_propagate_scalar, enumerate_decision_trees_value,
                              hitting_survivor_counts, hitting_tail_curve,
                              reflection_window_count)
from targetwalk.strategies import (Strategy, always_step, delayed_wrapper, lazy_max,
                                   lazy_then_sprint, windowed_1d, windowed_2d)


def test_optimal_value_reference_cases():
    assert optimal_value(Problem(d=1, n=2, m=2))[0] == 0.5
    assert optimal_value(Problem(d=1, n=2, m=3))[0] == 1.0
    assert optimal_value(Problem(d=1, n=1, m=2))[0] == 1.0
    assert optimal_value(Problem(d=1, n=1, m=5))[0] == 1.0


def test_optimal_value_matches_brute_force_small():
    for n in range(1, 7):
        for m in range(1, 4):
            p = Problem(d=1, n=n, m=m)
            v, _ = optimal_value(p)
            assert Fraction(v) == brute_force_value(p), (n, m)


def test_brute_force_matches_tree_enumeration():
    for n in range(1, 4):
        for m in range(1, 4):
            p = Problem(d=1, n=n, m=m)
            assert brute_force_value(p) == enumerate_decision_trees_value(p)


def test_optimal_value_2d_matches_brute_force():
    for n in range(1, 5):
        for m in (1, 2, 3):
            p = Problem(d=2, n=n, m=m)
            v, _ = optimal_value(p)
            assert Fraction(v) == brute_force_value(p), (n, m)


def test_optimal_monotone_in_m():
    for n in (8, 13, 20):
        vals = [optimal_value(Problem(d=1, n=n, m=m))[0] for m in (1, 2, 3, 5, 9)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_optimal_parity_with_m1_odd_horizon():
    assert optimal_value(Problem(d=1, n=7, m=1))[0] == 0.0
    assert optimal_value(Problem(d=2, n=5, m=1))[0] == 0.0


def test_optimal_budget_refusal():
    with pytest.raises(BudgetError) as err:
        optimal_value(Problem(d=1, n=10**6, m=100), budget=1e6)
    assert err.value.required_transitions > 1e6


def test_policy_tie_breaks_to_stand():
    # from x = +-2 with one step left both actions are worthless: prefer standing
    p = Problem(d=1, n=1, m=3)
    _, table = optimal_value(p, keep="full", want_policy=True)
    assert table.policy_at(0, 2, 0) is Decision.STAND
    assert table.policy_at(0, 1, 0) is Decision.STEP   # stepping hits 0 half the time
    assert table.policy_at(0, 0, 0) is Decision.STAND
    # the same tie in two dimensions, outside the cone |x|_inf <= n - i
    _, table = optimal_value(Problem(d=2, n=1, m=3), keep="full", want_policy=True)
    assert table.policy_at(0, (2, 0), 0) is Decision.STAND
    assert table.policy_at(0, (1, 0), 0) is Decision.STEP


def test_value_table_rejects_positions_off_the_grid():
    # the stored grid is |x_i| <= n+1: one guard cell past the reachable cone
    _, table = optimal_value(Problem(d=1, n=3, m=2), keep="full", want_policy=True)
    assert table.value_at(0, 4, 0) == 0.0 and table.value_at(0, -4, 0) == 0.0
    for x in (-5, 5, 40):
        with pytest.raises(ValueError, match="outside the stored grid"):
            table.value_at(0, x, 0)
        with pytest.raises(ValueError, match="outside the stored grid"):
            table.policy_at(0, x, 0)
    _, table = optimal_value(Problem(d=2, n=3, m=2), keep="full", want_policy=True)
    assert table.value_at(0, (4, -4), 0) == 0.0
    for x in ((5, 0), (0, -5)):
        with pytest.raises(ValueError, match="outside the stored grid"):
            table.value_at(0, x, 0)
        with pytest.raises(ValueError, match="outside the stored grid"):
            table.policy_at(0, x, 0)


def _counter_recursion(problem):
    """Backward induction over (x, j) carrying the stand counter, on the whole
    grid: the reference the counter-free engine must match bit for bit.

    Returns the value and, per time, the (grid..., m) value and int8 policy
    arrays (1 = STAND where standing is allowed and ties or wins)."""
    n, m, d = problem.n, problem.m, problem.d
    c = n + 1
    v = np.zeros((2 * n + 3,) * d + (m,))
    v[(c,) * d] = 1.0
    values, policy = [None] * (n + 1), [None] * n
    values[n] = v
    for i in range(n - 1, -1, -1):
        v0 = v[..., 0]
        step = np.zeros(v0.shape)
        if d == 1:
            step[1:-1] = 0.5 * (v0[:-2] + v0[2:])
        else:
            step[1:-1, 1:-1] = 0.25 * (v0[:-2, 1:-1] + v0[2:, 1:-1]
                                       + v0[1:-1, :-2] + v0[1:-1, 2:])
        nv = np.empty_like(v)
        nv[..., m - 1] = step
        pol = np.zeros(v.shape, dtype=np.int8)
        if m >= 2:
            stand = v[..., 1:]
            nv[..., :m - 1] = np.maximum(step[..., None], stand)
            pol[..., :m - 1] = stand >= step[..., None]
        values[i], policy[i], v = nv, pol, nv
    return float(v[(c,) * d + (0,)]), values, policy


def _reachable(d, i, m):
    """(x, j) a walk from the origin can occupy at time i: the last move was
    at time i - j, so |x|_1 <= i - j."""
    for j in range(min(i, m - 1) + 1):
        r = i - j
        if d == 1:
            yield from ((x, j) for x in range(-r, r + 1))
        else:
            yield from (((a, b), j) for a in range(-r, r + 1)
                        for b in range(abs(a) - r, r - abs(a) + 1))


@pytest.mark.parametrize("d,ns", [(1, (1, 2, 3, 4, 6, 9, 17, 40)),
                                  (2, (1, 2, 3, 5, 8, 13, 40))])
def test_optimal_value_equals_counter_recursion(d, ns):
    # max is exact in floating point and each step value is the same
    # 0.5*(a+b) / 0.25*(a+b+c+d) expression, so equality is exact: a changed
    # window length, stencil order or tie rule fails it
    for n in ns:
        for m in (1, 2, 3, 5, n + 3):
            p = Problem(d=d, n=n, m=m)
            want, want_values, want_policy = _counter_recursion(p)
            assert optimal_value(p)[0] == want, (n, m)
            v, table = optimal_value(p, keep="full", want_policy=True)
            assert v == want, (n, m)
            assert len(table.values) == n + 1 and len(table.policy) == n
            for i in range(n + 1):
                assert np.array_equal(table.values[i], want_values[i]), (n, m, i)
                if i < n:
                    assert np.array_equal(table.policy[i], want_policy[i]), (n, m, i)
            for i in range(n + 1):
                for x, j in _reachable(d, i, m):
                    cell = (n + 1 + x,) if d == 1 else (n + 1 + x[0], n + 1 + x[1])
                    assert table.value_at(i, x, j) == want_values[i][cell + (j,)]
                    if i < n:
                        want_stand = bool(want_policy[i][cell + (j,)])
                        assert (table.policy_at(i, x, j) is Decision.STAND) == want_stand


def test_full_table_cap_counts_kept_slices():
    # 603^2 cells per slice, held for the 8-slice window and 301 kept slices
    with pytest.raises(BudgetError) as err:
        optimal_value(Problem(d=2, n=300, m=8), keep="full")
    assert err.value.required_bytes == 8.0 * 603 ** 2 * (8 + 301)


def test_value_table_csv_and_runs():
    p = Problem(d=1, n=3, m=2)
    v, table = optimal_value(p, keep="full", want_policy=True)
    assert table.value_at(0, 0, 0) == v
    buf = io.StringIO()
    table.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "i,x,j,V,policy"
    assert len(lines) > 10
    row = lines[1].split(",")
    assert float(row[3]) == table.value_at(int(row[0]), int(row[1]), int(row[2]))
    runs = table.policy_runs(0, 0)
    assert runs[0][0] == -p.n and runs[-1][1] == p.n
    covered = sum(hi - lo + 1 for lo, hi, _ in runs)
    assert covered == 2 * p.n + 1


def test_evaluate_reference_cases():
    assert evaluate_strategy_exact(always_step(), Problem(d=1, n=10, m=1)) \
        == pytest.approx(252 / 1024, abs=1e-13)
    p = Problem(d=1, n=2, m=3)
    assert evaluate_strategy_exact(lazy_max(p), p) == 1.0
    p = Problem(d=1, n=2000, m=32)
    assert evaluate_strategy_exact(lazy_max(p), p) == pytest.approx(
        math.comb(62, 31) / 2**62, abs=1e-10)


def test_evaluate_2d_lazy_closed_form():
    p = Problem(d=2, n=64, m=4)
    want = (math.comb(16, 8) / 2**16) ** 2
    assert evaluate_strategy_exact(lazy_max(p), p) == pytest.approx(want, abs=1e-12)


def test_banded_and_scalar_engines_agree():
    p = Problem(d=1, n=60, m=4)
    sched = build_schedule_1d(ScheduleParams1D(n=60, m=4, eta=0.5))
    for strat in (always_step(), lazy_max(p), lazy_then_sprint(p),
                  windowed_1d(sched, p), delayed_wrapper(lazy_max(p), p)):
        fast = evaluate_strategy_exact(strat, p)
        slow = _propagate_scalar(strat, p)
        assert fast == pytest.approx(slow, abs=1e-12), strat.name
    p2 = Problem(d=2, n=40, m=3)
    s2 = build_schedule_2d(ScheduleParams2D(n=40, m=3, epsilon=0.5))
    for strat in (always_step(), lazy_max(p2), windowed_2d(s2, p2),
                  lazy_then_sprint(p2), delayed_wrapper(lazy_max(p2), p2),
                  delayed_wrapper(windowed_2d(s2, p2), p2)):
        fast = evaluate_strategy_exact(strat, p2)
        slow = _propagate_scalar(strat, p2)
        assert fast == pytest.approx(slow, abs=1e-12), strat.name


def test_evaluate_position_dependent_strategy_uses_scalar_path():
    class DriftHome(Strategy):
        # steps whenever away from the origin, stands when on it
        name = "drift_home"
        signature = "wj"
        w_independent = False
        zero_split_ok = False

        def decide(self, w, j, i, phase):
            if w == 0 and j + 1 <= 3:
                return Decision.STAND
            return Decision.STEP

    p = Problem(d=1, n=12, m=4)
    val = evaluate_strategy_exact(DriftHome(), p)
    opt, _ = optimal_value(p)
    assert 0.0 < val <= opt + 1e-12


def test_state_distribution_invariants():
    from targetwalk.exact import state_distribution
    from targetwalk.strategies import windowed_1d as _w1d

    p = Problem(d=1, n=50, m=4)
    sched = build_schedule_1d(ScheduleParams1D(n=50, m=4, eta=0.5))
    strat = _w1d(sched, p)
    for t in (0, 7, 25, 50):
        dist = state_distribution(strat, p, at_time=t)
        assert abs(sum(dist.values()) - 1.0) < 1e-12
        for (phase, j, x), mass in dist.items():
            assert mass >= 0.0
            assert 0 <= j <= p.m - 1
            assert abs(x) <= t


def test_evaluate_refuses_history_signature():
    class FullHistory(Strategy):
        name = "full_history"
        signature = "history"

        def decide(self, w, j, i, phase):
            return Decision.STEP

    with pytest.raises(SignatureError):
        evaluate_strategy_exact(FullHistory(), Problem(d=1, n=4, m=2))


def test_evaluate_budget_refusal():
    with pytest.raises(BudgetError):
        evaluate_strategy_exact(always_step(), Problem(d=1, n=10**6, m=2),
                                budget=1e6)


def test_delayed_lazy_matches_two_level_binomial():
    n, m = 20, 4
    p = Problem(d=1, n=n, m=m)
    val = evaluate_strategy_exact(delayed_wrapper(lazy_max(p), p), p)
    want = sum(math.comb(n, s) * (1 / m) ** s * (1 - 1 / m) ** (n - s)
               * (math.comb(s, s // 2) / 2 ** s if s % 2 == 0 else 0.0)
               for s in range(n + 1))
    assert val == pytest.approx(want, abs=1e-12)


def test_dominance_spot_checks():
    for n, m in ((64, 4), (64, 16), (256, 16)):
        p = Problem(d=1, n=n, m=m)
        opt, _ = optimal_value(p)
        sched = build_schedule_1d(ScheduleParams1D(n=n, m=m, eta=0.5))
        for strat in (always_step(), lazy_max(p), lazy_then_sprint(p),
                      windowed_1d(sched, p)):
            assert evaluate_strategy_exact(strat, p) <= opt + 1e-10


def test_dominance_spot_check_2d():
    p = Problem(d=2, n=40, m=3)
    opt, _ = optimal_value(p)
    sched = build_schedule_2d(ScheduleParams2D(n=40, m=3, epsilon=0.5))
    for strat in (always_step(), lazy_max(p), windowed_2d(sched, p)):
        assert evaluate_strategy_exact(strat, p) <= opt + 1e-10


def test_hitting_tail_reference_cases():
    ht = hitting_tail_1d(2, 1)
    assert ht.tail == 1.0
    ht = hitting_tail_1d(1, 2)
    assert ht.tail == 0.5 and ht.reflection == 0.5 and ht.opposite_parity
    ht = hitting_tail_1d(1, 1)
    assert ht.tail == 0.5 and ht.reflection == 0.0 and not ht.opposite_parity


def test_hitting_tail_counts_small_enumeration():
    # x=1: paths of length 3 that avoid 0: RRR, RRL, RLR -> 3 of 8
    counts = hitting_survivor_counts(1, 3)
    assert counts == [1, 1, 2, 3]
    assert reflection_window_count(2, 2) == 2   # paths ending at 0: LR, RL


def test_hitting_tail_reflection_equality_small_grid():
    for x in range(1, 9):
        counts = hitting_survivor_counts(x, 60)
        for l in range(60):
            if (x + l) % 2 == 1:
                assert counts[l] == reflection_window_count(x, l), (x, l)


def test_hitting_tail_curve_matches_exact_counts():
    for x in (1, 3, 8):
        curve = hitting_tail_curve(x, [50, 151, 400])
        counts = hitting_survivor_counts(x, 400)
        for l in (50, 151, 400):
            assert curve[l] == pytest.approx(counts[l] / 2**l, abs=1e-12)


def test_hitting_tail_monotone_in_start():
    tails = [hitting_tail_1d(x, 99).tail for x in (1, 2, 5, 9)]
    assert all(a <= b + 1e-15 for a, b in zip(tails, tails[1:]))


def test_return_probabilities_2d_reference():
    probs = return_probabilities_2d((0, 0), 2)
    assert probs[0] == 0.0
    assert probs[1] == pytest.approx(0.25, abs=1e-14)
    assert return_probabilities_2d((1, 0), 1)[0] == pytest.approx(0.25, abs=1e-14)


def test_return_probabilities_2d_against_transition_matrix():
    # independent oracle: dense convolution of the 4-neighbor kernel
    horizon = 12
    size = 2 * horizon + 3
    c = horizon + 1
    grid = np.zeros((size, size))
    grid[c + 1, c] = 1.0   # start at (1, 0)
    want = []
    for _ in range(horizon):
        nxt = np.zeros_like(grid)
        nxt[1:-1, 1:-1] = 0.25 * (grid[:-2, 1:-1] + grid[2:, 1:-1]
                                  + grid[1:-1, :-2] + grid[1:-1, 2:])
        grid = nxt
        want.append(grid[c, c])
    got = return_probabilities_2d((1, 0), horizon)
    assert np.allclose(got, want, atol=1e-13)


def test_expected_local_time_reference():
    assert expected_local_time((0, 0), 2) == pytest.approx(0.25, abs=1e-14)
    assert expected_local_time((5, 5), 3) == 0.0
    # one-step visit from a neighbor
    assert expected_local_time((1, 0), 1) == pytest.approx(0.25, abs=1e-14)


def test_ssrw_return_probability():
    assert ssrw_return_probability(10, 1) == pytest.approx(252 / 1024, abs=1e-13)
    assert ssrw_return_probability(9, 1) == 0.0
    assert ssrw_return_probability(10, 2) == pytest.approx((252 / 1024) ** 2, abs=1e-13)
