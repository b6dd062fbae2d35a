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
from targetwalk.exact import (_binomial_pmf, _first_entrance_table, _propagate_scalar,
                              enumerate_decision_trees_value, evaluation_engine,
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


def _built_ins(p):
    """Every built-in strategy that applies to problem p, plain and delayed;
    a windowed strategy is left out where no schedule exists."""
    strats = [always_step(), lazy_max(p), lazy_then_sprint(p)]
    try:
        if p.d == 1:
            sched = build_schedule_1d(ScheduleParams1D(n=p.n, m=p.m, eta=0.5))
            strats.append(windowed_1d(sched, p))
        else:
            sched = build_schedule_2d(ScheduleParams2D(n=p.n, m=p.m, epsilon=0.5))
            strats.append(windowed_2d(sched, p))
    except ValueError:          # ScheduleError included
        pass
    return strats + [delayed_wrapper(s, p) for s in strats]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_plan_and_scalar_engines_agree():
    """The plan engine against ``_propagate_scalar``, which follows
    ``decide``/``next_phase`` step by step and never reads the plan.

    Power: on this grid, each of these one-off slips moves some value by
    more than 0.01, against the 1e-12 tolerance (the engines agree within
    5e-15): a hit crawling (L - s + 1) // m or (L - s - 1) // m steps; the
    seek's first-hit law read from s = 0, or cut at L - 1; a delayed hit
    taking Binomial(L - s + 1, 1/m) steps; a missed walker's return
    probability read one step early."""
    problems = [Problem(d=1, n=60, m=4), Problem(d=1, n=61, m=4),
                Problem(d=1, n=97, m=9), Problem(d=2, n=40, m=3),
                Problem(d=2, n=41, m=3), Problem(d=2, n=30, m=5)]
    edges = [Problem(d=1, n=12, m=1), Problem(d=2, n=9, m=1),   # m = 1
             Problem(d=1, n=5, m=8), Problem(d=2, n=5, m=8),    # n < m
             Problem(d=1, n=6, m=6), Problem(d=1, n=7, m=6)]    # n - m in {0, 1}
    windowed = 0
    for p in problems + edges:
        for strat in _built_ins(p):
            windowed += strat.name.startswith("windowed")
            fast = evaluate_strategy_exact(strat, p)
            slow = _propagate_scalar(strat, p)
            assert fast == pytest.approx(slow, abs=1e-12), (p, strat.name)
    assert windowed >= 2 * len(problems)


def test_evaluate_position_dependent_strategy_uses_scalar_path():
    class DriftHome(Strategy):
        # steps whenever away from the origin, stands when on it
        name = "drift_home"
        signature = "wj"

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
    # the plan engine is priced in float entries: about 5e6 here
    p = Problem(d=1, n=10**6, m=10**4)
    sched = build_schedule_1d(ScheduleParams1D(n=p.n, m=p.m, eta=0.5))
    with pytest.raises(BudgetError) as err:
        evaluate_strategy_exact(windowed_1d(sched, p), p, budget=1e6)
    assert err.value.required_transitions > 1e6
    assert "float entries" in str(err.value)

    # a strategy without a plan is priced in (2n+1)^d * n scalar cell-steps
    class NoPlan(Strategy):
        name = "no_plan"

        def decide(self, w, j, i, phase):
            return Decision.STEP

    with pytest.raises(BudgetError) as err:
        evaluate_strategy_exact(NoPlan(), Problem(d=2, n=1000, m=2), budget=1e6)
    assert err.value.required_transitions == 2001.0 ** 2 * 1000
    assert "cell-steps" in str(err.value)


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


@pytest.mark.parametrize("n", [10**4, 10**4 + 2, 10**5])
def test_ssrw_return_probability_matches_big_integers(n):
    # comb / 2**n is a correctly rounded big-integer division; the gammaln
    # form was off by 6.2e-14 at n = 1e4 and 1.8e-10 at 1e5
    want = math.comb(n, n // 2) / 2**n
    assert ssrw_return_probability(n, 1) == pytest.approx(want, rel=1e-13, abs=0.0)
    assert ssrw_return_probability(n, 2) == pytest.approx(want**2, rel=1e-13, abs=0.0)
    assert ssrw_return_probability(n + 1, 1) == 0.0


@pytest.mark.parametrize("length,m", [(0, 3), (1, 2), (7, 1), (40, 2), (200, 7),
                                      (3000, 50)])
def test_binomial_pmf_matches_exact_rationals(length, m):
    lo, pmf = _binomial_pmf(length, 1.0 / m)
    # big-integer true division rounds correctly
    want = [math.comb(length, k) * (m - 1) ** (length - k) / m**length
            for k in range(length + 1)]
    assert all(x == 0.0 for x in want[:lo] + want[lo + pmf.size:])
    # subnormal tail entries keep fewer digits, hence the absolute floor
    np.testing.assert_allclose(pmf, want[lo:lo + pmf.size], rtol=1e-13, atol=1e-300)


@pytest.mark.parametrize("d", [1, 2])
def test_first_entrance_table_is_the_first_return_law(d):
    # direct renewal recursion f(t) = r(t) - sum_{0<s<t} f(s) r(t - s)
    horizon = 300
    r = np.array([ssrw_return_probability(t, d) for t in range(horizon)])
    f = np.zeros(horizon)
    for t in range(1, horizon):
        f[t] = r[t] - np.dot(f[1:t], r[t - 1:0:-1])
    q = _first_entrance_table(1024, d)
    assert q[0] == 1.0
    np.testing.assert_allclose(-q[1:horizon], f[1:], rtol=0.0, atol=1e-15)


def test_evaluation_engine_names():
    p = Problem(d=1, n=20, m=4)
    assert evaluation_engine(lazy_max(p), p) == "plan"
    assert evaluation_engine(delayed_wrapper(lazy_then_sprint(p), p), p) == "plan"

    class NoPlan(Strategy):
        def decide(self, w, j, i, phase):
            return Decision.STEP

    assert evaluation_engine(NoPlan(), p) == "scalar"
    assert evaluate_strategy_exact(NoPlan(), p) == pytest.approx(
        math.comb(20, 10) / 2**20, abs=1e-14)
