import io
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate, product

import numpy as np
import pytest

from targetwalk import (AdmissibilityError, BudgetError, Decision, Problem,
                        ScheduleParams1D, ScheduleParams2D, SignatureError,
                        brute_force_value, build_schedule_1d, build_schedule_2d,
                        evaluate_strategy_exact, expected_local_time,
                        optimal_value, return_probabilities_2d, run_trajectory,
                        ssrw_return_probability)
import targetwalk
from targetwalk.exact import (_binomial_mixture, _binomial_pmf, _certified_radius,
                              _first_entrance_table, _point_probabilities,
                              _propagate_scalar, _return_table, _step_values,
                              enumerate_decision_trees_value, evaluation_cost,
                              hitting_tail_curve, survivor_counts, window_counts)
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
            step[1:-1, 1:-1] = 0.25 * ((v0[:-2, 1:-1] + v0[2:, 1:-1])
                                       + (v0[1:-1, :-2] + v0[1:-1, 2:]))
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
    # 0.5*(a+b) / 0.25*((a+b)+(c+d)) expression, so equality is exact: a
    # changed window length, stencil order, fold or tie rule fails it
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


@pytest.mark.parametrize("d,n,m", [(1, 9, 3), (1, 6, 10), (2, 7, 1), (2, 8, 3),
                                   (2, 5, 9)])
def test_kept_slices_are_exactly_symmetric(d, n, m):
    # the value function and the policy are invariant under x_k -> -x_k on
    # each axis and, in d = 2, under the axis swap, bit for bit
    _, table = optimal_value(Problem(d=d, n=n, m=m), keep="full", want_policy=True)
    for i in range(n + 1):
        slices = [table.values[i]] + ([table.policy[i]] if i < n else [])
        for arr in slices:
            assert arr.shape == (2 * n + 3,) * d + (m,)
            for k in range(d):
                assert np.array_equal(arr, np.flip(arr, axis=k)), (i, k)
            if d == 2:
                assert np.array_equal(arr, np.swapaxes(arr, 0, 1)), i


def test_full_table_cap_counts_kept_slices():
    # 403^2 cells per folded slice, held for the 8-slice window and 401 kept
    # slices: 6.6e7 cells, over the cap of 5e7
    with pytest.raises(BudgetError) as err:
        optimal_value(Problem(d=2, n=400, m=8), keep="full")
    assert err.value.required_bytes == 8.0 * 403 ** 2 * (8 + 401)


@pytest.mark.parametrize("d,n,m", [(1, 7, 3), (1, 5, 12), (2, 6, 2), (2, 4, 9),
                                   (1, 40, 5), (2, 30, 3)])
def test_dp_cost_prices_the_work_the_engine_does(monkeypatch, d, n, m):
    # the priced updates are the cells the neighbour mean writes, and the
    # priced cells are the window ring plus the kept step slices; a target
    # of 0.1 makes the radius cut the value-only boxes at n = 40 and 30
    exact = targetwalk.exact
    monkeypatch.setattr(exact, "_TRUNCATION_TARGET", 0.1)
    written, rings = [], []
    neighbour_mean = exact._neighbour_mean

    def counting(field, box, out, scratch):
        written.append(out.size)
        neighbour_mean(field, box, out, scratch)

    class Recording(exact._WindowMax):
        def __init__(self, length, shape):
            super().__init__(length, shape)
            rings.append(self.ring.size)

    monkeypatch.setattr(exact, "_neighbour_mean", counting)
    monkeypatch.setattr(exact, "_WindowMax", Recording)
    p = Problem(d=d, n=n, m=m)
    _, table = optimal_value(p, keep="full")
    assert exact.dp_cost(p, kept=True) == (sum(written),
                                           rings[0] + table.values.steps.size)
    # by hand: sum over r = 1..n of (r + 1)^d cells
    assert sum(written) == sum((r + 1) ** d for r in range(1, n + 1))
    # the value alone: step i writes the box of radius min(i, n - i, R), and
    # the ring holds slices of (min(n // 2, R) + 3)^d cells
    written.clear()
    optimal_value(p)
    reach, beta = exact._certified_radius(d, n, 0.1)
    assert exact.dp_cost(p) == (sum(written), rings[1])
    assert sum(written) == sum((min(i, n - i, reach) + 1) ** d for i in range(n))
    assert rings[1] == min(m, n + 1) * (min(n // 2, reach) + 3) ** d
    assert (reach < n // 2) == (n >= 30) == (beta > 0)


def _killed_recursion(problem, reach):
    """Optimal value when a walk that leaves |x|_inf <= reach is killed: the
    (x, j) recursion of ``_counter_recursion`` on the whole grid, with every
    step value past ``reach`` set to 0."""
    n, m, d = problem.n, problem.m, problem.d
    c = n + 1
    far = np.abs(np.arange(2 * n + 3) - c) > reach
    if d == 2:
        far = far[:, None] | far[None, :]
    v = np.zeros((2 * n + 3,) * d + (m,))
    v[(c,) * d] = 1.0
    for _ in range(n):
        v0 = v[..., 0]
        step = np.zeros(v0.shape)
        if d == 1:
            step[1:-1] = 0.5 * (v0[:-2] + v0[2:])
        else:
            step[1:-1, 1:-1] = 0.25 * ((v0[:-2, 1:-1] + v0[2:, 1:-1])
                                       + (v0[1:-1, :-2] + v0[1:-1, 2:]))
        step[far] = 0.0
        nv = np.empty_like(v)
        nv[..., m - 1] = step
        nv[..., :m - 1] = np.maximum(step[..., None], v[..., 1:])
        v = nv
    return float(v[(c,) * d + (0,)])


@pytest.mark.parametrize("d,n,ms", [(1, 2000, (1, 2, 64, 2001)), (1, 5000, (3, 64)),
                                    (2, 300, (1, 8)), (2, 301, (17,))])
def test_value_alone_equals_the_backward_cone_bit_for_bit(d, n, ms):
    """The value alone, on the boxes min(i, n - i, R), against the same
    loop on the kept path's boxes n - i, at sizes where R < n // 2, so both
    the forward cone and the radius cut.  At the default target the cut
    mass is far below one ulp, and the bits are equal.

    Power, checked in a copy of the tree: a forward cone one cell too
    narrow (min(i - 1, ...)) fails the two cases with m = 1, where every
    path counts; R + 1 in place of R fails every case.  A fault in the
    loop both sides share (a stale layer r_i + 1 in each new slice, which
    a skipped zeroing would leave) passes here and fails
    ``test_optimal_value_equals_counter_recursion`` and the test below."""
    reach, beta = _certified_radius(d, n, 1e-15)
    assert reach < n // 2 and 0.0 < beta <= 1e-15
    for m in ms:
        value, table = optimal_value(Problem(d=d, n=n, m=m))
        assert table.truncation_bound == beta
        assert value == _step_values(d, n, m, False, None)[0], m


def test_value_alone_equals_the_kept_table_at_a_cutting_radius():
    # the same, against a real kept table: R = 313 < n // 2 = 750; R + 1 in
    # place of R fails it
    p = Problem(d=1, n=1500, m=40)
    assert _certified_radius(1, 1500, 1e-15)[0] == 313
    assert optimal_value(p)[0] == optimal_value(p, keep="full")[0]


@pytest.mark.parametrize("d,n,m,target", [(1, 100, 1, 1e-3), (1, 100, 3, 1e-3),
                                          (1, 101, 2, 1e-3), (2, 40, 1, 0.1),
                                          (2, 41, 2, 0.1)])
def test_a_radius_that_bites_costs_at_most_beta(monkeypatch, d, n, m, target):
    """With the target raised, the radius kills mass the optimum keeps:
    V_R < V <= V_R + beta, and V_R is the killed recursion's value bit for
    bit.  In d = 2 the target is 0.1, since a coordinate moves half as
    often, and at 1e-3 the killed mass is below one ulp of V.

    Power, checked in a copy of the tree: a forward cone one cell too
    narrow fails the two cases with m = 1; a stale layer r_i + 1 in each
    new slice (0.5 where a zeroing would have written 0) fails the three
    cases with m > 1; R + 1 in place of R fails every case."""
    monkeypatch.setattr(targetwalk.exact, "_TRUNCATION_TARGET", target)
    p = Problem(d=d, n=n, m=m)
    value, table = optimal_value(p)
    reach, beta = _certified_radius(d, n, target)
    assert reach < n // 2 and table.truncation_bound == beta <= target
    assert value == _killed_recursion(p, reach)
    full = optimal_value(p, keep="full")[0]
    assert value < full <= value + beta


@pytest.mark.parametrize("d,n", [(1, 100), (2, 100), (1, 3000), (2, 300), (1, 7)])
def test_certified_radius_is_the_least_with_beta_under_target(d, n):
    # beta(R) = 2d (P(S_n >= R+1) + P(S_n > R+1)) from exact binomial sums
    at_least = [Fraction(0)] * (n + 3)                  # P(S_n >= a) for a = 0..n+2
    for k in range(n, -1, -1):
        at_least[max(2 * k - n, 0)] += Fraction(math.comb(n, k), 2 ** n)
    at_least = list(accumulate(reversed(at_least)))[::-1]

    def beta(r):
        return 2 * d * (at_least[min(r + 1, n + 2)] + at_least[min(r + 2, n + 2)])

    for target in (1e-3, 1e-15):
        reach, bound = _certified_radius(d, n, target)
        assert beta(reach - 1) > target >= beta(reach) * (1 - 1e-12)
        if reach < n // 2:
            assert bound == pytest.approx(float(beta(reach)), rel=1e-12)
        else:
            assert bound == 0.0
    # at the default target, the radii the README quotes
    if (d, n) == (1, 3000):
        assert reach == 443
    if (d, n) == (2, 300):
        assert reach == 139


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

    for t in (7, 25, 50):
        p = Problem(d=1, n=t, m=4)
        strat = _w1d(build_schedule_1d(ScheduleParams1D(n=t, m=4, eta=0.5)), p)
        dist = state_distribution(strat, p)
        assert abs(sum(dist.values()) - 1.0) < 1e-12
        for (phase, j, x), mass in dist.items():
            assert mass >= 0.0
            assert 0 <= j <= p.m - 1
            assert abs(x) <= t


class _Holding(Strategy):
    """Holds where ``holds`` says and steps elsewhere.  A hold is a stand
    while the counter allows one, or a delayed step, which has no limit."""

    signature = "wjip"

    def __init__(self, problem, hold):
        self.m, self.hold = problem.m, hold
        self.name = f"{self.name}+{hold.value}"

    def decide(self, w, j, i, phase):
        if self.holds(w, i, phase) and (self.hold is Decision.DELAYED_STEP
                                        or j + 1 <= self.m - 1):
            return self.hold
        return Decision.STEP


def _l1(w):
    return abs(w) if isinstance(w, int) else abs(w[0]) + abs(w[1])


class _DriftHome(_Holding):
    # holds at the origin, and at the sites two to the right of it on odd times
    name = "drift_home"

    def holds(self, w, i, phase):
        return _l1(w) == 0 or (w in (2, (2, 0)) and i % 2 == 1)


class _Homing(_Holding):
    # the phase counts origin visits and records the farthest distance
    # reached; holds at the origin on an even count, and at a new farthest
    # distance of at least 2
    name = "homing"

    def start_phase(self, problem):
        return (0, 0)

    def holds(self, w, i, phase):
        visits, farthest = phase
        return (_l1(w) == 0 and visits % 2 == 0) or _l1(w) == farthest >= 2

    def next_phase(self, phase, i_next, w_next, j_next):
        visits, farthest = phase
        return (visits + (_l1(w_next) == 0), max(farthest, _l1(w_next)))


def _enumerated_distribution(strategy, p):
    """Mass over (phase, j, position) at the horizon, as exact rationals:
    every step and coin outcome of every path is enumerated, with no
    merging of equal states."""
    moves = [1, -1] if p.d == 1 else [(1, 0), (-1, 0), (0, 1), (0, -1)]
    out = {}

    def run(i, x, j, phase, prob):
        if i == p.n:
            out[phase, j, x] = out.get((phase, j, x), 0) + prob
            return
        dec = strategy.decide(x, j, i, phase)
        if dec is Decision.STAND:
            assert j + 1 <= p.m - 1
            branches = [(Fraction(1), x, j + 1)]
        else:
            move = Fraction(1) if dec is Decision.STEP else Fraction(1, p.m)
            branches = [(1 - move, x, 0)] + [
                (move / len(moves), x + mv if p.d == 1 else (x[0] + mv[0], x[1] + mv[1]), 0)
                for mv in moves]
        for pr, y, k in branches:
            if pr:
                run(i + 1, y, k, strategy.next_phase(phase, i + 1, y, k), prob * pr)

    run(0, p.origin, 0, strategy.start_phase(p), Fraction(1))
    return out


@pytest.mark.parametrize("p", [Problem(d=1, n=10, m=3), Problem(d=1, n=11, m=4),
                               Problem(d=2, n=6, m=3), Problem(d=1, n=10, m=1)],
                         ids=repr)
def test_state_distribution_matches_enumeration(p):
    """The scalar exact engine against rational enumeration of every path,
    for rules that read the position and the phase, plain and delayed: the
    same atoms, each within 1e-12, and the same value.

    Power: each of these slips in ``state_distribution`` fails it: a delayed
    step that stays with weight 1/m instead of 1 - 1/m (m = 1 included), and
    a stand that does not increment j."""
    from targetwalk.exact import state_distribution

    for strategy in (_DriftHome(p, Decision.STAND), _DriftHome(p, Decision.DELAYED_STEP),
                     _Homing(p, Decision.STAND), _Homing(p, Decision.DELAYED_STEP)):
        assert evaluation_cost(strategy, p)[0] == "scalar"
        dist = state_distribution(strategy, p)
        ref = _enumerated_distribution(strategy, p)
        assert dist.keys() == ref.keys(), strategy.name
        for atom, mass in ref.items():
            assert dist[atom] == pytest.approx(float(mass), abs=1e-12), (strategy.name, atom)
        value = sum(mass for (_, _, x), mass in ref.items() if x == p.origin)
        assert evaluate_strategy_exact(strategy, p) == pytest.approx(float(value), abs=1e-12)


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
    assert hitting_tail_curve(2, [1]) == {1: 1.0}
    assert hitting_tail_curve(1, [1, 2]) == {1: 0.5, 2: 0.5}


def test_hitting_tail_counts_small_enumeration():
    # x=1: paths of length 3 that avoid 0: RRR, RRL, RLR -> 3 of 8
    assert [row[1] for row in survivor_counts(1, 3)] == [1, 1, 2, 3]
    assert list(window_counts(2, 2))[2][2] == 2   # paths ending at 0: LR, RL


def test_hitting_tail_reflection_equality_small_grid():
    rows = zip(survivor_counts(8, 59), window_counts(8, 59))
    for l, (survivors, windows) in enumerate(rows):
        for x in range(1, 9):
            if (x + l) % 2 == 1:
                assert survivors[x] == windows[x], (x, l)


def test_count_rows_match_path_enumeration():
    """Both count streams against every +-1 path of length l <= 12 from
    each start 0 <= x <= 6: a path from x survives when x plus its running
    minimum stays above 0, and a path from 0 lies in the window when it ends
    strictly inside (-x, x).  A window bound off by one, or c_0(0) = 1,
    changes at least one of these counts."""
    survivors = list(survivor_counts(6, 12))
    windows = list(window_counts(6, 12))
    for l in range(13):
        want_survivors = [0] * 7
        want_windows = [0] * 7
        for steps in product((-1, 1), repeat=l):
            walk = list(accumulate(steps, initial=0))
            for x in range(7):
                want_survivors[x] += x + min(walk) > 0
                want_windows[x] += -x < walk[-1] < x
        assert survivors[l] == want_survivors, l
        assert windows[l] == want_windows, l


def test_half_open_window_counts_the_survivors():
    """survivors = open window + atom C(l, (l + x)/2) at both parities, in
    exact integers on the default 20 x 400 grid of ``check_reflection``.
    ``hitting_tail_curve`` sums this half-open window in floats.  A window
    bound off by one, or c_0(0) = 1, breaks the equality at some pair."""
    rows = zip(survivor_counts(20, 400), window_counts(20, 400))
    for l, (survivors, windows) in enumerate(rows):
        for x in range(1, 21):
            atom = math.comb(l, (l + x) // 2) if (l + x) % 2 == 0 else 0
            assert survivors[x] == windows[x] + atom, (x, l)


def test_hitting_tail_curve_matches_exact_counts():
    # 8,020 exact comparisons, every 1 <= x <= 20 and 0 <= l <= 400 at both
    # parities, against the integer absorbing counts.  A window edge off by
    # one moves the tail by an atom P_0(S_l = +-x), at least 2^-20 on this
    # grid wherever it is reachable, about 10^9 times the tolerance.
    curves = {x: hitting_tail_curve(x, range(401)) for x in range(1, 21)}
    for l, counts in enumerate(survivor_counts(20, 400)):
        for x in range(1, 21):
            assert curves[x][l] == pytest.approx(counts[x] / 2**l, abs=1e-15), (x, l)


def test_hitting_tail_monotone_in_start():
    tails = [hitting_tail_curve(x, [99])[99] for x in (1, 2, 5, 9)]
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
    for d in (0, 3):
        with pytest.raises(ValueError, match="d must be 1 or 2"):
            ssrw_return_probability(2, d)


@pytest.mark.parametrize("n", [10**4, 10**4 + 2, 10**5])
def test_ssrw_return_probability_matches_big_integers(n):
    # comb / 2**n is a correctly rounded big-integer division; a log-gamma
    # form was off by 6.2e-14 at n = 1e4 and 1.8e-10 at 1e5
    want = math.comb(n, n // 2) / 2**n
    assert ssrw_return_probability(n, 1) == pytest.approx(want, rel=1e-13, abs=0.0)
    assert ssrw_return_probability(n, 2) == pytest.approx(want**2, rel=1e-13, abs=0.0)
    assert ssrw_return_probability(n + 1, 1) == 0.0


def _pmf_big(t: int, a: int) -> float:
    """P(S_t = a) for 1d SSRW as a correctly rounded big-integer division."""
    if (t + a) % 2 or abs(a) > t:
        return 0.0
    return math.comb(t, (t + a) // 2) / 2**t


def _pmf_decimal(t: int, a: int) -> float:
    """P(S_t = a) for 1d SSRW by the multiplicative formula
    C(t, k) = prod_j (t - k + j) / j in 40-digit decimals, times 2^-t: within
    1e-30 relative, where ``math.comb`` at t = 10^6 takes over 10 s."""
    if (t + a) % 2 or abs(a) > t:
        return 0.0
    k = (t + a) // 2
    with localcontext() as ctx:
        ctx.prec = 40
        p = Decimal(1)
        for j in range(1, k + 1):
            p = p * (t - k + j) / (2 * j)
        return float(p * Decimal(2) ** (k - t))


_SMALLEST_NORMAL = 2.2250738585072014e-308


@pytest.mark.parametrize("x,horizon", [((0, 0), 3000), ((1, 0), 3000), ((3, 2), 3000),
                                       ((10, -7), 3000), ((48, 0), 3000),
                                       ((1638, 0), 4096)])
def test_return_probabilities_2d_match_big_integers(x, horizon):
    # (1638, 0) at 4096 is the deep tail of the local-time suite's grid: a
    # recurrence forward in t from 2^-a underflows there and returns 0.0
    a, b = x[0] + x[1], x[0] - x[1]
    got = return_probabilities_2d(x, horizon)
    assert got.shape == (horizon,)
    normal = 0
    for i in range(1, horizon + 1):
        want = _pmf_big(i, a) * _pmf_big(i, b)
        if want >= _SMALLEST_NORMAL:
            assert got[i - 1] == pytest.approx(want, rel=1e-12, abs=0.0), (x, i)
            normal += 1
        elif (i + a) % 2 or max(abs(a), abs(b)) > i:
            assert got[i - 1] == 0.0, (x, i)
    assert normal > 0


@pytest.mark.parametrize("t,a", [(10**6, 100), (10**6 - 1, 99), (10**5, 10),
                                 (10**4, 2), (3, 3), (3, 5), (0, 0), (0, 1)])
def test_point_probabilities_match_exact_values(t, a):
    # log-gamma differences gave 2.1e-12 relative at (10^4, 2), 2.3e-11 at
    # (10^5, 10) and 1.8e-9 at (10^6, 100)
    want = _pmf_big(t, a) if t <= 10**5 else _pmf_decimal(t, a)
    p = _point_probabilities(a, t + 1)
    assert p.shape == (t + 1,)
    assert p[t] == pytest.approx(want, rel=1e-12, abs=0.0)
    assert _point_probabilities(-a, t + 1)[t] == p[t]


def test_decimal_reference_matches_big_integers():
    for t, a in ((10**5, 10), (10**5 - 1, 99), (4096, 1638)):
        assert _pmf_decimal(t, a) == pytest.approx(_pmf_big(t, a), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("l", [2049, 5000])
@pytest.mark.parametrize("x", [1, 2, 3, 10])
def test_hitting_tail_1d_beyond_the_integer_counts(x, l):
    # past the sizes where the absorbing counts are cheap, the tail against
    # an exact big-integer sum at both parities: the half-open window
    # -x < S_l <= x, that is (l - x)/2 < K <= (l + x)/2 right steps
    count = sum(math.comb(l, k) for k in range((l - x) // 2 + 1, (l + x) // 2 + 1))
    tail = hitting_tail_curve(x, [l])[l]
    assert tail == pytest.approx(count / 2**l, rel=1e-12, abs=0.0)


def test_hitting_tails_refuse_a_negative_length():
    with pytest.raises(ValueError, match="length"):
        hitting_tail_curve(3, [5, -1])


def _reference_return_table(size: int, d: int) -> np.ndarray:
    """The return table's construction, frozen: even ratios (2k+1)/(2k+2),
    then one cumprod, squared in d = 2."""
    r = np.zeros(size)
    r[0] = 1.0
    even = r[2::2]
    even[:] = np.arange(1.0, 2.0 * even.size, 2.0)
    even /= even + 1.0
    np.cumprod(even, out=even)
    if d == 2:
        r *= r
    return r


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("size", [1024, 3000, 2**20])
def test_return_table_is_bit_identical_to_the_reference(size, d):
    # every plan-engine value is built from this table
    assert np.array_equal(_return_table(size, d), _reference_return_table(size, d))


def test_package_imports_no_scipy():
    src = os.path.dirname(os.path.dirname(targetwalk.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, targetwalk, targetwalk.verify, targetwalk.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


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


def _exact_mixture(hits, m):
    """sum_s h_s Binomial(N_s, 1/m), N_s = L - 1 - s, in big integers over
    the common denominator den m^(L-1), with h_s the exact rational value of
    each float (den a power of two); true division rounds correctly."""
    fracs = [Fraction(float(h)) for h in hits]
    size = len(fracs)
    den = max(f.denominator for f in fracs)
    num = [0] * size
    for s, f in enumerate(fracs):
        top = size - 1 - s
        c = f.numerator * (den // f.denominator) * m ** s
        for k in range(top + 1):
            num[k] += c * math.comb(top, k) * (m - 1) ** (top - k)
    return np.array([x / (den * m ** (size - 1)) for x in num])


@pytest.mark.parametrize("length", [1, 2, 48, 49, 50, 300])
@pytest.mark.parametrize("m", [1, 2, 7, 100])
@pytest.mark.parametrize("zeros", [False, True])
def test_binomial_mixture_matches_exact_rationals(length, m, zeros):
    """The blocked mixture against the big-integer sum of
    ``_exact_mixture``.  Blocks are K = isqrt(L) long: L = 1 and 2 have
    K = 1; 48, 49 and 50 are K^2 - 1 = 6 * 8, K^2 = 7 * 7 and K^2 + 1, whose
    eighth block holds one hit; 300 has 17 blocks of 17 and one of 11.
    With ``zeros`` the hits open with a run of L // 2 zeros, so the outer
    Horner starts on blocks that are all zero (at L = 2, on one).

    Power, checked in a copy of the tree: gamma = Binomial(K + 1, p) or
    Binomial(K - 1, p) fails each of the 36 cases where two blocks hold
    hits (all but L = 1, and L = 2 with zeros); each A_b added one entry
    late in the outer Horner fails 40 cases, and the hits put one slot late
    in the blocks all 48."""
    rng = np.random.default_rng(length)
    hits = rng.random(length)
    hits *= 0.9 / hits.sum()
    if zeros:
        hits[:length // 2] = 0.0
    got = _binomial_mixture(hits, 1.0 / m)
    want = _exact_mixture(hits, m)
    assert got.size <= length and got[-1] > 0.0
    padded = np.zeros(length)
    padded[:got.size] = got
    # subnormal tail entries keep fewer digits, hence the absolute floor
    np.testing.assert_allclose(padded, want, rtol=1e-13, atol=1e-300)


def _mixture_work(monkeypatch, hits, p):
    """Entries ``_binomial_mixture`` touches on (hits, p), counted from its
    calls: the (K, blocks) array and blocks x top per inner Horner step
    (top only grows, so its last value bounds each step), then
    |acc| |gamma| multiply-adds and |acc| + |gamma| entries per outer step."""
    exact = targetwalk.exact
    work = []
    block_horner, convolve = exact._block_horner, np.convolve

    def counting_horner(rows, q):
        out = block_horner(rows, q)
        work.append(rows.size + (rows.shape[0] - 1) * rows.shape[1] * out.shape[0])
        return out

    def counting_convolve(a, b):
        work.append(a.size * b.size + a.size + b.size)
        return convolve(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(exact, "_block_horner", counting_horner)
        patch.setattr(np, "convolve", counting_convolve)
        exact._binomial_mixture(hits, p)
    return sum(work)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_plan_cost_prices_the_blocked_mixture(monkeypatch):
    """Pricing only: delayed ``windowed_1d`` at n = 10^6 fits the default
    budget at m = 10^4 and at m = 10^3 (one Horner step per hit priced them
    at 6.7e8 and 1.65e9 entries).  And ``_mixture_cost`` bounds the entries
    that each mixture of a small grid of delayed plans touches, counted by
    ``_mixture_work``, and is at most three times it (plus 10 for the
    shortest stages): the support bounds of ``_binomial_band`` hold, and
    are not far above the live supports."""
    exact = targetwalk.exact
    for m in (10**4, 10**3):
        p = Problem(d=1, n=10**6, m=m)
        sched = build_schedule_1d(ScheduleParams1D(n=p.n, m=m, eta=0.5))
        engine, work = evaluation_cost(delayed_wrapper(windowed_1d(sched, p), p), p)
        assert engine == "plan" and work <= exact.DEFAULT_EVAL_BUDGET
    calls = []
    mixture = exact._binomial_mixture

    def recording(hits, p):
        calls.append((hits, p))
        return mixture(hits, p)

    monkeypatch.setattr(exact, "_binomial_mixture", recording)
    for p in (Problem(d=1, n=10_000, m=100), Problem(d=1, n=2000, m=3),
              Problem(d=1, n=97, m=9), Problem(d=1, n=12, m=1),
              Problem(d=2, n=300, m=8), Problem(d=2, n=41, m=3)):
        for strat in _built_ins(p):
            if strat.plan(p).delayed:
                evaluate_strategy_exact(strat, p)
    monkeypatch.undo()
    assert len({(hits.size, p) for hits, p in calls}) >= 10
    for hits, p in calls:
        work = _mixture_work(monkeypatch, hits, p)
        assert work <= exact._mixture_cost(hits.size, p) <= 3 * work + 10


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
    assert evaluation_cost(lazy_max(p), p) == ("plan", 21)
    assert evaluation_cost(delayed_wrapper(lazy_then_sprint(p), p), p)[0] == "plan"

    class NoPlan(Strategy):
        def decide(self, w, j, i, phase):
            return Decision.STEP

    assert evaluation_cost(NoPlan(), p) == ("scalar", 41 * 20)
    assert evaluate_strategy_exact(NoPlan(), p) == pytest.approx(
        math.comb(20, 10) / 2**20, abs=1e-14)


class _StandAsString(Strategy):
    name = "stand_as_string"

    def decide(self, w, j, i, phase):
        return "stand"


class _AlwaysStand(Strategy):
    name = "always_stand"

    def decide(self, w, j, i, phase):
        return Decision.STAND


@pytest.mark.parametrize("strategy, error, time_step", [
    (_StandAsString(), ValueError, None),
    (_AlwaysStand(), AdmissibilityError, 3),
])
def test_step_by_step_references_agree_on_bad_decisions(strategy, error, time_step):
    # the scalar exact engine and the trajectory engine reject the same
    # decisions: an unknown one, and a stand past the budget at m = 3
    p = Problem(d=1, n=4, m=3)
    assert evaluation_cost(strategy, p)[0] == "scalar"
    for run in (lambda: evaluate_strategy_exact(strategy, p),
                lambda: run_trajectory(strategy, p, 0)):
        with pytest.raises(error) as err:
            run()
        assert type(err.value) is error
        if time_step is not None:
            assert err.value.time_step == time_step
