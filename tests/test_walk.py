import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetwalk import (AdmissibilityError, Decision, Problem, admissible_decisions,
                        advance, initial_state, run_trajectory, validate_trajectory)
from targetwalk.rng import trial_generator
from targetwalk.strategies import Strategy, always_step, lazy_max
from targetwalk.walk import Trajectory, reconstruct_counters


class StandForever(Strategy):
    name = "stand_forever"
    signature = "wj"

    def decide(self, w, j, i, phase):
        return Decision.STAND


def test_initial_state_examples():
    assert initial_state(Problem(d=1, n=10, m=3)) .__dict__ == {"i": 0, "w": 0, "j": 0}
    s = initial_state(Problem(d=2, n=5, m=2))
    assert (s.i, s.w, s.j) == (0, (0, 0), 0)
    s = initial_state(Problem(d=1, n=1, m=1))
    assert (s.i, s.w, s.j) == (0, 0, 0)


def test_problem_validation():
    with pytest.raises(ValueError):
        Problem(d=3, n=10, m=2)
    with pytest.raises(ValueError):
        Problem(d=1, n=0, m=2)
    with pytest.raises(ValueError):
        Problem(d=1, n=10, m=0)


@pytest.mark.parametrize("field,value", [("d", 1.0), ("d", True), ("n", 10.5),
                                         ("n", 100.0), ("n", True), ("n", "10"),
                                         ("m", 2.5), ("m", True), ("m", None)])
def test_problem_rejects_non_integer_sizes(field, value):
    # a float or bool size that got past the constructor would crash the
    # exact engines (a TypeError in optimal_value, an AttributeError in
    # evaluate_strategy_exact) or feed the samplers a meaningless size
    sizes = {"d": 1, "n": 10, "m": 3}
    sizes[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        Problem(**sizes)


def test_problem_accepts_numpy_integers():
    p = Problem(d=np.int64(2), n=np.int32(10), m=np.uint8(3))
    assert (p.d, p.n, p.m) == (2, 10, 3)


def test_admissible_decisions_examples():
    p = Problem(d=1, n=10, m=3)
    state = initial_state(p)
    assert admissible_decisions(state, p) == {Decision.STAND, Decision.STEP}
    forced = type(state)(i=4, w=2, j=2)
    assert admissible_decisions(forced, p) == {Decision.STEP}
    p1 = Problem(d=1, n=10, m=1)
    assert admissible_decisions(initial_state(p1), p1) == {Decision.STEP}


def test_admissible_decisions_rejects_past_horizon():
    p = Problem(d=1, n=3, m=2)
    state = type(initial_state(p))(i=3, w=0, j=0)
    with pytest.raises(ValueError):
        admissible_decisions(state, p)


def test_admissible_decisions_delayed_alphabet():
    p = Problem(d=1, n=10, m=3)
    state = initial_state(p)
    assert admissible_decisions(state, p, delayed=True) == {
        Decision.DELAYED_STEP, Decision.STEP}


def test_advance_stand_and_step():
    p = Problem(d=1, n=100, m=5)
    g = trial_generator(1, 0)
    s = type(initial_state(p))(i=4, w=7, j=1)
    out = advance(s, Decision.STAND, g, p)
    assert (out.i, out.w, out.j) == (5, 7, 2)
    seen = set()
    for k in range(200):
        out = advance(s, Decision.STEP, trial_generator(2, k), p)
        assert out.i == 5 and out.j == 0
        seen.add(out.w)
    assert seen == {6, 8}


def test_advance_step_2d_law():
    p = Problem(d=2, n=10, m=2)
    s = initial_state(p)
    seen = set()
    for k in range(400):
        out = advance(s, Decision.STEP, trial_generator(3, k), p)
        seen.add(out.w)
    assert seen == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_advance_rejects_inadmissible_stand():
    p = Problem(d=1, n=10, m=2)
    s = type(initial_state(p))(i=1, w=0, j=1)
    with pytest.raises(AdmissibilityError):
        advance(s, Decision.STAND, trial_generator(0, 0), p)


def test_advance_delayed_resets_counter():
    p = Problem(d=1, n=10, m=4)
    s = type(initial_state(p))(i=2, w=3, j=3)
    out = advance(s, Decision.DELAYED_STEP, trial_generator(5, 0), p)
    assert out.j == 0 and out.w in (2, 3, 4)


def test_run_trajectory_stand_wins_when_m_exceeds_n():
    p = Problem(d=1, n=2, m=3)
    traj, success = run_trajectory(lazy_max(p), p, 123)
    assert success and traj.positions == [0, 0, 0]
    assert traj.decisions == [Decision.STAND, Decision.STAND]


def test_run_trajectory_always_step_parity():
    p = Problem(d=1, n=1, m=1)
    traj, success = run_trajectory(always_step(), p, 7)
    assert traj.positions[-1] in (-1, 1) and not success


def test_always_step_success_frequency_matches_enumeration():
    # oracle: all 2^10 equiprobable sign sequences
    count = sum(1 for signs in itertools.product((-1, 1), repeat=10)
                if sum(signs) == 0)
    assert count == 252
    p = Problem(d=1, n=10, m=1)
    hits = sum(run_trajectory(always_step(), p, trial_generator(11, k))[1]
               for k in range(4000))
    p_hat = hits / 4000
    se = (252 / 1024 * (1 - 252 / 1024) / 4000) ** 0.5
    assert abs(p_hat - 252 / 1024) < 3 * se


def test_run_trajectory_reproducible():
    p = Problem(d=1, n=50, m=4)
    t1, s1 = run_trajectory(lazy_max(p), p, 99)
    t2, s2 = run_trajectory(lazy_max(p), p, 99)
    assert s1 == s2 and t1.positions == t2.positions and t1.decisions == t2.decisions


def test_run_trajectory_aborts_on_bad_strategy():
    p = Problem(d=1, n=10, m=3)
    with pytest.raises(AdmissibilityError) as err:
        run_trajectory(StandForever(), p, 0)
    assert err.value.time_step == 3  # third consecutive stand breaks j <= m-1 = 2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       m=st.integers(1, 6), d=st.sampled_from((1, 2)))
def test_trajectory_invariants_fuzz(seed, n, m, d):
    p = Problem(d=d, n=n, m=m)
    strat = lazy_max(p)
    traj, success = run_trajectory(strat, p, seed)
    validate_trajectory(traj, p)
    counters = reconstruct_counters(traj.decisions)
    assert max(counters) <= m - 1 if m > 1 else all(c == 0 for c in counters)
    assert success == (traj.positions[-1] == p.origin)


def test_m1_process_is_pure_ssrw():
    # endpoint distribution over many runs matches the exact binomial law
    n, trials = 8, 20000
    p = Problem(d=1, n=n, m=1)
    counts = {}
    for k in range(trials):
        traj, _ = run_trajectory(lazy_max(p), p, trial_generator(21, k))
        counts[traj.positions[-1]] = counts.get(traj.positions[-1], 0) + 1
    import math
    for x in range(-n, n + 1, 2):
        exact = math.comb(n, (n + x) // 2) / 2 ** n
        se = math.sqrt(exact * (1 - exact) / trials)
        assert abs(counts.get(x, 0) / trials - exact) < 3 * se + 1e-12


def test_delayed_step_count_is_binomial():
    # a strategy that always emits delayed steps takes Binomial(n, 1/m) steps
    import math
    n, m, trials = 12, 3, 20000
    p = Problem(d=1, n=n, m=m)

    class AllDelayed(Strategy):
        name = "all_delayed"

        def decide(self, w, j, i, phase):
            return Decision.DELAYED_STEP

    counts = np.zeros(n + 1, dtype=int)
    for k in range(trials):
        traj, _ = run_trajectory(AllDelayed(), p, trial_generator(31, k))
        steps = sum(1 for a, b in zip(traj.positions, traj.positions[1:]) if a != b)
        counts[steps] += 1
    q = 1.0 / m
    for s in range(n + 1):
        exact = math.comb(n, s) * q ** s * (1 - q) ** (n - s)
        se = math.sqrt(exact * (1 - exact) / trials)
        assert abs(counts[s] / trials - exact) < 3 * se + 1e-3


def test_validate_trajectory_catches_corruption():
    p = Problem(d=1, n=2, m=3)
    bad = Trajectory(positions=[0, 2, 2], decisions=[Decision.STEP, Decision.STAND])
    with pytest.raises(ValueError):
        validate_trajectory(bad, p)
    bad = Trajectory(positions=[0, 0, 0, 0],
                     decisions=[Decision.STAND] * 3)
    with pytest.raises(ValueError):
        validate_trajectory(bad, Problem(d=1, n=3, m=3))
