import copy
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from targetwalk import (AdmissibilityError, Decision, Problem, ScheduleParams1D,
                        ScheduleParams2D, SignatureError, build_schedule_1d,
                        build_schedule_2d, evaluate_strategy_exact, run_trajectory,
                        validate_trajectory)
from targetwalk.rng import trial_generator
from targetwalk.strategies import (Strategy, always_step, delayed_wrapper, lazy_max,
                                   lazy_then_sprint, windowed_1d, windowed_2d)
from targetwalk.walk import (_DECISIONS, Trajectory, _lockstep, _validate_steps,
                             is_origin)


class StandForever(Strategy):
    name = "stand_forever"
    signature = "wj"

    def decide(self, w, j, i, phase):
        return Decision.STAND


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


def test_run_trajectory_stand_wins_when_m_exceeds_n():
    p = Problem(d=1, n=2, m=3)
    traj, success = run_trajectory(lazy_max(p), p, 123)
    assert success and traj.positions == [0, 0, 0]
    assert traj.decisions == [Decision.STAND, Decision.STAND]


def test_run_trajectory_always_step_parity():
    p = Problem(d=1, n=1, m=1)
    traj, success = run_trajectory(always_step(), p, 7)
    assert traj.positions[-1] in (-1, 1) and not success
    # one STEP reaches every lattice neighbour, in d = 1 and in d = 2
    for d, neighbours in ((1, {(-1,), (1,)}), (2, {(1, 0), (-1, 0), (0, 1), (0, -1)})):
        (_, _, after), = _lockstep(always_step(), Problem(d=d, n=1, m=1), 400,
                                   trial_generator(3, 0))
        assert set(map(tuple, after.T.tolist())) == neighbours


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
    validate_trajectory(traj, p)     # includes the counter bound j <= m - 1
    assert success == (traj.positions[-1] == p.origin)


def _run_batch(strategy, p, trials, seed):
    """Endpoints (trials,) and true step counts (trials,) of one lockstep
    batch of d = 1 trials."""
    steps = np.zeros(trials, dtype=np.int64)
    for _, before, after in _lockstep(strategy, p, trials, trial_generator(seed, 0)):
        steps += (before != after).any(axis=0)
    return after[0], steps


def test_m1_process_is_pure_ssrw():
    # endpoint distribution over many runs matches the exact binomial law
    n, trials = 8, 20000
    p = Problem(d=1, n=n, m=1)
    ends, _ = _run_batch(lazy_max(p), p, trials, 21)
    import math
    for x in range(-n, n + 1, 2):
        exact = math.comb(n, (n + x) // 2) / 2 ** n
        se = math.sqrt(exact * (1 - exact) / trials)
        assert abs(np.count_nonzero(ends == x) / trials - exact) < 3 * se + 1e-12


def test_delayed_step_count_is_binomial():
    # a strategy that always emits delayed steps takes Binomial(n, 1/m) steps
    import math
    n, m, trials = 12, 3, 20000
    p = Problem(d=1, n=n, m=m)

    class AllDelayed(Strategy):
        name = "all_delayed"

        def decide(self, w, j, i, phase):
            return Decision.DELAYED_STEP

    _, steps = _run_batch(AllDelayed(), p, trials, 31)
    counts = np.bincount(steps, minlength=n + 1)
    q = 1.0 / m
    expected = trials * np.array([math.comb(n, s) * q ** s * (1 - q) ** (n - s)
                                  for s in range(n + 1)])
    # one chi-square over every step count at level 1e-3, the upper tail
    # pooled until each expected count is at least 5 (here 10-12 steps, 11
    # cells); with 10 degrees of freedom a noncentrality of 35 is detected
    # with probability 0.9
    top = n
    while expected[top:].sum() < 5:
        top -= 1
    expected = np.append(expected[:top], expected[top:].sum())
    observed = np.append(counts[:top], counts[top:].sum())
    assert expected.min() >= 5
    stat = float(((observed - expected) ** 2 / expected).sum())
    assert chi2.sf(stat, expected.size - 1) > 1e-3


def test_validate_trajectory_catches_corruption():
    p = Problem(d=1, n=2, m=3)
    bad = Trajectory(positions=[0, 2, 2], decisions=[Decision.STEP, Decision.STAND])
    with pytest.raises(ValueError):
        validate_trajectory(bad, p)
    bad = Trajectory(positions=[0, 0, 0, 0],
                     decisions=[Decision.STAND] * 3)
    with pytest.raises(ValueError):
        validate_trajectory(bad, Problem(d=1, n=3, m=3))


def _seed_run_trajectory(strategy, problem, rng):
    """The scalar step-by-step loop that ran trajectories before the lockstep
    engine, frozen here as the bit-identity reference: per step one
    ``decide``, a coin ``rng.random()`` for a delayed step, one
    ``rng.integers(0, 2d)`` per move, one ``next_phase``."""
    moves = {1: (-1, 1), 2: ((1, 0), (-1, 0), (0, 1), (0, -1))}[problem.d]

    def moved(w):
        dw = moves[int(rng.integers(0, len(moves)))]
        return w + dw if problem.d == 1 else (w[0] + dw[0], w[1] + dw[1])

    w, j = problem.origin, 0
    phase = strategy.start_phase(problem)
    positions, decisions = [w], []
    for i in range(problem.n):
        dec = strategy.decide(w, j, i, phase)
        if dec is Decision.STAND:
            if j + 1 > problem.m - 1:
                raise AdmissibilityError("inadmissible stand", time_step=i + 1)
            j += 1
        elif dec is Decision.STEP:
            w, j = moved(w), 0
        else:
            if rng.random() < 1.0 / problem.m:
                w = moved(w)
            j = 0
        phase = strategy.next_phase(phase, i + 1, w, j)
        positions.append(w)
        decisions.append(dec)
    return positions, decisions


class _Homing(Strategy):
    """Stands at the origin while allowed on an even count of origin visits,
    steps elsewhere.  Unlike the built-ins, it reads the position in
    ``decide`` and after stands in ``next_phase``."""

    name = "homing"
    signature = "wjip"

    def __init__(self, problem):
        self.m = problem.m

    def start_phase(self, problem):
        return 0

    def decide(self, w, j, i, phase):
        if is_origin(w) and j + 1 <= self.m - 1 and phase % 2 == 0:
            return Decision.STAND
        return Decision.STEP

    def next_phase(self, phase, i_next, w_next, j_next):
        return phase + 1 if is_origin(w_next) else phase


def _built_ins(p):
    """Every built-in strategy for problem p and ``_Homing``, plain and
    delayed; a windowed strategy is left out where no schedule exists."""
    strats = [always_step(), lazy_max(p), lazy_then_sprint(p), _Homing(p)]
    try:
        if p.d == 1:
            strats.append(windowed_1d(build_schedule_1d(
                ScheduleParams1D(n=p.n, m=p.m, eta=0.5)), p))
        else:
            strats.append(windowed_2d(build_schedule_2d(
                ScheduleParams2D(n=p.n, m=p.m, epsilon=0.5)), p))
    except ValueError:          # ScheduleError included
        pass
    return strats + [delayed_wrapper(s, p) for s in strats]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("p", [
    Problem(d=1, n=60, m=4), Problem(d=1, n=97, m=9), Problem(d=2, n=40, m=3),
    Problem(d=2, n=41, m=5), Problem(d=1, n=12, m=1), Problem(d=2, n=9, m=1),
    Problem(d=1, n=5, m=8), Problem(d=2, n=5, m=8)], ids=str)
def test_run_trajectory_is_bit_identical_to_the_scalar_loop(p):
    """run_trajectory, the one-trial case of the lockstep engine, gives the
    positions and decisions of the frozen scalar loop from equal streams,
    and leaves both streams at the same place.

    Every built-in strategy reads the position only through whether a step
    lands on the origin, so ``_Homing`` is added: it fails this test when
    the engine hands ``decide`` or ``next_phase`` a wrong position."""
    windowed = 0
    for strat in _built_ins(p):
        windowed += strat.name.startswith("windowed")
        for seed in range(6):
            g_new, g_old = trial_generator(seed, 3), trial_generator(seed, 3)
            traj, success = run_trajectory(strat, p, g_new)
            positions, decisions = _seed_run_trajectory(strat, p, g_old)
            assert traj.positions == positions, (strat.name, seed)
            assert traj.decisions == decisions, (strat.name, seed)
            assert success == (positions[-1] == p.origin)
            assert g_new.random() == g_old.random()
    assert windowed == (2 if p.n > p.m > 1 else 0)


def _batch(strategy, p, k, seed):
    """A lockstep batch as a list of (decisions, before, after) copies."""
    return [(dec.copy(), before.copy(), after.copy())
            for dec, before, after in _lockstep(strategy, p, k, trial_generator(seed, 0))]


def _first_step(steps, trial, code):
    return next(t for t, (dec, _, _) in enumerate(steps) if dec[trial] == code)


def _stand_moves(steps, d):
    t = _first_step(steps, 3, 0)
    steps[t][2][0, 3] += 1
    return f"stand at time {t + 1} changed the position in trial 3"


def _step_of(length):
    def corrupt(steps, d):
        t = _first_step(steps, 3, 1)
        dec, before, after = steps[t]
        after[:, 3] = before[:, 3]
        after[d - 1, 3] += length
        return f"step at time {t + 1} is not a unit lattice move in trial 3"
    corrupt.__name__ = f"_step_of_{length}"
    return corrupt


def _delayed_move_of_2(steps, d):
    t = _first_step(steps, 3, 2)
    dec, before, after = steps[t]
    after[:, 3] = before[:, 3]
    after[0, 3] += 2
    return f"delayed step at time {t + 1} made an illegal move in trial 3"


def _counter_past_m(steps, d):
    # trial 3 stands at times 1..m = 4, so its counter reaches m at time 4
    for t in range(4):
        dec, before, after = steps[t]
        dec[3] = 0
        before[:, 3] = after[:, 3] = 0
    return "stand-still counter passed m-1 = 3 at time 4 in trial 3"


def _start_away(steps, d):
    steps[0][1][0, 3] = 1
    return "trajectory must start at the origin in trial 3"


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("corrupt", [_stand_moves, _step_of(0), _step_of(2),
                                     _delayed_move_of_2, _counter_past_m, _start_away],
                         ids=lambda f: f.__name__)
def test_batch_validator_flags_one_corrupted_trial(corrupt, d):
    """One corrupted trial in the middle of a batch of 7 is flagged by name.

    lazy_max stands and steps, its delayed version makes delayed steps; the
    clean batches pass, so the flagged violation is the corruption."""
    p = Problem(d=d, n=30, m=4)
    strat = lazy_max(p)
    if corrupt is _delayed_move_of_2:
        strat = delayed_wrapper(strat, p)
    steps = _batch(strat, p, 7, seed=40 + d)
    _validate_steps(iter(steps), p)
    message = corrupt(steps, d)
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        _validate_steps(iter(steps), p)


def test_validate_trajectory_refuses_wrong_lengths():
    p = Problem(d=1, n=2, m=3)
    with pytest.raises(ValueError, match="positions/decisions length mismatch"):
        validate_trajectory(Trajectory([0, 1], [Decision.STEP] * 2), p)
    with pytest.raises(ValueError, match="trajectory has 1 steps, the horizon is 2"):
        validate_trajectory(Trajectory([0, 1], [Decision.STEP]), p)


def test_validate_trajectory_runs_the_batch_checks():
    # one trial is a batch of one: the same checks, with no trial named
    p = Problem(d=2, n=3, m=3)
    good = Trajectory(positions=[(0, 0), (0, 0), (1, 0), (1, 0)],
                      decisions=[Decision.STAND, Decision.STEP, Decision.DELAYED_STEP])
    validate_trajectory(good, p)
    for positions, decisions, message in [
            ([(0, 0), (0, 0), (1, 1), (1, 1)], good.decisions, "step at time 2"),
            ([(0, 0), (0, 0), (1, 0), (3, 0)], good.decisions, "delayed step at time 3"),
            ([(0, 1), (0, 1), (1, 1), (1, 1)], good.decisions, "trajectory must start"),
            (good.positions[:3], good.decisions[:2], "trajectory has 2 steps")]:
        with pytest.raises(ValueError, match=message) as err:
            validate_trajectory(Trajectory(positions, decisions), p)
        assert "trial" not in str(err.value)


@pytest.mark.parametrize("decision", ["step", None, 1])
def test_validate_trajectory_names_an_unknown_decision(decision):
    # the message of both step-by-step engines, not tuple.index's
    with pytest.raises(ValueError, match=re.escape(f"unknown decision {decision!r}")):
        validate_trajectory(Trajectory([0, 1], [decision]), Problem(d=1, n=1, m=2))


class _ListPhase(Strategy):
    name = "list_phase"
    signature = "history"

    def start_phase(self, problem):
        return []

    def decide(self, w, j, i, phase):
        return Decision.STEP


class _DictPhaseLater(_ListPhase):
    name = "dict_phase_later"

    def start_phase(self, problem):
        return 0

    def next_phase(self, phase, i_next, w_next, j_next):
        return {"time": i_next} if i_next >= 3 else phase


@pytest.mark.parametrize("strategy", [_ListPhase(), _DictPhaseLater()], ids=repr)
def test_unhashable_phase_raises_signature_error(strategy):
    from targetwalk.samplers import GenericSampler

    p = Problem(d=1, n=6, m=2)
    with pytest.raises(SignatureError, match="unhashable phase"):
        run_trajectory(strategy, p, 1)
    with pytest.raises(SignatureError, match="unhashable phase"):
        GenericSampler(p, strategy).run_chunk(master_seed=1, lo=0, hi=50)
    # exact evaluation refuses the "history" signature before it runs; a
    # strategy that declares a finite phase must still have hashable ones
    markov = copy.copy(strategy)
    markov.signature = "wjip"
    with pytest.raises(SignatureError, match="unhashable phase"):
        evaluate_strategy_exact(markov, p)


def test_lockstep_decides_once_per_distinct_state():
    # always_step in d = 1: at time i at most i + 1 distinct positions
    calls = []

    class Counting(Strategy):
        name = "counting"

        def decide(self, w, j, i, phase):
            calls.append(i)
            return Decision.STEP

    p = Problem(d=1, n=12, m=2)
    for dec, before, after in _lockstep(Counting(), p, 500, trial_generator(2, 0)):
        assert dec.shape == (500,) and before.shape == after.shape == (1, 500)
        assert (dec == _DECISIONS.index(Decision.STEP)).all()
    per_time = np.bincount(calls, minlength=p.n)
    assert per_time[0] == 1
    assert all(1 <= c <= i + 1 for i, c in enumerate(per_time))


def _wrapping_rows():
    """Columns (0, b, c) and (1, b, c) with rows 1 and 2 spanning 2^32: a
    key packed without renumbering would be a * 2^64 + b * 2^32 + c, which
    wraps to the same int64 for both."""
    top = 2 ** 32 - 1
    return np.array([[0, 1, 0, 1, 0], [0, 0, top, top, 5], [0, 0, top, top, 7]])


@pytest.mark.parametrize("rows", [
    np.random.default_rng(7).integers(-3, 3, size=(4, 300)), _wrapping_rows()],
    ids=["small", "wrapping"])
def test_classes_match_unique_columns(rows):
    from targetwalk.walk import _classes

    first, inverse = _classes(rows)
    _, ref_first, ref_inverse = np.unique(rows, axis=1, return_index=True,
                                          return_inverse=True)
    assert sorted(first) == sorted(ref_first)
    assert (rows[:, first[inverse]] == rows).all()
    assert len(set(zip(inverse.tolist(), ref_inverse.ravel().tolist()))) == first.size
