"""Controlled simple random walk on Z^d (d = 1, 2) with a stand-still option.

The walker starts at the origin with a time horizon of ``n`` steps.  At each
time step a strategy either takes a symmetric simple random walk (SSRW) step
or stands still.  Standing is rationed: the counter ``j`` tracks the time
since the last SSRW step and must never exceed ``m - 1``, i.e. at most
``m - 1`` consecutive stand-still steps before a step is forced.  The goal
throughout the package is to end at the origin at time ``n``.

A delayed-step mode is also supported: instead of a hard stand, the walker
may choose a delayed step, which stands with probability ``1 - 1/m`` and
takes an SSRW step with probability ``1/m``, with no consecutive-use limit.

Every step-by-step simulation runs on one engine, ``_lockstep``, which moves
k trials at once on numpy arrays of positions, counters and phase ids, and
calls ``decide`` and ``next_phase`` once per distinct state rather than once
per trial.  ``run_trajectory`` is its one-trial case; the generic sampler
and the ``invariants`` suite of ``verify`` run it on whole batches, and
``_validate_steps`` checks a batch's steps as ``validate_trajectory`` checks
one trajectory.  The engine keeps no history: it yields each step.  All of
them move the walk with one function, ``_step``; ``advance`` is ``_step``
for one state, for a caller that drives a walk step by step itself.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

from .errors import AdmissibilityError, SignatureError
from .rng import trial_generator

if TYPE_CHECKING:  # pragma: no cover
    from .strategies import Strategy

Position = Union[int, tuple[int, int]]
RandomSource = np.random.Generator


def _check_integer(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer; a bool
    or a float with an integral value is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


class Decision(enum.Enum):
    STAND = "stand"
    STEP = "step"
    DELAYED_STEP = "delayed_step"


@dataclass(frozen=True)
class Problem:
    """Instance parameters: dimension, horizon, and stand-still budget ``m``.

    A strategy may stand only while the resulting counter stays <= m - 1;
    with m = 1 standing is never allowed and the process is pure SSRW.
    """

    d: int
    n: int
    m: int

    def __post_init__(self):
        for name in ("d", "n", "m"):
            _check_integer(name, getattr(self, name))
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.d}")
        if self.n < 1:
            raise ValueError(f"horizon must be >= 1, got {self.n}")
        if self.m < 1:
            raise ValueError(f"stand budget m must be >= 1, got {self.m}")

    @property
    def origin(self) -> Position:
        return 0 if self.d == 1 else (0, 0)


@dataclass(frozen=True)
class WalkState:
    """Snapshot of the controlled walk: time ``i``, position ``w``, counter ``j``."""

    i: int
    w: Position
    j: int


@dataclass
class Trajectory:
    """Full record of one run: positions w_0..w_n and decisions for steps 1..n."""

    positions: list
    decisions: list

    def __len__(self) -> int:
        return len(self.decisions)


def is_origin(w: Position) -> bool:
    return w == 0 or w == (0, 0)


def initial_state(problem: Problem) -> WalkState:
    """Start of every run: time 0 at the origin, counter 0."""
    return WalkState(i=0, w=problem.origin, j=0)


def admissible_decisions(state: WalkState, problem: Problem,
                         delayed: bool = False) -> set[Decision]:
    """Decisions available at ``state``.

    Standard alphabet: STEP always, STAND only while j + 1 <= m - 1.
    Delayed alphabet: STEP and DELAYED_STEP, the latter unrestricted.
    """
    if state.i >= problem.n:
        raise ValueError(f"no decision at time {state.i} >= horizon {problem.n}")
    if delayed:
        return {Decision.DELAYED_STEP, Decision.STEP}
    out = {Decision.STEP}
    if state.j + 1 <= problem.m - 1:
        out.add(Decision.STAND)
    return out


#: unit lattice moves per dimension, in the order a drawn move index picks them
_MOVES = {1: (-1, 1), 2: ((1, 0), (-1, 0), (0, 1), (0, -1))}
#: the 2d moves of ``_MOVES`` as (d, 2d + 1) columns; the last is no move
_MOVE_COLUMNS = {d: np.hstack([np.array(moves).reshape(2 * d, d).T, np.zeros((d, 1), int)])
                 for d, moves in _MOVES.items()}

# decision codes of the step-by-step engine, indexed by ``_DECISIONS``
_STAND, _STEP, _DELAYED = 0, 1, 2
_DECISIONS = (Decision.STAND, Decision.STEP, Decision.DELAYED_STEP)
_KEY_LIMIT = 1 << 62
# one trial is one class: skipping np.unique there makes a step of
# ``run_trajectory`` about 3.5 times cheaper
_ONE_CLASS = (np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp))


def _add(w: Position, dw: Position, d: int) -> Position:
    if d == 1:
        return w + dw
    return (w[0] + dw[0], w[1] + dw[1])


def _position(col, d: int) -> Position:
    """Lattice position from the first d entries of a column (a list or an
    array), as ``Problem.origin`` spells it."""
    if d == 1:
        return int(col[0])
    return (int(col[0]), int(col[1]))


def _step(state: np.ndarray, dec: np.ndarray, rng: RandomSource, d: int, m: int) -> np.ndarray:
    """The state after one time step of every trial.

    ``state`` holds the d coordinates and the counter j as its first d + 1
    rows, one column per trial, and ``dec`` the (k,) decision codes.  STAND
    keeps the position and counts j up.  STEP moves to a uniformly random
    lattice neighbour.  DELAYED_STEP moves with probability 1/m.  Both reset
    j (the delayed mode has no consecutive-stand limit).  The delayed-step
    coins are drawn (``rng.random``), then the moves (``rng.integers``), for
    the trials that need them in trial order.  Admissibility is the caller's.
    """
    after = state.copy()
    after[d] = np.where(dec == _STAND, state[d] + 1, 0)
    move = dec == _STEP
    delayed = dec == _DELAYED
    coins = np.count_nonzero(delayed)
    if coins:
        move[delayed] = rng.random(coins) < 1.0 / m
    movers = np.count_nonzero(move)
    if movers:
        column = np.full(dec.size, 2 * d)
        column[move] = rng.integers(0, 2 * d, size=movers)
        after[:d] += _MOVE_COLUMNS[d].take(column, axis=1)
    return after


def advance(state: WalkState, decision: Decision, rng: RandomSource,
            problem: Problem) -> WalkState:
    """One transition of the controlled walk: ``_step`` for a single trial.

    A STAND that would push the counter past m - 1 raises
    AdmissibilityError.  The draws are those of the one-trial engine, so a
    loop of ``advance`` calls on one generator replays ``run_trajectory``.
    """
    if decision is Decision.STAND and state.j + 1 > problem.m - 1:
        raise AdmissibilityError(
            f"stand at time {state.i + 1} would push the stand-still counter to "
            f"{state.j + 1} > m-1 = {problem.m - 1}",
            time_step=state.i + 1)
    try:
        code = _DECISIONS.index(decision)
    except ValueError:
        raise ValueError(f"unknown decision {decision!r}") from None
    d = problem.d
    w = (state.w,) if d == 1 else state.w
    after = _step(np.array([*w, state.j], dtype=np.int64)[:, None], np.array([code]),
                  rng, d, problem.m)
    return WalkState(state.i + 1, _position(after[:, 0], d), int(after[d, 0]))


def _classes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) over the distinct columns of an integer (r, k) array:
    the lowest trial of each distinct column, and each trial's class.

    Each row is shifted to start at 0 and packed into one int64 key by its
    span; when the next span would overflow the key, the key is first
    renumbered densely, so any values work.
    """
    if rows.shape[1] == 1:
        return _ONE_CLASS
    lo = rows.min(axis=1)
    spans = (rows.max(axis=1) - lo + 1).tolist()
    key = np.zeros(rows.shape[1], dtype=np.int64)
    size = 1
    for row, low, span in zip(rows, lo, spans):
        if size * span >= _KEY_LIMIT:
            _, key = np.unique(key, return_inverse=True)
            size = int(key.max()) + 1
        key = key * span + (row - low)
        size *= span
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse


def _lockstep(strategy: "Strategy", problem: Problem, k: int, rng: RandomSource):
    """Run k trials of ``strategy`` from the origin in lockstep.

    Yields (decisions, before, after) for each time step 1..n: the (k,)
    decision codes (indices into ``_DECISIONS``) and the (d, k) positions
    before and after the step.  The state of a trial is its position, its
    counter j and its phase; phases are interned, so they must be hashable
    (``SignatureError`` otherwise).  ``decide`` is called once per distinct
    (position, j, phase) and ``next_phase`` once per distinct (phase, new
    position, new j), so both must be functions of their arguments.  Each
    step is ``_step``; at k = 1 its draws are those of a scalar
    step-by-step loop: the coin, then the move.

    A trial that stands with j = m - 1 is inadmissible.  The trials from it
    on are dropped, so the yielded arrays narrow, and the others run on, as
    one of them may violate later; at the end AdmissibilityError names the
    lowest offending trial and its time step.
    """
    d, m = problem.d, problem.m
    phases: list = []
    ids: dict = {}

    def intern(phase) -> int:
        try:
            pid = ids.setdefault(phase, len(ids))
        except TypeError:
            raise SignatureError(
                f"strategy {strategy.name!r} has the unhashable phase {phase!r}; "
                "the step-by-step engine needs hashable phases") from None
        if pid == len(phases):
            phases.append(phase)
        return pid

    # rows: the d coordinates, the counter j, the phase id
    state = np.zeros((d + 2, k), dtype=np.int64)
    state[d + 1] = intern(strategy.start_phase(problem))
    violation = None
    for i in range(problem.n):
        first, inverse = _classes(state)
        codes = []              # decision code per class
        offending = []
        for col in state.take(first, axis=1).T.tolist():
            dec = strategy.decide(_position(col, d), col[d], i, phases[col[d + 1]])
            try:
                code = _DECISIONS.index(dec)
            except ValueError:
                raise ValueError(f"unknown decision {dec!r}") from None
            if code == _STAND and col[d] >= m - 1:
                offending.append(len(codes))
            codes.append(code)
        if offending:
            c = int(first[offending].min())
            violation = (c, i + 1, int(state[d, c]) + 1)
            if c == 0:
                break
            state, inverse = state[:, :c], inverse[:c]
        dec = np.array(codes).take(inverse)
        after = _step(state, dec, rng, d, m)
        first, inverse = _classes(after)
        pids = [intern(strategy.next_phase(phases[col[d + 1]], i + 1,
                                           _position(col, d), col[d]))
                for col in after.take(first, axis=1).T.tolist()]
        after[d + 1] = np.array(pids).take(inverse)
        yield dec, state[:d], after[:d]
        state = after
    if violation is not None:
        trial, t, count = violation
        raise AdmissibilityError(
            f"strategy {strategy.name!r} emitted an inadmissible stand at time {t} "
            f"(counter would reach {count} > {m - 1})",
            time_step=t, trial_index=trial)


def run_trajectory(strategy: "Strategy", problem: Problem,
                   seed: int | RandomSource) -> tuple[Trajectory, bool]:
    """Run one full trajectory under ``strategy``; success means w_n = origin.

    Deterministic function of (strategy, problem, seed): the one-trial case
    of the lockstep engine.  A strategy that emits an inadmissible decision
    aborts with AdmissibilityError naming the time step.
    """
    rng = seed if isinstance(seed, np.random.Generator) else trial_generator(seed, 0)
    positions = [problem.origin]
    decisions = []
    for dec, _, after in _lockstep(strategy, problem, 1, rng):
        positions.append(_position(after[:, 0], problem.d))
        decisions.append(_DECISIONS[dec[0]])
    return Trajectory(positions, decisions), is_origin(positions[-1])


def reconstruct_counters(decisions: list[Decision]) -> list[int]:
    """Counter sequence J_1..J_n implied by the decisions alone."""
    out = []
    j = 0
    for d in decisions:
        j = j + 1 if d is Decision.STAND else 0
        out.append(j)
    return out


def _validate_steps(steps, problem: Problem) -> None:
    """Check the structural invariants of a batch of trials, step by step.

    ``steps`` yields (decisions, before, after) as ``_lockstep`` does.
    Raises ValueError at the first time step that breaks an invariant, for
    the lowest trial that breaks one there (named when the batch holds more
    than one): a start away from the origin, a stand that moves, a step that
    is not a unit lattice move, a delayed step that moves by more than one,
    or a counter, rebuilt from the decisions alone, past m - 1.
    """
    for t, (dec, before, after) in enumerate(steps, start=1):
        k = dec.size
        checks = []
        if t == 1:
            j = np.zeros(k, dtype=np.int64)
            checks.append((before.any(axis=0), "trajectory must start at the origin"))
        dist = np.abs(after - before).sum(axis=0)
        j = np.where(dec == _STAND, j[:k] + 1, 0)
        checks += [
            ((dec == _STAND) & (dist != 0), f"stand at time {t} changed the position"),
            ((dec == _STEP) & (dist != 1),
             f"step at time {t} is not a unit lattice move"),
            ((dec == _DELAYED) & (dist > 1),
             f"delayed step at time {t} made an illegal move"),
            (j > problem.m - 1,
             f"stand-still counter passed m-1 = {problem.m - 1} at time {t}"),
        ]
        bad = np.array([mask for mask, _ in checks])
        hits = np.flatnonzero(bad.any(axis=0))
        if hits.size:
            c = int(hits[0])
            message = checks[int(bad[:, c].argmax())][1]
            where = f" in trial {c}" if k > 1 else ""
            moved = (_position(before[:, c], problem.d), _position(after[:, c], problem.d))
            raise ValueError(f"{message}{where}: {moved[0]} -> {moved[1]}")


def validate_trajectory(traj: Trajectory, problem: Problem) -> None:
    """Assert the structural invariants of a recorded trajectory.

    Raises ValueError on the first violation: a length other than the
    horizon, wrong start, an illegal move (stand must freeze, step must move
    to a lattice neighbor), or a counter excursion past m - 1.  The checks
    are those of a batch of one trial.
    """
    if len(traj.positions) != len(traj.decisions) + 1:
        raise ValueError("positions/decisions length mismatch")
    if len(traj.decisions) != problem.n:
        raise ValueError(f"trajectory has {len(traj.decisions)} steps, "
                         f"the horizon is {problem.n}")
    pos = np.array(traj.positions, dtype=np.int64).reshape(len(traj.positions), -1)
    if pos.shape[1] != problem.d:
        raise ValueError(f"positions are not {problem.d}-dimensional")
    codes = [np.array([_DECISIONS.index(dec)]) for dec in traj.decisions]
    _validate_steps(((codes[t], pos[t, :, None], pos[t + 1, :, None])
                     for t in range(len(codes))), problem)
