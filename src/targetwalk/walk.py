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
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

from .errors import AdmissibilityError
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


#: unit lattice moves per dimension, in the order ``_draw_move`` indexes them
_MOVES = {1: (-1, 1), 2: ((1, 0), (-1, 0), (0, 1), (0, -1))}


def _draw_move(rng: RandomSource, d: int) -> Position:
    moves = _MOVES[d]
    return moves[int(rng.integers(0, len(moves)))]


def _add(w: Position, dw: Position, d: int) -> Position:
    if d == 1:
        return w + dw
    return (w[0] + dw[0], w[1] + dw[1])


def advance(state: WalkState, decision: Decision, rng: RandomSource,
            problem: Problem) -> WalkState:
    """One transition of the controlled walk.

    STAND freezes the position and increments j.  STEP moves to a uniformly
    random lattice neighbor and resets j.  DELAYED_STEP stands with
    probability 1 - 1/m and steps with probability 1/m; either way j resets
    to 0 (the delayed mode has no consecutive-stand limit).
    """
    if decision is Decision.STAND:
        if state.j + 1 > problem.m - 1:
            raise AdmissibilityError(
                f"stand at time {state.i + 1} would push the stand-still counter to "
                f"{state.j + 1} > m-1 = {problem.m - 1}",
                time_step=state.i + 1)
        return WalkState(state.i + 1, state.w, state.j + 1)
    if decision is Decision.STEP:
        return WalkState(state.i + 1, _add(state.w, _draw_move(rng, problem.d), problem.d), 0)
    if decision is Decision.DELAYED_STEP:
        if rng.random() < 1.0 / problem.m:
            return WalkState(state.i + 1, _add(state.w, _draw_move(rng, problem.d), problem.d), 0)
        return WalkState(state.i + 1, state.w, 0)
    raise ValueError(f"unknown decision {decision!r}")


def run_trajectory(strategy: "Strategy", problem: Problem,
                   seed: int | RandomSource) -> tuple[Trajectory, bool]:
    """Run one full trajectory under ``strategy``; success means w_n = origin.

    Deterministic function of (strategy, problem, seed).  A strategy that
    emits an inadmissible decision aborts with AdmissibilityError naming the
    time step.
    """
    rng = seed if isinstance(seed, np.random.Generator) else trial_generator(seed, 0)
    state = initial_state(problem)
    phase = strategy.start_phase(problem)
    positions = [state.w]
    decisions = []
    for i in range(problem.n):
        decision = strategy.decide(state.w, state.j, i, phase)
        if decision is Decision.STAND and state.j + 1 > problem.m - 1:
            raise AdmissibilityError(
                f"strategy {strategy.name!r} emitted an inadmissible stand at time {i + 1} "
                f"(counter would reach {state.j + 1} > {problem.m - 1})",
                time_step=i + 1)
        state = advance(state, decision, rng, problem)
        phase = strategy.next_phase(phase, state.i, state.w, state.j)
        positions.append(state.w)
        decisions.append(decision)
    return Trajectory(positions, decisions), is_origin(state.w)


def reconstruct_counters(decisions: list[Decision]) -> list[int]:
    """Counter sequence J_1..J_n implied by the decisions alone."""
    out = []
    j = 0
    for d in decisions:
        j = j + 1 if d is Decision.STAND else 0
        out.append(j)
    return out


def validate_trajectory(traj: Trajectory, problem: Problem) -> None:
    """Assert the structural invariants of a recorded trajectory.

    Raises ValueError on the first violation: wrong start, an illegal move
    (stand must freeze, step must move to a lattice neighbor), or a counter
    excursion past m - 1.
    """
    if traj.positions[0] != problem.origin:
        raise ValueError(f"trajectory must start at the origin, got {traj.positions[0]}")
    if len(traj.positions) != len(traj.decisions) + 1:
        raise ValueError("positions/decisions length mismatch")
    for t, dec in enumerate(traj.decisions, start=1):
        prev, cur = traj.positions[t - 1], traj.positions[t]
        if dec is Decision.STAND and cur != prev:
            raise ValueError(f"stand at time {t} changed the position")
        if dec is Decision.STEP and not _is_unit_move(prev, cur, problem.d):
            raise ValueError(f"step at time {t} is not a unit lattice move: {prev} -> {cur}")
        if dec is Decision.DELAYED_STEP and cur != prev \
                and not _is_unit_move(prev, cur, problem.d):
            raise ValueError(f"delayed step at time {t} made an illegal move: {prev} -> {cur}")
    for t, j in enumerate(reconstruct_counters(traj.decisions), start=1):
        if j > problem.m - 1:
            raise ValueError(f"stand-still counter reached {j} > m-1 = {problem.m - 1} "
                             f"at time {t}")


def _is_unit_move(a: Position, b: Position, d: int) -> bool:
    if d == 1:
        return abs(b - a) == 1
    return abs(b[0] - a[0]) + abs(b[1] - a[1]) == 1
