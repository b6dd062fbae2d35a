"""Decision rules for the controlled walk.

Every strategy declares a state signature describing what its decisions may
depend on:

* ``"wj"``    - position and stand-still counter only (Markov),
* ``"wji"``   - additionally the clock (time-inhomogeneous Markov),
* ``"wjip"``  - additionally a finite phase variable (extended Markov),
* ``"history"`` - anything (phase carries the strategy's private state).

The phase evolves through ``next_phase`` after every transition; the
built-in strategies read the new position only through whether it is the
origin.  They also compile to a segment plan (``plan``), which the fast
Monte Carlo samplers and the exact evaluation engine run instead of calling
``decide`` at every step.  ``decide`` and ``next_phase`` stay the
reference: the generic sampler and the scalar exact engine use them, and
never the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from .schedule import Schedule
from .walk import Decision, Problem, is_origin

SEEK = "seek"
HOLD = "hold"
FAILED = "failed"

LAZY = "lazy"
SPRINT = "sprint"


@dataclass(frozen=True)
class Walk:
    """``length`` time steps that all step."""

    length: int


@dataclass(frozen=True)
class Crawl:
    """``length`` time steps of the lazy pattern from counter 0: a step at
    every m-th time, or a delayed step at every time in delayed mode."""

    length: int


@dataclass(frozen=True)
class SeekHold:
    """Step every time until the origin is hit strictly after the segment
    starts, then crawl until ``t_end``.  A trial whose seek misses steps at
    every time for the rest of the horizon."""

    t_end: int


@dataclass(frozen=True)
class Plan:
    """A strategy's trajectory as consecutive segments from time 0 to n.

    ``delayed`` turns every crawl into delayed steps; with ``schedule`` set,
    the SeekHold segments are the schedule's stages and get stage tallies.
    """

    segments: tuple
    delayed: bool = False
    schedule: Optional[Schedule] = None


class Strategy:
    """Base decision rule; subclasses implement decide and the phase hooks."""

    name: str = "strategy"
    signature: str = "wj"

    def start_phase(self, problem: Problem) -> Any:
        return None

    def decide(self, w, j: int, i: int, phase: Any) -> Decision:
        raise NotImplementedError

    def next_phase(self, phase: Any, i_next: int, w_next, j_next: int) -> Any:
        return phase

    def plan(self, problem: Problem) -> Optional[Plan]:
        """Segment plan that the staged sampler and the exact plan engine run,
        or None (generic sampler and scalar exact engine only)."""
        return None

    def spec_dict(self) -> dict:
        return {"name": self.name}

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r} sig={self.signature}>"


class AlwaysStep(Strategy):
    """Pure SSRW: take a step at every time."""

    name = "always_step"
    signature = "wj"

    def decide(self, w, j, i, phase):
        return Decision.STEP

    def plan(self, problem):
        return Plan((Walk(problem.n),))


class LazyMax(Strategy):
    """Stand whenever allowed; one forced SSRW step every m-th time step."""

    name = "lazy_max"
    signature = "wj"

    def __init__(self, problem: Problem):
        self.m = problem.m

    def decide(self, w, j, i, phase):
        return Decision.STAND if j + 1 <= self.m - 1 else Decision.STEP

    def plan(self, problem):
        return Plan((Crawl(problem.n),))


class LazyThenSprint(Strategy):
    """Minimize steps until time n - m, then step until the origin is hit,
    then stand for the rest of the horizon.

    The sprint counts only hits strictly after n - m; the terminal stand
    block has length at most m - 1, so it never violates the stand budget
    (a forced step guard remains for malformed inputs).
    """

    name = "lazy_then_sprint"
    signature = "wjip"

    def __init__(self, problem: Problem):
        self.n = problem.n
        self.m = problem.m
        self.switch = problem.n - problem.m

    def start_phase(self, problem):
        return LAZY if self.switch >= 1 else SPRINT

    def decide(self, w, j, i, phase):
        if phase == SPRINT:
            return Decision.STEP
        return Decision.STAND if j + 1 <= self.m - 1 else Decision.STEP

    def next_phase(self, phase, i_next, w_next, j_next):
        if phase == LAZY:
            return SPRINT if i_next >= self.switch else LAZY
        if phase == SPRINT:
            return HOLD if is_origin(w_next) else SPRINT
        return HOLD

    def plan(self, problem):
        lazy = (Crawl(self.switch),) if self.switch >= 1 else ()
        return Plan(lazy + (SeekHold(self.n),))


class Windowed(Strategy):
    """Staged strategy over a checkpoint schedule, d = 1 or 2.

    Within stage k (checkpoint times (t_{k-1}, t_k]): step every time until
    the origin is first hit strictly after t_{k-1} (seek), then stand as
    long as allowed between forced steps (hold), the last stand block
    truncated at t_k.  A stage whose seek never reaches the origin marks the
    run failed and the walk steps for the whole remaining horizon.  In the
    final stage the hold is a pure stand until the horizon; its length is at
    most m - 1 by construction of the schedule.

    Phase values: (k, "seek"), (k, "hold") for k = 1..u+1, and "failed".
    """

    signature = "wjip"

    def __init__(self, schedule: Schedule, problem: Problem):
        if schedule.n != problem.n or schedule.m != problem.m or schedule.d != problem.d:
            raise ValueError(
                f"schedule (d={schedule.d}, n={schedule.n}, m={schedule.m}) does not match "
                f"problem (d={problem.d}, n={problem.n}, m={problem.m})")
        self.schedule = schedule
        self.m = problem.m
        self.name = f"windowed_{schedule.d}d"

    def start_phase(self, problem):
        return (1, SEEK)

    def decide(self, w, j, i, phase):
        if phase == FAILED:
            return Decision.STEP
        _, mode = phase
        if mode == SEEK:
            return Decision.STEP
        return Decision.STAND if j + 1 <= self.m - 1 else Decision.STEP

    def next_phase(self, phase, i_next, w_next, j_next):
        if phase == FAILED:
            return FAILED
        k, mode = phase
        stage_ends = i_next == self.schedule.times[k]
        if mode == SEEK and not is_origin(w_next):
            return FAILED if stage_ends else (k, SEEK)
        if stage_ends and k < self.schedule.u + 1:
            return (k + 1, SEEK)
        return (k, HOLD)

    def plan(self, problem):
        return Plan(tuple(SeekHold(t) for t in self.schedule.times[1:]),
                    schedule=self.schedule)

    def spec_dict(self):
        out = {"name": self.name}
        for key in ("eta", "epsilon", "theta", "kappa"):
            val = getattr(self.schedule, key)
            if val is not None:
                out[key] = val
        return out


class DelayedWrapper(Strategy):
    """Replace every STAND of an inner strategy with a DELAYED_STEP.

    The delayed step stands with probability 1 - 1/m and steps with
    probability 1/m, with no consecutive-use limit; the inner strategy then
    sees a counter that is always 0.
    """

    def __init__(self, inner: Strategy, problem: Problem):
        self.inner = inner
        self.name = inner.name + "+delayed"
        self.signature = inner.signature

    def start_phase(self, problem):
        return self.inner.start_phase(problem)

    def decide(self, w, j, i, phase):
        d = self.inner.decide(w, j, i, phase)
        return Decision.DELAYED_STEP if d is Decision.STAND else d

    def next_phase(self, phase, i_next, w_next, j_next):
        return self.inner.next_phase(phase, i_next, w_next, j_next)

    def plan(self, problem):
        inner = self.inner.plan(problem)
        return None if inner is None else replace(inner, delayed=True)

    def spec_dict(self):
        out = self.inner.spec_dict()
        out["delayed"] = True
        return out


def always_step() -> Strategy:
    return AlwaysStep()


def lazy_max(problem: Problem) -> Strategy:
    return LazyMax(problem)


def lazy_then_sprint(problem: Problem) -> Strategy:
    return LazyThenSprint(problem)


def windowed_1d(schedule: Schedule, problem: Problem) -> Strategy:
    if schedule.d != 1:
        raise ValueError("windowed_1d needs a one-dimensional schedule")
    return Windowed(schedule, problem)


def windowed_2d(schedule: Schedule, problem: Problem) -> Strategy:
    if schedule.d != 2:
        raise ValueError("windowed_2d needs a two-dimensional schedule")
    return Windowed(schedule, problem)


def delayed_wrapper(inner: Strategy, problem: Problem) -> Strategy:
    return DelayedWrapper(inner, problem)


STRATEGY_NAMES = ("always_step", "lazy_max", "lazy_then_sprint",
                  "windowed_1d", "windowed_2d")


def strategy_from_spec(spec: dict, problem: Problem,
                       schedule: Schedule | None = None) -> Strategy:
    """Build a strategy from a name-plus-parameters mapping.

    Recognized keys: ``name`` (required), ``delayed`` (bool), and for the
    windowed strategies either a prebuilt ``schedule`` argument or the
    schedule parameters ``eta`` (1d) / ``epsilon``, ``theta``, ``kappa`` (2d).
    """
    from .schedule import ScheduleParams1D, ScheduleParams2D, build_schedule_1d, build_schedule_2d

    name = spec.get("name")
    if name == "always_step":
        strat = always_step()
    elif name == "lazy_max":
        strat = lazy_max(problem)
    elif name == "lazy_then_sprint":
        strat = lazy_then_sprint(problem)
    elif name == "windowed_1d":
        if schedule is None:
            schedule = build_schedule_1d(ScheduleParams1D(
                n=problem.n, m=problem.m, eta=spec.get("eta", 0.5)))
        strat = windowed_1d(schedule, problem)
    elif name == "windowed_2d":
        if schedule is None:
            schedule = build_schedule_2d(ScheduleParams2D(
                n=problem.n, m=problem.m, epsilon=spec.get("epsilon", 0.5),
                theta=spec.get("theta"), kappa=spec.get("kappa")))
        strat = windowed_2d(schedule, problem)
    else:
        raise ValueError(f"unknown strategy {name!r}; choose from {STRATEGY_NAMES}")
    if spec.get("delayed"):
        strat = delayed_wrapper(strat, problem)
    return strat
