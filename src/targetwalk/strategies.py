"""Decision rules for the controlled walk.

Every strategy declares a state signature describing what its decisions may
depend on:

* ``"wj"``    - position and stand-still counter only (Markov),
* ``"wji"``   - additionally the clock (time-inhomogeneous Markov),
* ``"wjip"``  - additionally a finite phase variable (extended Markov),
* ``"history"`` - anything (phase carries the strategy's private state).

The phase evolves through ``next_phase`` after every transition; the
built-in strategies read the new position only through whether it is the
origin.  Every built-in one but ``always_step`` is a ``Staged`` rule: crawl
while it may, then in each stage seek the origin and hold near it until the
stage time.  They also compile to a ``Plan`` of numbers (walk length, crawl
length, stage times), which the fast Monte Carlo sampler and the exact
evaluation engine run instead of calling ``decide`` at every step.
``decide`` and ``next_phase`` stay the reference: the generic sampler and
the scalar exact engine use them, and never the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from .schedule import (Schedule, ScheduleParams1D, ScheduleParams2D, build_schedule_1d,
                       build_schedule_2d)
from .walk import Decision, Problem, is_origin

SEEK = "seek"
HOLD = "hold"
FAILED = "failed"


@dataclass(frozen=True)
class Plan:
    """A strategy's trajectory from time 0 to n as numbers.

    ``walk`` steps at every time, then a crawl of ``crawl`` times takes the
    lazy pattern from counter 0 (a step at every m-th time, or a delayed
    step at every time in delayed mode).  Each stage ends at the next of
    ``times``: it steps at every time until the origin is hit strictly after
    the stage starts, then crawls to the stage end.  A trial whose seek
    misses steps at every time for the rest of the horizon.  With
    ``schedule`` set the stages are the schedule's and get stage tallies.
    """

    walk: int = 0
    crawl: int = 0
    times: tuple = ()
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
        """Plan that the staged sampler and the exact plan engine run,
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
        return Plan(walk=problem.n)


class Staged(Strategy):
    """Crawl, then seek the origin and hold near it until each stage time.

    The lazy pattern (stand as long as allowed between forced steps) runs
    for the first ``crawl`` times.  Stage k then ends at ``times[k - 1]``:
    it steps every time until the origin is first hit strictly after the
    stage starts (seek), then takes the lazy pattern (hold), the last stand
    block truncated at the stage end.  A stage whose seek never reaches the
    origin marks the run failed and the walk steps for the whole remaining
    horizon.  The stage times rise strictly to n; without stages the crawl
    runs to n.

    Phase values: None while crawling, (k, "seek") and (k, "hold") for
    k = 1..len(times), and "failed".
    """

    def __init__(self, name: str, problem: Problem, crawl: int, times: tuple,
                 schedule: Optional[Schedule] = None):
        if schedule is not None and (schedule.d, schedule.n, schedule.m) != (
                problem.d, problem.n, problem.m):
            raise ValueError(
                f"schedule (d={schedule.d}, n={schedule.n}, m={schedule.m}) does not match "
                f"problem (d={problem.d}, n={problem.n}, m={problem.m})")
        ends = (crawl, *times)
        if crawl < 0 or ends[-1] != problem.n or any(a >= b for a, b in zip(ends, ends[1:])):
            raise ValueError(f"a crawl of {crawl} and stage times {times} must rise "
                             f"strictly to n={problem.n}")
        self.name = name
        self.m = problem.m
        self.crawl = crawl
        self.times = tuple(times)
        self.schedule = schedule
        self.signature = "wjip" if self.times else "wj"

    def start_phase(self, problem):
        return (1, SEEK) if self.times and self.crawl == 0 else None

    def decide(self, w, j, i, phase):
        if phase == FAILED or (phase is not None and phase[1] == SEEK):
            return Decision.STEP
        return Decision.STAND if j + 1 <= self.m - 1 else Decision.STEP

    def next_phase(self, phase, i_next, w_next, j_next):
        if phase is None:
            return (1, SEEK) if self.times and i_next == self.crawl else None
        if phase == FAILED:
            return FAILED
        k, mode = phase
        stage_ends = i_next == self.times[k - 1]
        if mode == SEEK and not is_origin(w_next):
            return FAILED if stage_ends else (k, SEEK)
        if stage_ends and k < len(self.times):
            return (k + 1, SEEK)
        return (k, HOLD)

    def plan(self, problem):
        return Plan(crawl=self.crawl, times=self.times, schedule=self.schedule)

    def spec_dict(self):
        out = {"name": self.name}
        for key in ("eta", "epsilon", "theta", "kappa"):
            val = getattr(self.schedule, key, None)
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
    """Stand whenever allowed; one forced step every m-th time."""
    return Staged("lazy_max", problem, problem.n, ())


def lazy_then_sprint(problem: Problem) -> Strategy:
    """Crawl until time n - m, then step until the origin is hit strictly
    after it, then hold for the rest of the horizon: one stage, whose final
    stand block is at most m - 1 long."""
    return Staged("lazy_then_sprint", problem, max(problem.n - problem.m, 0),
                  (problem.n,))


def _windowed(schedule: Schedule, problem: Problem, d: int) -> Strategy:
    if schedule.d != d:
        raise ValueError(f"windowed_{d}d needs a {('one', 'two')[d - 1]}-dimensional "
                         "schedule")
    return Staged(f"windowed_{d}d", problem, 0, schedule.times[1:], schedule)


def windowed_1d(schedule: Schedule, problem: Problem) -> Strategy:
    """Staged strategy over the stages of a d = 1 checkpoint schedule."""
    return _windowed(schedule, problem, 1)


def windowed_2d(schedule: Schedule, problem: Problem) -> Strategy:
    """Staged strategy over the stages of a d = 2 checkpoint schedule."""
    return _windowed(schedule, problem, 2)


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
    A strategy ignores the keys it does not read; a schedule given to any
    other strategy raises ValueError.
    """
    name = spec.get("name")
    if schedule is not None and name in ("always_step", "lazy_max", "lazy_then_sprint"):
        raise ValueError(f"strategy {name!r} takes no schedule")
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
