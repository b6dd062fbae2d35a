"""Law-exact chunk samplers behind the Monte Carlo engine.

Naive step-by-step simulation costs one draw per time step, which is
hopeless at horizons of 10^6.  Every built-in strategy compiles to a short
segment plan (``Strategy.plan``) whose pieces have exactly known laws:

* a crawl of length L takes L // m fair steps, or Binomial(L, 1/m) of them
  in delayed mode, so its displacement is one walk endpoint;
* a seek steps every time until the origin is hit.  Positions are kept in
  diagonal coordinates (x + y, x - y), in which a planar walk is two
  independent +/-1 walks.  From max |coordinate| = M >= 2 the origin cannot
  be reached within M - 1 steps, so those steps are drawn as one endpoint
  (a walk-on-spheres jump, Muller 1956) and only unit moves can hit;
* after a missed seek the trial steps at every time, so each later
  checkpoint increment is again a walk endpoint.

``StagedSampler`` runs a plan for all trials of a chunk in lockstep on
numpy arrays, drawing from one counter-based stream keyed by (master seed,
chunk index); chunks hold a fixed ``_CHUNK`` trials, so results do not
depend on the thread count.  ``GenericSampler`` runs any strategy one step
at a time, calling ``decide`` and ``next_phase`` and never reading the plan,
and is the reference the staged sampler is tested against.  It too runs a
chunk in lockstep, on the step-by-step engine of ``walk``, from a stream
keyed by (master seed, chunk index) with a tag of its own.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng as _rng
from .errors import AdmissibilityError
from .schedule import Schedule
from .strategies import Crawl, Plan, SeekHold, Strategy
from .walk import Problem, _lockstep, _position

_CHUNK = 4096

_log = logging.getLogger(__name__)


@dataclass
class ChunkCounts:
    """Deterministic integer aggregates for one block of trials."""

    successes: int = 0
    n_trials: int = 0
    stage_counters: Optional[dict[str, np.ndarray]] = None
    failure_samples: Optional[list] = None


_STAGE_KEYS = ("cond", "cond_stay", "cond_nohit", "cond_overshoot",
               "cond_failed_prior", "alive", "hit", "overshoot")


def _new_stage_counters(u: int) -> dict[str, np.ndarray]:
    return {key: np.zeros(u + 2, dtype=np.int64) for key in _STAGE_KEYS}


def _tally_stage(counters: dict[str, np.ndarray], k: int, schedule: Schedule,
                 pos: np.ndarray, alive: np.ndarray, hit: np.ndarray,
                 was_in: np.ndarray) -> np.ndarray:
    """Add stage k's checkpoint events; returns the in-window mask at t_k."""
    # max(|x|, |y|) = (|x + y| + |x - y|) / 2, so the d-dim window test is
    # sum |diagonal coordinate| <= d * h in both dimensions
    inside = np.abs(pos).sum(axis=0) <= pos.shape[0] * schedule.half_widths[k]
    held = alive & hit
    for key, mask in (("cond", was_in), ("cond_stay", was_in & inside),
                      ("cond_failed_prior", was_in & ~alive),
                      ("cond_nohit", was_in & alive & ~hit),
                      ("cond_overshoot", was_in & held & ~inside),
                      ("alive", alive), ("hit", held),
                      ("overshoot", held & ~inside)):
        counters[key][k] += np.count_nonzero(mask)
    return inside


def _endpoints(g: np.random.Generator, steps: np.ndarray, d: int) -> np.ndarray:
    """(d, k) diagonal displacements of fair walks of ``steps`` (k,) steps."""
    return 2 * g.binomial(steps, 0.5, size=(d, steps.size)) - steps


# Diagonal position of a finished walker: never the origin, and at t = t_end
# it takes 0 steps, which draw nothing from the stream.
_PARKED = 1 << 40


def _seek(g: np.random.Generator, pos: np.ndarray, t0: int,
          t_end: int) -> tuple[np.ndarray, np.ndarray]:
    """Step (d, k) diagonal positions from t0 until each hits 0 or t_end.

    Returns the end positions and the hit times (-1 where none).  Each round
    moves every walker still seeking by min(max(M - 1, 1), t_end - t) steps
    at once, M being its largest |coordinate|; only a unit move can land on
    the origin, so the hit times have the exact step-by-step law.  Finished
    walkers are parked and dropped once they fill half the working arrays,
    so the arrays take few distinct sizes.
    """
    end = pos.copy()
    tau = np.full(pos.shape[1], -1, dtype=np.int64)
    idx = np.arange(pos.shape[1])
    p = pos.copy()
    t = np.full(idx.size, t0, dtype=np.int64)
    live = idx.size
    while live:
        jump = np.minimum(np.maximum(np.abs(p).max(axis=0) - 1, 1), t_end - t)
        p += _endpoints(g, jump, p.shape[0])
        t += jump
        hit = ~p.any(axis=0)
        done = hit | ((t == t_end) & (jump > 0))
        finished = np.count_nonzero(done)
        if finished:
            end[:, idx[done]] = p[:, done]
            tau[idx[hit]] = t[hit]
            p[:, done] = _PARKED
            t[done] = t_end
            live -= finished
            if 2 * live <= idx.size:
                keep = t < t_end
                idx, p, t = idx[keep], p[:, keep], t[keep]
    return end, tau


def _lattice(col: np.ndarray):
    """Lattice position of one diagonal-coordinate column."""
    if col.size == 1:
        return int(col[0])
    a, b = int(col[0]), int(col[1])
    return ((a + b) // 2, (a - b) // 2)


class Sampler:
    """Base chunk runner; subclasses fill run_chunk."""

    name = "sampler"
    collects_stages = False

    def run_chunk(self, master_seed: int, lo: int, hi: int,
                  keep_failures: int = 0) -> ChunkCounts:
        raise NotImplementedError


class StagedSampler(Sampler):
    """All trials of a chunk run a segment plan in lockstep.

    Chunk state is a (d, trials) array of diagonal coordinates plus one
    mask of trials whose seek missed.  ``lo`` must be a multiple of
    ``_CHUNK``: the chunk's stream is keyed by (master seed, lo // _CHUNK).
    """

    name = "staged"

    def __init__(self, problem: Problem, plan: Plan):
        self.problem = problem
        self.plan = plan
        self.collects_stages = plan.schedule is not None

    def _crawl_steps(self, g: np.random.Generator, lengths: np.ndarray) -> np.ndarray:
        if self.plan.delayed:
            return g.binomial(lengths, 1.0 / self.problem.m)
        return lengths // self.problem.m

    def run_chunk(self, master_seed, lo, hi, keep_failures=0):
        g = _rng.chunk_generator(master_seed, lo // _CHUNK)
        k = hi - lo
        d = self.problem.d
        sched = self.plan.schedule
        pos = np.zeros((d, k), dtype=np.int64)
        walking = np.zeros(k, dtype=bool)      # missed a seek: steps every time
        counters = _new_stage_counters(sched.u) if sched is not None else None
        was_in = np.ones(k, dtype=bool)        # W_0 is the origin, inside window 0
        t = 0
        for stage, seg in enumerate(self.plan.segments, start=1):
            if not isinstance(seg, SeekHold):
                steps = np.full(k, seg.length, dtype=np.int64)
                if isinstance(seg, Crawl):
                    steps = self._crawl_steps(g, steps)
                pos += _endpoints(g, steps, d)
                t += seg.length
                continue
            free = np.nonzero(walking)[0]
            pos[:, free] += _endpoints(g, np.full(free.size, seg.t_end - t), d)
            alive = ~walking
            seekers = np.nonzero(alive)[0]
            end, tau = _seek(g, pos[:, seekers], t, seg.t_end)
            got = tau >= 0
            end[:, got] = _endpoints(g, self._crawl_steps(g, seg.t_end - tau[got]), d)
            pos[:, seekers] = end
            hit = np.zeros(k, dtype=bool)
            hit[seekers] = got
            walking |= alive & ~hit
            t = seg.t_end
            if counters is not None:
                was_in = _tally_stage(counters, stage, sched, pos, alive, hit, was_in)
        ok = ~pos.any(axis=0)
        out = ChunkCounts(successes=int(np.count_nonzero(ok)), n_trials=k,
                          stage_counters=counters)
        if keep_failures:
            out.failure_samples = [(lo + int(i), _lattice(pos[:, i]))
                                   for i in np.nonzero(~ok)[0][:keep_failures]]
        return out


class GenericSampler(Sampler):
    """Reference path: run any strategy one step at a time, all trials of a
    chunk in lockstep (``walk._lockstep``) on one stream keyed by (master
    seed, lo // _CHUNK), which the staged sampler's keys never equal."""

    name = "generic"

    def __init__(self, problem: Problem, strategy: Strategy):
        self.problem = problem
        self.strategy = strategy

    def run_chunk(self, master_seed, lo, hi, keep_failures=0):
        g = _rng.step_chunk_generator(master_seed, lo // _CHUNK)
        try:
            for _, _, pos in _lockstep(self.strategy, self.problem, hi - lo, g):
                pass
        except AdmissibilityError as exc:
            exc.trial_index += lo
            raise
        ok = ~pos.any(axis=0)
        out = ChunkCounts(successes=int(np.count_nonzero(ok)), n_trials=hi - lo)
        if keep_failures:
            d = self.problem.d
            out.failure_samples = [(lo + int(i), _position(pos[:, i], d))
                                   for i in np.flatnonzero(~ok)[:keep_failures]]
        return out


def make_sampler(strategy: Strategy, problem: Problem,
                 force_generic: bool = False) -> Sampler:
    """The staged sampler of the strategy's plan; the generic one if it has
    no plan or ``force_generic`` is set."""
    plan = strategy.plan(problem)
    if plan is None or force_generic:
        if plan is not None:
            _log.warning("%s runs step by step on the generic sampler, orders of "
                         "magnitude slower than its fast path", strategy.name)
        return GenericSampler(problem, strategy)
    return StagedSampler(problem, plan)
