"""Law-exact chunk samplers behind the Monte Carlo engine.

Naive step-by-step simulation costs one draw per time step, which is
hopeless at horizons of 10^6.  Every built-in strategy compiles to a plan
(``Strategy.plan``): a walk of fixed length, a crawl, then stages that each
seek the origin and crawl to a stage time.  Its pieces have exactly known
laws:

* a walk of length W and a crawl of length L take W + L // m fair steps,
  or W + Binomial(L, 1/m) of them in delayed mode, so their displacement is
  one walk endpoint.  Outside delayed mode every trial's lead has the same
  length, and its endpoint is read off one inverse-CDF table of that
  binomial law, built once per sampler (``_BinomialTable``); a delayed lead,
  whose length varies, and a lead over ``_TABLE_MAX_LENGTH`` steps take one
  numpy binomial draw per coordinate;
* a seek steps every time until the origin is hit.  Positions are kept in
  diagonal coordinates (x + y, x - y), in which a planar walk is two
  independent +/-1 walks.  Each coordinate's endpoint is one binomial draw,
  and given it the path is a uniform walk bridge.  Whether a bridge touches
  0 follows from the reflection principle (Feller, Vol. 1, ch. III), and its
  first zero is found by bisection, each midpoint one hypergeometric draw
  (Levy's midpoint construction), so a seek takes about log2 L draws per
  walker.  In d = 2 a hit needs both coordinates at 0 at once: each round
  finds one coordinate's first zero and reads the other off its bridge
  there.  Horizons are cut into blocks of at most 2^29 steps, the range of
  numpy's hypergeometric;
* a hit at s crawls the rest of its stage from the origin, one endpoint;
* after a missed seek the trial steps at every time, so each later
  stage increment is again a walk endpoint.

``StagedSampler`` runs a plan for all trials of a chunk in lockstep on
numpy arrays, drawing from one counter-based stream keyed by (master seed,
chunk index); chunks hold a fixed ``_CHUNK`` trials, so results do not
depend on the thread count.  A call runs any run of whole chunks, so that
the lead table inverts the draws of all of them at once.
``GenericSampler`` runs any strategy one step at a time, calling ``decide``
and ``next_phase`` and never reading the plan, and is the reference the
staged sampler is tested against.  It too runs a chunk in lockstep, on
the step-by-step engine of ``walk``, from a stream keyed by (master seed,
chunk index) with a tag of its own, and a run of chunks one after another.

Both return a run of chunks as its (d, trials) lattice end positions and
its stage counts, one row per ``STAGE_COUNTS`` name and one column per
stage (None without a schedule); ``mc.estimate_success`` hands them spans
of chunks and turns the results into the report.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import rng as _rng
from .errors import AdmissibilityError
from .exact import _binomial_pmf
from .schedule import Schedule
from .strategies import Plan, Strategy
from .walk import Problem, _lockstep

_CHUNK = 4096


# the rows of a chunk's stage counts, keyed as in the report's stage rows
STAGE_COUNTS = ("cond_events", "stay_events", "no_hit_events", "overshoot_events",
                "failed_prior_events", "alive_trials", "hit_trials", "overshoot_trials")


def _tally_stage(counts: np.ndarray, k: int, schedule: Schedule, pos: np.ndarray,
                 alive: np.ndarray, hit: np.ndarray, was_in: np.ndarray) -> np.ndarray:
    """Add stage k's checkpoint events; returns the in-window mask at t_k."""
    # max(|x|, |y|) = (|x + y| + |x - y|) / 2, so the d-dim window test is
    # sum |diagonal coordinate| <= d * h in both dimensions
    inside = np.abs(pos).sum(axis=0) <= pos.shape[0] * schedule.half_widths[k]
    held = alive & hit
    masks = (was_in, was_in & inside, was_in & alive & ~hit, was_in & held & ~inside,
             was_in & ~alive, alive, held, held & ~inside)
    counts[:, k] += np.count_nonzero(masks, axis=1)
    return inside


def _endpoints(g: np.random.Generator, steps: np.ndarray, d: int) -> np.ndarray:
    """(d, k) diagonal displacements of fair walks of ``steps`` (k,) steps."""
    return 2 * g.binomial(steps, 0.5, size=(d, steps.size)) - steps


# longer leads keep numpy's binomial: up to here a table draws an endpoint
# 2-12 times faster (17 against 38 ns at this length, with 157 k entries);
# beyond, its gain shrinks while its size and build time grow as sqrt(length)
_TABLE_MAX_LENGTH = 1 << 24


class _BinomialTable:
    """Endpoints 2 Binomial(length, 1/2) - length of fair walks of one
    length, by inversion of one table.

    Atom j is the value lo + j of ``exact._binomial_pmf(length, 0.5)``, the
    law the plan engine uses, and a uniform u in [0, 1) draws the least j
    with u < cdf[j]; the last cdf entry is +inf.  A guide table (Chen &
    Asau 1974; Devroye, Non-Uniform Random Variate Generation, 1986, III.2)
    cuts [0, 1) into ``buckets`` equal parts and holds the atom of every
    bucket that no cdf entry falls in, else -1; only uniforms in a bucket
    marked -1 are searched.  ``buckets`` is the power of two of at least
    max(4096, 64 sqrt(length)), so a few percent of the buckets are marked,
    and ``cdf`` is stored times ``buckets``, exactly, like the uniforms.
    """

    def __init__(self, length: int):
        lo, pmf = _binomial_pmf(length, 0.5)
        self.shift = 2 * lo - length
        self.buckets = max(1 << 12, 1 << (64 * math.isqrt(length) - 1).bit_length())
        self.cdf = np.cumsum(pmf)
        self.cdf[-1] = np.inf
        self.cdf *= self.buckets
        # first[b] = the least j with cdf[j] > b = the count of cdf[j] <= b
        edges = np.ceil(self.cdf[:-1]).astype(np.int64)
        first = np.cumsum(np.bincount(np.minimum(edges, self.buckets + 1),
                                      minlength=self.buckets + 2))[:-1]
        self.guide = np.where(first[:-1] == first[1:], first[:-1], -1).astype(np.int32)

    def index(self, u: np.ndarray) -> np.ndarray:
        """Atoms (int32) of uniforms u in [0, 1); scales u in place."""
        u *= self.buckets
        # intp indices: take would convert int32 ones into a temporary
        atoms = self.guide.take(u.astype(np.intp))
        flat = atoms.reshape(-1)
        hard = np.flatnonzero(flat < 0)
        flat[hard] = self.cdf.searchsorted(u.reshape(-1)[hard], side="right")
        return atoms

    def add_endpoints(self, u: np.ndarray, pos: np.ndarray) -> None:
        """Add the endpoints of uniforms u, of the shape of ``pos``, to
        ``pos``, in place; scales u in place."""
        atoms = self.index(u)
        atoms *= 2
        pos += atoms
        pos += self.shift


# numpy's hypergeometric needs ngood and nbad each below 10**9; in a block of
# at most 2**29 steps every bridge holds fewer up (and down) steps than that.
_BLOCK = 1 << 29

# the largest n and m the int64 arithmetic holds (``mc.McConfig`` says why)
MAX_STEPS = (np.iinfo(np.int64).max - _BLOCK) // 2

# lgamma(z) and the Stirling remainder r(z) = lgamma(z) - (z - 1/2) log z + z
# - log(2 pi) / 2 of the integers z < _SMALL (index 0 unused); above, r(z) is
# a two-term series with error below 1e-15
_SMALL = 256
_LGAMMA = np.array([0.0] + [math.lgamma(z) for z in range(1, _SMALL)])
_REM_TABLE = np.array([0.0] + [_LGAMMA[z] - (z - 0.5) * math.log(z) + z
                               - 0.5 * math.log(2 * math.pi) for z in range(1, _SMALL)])
_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


def _stirling_rem(z: np.ndarray) -> np.ndarray:
    """r(z) of integers z >= 1, elementwise."""
    s = 1.0 / z
    return np.where(z < _SMALL, _REM_TABLE.take(z, mode="clip"),
                    s * (1 / 12 - s * s / 360))


def _touch_prob(up: np.ndarray, down: np.ndarray, a: np.ndarray) -> np.ndarray:
    """P(a walk bridge from a > 0 with these up- and down-steps touches 0).

    Reflecting the path before its first zero pairs the touching bridges
    with the bridges from -a, which take a more up-steps, so the chance is
    C(up + down, up + a) / C(up + down, up), and exactly 0 where down < a.
    Its log is a signed sum of four lgamma values, read from a table when
    all are small and otherwise summed as Stirling terms whose large
    differences go through log1p; against exact ratios up to 3 * 10^6 steps
    the relative error stays below 1e-12.
    """
    z = np.maximum(np.stack((down, down - a, up, up + a)) + 1, 1)
    if z.max(initial=0) < _SMALL:
        log_p = _SIGNS @ _LGAMMA.take(z)
    else:
        pair = (z[1:3] - 0.5) * np.log1p(a / z[1:3])
        log_p = (pair[0] - pair[1] + a * np.log(z[0] / z[3])
                 + _SIGNS @ _stirling_rem(z))
    return np.where(down >= a, np.exp(np.minimum(log_p, 0.0)), 0.0)


def _first_zero(g: np.random.Generator, n: np.ndarray, a: np.ndarray,
                b: np.ndarray) -> np.ndarray:
    """First-zero offsets in [1, n] of n-step walk bridges from -a < 0 to b >= 0.

    Bisection: the midpoint of a bridge is one hypergeometric draw (its up
    steps among the first half), and the half that holds the first zero is
    kept.  A first half that ends at x >= 0 crosses; one that ends at x < 0
    touches 0 with ``_touch_prob``, and then its first zero is that of the
    crossing bridge -a -> |x| (reflect the path before it).  Only |a| and
    |b| matter, and a bridge of one step is a fixed point, so every walker
    takes the same ceil(log2 max n) levels.
    """
    off = np.ones_like(n)
    for _ in range(int(n.max(initial=1) - 1).bit_length()):
        h = n >> 1
        up = (n + a + b) >> 1
        k = g.hypergeometric(up, n - up, h)
        x = 2 * k - h - a
        cross = x >= 0
        q = np.flatnonzero(x < 0)
        cross[q] = g.random(q.size) < _touch_prob(h[q] - k[q], k[q], a[q])
        ax = np.abs(x)
        off += np.where(cross, 0, h)
        n = np.where(cross, h, n - h)
        a = np.where(cross, a, ax)
        b = np.where(cross, ax, b)
    return off


def _seek(g: np.random.Generator, pos: np.ndarray, t0: int,
          t_end: int) -> tuple[np.ndarray, np.ndarray]:
    """Step (d, k) diagonal positions from t0 until each hits 0 or t_end.

    Returns the end positions and the hit times (-1 where none), with the
    exact step-by-step law.  A walker at the origin first takes one step, as
    only hits after t0 count.  Each block of at most ``_BLOCK`` steps draws
    every coordinate's endpoint at the block's end, so that each coordinate
    is a uniform walk bridge.  A round seeks the first zero of one
    coordinate, at first the one of larger |.|: if its bridge does not touch
    0 (``_touch_prob``) the walker ends the block at its endpoints, else
    ``_first_zero`` finds the first zero s.  In d = 1 that is the hit.  In
    d = 2 the other coordinate is read off its bridge at s (one
    hypergeometric draw); if it reads 0 the walker hits at s, else both
    coordinates are again bridges, from 0 and from the value read, and the
    next round seeks the first zero of the latter.  A walker that misses a
    block starts the next one from its endpoints.
    """
    d, k = pos.shape
    end = np.zeros_like(pos)
    tau = np.full(k, -1, dtype=np.int64)
    home = np.flatnonzero(~pos.any(axis=0))
    c = pos.copy()
    c[:, home] = _endpoints(g, np.ones(home.size, dtype=np.int64), d)
    lo = np.full(k, t0, dtype=np.int64)
    lo[home] += 1
    who = np.arange(k)
    for start in range(t0, t_end, _BLOCK):
        if not who.size:
            break
        stop = min(start + _BLOCK, t_end)
        b = c + _endpoints(g, stop - lo, d)
        # row 0 is the coordinate sought; flip marks walkers whose rows are swapped
        flip = np.abs(c[-1]) > np.abs(c[0])
        c[:, flip], b[:, flip] = c[::-1, flip], b[::-1, flip]
        missed = []
        while who.size:
            n = stop - lo
            a, z = np.abs(c[0]), np.abs(b[0])
            touch = np.sign(c[0]) != np.sign(b[0])
            q = np.flatnonzero(~touch)
            up = (n[q] + z[q] - a[q]) >> 1
            touch[q] = g.random(q.size) < _touch_prob(up, n[q] - up, a[q])
            miss = ~touch
            end[:, who[miss]] = np.where(flip[miss], b[::-1, miss], b[:, miss])
            missed.append(who[miss])
            who, c, b, lo, n, flip = (who[touch], c[:, touch], b[:, touch], lo[touch],
                                      n[touch], flip[touch])
            s = lo + _first_zero(g, n, a[touch], z[touch])
            if d == 1:
                tau[who] = s
                end[:, who] = 0
                break
            up = (n + b[1] - c[1]) >> 1
            other = c[1] + 2 * g.hypergeometric(up, n - up, s - lo) - (s - lo)
            hit = other == 0
            tau[who[hit]] = s[hit]
            end[:, who[hit]] = 0
            keep = ~hit
            who, lo, flip = who[keep], s[keep], ~flip[keep]
            c = np.stack((other[keep], np.zeros(who.size, dtype=np.int64)))
            b = b[::-1, keep]
        who = np.concatenate(missed)
        c = end[:, who]
        lo = np.full(who.size, stop, dtype=np.int64)
    return end, tau


class Sampler:
    """Base chunk runner; subclasses fill run_chunk, which returns trials
    lo..hi - 1 as their (d, hi - lo) lattice end positions and their
    (STAGE_COUNTS, u + 2) stage counts, or None where ``schedule`` is None.
    The trials may span several chunks of ``_CHUNK``, each on its own
    stream, and give what the chunks give one by one, joined in order."""

    name = "sampler"
    schedule: Optional[Schedule] = None
    lead_table_entries = 0

    def run_chunk(self, master_seed: int, lo: int,
                  hi: int) -> tuple[np.ndarray, Optional[np.ndarray]]:
        raise NotImplementedError


class StagedSampler(Sampler):
    """All trials of a chunk run a plan in lockstep: one endpoint for the
    leading walk and crawl, then a seek and a crawl per stage time.  The
    lead's table, if it has one, is built here and shared by every chunk.

    ``run_chunk`` takes any run of whole chunks: ``lo`` must be a multiple
    of ``_CHUNK``, and each chunk's stream is keyed by (master seed, its
    first trial // _CHUNK).  Every chunk draws its lead from its own stream,
    and one table inversion serves the draws of the whole run.  Each chunk
    then runs its stages on its own stream, on its slice of the run's
    (d, trials) diagonal coordinates, with one mask of trials whose seek
    missed.  In d = 2 the run is turned into lattice coordinates at the end.
    """

    name = "staged"

    def __init__(self, problem: Problem, plan: Plan):
        self.problem = problem
        self.plan = plan
        self.schedule = plan.schedule
        lead = plan.walk + plan.crawl // problem.m
        self._lead = (_BinomialTable(lead) if not plan.delayed
                      and 0 < lead <= _TABLE_MAX_LENGTH else None)

    @property
    def lead_table_entries(self) -> int:
        return 0 if self._lead is None else self._lead.cdf.size

    def _crawl_steps(self, g: np.random.Generator, lengths: np.ndarray) -> np.ndarray:
        if self.plan.delayed:
            return g.binomial(lengths, 1.0 / self.problem.m)
        return lengths // self.problem.m

    def run_chunk(self, master_seed, lo, hi):
        d, k = self.problem.d, hi - lo
        sched, plan = self.schedule, self.plan
        chunks = [(_rng.chunk_generator(master_seed, a // _CHUNK),
                   slice(a - lo, min(a + _CHUNK, hi) - lo)) for a in range(lo, hi, _CHUNK)]
        pos = np.zeros((d, k), dtype=np.int64)
        counts = None if sched is None else np.zeros((len(STAGE_COUNTS), sched.u + 2),
                                                     dtype=np.int64)
        if self._lead is not None:
            # each chunk draws its own uniforms; one inversion serves them all
            self._lead.add_endpoints(np.concatenate(
                [g.random((d, cols.stop - cols.start)) for g, cols in chunks], axis=1), pos)
        elif plan.walk or plan.crawl:
            for g, cols in chunks:
                size = cols.stop - cols.start
                crawled = self._crawl_steps(g, np.full(size, plan.crawl, dtype=np.int64))
                pos[:, cols] = _endpoints(g, plan.walk + crawled, d)
        for g, cols in chunks:
            self._run_stages(g, pos[:, cols], counts)
        if d == 2:
            # (x + y, x - y) -> (x, y), in place
            pos[0] += pos[1]
            pos[0] >>= 1
            pos[1] = pos[0] - pos[1]
        return pos, counts

    def _run_stages(self, g: np.random.Generator, pos: np.ndarray,
                    counts: Optional[np.ndarray]) -> None:
        """Run the plan's stages on one chunk's (d, k) diagonal positions, a
        view moved in place, and add their events to ``counts``."""
        d, k = pos.shape
        sched, plan = self.schedule, self.plan
        walking = np.zeros(k, dtype=bool)      # missed a seek: steps every time
        was_in = np.ones(k, dtype=bool)        # W_0 is the origin, inside window 0
        t = plan.walk + plan.crawl
        for stage, t_end in enumerate(plan.times, start=1):
            free = np.nonzero(walking)[0]
            pos[:, free] += _endpoints(g, np.full(free.size, t_end - t), d)
            alive = ~walking
            seekers = np.nonzero(alive)[0]
            end, tau = _seek(g, pos[:, seekers], t, t_end)
            got = tau >= 0
            end[:, got] = _endpoints(g, self._crawl_steps(g, t_end - tau[got]), d)
            pos[:, seekers] = end
            hit = np.zeros(k, dtype=bool)
            hit[seekers] = got
            walking |= alive & ~hit
            t = t_end
            if counts is not None:
                was_in = _tally_stage(counts, stage, sched, pos, alive, hit, was_in)


class GenericSampler(Sampler):
    """Reference path: run any strategy one step at a time, all trials of a
    chunk in lockstep (``walk._lockstep``) on one stream keyed by (master
    seed, chunk index), which the staged sampler's keys never equal; the
    chunks of a run go one after another."""

    name = "generic"

    def __init__(self, problem: Problem, strategy: Strategy):
        self.problem = problem
        self.strategy = strategy

    def run_chunk(self, master_seed, lo, hi):
        parts = []
        for a in range(lo, hi, _CHUNK):
            g = _rng.step_chunk_generator(master_seed, a // _CHUNK)
            try:
                for _, _, pos in _lockstep(self.strategy, self.problem,
                                           min(a + _CHUNK, hi) - a, g):
                    pass
            except AdmissibilityError as exc:
                # chunks run in order, so this is the lowest offending trial
                exc.trial_index += a
                raise
            parts.append(pos)
        return np.concatenate(parts, axis=1), None


def make_sampler(strategy: Strategy, problem: Problem) -> Sampler:
    """The staged sampler of the strategy's plan; the generic one if it has
    no plan."""
    plan = strategy.plan(problem)
    if plan is None:
        return GenericSampler(problem, strategy)
    return StagedSampler(problem, plan)
