"""Exact computations: optimal value by backward induction, exact strategy
evaluation (by renewal over time from a strategy's plan, or by scalar forward
distribution propagation on the decision step of ``walk``'s lockstep engine),
and SSRW functionals used as oracles elsewhere (hitting tails, return
probabilities, local times).

All float routines use 64-bit arithmetic.  Every SSRW and binomial
probability comes from ratio recurrences of binomial coefficients (the
return table ``_return_table``, point probabilities ``_point_probabilities``
and ``_binomial_pmf``), never from log-gamma differences, whose cancellation
costs digits at large t.  First-passage tails are window sums of
``_binomial_pmf`` by the reflection identity.  The small-instance oracles
(``brute_force_value``, and the integer path counts ``survivor_counts`` and
``window_counts`` on the two sides of that identity) use exact integer /
rational arithmetic so they can back equality assertions.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from typing import Optional

import numpy as np

from .errors import BudgetError, SignatureError
from .strategies import Plan, Strategy
from .walk import (_MOVE_COLUMNS, _MOVES, _STAND, Decision, Problem, _add, _classes,
                   _position, _Rule)

DEFAULT_DP_BUDGET = 2.0e9          # backward-induction cell updates
DEFAULT_EVAL_BUDGET = 6.0e8        # plan-engine float entries or scalar cell-steps
_FULL_TABLE_CELLS = 5.0e7          # cap on backward-induction float cells held
_TRUNCATION_TARGET = 1e-15         # bound on what value-only induction may cut off


# ---------------------------------------------------------------------------
# SSRW point probabilities and derived quantities
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _return_table(size: int, d: int) -> np.ndarray:
    """Read-only r(t) = P(S_t = 0) for t < size, SSRW on Z^d from the origin.

    Even entries follow the ratio recurrence r(2k+2) = r(2k)(2k+1)/(2k+2)
    (Feller, Vol. 1, ch. III), whose rounding errors add up like a random
    walk: about 1e-14 relative at t = 10^6.  Odd entries are exactly 0.  In
    two dimensions the diagonal coordinates (x+y, x-y) are independent 1d
    walks, so the table is the 1d one squared.
    """
    r = np.zeros(size)
    r[0] = 1.0
    even = r[2::2]                       # built in place: one temporary
    even[:] = np.arange(1.0, 2.0 * even.size, 2.0)
    even /= even + 1.0
    np.cumprod(even, out=even)
    if d == 2:
        r *= r
    r.flags.writeable = False
    return r


def _table_size(length: int) -> int:
    """Cache size class for a table of ``length`` entries: rounded up to a
    multiple of 2^(b-3) for a length of b bits, so that a table is at most a
    quarter too long and a growing horizon rebuilds it O(log n) times."""
    step = 1 << max(0, length.bit_length() - 3)
    return max(1024, -(-length // step) * step)


def _returns(length: int, d: int) -> np.ndarray:
    """r(0), ..., r(length - 1) as a read-only view of a cached table."""
    return _return_table(_table_size(length), d)[:length]


def ssrw_return_probability(steps: int, d: int) -> float:
    """P(Y_steps = 0) for SSRW on Z^d, d in {1, 2}, from the ratio-recurrence
    table (see ``_return_table``)."""
    if d not in (1, 2):
        raise ValueError(f"d must be 1 or 2, got {d}")
    if steps < 0:
        return 0.0
    return float(_returns(steps + 1, d)[steps])


def _point_probabilities(a: int, size: int) -> np.ndarray:
    """P(S_t = a) for t < size, 1d SSRW from the origin.

    At fixed t the offset walks outward from r(t) (even a) or from
    P(S_t = 1) = r(t-1) t/(t+1) (odd a) by the ratio
    P(S_t = c+2) / P(S_t = c) = (t-c)/(t+c+2), so every entry is a product
    of binomial ratios like the r table itself, and none underflows before
    its true value does.
    """
    a = abs(a)
    out = np.zeros(size)
    r = _returns(size, 1)
    t = np.arange(a, size, dtype=np.float64)
    p = out[a:]
    if a % 2 == 0:
        p[:] = r[a:]
    else:
        p[:] = r[a - 1:-1] * (t / (t + 1.0))
    for c in range(a % 2, a - 1, 2):
        p *= (t - c) / (t + (c + 2.0))
    return out


def return_probabilities_2d(x: tuple[int, int], horizon: int) -> np.ndarray:
    """p_i = P(Y_i = (0,0) | Y_0 = x) for i = 1..horizon, 2d SSRW.

    Uses the diagonal decomposition: with a = x0 + x1, b = x0 - x1 the two
    diagonal coordinates are independent 1d walks started at a and b.
    """
    a, b = x[0] + x[1], x[0] - x[1]
    return (_point_probabilities(a, horizon + 1)[1:]
            * _point_probabilities(b, horizon + 1)[1:])


def expected_local_time(x: tuple[int, int], horizon: int) -> float:
    """Expected number of visits to the origin in 1..horizon from start x."""
    return float(return_probabilities_2d(x, horizon).sum())


# ---------------------------------------------------------------------------
# First-passage tails for the 1d walk
# ---------------------------------------------------------------------------

def survivor_counts(xmax: int, lmax: int) -> Iterator[list[int]]:
    """Rows c_l for l = 0..lmax, with c_l[x] the number of length-l paths
    from x that avoid 0, so P(tau_0 > l | start x) = c_l[x] / 2**l.

    Absorbing-barrier recursion over exact integers for every start
    0 <= x <= xmax at once: c_{l+1}(y) = c_l(y-1) + c_l(y+1), with
    c_l(0) = 0.  Row l needs c_l(y) for y <= xmax + lmax - l, so the working
    row shrinks by one each step.
    """
    counts = [0] + [1] * (xmax + lmax)
    for _ in range(lmax + 1):
        yield counts[:xmax + 1]
        counts = [0] + [a + b for a, b in zip(counts, counts[2:])]


def window_counts(xmax: int, lmax: int) -> Iterator[list[int]]:
    """Rows w_l for l = 0..lmax, with w_l[x] the number of length-l paths
    from 0 that end strictly inside (-x, x), for 0 <= x <= xmax.

    S_l = 2k - l with k right steps, so w_l[x] sums Pascal's row l over
    (l - x)/2 < k < (l + x)/2, read off its prefix sums.
    """
    pascal = [1]
    for l in range(lmax + 1):
        prefix = list(accumulate(pascal, initial=0))
        row = []
        for x in range(xmax + 1):
            first = max((l - x) // 2 + 1, 0)
            stop = min((l + x + 1) // 2, l + 1)
            row.append(prefix[stop] - prefix[first] if stop > first else 0)
        yield row
        pascal = [a + b for a, b in zip([0] + pascal, pascal + [0])]


def hitting_tail_curve(x: int, l_points) -> dict[int, float]:
    """P(tau_0 > l | start x) for the 1d walk at each requested l.

    By the reflection identity P(tau_0 > l | x) = P_0(-|x| < S_l <= |x|)
    (Feller, Vol. 1, ch. III), summed over ``_binomial_pmf``: S_l = 2K - l
    with K ~ Binomial(l, 1/2).
    """
    x = abs(int(x))
    if x == 0:
        raise ValueError("start must be nonzero")
    curve = {}
    for l in sorted({int(l) for l in l_points}):
        if l < 0:
            raise ValueError(f"length must be >= 0, got {l}")
        lo, pmf = _binomial_pmf(l, 0.5)
        first = max((l - x) // 2 + 1 - lo, 0)      # least K with 2K - l > -x
        stop = (l + x) // 2 + 1 - lo               # past the last K with 2K - l <= x
        curve[l] = float(pmf[first:stop].sum())
    return curve


# ---------------------------------------------------------------------------
# Optimal value by backward induction
# ---------------------------------------------------------------------------

class _DerivedSlices(Sequence):
    """``ValueTable.values`` or ``ValueTable.policy``, derived on access from
    the kept step values.

    ``steps[t]`` is A_t, the value of stepping at time t (A_n is 1 at the
    origin), on the folded grid of ``_step_values``.  Standing keeps x
    fixed, so with k = min(m-1-j, n-i)

        v_i(x, j) = max(A_i(x), ..., A_{i+k}(x)),

    and the tie-prefers-stand policy stands iff j < m-1 and
    max(A_{i+1}(x), ..., A_{i+k}(x)) >= A_i(x).  Item i is derived on the
    folded grid and unfolded on access: full index n+1+x reads folded index
    |x|+1 on every axis.  So it has shape (2n+3,)*d + (m,), indexed [x..., j];
    ``at`` reads one cell without building the slice.
    """

    def __init__(self, steps: np.ndarray, m: int, policy: bool):
        self.steps = steps
        self.m = m
        self.policy = policy
        n = len(steps) - 1
        self.unfold = np.abs(np.arange(-n - 1, n + 2)) + 1

    def __len__(self) -> int:
        return len(self.steps) - int(self.policy)

    def __getitem__(self, i: int) -> np.ndarray:
        i = range(len(self))[i]
        n, m, a = len(self.steps) - 1, self.m, self.steps
        # span[j] = k, the last offset the window of counter j reaches
        span = np.minimum(np.arange(m - 1, -1, -1), n - i)
        if not self.policy:
            prefix = np.maximum.accumulate(a[i:i + span[0] + 1])
            folded = np.moveaxis(prefix[span], 0, -1)
        else:
            folded = np.zeros(a.shape[1:] + (m,), dtype=np.int8)
            if m >= 2:
                later = np.maximum.accumulate(a[i + 1:i + span[0] + 1])
                folded[..., :m - 1] = np.moveaxis(later[span[:-1] - 1] >= a[i], 0, -1)
        return folded[np.ix_(*(self.unfold,) * (a.ndim - 1))]

    def at(self, i: int, cell: tuple, j: int):
        """values[i][cell + (j,)] or policy[i][cell + (j,)], from one column of A."""
        i = range(len(self))[i]
        if not 0 <= j < self.m:
            raise IndexError(f"counter j={j} outside [0, {self.m - 1}]")
        k = min(self.m - 1 - j, len(self.steps) - 1 - i)
        folded = tuple(self.unfold[g] for g in cell)
        column = self.steps[(slice(i, i + k + 1),) + folded]
        if not self.policy:
            return column.max()
        return k >= 1 and column[1:].max() >= column[0]


@dataclass
class ValueTable:
    """Backward-induction output: the optimal value and, when kept, the
    per-time-slice value function and extracted policy.

    Only the step values A_t (t = 0..n) are stored, on the folded grid of
    ``_step_values``: shape (n+3,)*d per time.  ``values`` (length n+1) and
    ``policy`` (length n) derive their items from them and unfold them on
    access to the centered grid of half-width n with one guard cell on each
    side: ``values[i]`` has shape (2n+3,)*d + (m,), indexed [x..., j], and
    so has ``policy[i]``, with 1 for STAND and 0 for STEP.

    ``truncation_bound`` is beta of ``_certified_radius``: ``value`` lies
    at most beta below the optimum, and is the optimum when beta is 0.0
    (every kept table, and any horizon where the radius cuts nothing).
    """

    problem: Problem
    value: float
    values: Optional[Sequence] = None
    policy: Optional[Sequence] = None
    truncation_bound: float = 0.0

    @property
    def center(self) -> int:
        return self.problem.n + 1

    def _cell(self, x) -> tuple:
        c = self.center
        coords = (x,) if self.problem.d == 1 else tuple(x)
        if any(abs(v) > c for v in coords):
            raise ValueError(f"position {x} lies outside the stored grid "
                             f"|x_i| <= n+1 = {c}")
        return tuple(c + v for v in coords)

    def value_at(self, i: int, x, j: int) -> float:
        if self.values is None:
            raise ValueError("table was built with keep='none'")
        return float(self.values.at(i, self._cell(x), j))

    def policy_at(self, i: int, x, j: int) -> Decision:
        if self.policy is None:
            raise ValueError("policy was not requested")
        return Decision.STAND if self.policy.at(i, self._cell(x), j) else Decision.STEP

    def policy_runs(self, i: int, j: int) -> list[tuple[int, int, Decision]]:
        """Run-length view of the d=1 policy row at (i, j): (x_lo, x_hi, decision)."""
        if self.problem.d != 1 or self.policy is None:
            raise ValueError("run-length view needs a kept d=1 policy")
        n, c = self.problem.n, self.center
        row = self.policy[i][:, j]
        runs = []
        cur = None
        start = None
        for x in range(-n, n + 1):
            val = bool(row[c + x])
            if cur is None:
                cur, start = val, x
            elif val != cur:
                runs.append((start, x - 1, Decision.STAND if cur else Decision.STEP))
                cur, start = val, x
        runs.append((start, n, Decision.STAND if cur else Decision.STEP))
        return runs

    def to_csv(self, fh) -> None:
        """Write rows i,x,j,V,policy for every reachable state (d=1 only)."""
        if self.problem.d != 1:
            raise ValueError("CSV export supports d=1 tables")
        if self.values is None:
            raise ValueError("table was built with keep='none'")
        n, m, c = self.problem.n, self.problem.m, self.center
        fh.write("i,x,j,V,policy\n")
        for i in range(n + 1):
            values = self.values[i]
            policy = self.policy[i] if self.policy is not None and i < n else None
            for x in range(-i, i + 1):
                for j in range(m):
                    v = float(values[c + x, j])
                    if policy is not None:
                        pi = "stand" if policy[c + x, j] else "step"
                    else:
                        pi = ""
                    fh.write(f"{i},{x},{j},{v!r},{pi}\n")


def _check_budget(budget: float) -> None:
    """A budget is a positive number; NaN, which no comparison refuses, and
    values <= 0 raise ValueError."""
    if not budget > 0:
        raise ValueError(f"budget must be a positive number, got {budget!r}")


@functools.lru_cache(maxsize=8)
def _certified_radius(d: int, n: int, target: float) -> tuple[int, float]:
    """(R, beta): the least radius R with beta(R) <= ``target``, where

        beta(R) = 2d (P(S_n >= R+1) + P(S_n > R+1))

    for the 1d SSRW S.  A controlled walk's path is an SSRW path run with
    pauses, and each coordinate of an SSRW on Z^d is a 1d SSRW run with
    pauses, so by the reflection principle (Feller, Vol. 1, ch. III) the
    walk leaves |x|_inf <= R before time n with probability at most
    beta(R).  Killing it there costs at most that much value.  The
    probabilities are tail sums of ``_binomial_pmf(n, 1/2)``, as
    S_n = 2K - n.  beta is 0.0 when R >= n // 2, as min(i, n - i) never
    exceeds n // 2 and nothing is cut.
    """
    lo, pmf = _binomial_pmf(n, 0.5)
    upper = np.append(np.cumsum(pmf[::-1])[::-1], 0.0)     # P(K >= lo + k)

    def at_least(a: np.ndarray) -> np.ndarray:               # P(S_n >= a)
        return upper[np.clip((n + a + 1) // 2 - lo, 0, upper.size - 1)]

    # beta is 0 from R = 2 (lo + pmf.size) - n on, where K would pass the pmf
    radii = np.arange(min(n, 2 * (lo + pmf.size) - n) + 1)
    beta = 2 * d * (at_least(radii + 1) + at_least(radii + 2))
    r = int(np.argmax(beta <= target))
    return r, (0.0 if r >= n // 2 else float(beta[r]))


def _power_sum(k: int, d: int) -> int:
    """1^d + 2^d + ... + k^d for d in {1, 2}."""
    return k * (k + 1) // 2 if d == 1 else k * (k + 1) * (2 * k + 1) // 6


def dp_cost(problem: Problem, kept: bool = False) -> tuple[int, int]:
    """(cell updates, cells held) of backward induction on ``problem``.

    Backward step i updates the folded box 0 <= x_k <= r_i, (r_i+1)^d
    cells (see ``_step_values``).  A kept table (``keep="full"`` or a
    policy) runs on r_i = n - i, so sum_{k=2..n+1} k^d updates in all; its
    window holds min(m, n+1) slices of (n+3)^d cells, and the table n+1
    more.  The value alone runs on r_i = min(i, n - i, R), with R from
    ``_certified_radius``, and its window slices hold
    (min(n // 2, R) + 3)^d cells.
    """
    n, m, d = problem.n, problem.m, problem.d
    slices = min(m, n + 1)
    if kept:
        return _power_sum(n + 1, d) - 1, (n + 3) ** d * (slices + n + 1)
    reach = _certified_radius(d, n, _TRUNCATION_TARGET)[0]

    def capped(top: int) -> int:          # sum over r = 0..top of (min(r, R) + 1)^d
        return (_power_sum(min(top, reach) + 1, d)
                + max(top - reach, 0) * (reach + 1) ** d)

    # min(i, n - i) over i = 0..n-1 runs through 0..n//2, then 1..ceil(n/2)-1
    updates = capped(n // 2) + capped((n + 1) // 2 - 1) - 1
    return updates, (min(n // 2, reach) + 3) ** d * slices


def _dp_budget_check(problem: Problem, budget: float, kept: bool) -> None:
    if problem.n > budget:      # every step updates a cell; refused before the radius
        raise BudgetError(
            f"backward induction needs at least {problem.n:.3g} cell updates, one "
            f"per step (budget {budget:.3g}); raise the budget to force the run",
            required_transitions=float(problem.n))
    updates, cells = dp_cost(problem, kept)
    if updates > budget:
        raise BudgetError(
            f"backward induction needs ~{updates:.3g} cell updates "
            f"(budget {budget:.3g}) and ~{cells * 8 / 1e6:.0f} MB of slices; "
            f"raise the budget to force the run",
            required_transitions=float(updates), required_bytes=cells * 8.0)
    if cells > _FULL_TABLE_CELLS:
        window = min(problem.m, problem.n + 1)
        kept_note = f" and {problem.n + 1} kept step slices" if kept else ""
        raise BudgetError(
            f"backward induction holds {cells:.3g} cells in {window} window "
            f"slices{kept_note} (cap {_FULL_TABLE_CELLS:.3g})",
            required_bytes=cells * 8.0)


def optimal_value(problem: Problem, budget: float = DEFAULT_DP_BUDGET,
                  keep: str = "none", want_policy: bool = False
                  ) -> tuple[float, ValueTable]:
    """Optimal probability of ending at the origin, with policy extraction.

    The value of a state (x, j) is the max of standing (allowed while
    j+1 <= m-1) and stepping (average over the 2d neighbors with counter
    reset).  Ties prefer STAND, so the extracted policy is deterministic and
    takes as few random steps as possible.  Standing keeps x fixed, so the
    recursion runs without the counter: see ``_step_values``.

    keep: "none" (value only), "full" (every time slice, small instances).
    The table keeps the n+1 step-value slices when ``keep="full"`` or
    ``want_policy``, and derives values and policy from them on access.
    The value alone is computed on the reachable diamond within the
    certified radius of ``_certified_radius``, so it may lie up to
    ``table.truncation_bound`` (at most 1e-15) below the optimum.
    A budget that is NaN or not positive raises ValueError.
    """
    if keep not in ("none", "full"):
        raise ValueError(f"keep must be 'none' or 'full', got {keep!r}")
    _check_budget(budget)
    kept = keep == "full" or want_policy
    _dp_budget_check(problem, budget, kept)
    d, n, m = problem.d, problem.n, problem.m
    reach, beta = (None, 0.0) if kept else _certified_radius(d, n, _TRUNCATION_TARGET)
    value, steps = _step_values(d, n, m, kept, reach)
    values = _DerivedSlices(steps, m, policy=False) if keep == "full" else None
    policy = _DerivedSlices(steps, m, policy=True) if want_policy else None
    table = ValueTable(problem=problem, value=value, values=values, policy=policy,
                       truncation_bound=beta)
    return value, table


class _WindowMax:
    """Max over the last ``length`` arrays pushed, kept as a two-stack queue
    (the running-max form of van Herk 1992 and Gil & Werman 1993): O(1)
    amortised numpy ops per push, whatever the length.

    The arrays sit in a ring of ``length`` slots, oldest first.  The back
    stack holds the raw arrays pushed since the last transfer, with their
    running max.  When the front stack runs empty, a transfer rewrites the
    back stack's slots, newest to oldest, into suffix maxima, so the oldest
    slot of the front holds the max of the whole front.

    Every operation acts on a caller-given region and leaves the entries
    outside it as they were, and the buffers start zero.  So ``max`` is
    exact at a cell when every operation since the oldest array in the
    window was pushed covered that cell, or when every buffer holds 0
    there and so does every array in the window.  Regions may grow and
    then shrink: see ``_step_values`` for how backward induction keeps to
    this.
    """

    def __init__(self, length: int, shape: tuple):
        self.ring = np.zeros((length,) + shape)
        self.back_max = np.zeros(shape)
        self.out = np.zeros(shape)
        self.pushed = 0
        self.front = 0
        self.back = 0

    def _slot(self, k: int) -> np.ndarray:
        return self.ring[k % len(self.ring)]

    def slot(self, region: tuple) -> np.ndarray:
        """View of the next array's slot, dropping the oldest array if full."""
        if self.front + self.back == len(self.ring):
            if self.front == 0:
                for k in range(self.pushed - 2, self.pushed - 1 - self.back, -1):
                    older = self._slot(k)[region]
                    np.maximum(older, self._slot(k + 1)[region], out=older)
                self.front, self.back = self.back, 0
            self.front -= 1
        return self._slot(self.pushed)[region]

    def commit(self, region: tuple) -> None:
        """Push the array written into ``slot(region)``."""
        new = self._slot(self.pushed)[region]
        if self.back:
            np.maximum(self.back_max[region], new, out=self.back_max[region])
        else:
            self.back_max[region] = new
        self.pushed += 1
        self.back += 1

    def max(self, region: tuple) -> np.ndarray:
        """Full-shape array holding the window max on ``region``; a buffer
        of the queue, valid until the next ``commit``."""
        if self.front == 0:
            return self.back_max
        oldest = self._slot(self.pushed - self.front - self.back)[region]
        np.maximum(oldest, self.back_max[region], out=self.out[region])
        return self.out


def _folded_box(r: int, d: int) -> tuple:
    """Index of the folded box 0 <= x_k <= r with its ghost layer x_k = -1."""
    return (slice(0, r + 2),) * d


def _neighbour_mean(field: np.ndarray, box: tuple, out: np.ndarray,
                    scratch: np.ndarray) -> None:
    """out = mean of ``field`` over the 2d lattice neighbours of each cell of
    ``box``, summed as one pair per axis:
    (v(x-e1) + v(x+e1)) + (v(x-e2) + v(x+e2)), then scaled by 1/(2d).

    A reflection of axis k swaps the two terms of pair k, and swapping the
    axes swaps the pairs; addition commutes exactly in floating point, so
    the mean of a symmetric field is exactly symmetric.  In one dimension
    this is 0.5*(a+b).  ``scratch`` is a flat buffer of at least
    ``out.size`` floats that holds each pair after the first.
    """
    views = [field[box[:k] + (slice(s.start + e, s.stop + e),) + box[k + 1:]]
             for k, s in enumerate(box) for e in (-1, 1)]
    np.add(views[0], views[1], out=out)
    for k in range(2, len(views), 2):
        pair = scratch[:out.size].reshape(out.shape)
        np.add(views[k], views[k + 1], out=pair)
        out += pair
    out *= 0.5 / len(box)


def _step_values(d: int, n: int, m: int, keep: bool, reach: Optional[int]):
    """Backward induction without the stand counter, on the folded grid.

    A_t, the value of stepping at time t, is the neighbour mean of
    v_{t+1}(., 0), and v_t(x, 0) = max(A_t(x), ..., A_{min(t+m-1, n)}(x))
    with A_n = 1 at the origin.  So only A is built, and v(., 0) is a
    sliding-window max over time.

    Step i writes A_i on the box |x|_inf <= r_i and reads v_{i+1} on the
    box of radius r_i + 1.  A_i vanishes outside the backward cone
    |x|_inf <= n - i, so with ``reach`` None the run is on r_i = n - i and
    exact everywhere, as a kept table (``keep``) needs.  Otherwise it is on
    r_i = min(i, n - i, reach): v_0(0) reads A_i only where a walk from the
    origin can be at time i (the forward cone |x|_inf <= i, an exact cut),
    and A is zero past ``reach``, which kills a walk that leaves that box
    (see ``_certified_radius``).  The radii rise to a peak, may stay
    there, and then fall to 0, which keeps the region contract of
    ``_WindowMax`` without zeroing any layer: while they rise or stay,
    every buffer and every A is 0 past r_{i+1}; while they fall,
    r_i + 1 = r_{i+1}, and every operation since the oldest array in the
    window covered that box.

    The recursion is invariant under x_k -> -x_k on each axis and, in two
    dimensions, under the axis swap; ``_neighbour_mean`` keeps that exact.
    So the grid is folded: x_k >= 0 is held at index x_k + 1, with a ghost
    layer at x_k = -1 (index 0) copied from x_k = +1 after each step and a
    guard one past the peak radius that stays 0, shape (peak + 3,)*d.  Max
    is exact in floating point, so the result equals the full-grid (x, j)
    recursion's on the same boxes bit for bit.

    Returns v_0(0, 0) and, when ``keep``, the (n+1,) + (n+3,)*d array of A.
    """
    peak = n if reach is None else min(n // 2, reach)
    shape = (peak + 3,) * d
    origin = (1,) * d
    steps = np.zeros((n + 1,) + shape) if keep else None
    window = _WindowMax(min(m, n + 1), shape)
    scratch = np.empty((peak + 1) ** d)
    inner = (slice(1, None),) * d
    # ghost x_k = -1 (index 0) from x_k = +1 (index 2), axis by axis
    ghosts = [((slice(None),) * k + (0,), (slice(None),) * k + (2,)) for k in range(d)]
    box = _folded_box(0, d)
    window.slot(box)[origin] = 1.0
    window.commit(box)
    if steps is not None:
        steps[n][origin] = 1.0
    for i in range(n - 1, -1, -1):
        r = n - i if reach is None else min(i, n - i, reach)
        v_next = window.max(_folded_box(r + 1, d))
        box = _folded_box(r, d)
        a = window.slot(box)
        _neighbour_mean(v_next, (slice(1, r + 2),) * d, out=a[inner],
                        scratch=scratch)
        for ghost, mirror in ghosts if r else ():   # A_0 is read at the origin only
            a[ghost] = a[mirror]
        window.commit(box)
        if steps is not None:
            steps[i][box] = a
    return float(window.max(box)[origin]), steps


# ---------------------------------------------------------------------------
# Exhaustive small-instance oracles (exact rational arithmetic)
# ---------------------------------------------------------------------------

def _trailing_stands(positions: tuple) -> int:
    j = 0
    t = len(positions) - 1
    while t > 0 and positions[t] == positions[t - 1]:
        j += 1
        t -= 1
    return j


def brute_force_value(problem: Problem) -> Fraction:
    """Sup over all full-history strategies, by raw recursion on histories.

    No Markov compression and no memoization: the recursion carries the full
    position sequence and recomputes the stand-still counter from it, so it
    is an independent oracle for the backward-induction value.  Exponential;
    intended for n <= 8 or so.
    """
    n, m, d = problem.n, problem.m, problem.d
    if n > 12:
        raise BudgetError(f"brute force oracle is exponential; n={n} is too large")
    moves = _MOVES[d]
    p = Fraction(1, len(moves))

    def rec(positions: tuple) -> Fraction:
        i = len(positions) - 1
        if i == n:
            return Fraction(int(positions[-1] == problem.origin))
        w = positions[-1]
        best = sum((rec(positions + (_add(w, mv, d),)) for mv in moves),
                   Fraction(0)) * p
        if _trailing_stands(positions) + 1 <= m - 1:
            stand = rec(positions + (w,))
            if stand > best:
                best = stand
        return best

    return rec((problem.origin,))


def enumerate_decision_trees_value(problem: Problem) -> Fraction:
    """Literal maximum over all decision trees (every history node assigned a
    fixed admissible decision), for very small instances (n <= 3, d = 1)."""
    n, m, d = problem.n, problem.m, problem.d
    if n > 3 or d != 1:
        raise BudgetError("tree enumeration is doubly exponential; use n <= 3, d = 1")
    moves = _MOVES[d]

    nodes: list[tuple] = []
    options: dict[tuple, list[Decision]] = {}

    def collect(positions: tuple):
        i = len(positions) - 1
        if i >= n:
            return
        opts = [Decision.STEP]
        if _trailing_stands(positions) + 1 <= m - 1:
            opts.append(Decision.STAND)
        nodes.append(positions)
        options[positions] = opts
        for mv in moves:
            collect(positions + (_add(positions[-1], mv, d),))
        if Decision.STAND in opts:
            collect(positions + (positions[-1],))

    collect((problem.origin,))

    def evaluate(assign: dict[tuple, Decision], positions: tuple) -> Fraction:
        i = len(positions) - 1
        if i == n:
            return Fraction(int(positions[-1] == problem.origin))
        w = positions[-1]
        if assign[positions] is Decision.STAND:
            return evaluate(assign, positions + (w,))
        return sum((evaluate(assign, positions + (_add(w, mv, d),))
                    for mv in moves), Fraction(0)) / len(moves)

    best = Fraction(0)
    for combo in product(*(options[nd] for nd in nodes)):
        assign = dict(zip(nodes, combo))
        val = evaluate(assign, (problem.origin,))
        if val > best:
            best = val
    return best


# ---------------------------------------------------------------------------
# Exact strategy evaluation
# ---------------------------------------------------------------------------

def evaluation_cost(strategy: Strategy, problem: Problem) -> tuple[str, int]:
    """(engine, priced work) of ``evaluate_strategy_exact`` on a strategy:
    ("plan", float entries of ``_plan_cost``) when it compiles to a plan,
    ("scalar", (2n+1)^d * n cell-steps) otherwise."""
    plan = strategy.plan(problem)
    if plan is not None:
        return "plan", _plan_cost(plan, problem)
    return "scalar", (2 * problem.n + 1) ** problem.d * problem.n


def evaluate_strategy_exact(strategy: Strategy, problem: Problem,
                            budget: float = DEFAULT_EVAL_BUDGET) -> float:
    """Exact success probability of a Markov-signature strategy.

    A strategy that compiles to a plan (every built-in one) is
    evaluated from the plan by renewal over time (``_evaluate_plan``), priced
    in the float entries its convolutions touch.  Any other strategy gets
    the scalar forward propagation of ``state_distribution``, priced in
    (2n+1)^d * n cell-steps.  Both prices come from ``evaluation_cost``.
    Exact up to float accumulation.  Full-history strategies are refused:
    their state space is the trajectory itself.  A budget that is NaN or
    not positive raises ValueError.
    """
    if strategy.signature not in ("wj", "wji", "wjip"):
        raise SignatureError(
            f"strategy {strategy.name!r} declares signature {strategy.signature!r}; "
            "exact evaluation supports wj / wji / wjip only (use Monte Carlo)")
    _check_budget(budget)
    engine, work = evaluation_cost(strategy, problem)
    if work > budget:
        need = (f"plan evaluation touches ~{work:.3g} float entries" if engine == "plan"
                else f"scalar forward propagation needs ~{work:.3g} cell-steps")
        raise BudgetError(f"{need} (budget {budget:.3g})",
                          required_transitions=float(work))
    if engine == "plan":
        return _evaluate_plan(strategy.plan(problem), problem)
    return _propagate_scalar(strategy, problem)


# The plan engine.  At the start of every stage the walkers still on the
# plan are a mixture over c of "c fair steps from the origin", with weights
# w[c]: the leading walk and crawl take a fixed (or, delayed, a binomial)
# number of steps, and a hold starts at the origin and crawls.  A walker of
# kind c is at the origin t steps later with probability r(c + t), so the
# engine works on sequences over time only, whatever d is.

_DIRECT_CONVOLVE = 64      # shorter operand up to which np.convolve is used


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two float arrays: direct when one of them
    is short, else by real FFT over a power-of-two length."""
    if min(a.size, b.size) <= _DIRECT_CONVOLVE:
        return np.convolve(a, b)
    size = a.size + b.size - 1
    nfft = 1 << (size - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(a, nfft) * np.fft.rfft(b, nfft), nfft)[:size]


@functools.lru_cache(maxsize=4)
def _first_entrance_table(size: int, d: int) -> np.ndarray:
    """Read-only coefficients t < size of Q = 1/R, with R(z) = sum_t r(t) z^t.

    The renewal equation for returns to the origin, U = 1 + F U (Feller,
    *An Introduction to Probability Theory*, Vol. 1, ch. XIII), gives
    Q = 1 - F, so -Q[t] is the first-return law for t >= 1.  In d = 1,
    R = (1 - z^2)^(-1/2) and Q = sqrt(1 - z^2), whose coefficients are
    -r(2k)/(2k-1).  In d = 2 Newton's iteration Q <- Q - Q (R Q - 1) doubles
    the known coefficients per round, from the residual's new half only.
    """
    r = _return_table(size, d)
    if d == 1:
        q = np.zeros(size)
        q[0] = 1.0
        q[2::2] = -r[2::2] / np.arange(1, 2 * ((size - 1) // 2), 2)
    else:
        q = np.ones(1)
        while q.size < size:
            k = q.size
            k2 = min(2 * k, size)
            resid = _convolve(r[:k2], q)[k:k2]
            q = np.concatenate([q, -_convolve(q[:k2 - k], resid)[:k2 - k]])
    q.flags.writeable = False
    return q


_UNDERFLOW = 1075 * math.log(2.0)      # -log of half the least subnormal float64


def _x_log_ratio(x: float, y: float) -> float:
    """x log(x / y), and 0 at x = 0."""
    return x * math.log(x / y) if x else 0.0


def _binomial_band(length: int, p: float) -> tuple[int, int]:
    """(first, stop) with P(X = k) / P(X = mode) below 2^-1075, half the
    least subnormal float64, for every k outside first <= k < stop, where
    X ~ Binomial(length, p).

    By the Chernoff bound P(X >= k) <= exp(-length D(k/length || p)) above
    the mean, and its mirror below, with D the relative entropy of two
    Bernoulli laws, and P(X = mode) >= 1 / (length + 1): the band is where
    length D stays under 1075 log 2 + log(length + 1).  Both edges are
    found by bisection, as length D grows away from the mean.
    """
    if p == 1.0:
        return length, length + 1
    level = _UNDERFLOW + math.log(length + 1.0)
    mean = length * p

    def exponent(k: int) -> float:          # length D(k / length || p)
        return _x_log_ratio(k, mean) + _x_log_ratio(length - k, length - mean)

    above = range(math.ceil(mean), length + 1)
    below = range(math.floor(mean), -1, -1)
    return (below[0] + 1 - bisect_left(below, level, key=exponent),
            above[0] + bisect_left(above, level, key=exponent))


def _binomial_pmf(length: int, p: float) -> tuple[int, np.ndarray]:
    """(lo, pmf) with pmf[i] = P(Binomial(length, p) = lo + i), cut to the
    entries that do not underflow to 0.  Built by the ratio recurrence out
    from the mode over ``_binomial_band`` only and normalised to sum 1, so
    no log-gamma rounding enters."""
    if p == 1.0:
        return length, np.ones(1)
    first, stop = _binomial_band(length, p)
    mode = min(int((length + 1) * p), length)
    odds = p / (1.0 - p)
    down = np.arange(mode, first, -1, dtype=np.float64)   # P(k-1) / P(k)
    up = np.arange(mode, stop - 1, dtype=np.float64)      # P(k+1) / P(k)
    pmf = np.concatenate([np.cumprod(down / ((length + 1.0 - down) * odds))[::-1],
                          [1.0], np.cumprod((length - up) / (up + 1.0) * odds)])
    pmf /= pmf.sum()
    live = np.flatnonzero(pmf)
    return first + int(live[0]), pmf[live[0]:live[-1] + 1]


def _block_size(length: int) -> int:
    """K of ``_binomial_mixture``: about sqrt(length), which balances the
    K inner against the length / K outer Horner steps."""
    return max(1, math.isqrt(length))


def _block_horner(rows: np.ndarray, p: float) -> np.ndarray:
    """Column b of the result is sum_i rows[i, b] Bernoulli(p)^{*i} as a pmf
    over the step count, for every column at once: Horner's rule
    a <- a * Bernoulli(p) + rows[i] from the last row, with the support cut
    where its top row underflows to 0."""
    a = np.zeros(rows.shape)
    a[0] = rows[-1]
    top = 1
    for row in rows[-2::-1]:
        moved = p * a[:top]
        a[:top] *= 1.0 - p
        a[1:top + 1] += moved
        if a[top].any():
            top += 1
        a[0] += row
    return a[:top]


def _binomial_mixture(hits: np.ndarray, p: float) -> np.ndarray:
    """sum_s hits[s] * Binomial(L - 1 - s, p) as a pmf over the step count,
    L = len(hits), by a blocked Horner rule.

    With g_j = hits[L - 1 - j] and beta = Bernoulli(p) the sum is
    sum_j g_j beta^{*j}.  Cut j = bK + i into blocks of K = ``_block_size``
    (the last one padded with zeros).  One K-step ``_block_horner`` pass
    gives every A_b = sum_{i<K} g_{bK+i} beta^{*i} at once.  Then
    acc <- acc * gamma + A_b over the blocks, from the last, with
    gamma = beta^{*K} = Binomial(K, p) from ``_binomial_pmf``: about
    2 sqrt(L) Python steps in all.  The outer product is a direct
    ``np.convolve``: by FFT, round-off would fill the tail that underflows
    to exactly 0.
    """
    k = _block_size(hits.size)
    blocks = -(-hits.size // k)
    g = np.zeros(blocks * k)
    g[:hits.size] = hits[::-1]
    a = _block_horner(g.reshape(blocks, k).T.copy(), p)     # rows[i, b] = g_{bK+i}
    lo, gamma = _binomial_pmf(k, p)
    acc = a[:, -1]
    for column in a.T[-2::-1]:
        moved = np.convolve(acc, gamma)
        acc = np.zeros(max(lo + moved.size, column.size))
        acc[lo:lo + moved.size] = moved
        acc[:column.size] += column
        live = np.flatnonzero(acc)
        acc = acc[:live[-1] + 1 if live.size else 1]     # g may open with zero blocks
    return acc


def _evaluate_plan(plan: Plan, problem: Problem) -> float:
    """Success probability of a plan, by renewal over time.

    ``w[i]`` weighs the walkers still on the plan that are c0 + i fair steps
    from the origin.  The leading walk of W steps and crawl of C times put
    them at W + C // m steps or, delayed, mix them by W + Binomial(C, 1/m).
    Each stage of L steps, from its start t0 to its stage time:

    * U_w(t) = sum_i w[i] r(c0 + i + t), the chance of being at the origin t
      steps on, is one correlation;
    * the first hit at s = 1..L has law f = (U_w - U_w(0)) Q (see
      ``_first_entrance_table``), one product;
    * a hit at s crawls the remaining L - s steps from the origin, so its
      mass moves to (L - s) // m steps or, delayed, to Binomial(L - s, 1/m);
    * a walker that misses steps at every time to n, and ends at the origin
      with probability U_w(n - t0) - sum_s f(s) r(n - t0 - s); none does
      when the stage ends at n, as ending at the origin is a hit.
    """
    n, m, d = problem.n, problem.m, problem.d
    p = 1.0 / m
    r = _returns(n + 1, d)
    c0, w = plan.walk + plan.crawl // m, np.ones(1)
    if plan.delayed and plan.crawl:
        lo, pmf = _binomial_pmf(plan.crawl, p)
        c0, w = plan.walk + lo, _convolve(w, pmf)
    if plan.times:
        q = _first_entrance_table(_table_size(n + 1), d)
    value = 0.0
    t = plan.walk + plan.crawl
    for t_end in plan.times:
        length = t_end - t
        u = _convolve(r[c0:c0 + w.size + length], w[::-1])[w.size - 1:w.size + length]
        hits = _convolve(u[1:], q[:length])[:length]        # s = 1..length
        if t_end < n:
            rest = n - t
            value += (np.dot(w, r[c0 + rest:c0 + rest + w.size])
                      - np.dot(hits, r[rest - length:rest][::-1]))
        if plan.delayed:
            w = _binomial_mixture(hits, p)
        else:
            w = np.bincount((length - 1 - np.arange(length)) // m, weights=hits)
        c0 = 0
        t = t_end
    return float(value + np.dot(w, r[c0:c0 + w.size]))


def _plan_cost(plan: Plan, problem: Problem) -> int:
    """Float entries ``_evaluate_plan`` touches, an upper bound: the r and Q
    tables, every correlation and first-hit product by output length, the
    leading crawl's binomial by its band, and each delayed stage's mixture
    by ``_mixture_cost``."""
    n, m, d = problem.n, problem.m, problem.d
    p = 1.0 / m
    cost, width, t = n + 1, 1, plan.walk + plan.crawl
    if plan.times:
        # d = 2: about five output entries per coefficient over Newton's rounds
        cost += (5 if d == 2 else 1) * _table_size(n + 1)
    if plan.delayed and plan.crawl:
        first, stop = _binomial_band(plan.crawl, p)
        width = stop - first
        cost += 3 * width
    for t_end in plan.times:
        length = t_end - t
        cost += 2 * width + 3 * length
        if plan.delayed:
            width = _binomial_band(length - 1, p)[1]
            cost += _mixture_cost(length, p)
        else:
            width = (length - 1) // m + 1
        t = t_end
    return cost


def _mixture_cost(length: int, p: float) -> int:
    """Float entries ``_binomial_mixture`` touches on ``length`` hits, an
    upper bound, with every support bounded by ``_binomial_band``: the
    (K, blocks) arrays; each of the K - 1 inner Horner steps over every
    block by the live support of Binomial(K - 1, p); gamma; and each of the
    blocks - 1 outer steps by |acc| |gamma| multiply-adds and the |acc| +
    |gamma| entries of its sum, with |acc| the support of
    Binomial(length - 1, p)."""
    k = _block_size(length)
    blocks = -(-length // k)
    inner = _binomial_band(k - 1, p)[1]
    first, stop = _binomial_band(k, p)
    gamma = stop - first
    acc = _binomial_band(length - 1, p)[1] + first
    return (3 * k * blocks + (k - 1) * blocks * inner + 3 * gamma
            + (blocks - 1) * (acc * gamma + acc + gamma))


def state_distribution(strategy: Strategy, problem: Problem) -> dict:
    """Probability mass over (phase, j, position) atoms at the horizon n.

    Scalar reference propagation: handles position-dependent decisions and
    arbitrary phase transitions, at quadratic cost.  It never reads
    ``Strategy.plan``, so the plan engine is validated against it on small
    instances.  The atoms are the columns of the lockstep engine's state
    array, and each step is that engine's decision step (``walk._Rule``),
    so both reject the same decisions and phases.  Every atom then takes
    its 2d moves and a stay, weighted by its decision, and equal atoms
    merge; atoms of zero mass are dropped.
    """
    d, m = problem.d, problem.m
    q = 1.0 / (2 * d)
    # rows by decision code: weights of the 2d moves of _MOVE_COLUMNS, then the stay
    weights = np.array([[0.0] * 2 * d + [1.0], [q] * 2 * d + [0.0],
                        [1.0 / m * q] * 2 * d + [1.0 - 1.0 / m]])
    rule = _Rule(strategy, problem)
    state, mass = np.zeros((d + 2, 1), dtype=np.int64), np.ones(1)
    for i in range(problem.n):
        dec, c = rule.decide(state, i)
        if c is not None:
            raise rule.inadmissible(i + 1, int(state[d, c]))
        state[d] = np.where(dec == _STAND, state[d] + 1, 0)
        kids = np.repeat(state, 2 * d + 1, axis=1)
        kids[:d] += np.tile(_MOVE_COLUMNS[d], state.shape[1])
        w = (mass[:, None] * weights[dec]).ravel()
        kids, w = kids[:, w > 0], w[w > 0]
        rule.next_phase(kids, i + 1)
        first, inverse = _classes(kids)
        state, mass = kids.take(first, axis=1), np.bincount(inverse, weights=w)
    return {(rule.phases[col[d + 1]], col[d], _position(col, d)): w
            for col, w in zip(state.T.tolist(), mass.tolist())}


def _propagate_scalar(strategy: Strategy, problem: Problem) -> float:
    dist = state_distribution(strategy, problem)
    return float(sum(mass for (p, j, x), mass in dist.items()
                     if x == problem.origin))
