"""Exact computations: optimal value by backward induction, exact strategy
evaluation by forward distribution propagation, and SSRW functionals used as
oracles elsewhere (hitting tails, return probabilities, local times).

All float routines use 64-bit arithmetic; the small-instance oracles
(``brute_force_value``, the integer hitting-tail counts) use exact integer /
rational arithmetic so they can back equality assertions.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .errors import AdmissibilityError, BudgetError, SignatureError
from .strategies import Strategy
from .walk import _MOVES, Decision, Problem, _add

_LN2 = math.log(2.0)

DEFAULT_DP_BUDGET = 2.0e9          # backward-induction cell updates
DEFAULT_EVAL_BUDGET = 6.0e8        # forward-propagation cell-steps
_FULL_TABLE_CELLS = 5.0e7          # cap on backward-induction float cells held


# ---------------------------------------------------------------------------
# SSRW point probabilities and derived quantities
# ---------------------------------------------------------------------------

def ssrw_pmf_1d(steps, offset) -> np.ndarray:
    """P(Y_steps = offset) for 1d SSRW, vectorized over either argument."""
    steps = np.asarray(steps, dtype=np.int64)
    offset = np.asarray(offset, dtype=np.int64)
    valid = ((steps + offset) % 2 == 0) & (np.abs(offset) <= steps)
    k = (steps + offset) // 2
    with np.errstate(invalid="ignore"):
        logp = (gammaln(steps + 1.0) - gammaln(k + 1.0) - gammaln(steps - k + 1.0)
                - steps * _LN2)
    out = np.where(valid, np.exp(np.where(valid, logp, 0.0)), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def ssrw_return_probability(steps: int, d: int) -> float:
    """P(Y_steps = 0) for SSRW on Z^d, d in {1, 2}.

    In two dimensions the diagonal coordinates (x+y, x-y) are independent 1d
    walks, so the return probability is the 1d value squared.
    """
    p1 = ssrw_pmf_1d(steps, 0)
    return float(p1) if d == 1 else float(p1) ** 2


def return_probabilities_2d(x: tuple[int, int], horizon: int) -> np.ndarray:
    """p_i = P(Y_i = (0,0) | Y_0 = x) for i = 1..horizon, 2d SSRW.

    Uses the diagonal decomposition: with a = x0 + x1, b = x0 - x1 the two
    diagonal coordinates are independent 1d walks started at a and b.
    """
    a, b = x[0] + x[1], x[0] - x[1]
    i = np.arange(1, horizon + 1, dtype=np.int64)
    return ssrw_pmf_1d(i, -a) * ssrw_pmf_1d(i, -b)


def expected_local_time(x: tuple[int, int], horizon: int) -> float:
    """Expected number of visits to the origin in 1..horizon from start x."""
    return float(return_probabilities_2d(x, horizon).sum())


# ---------------------------------------------------------------------------
# First-passage tails for the 1d walk
# ---------------------------------------------------------------------------

def hitting_survivor_counts(x: int, lmax: int) -> list[int]:
    """Exact path counts c_l with P(tau_0 > l | start x) = c_l / 2**l.

    Absorbing-barrier convolution over integer path counts: a walk from
    ``x != 0`` is killed on its first visit to 0; c_l counts the surviving
    length-l paths.
    """
    x = abs(int(x))
    if x == 0:
        raise ValueError("start must be nonzero")
    # counts[y-1] = number of surviving paths currently at y >= 1
    counts = [0] * (x + lmax + 2)
    counts[x - 1] = 1
    out = [1]
    for _ in range(lmax):
        nxt = [0] * len(counts)
        for y_idx in range(x + lmax):
            c = counts[y_idx]
            if c:
                if y_idx > 0:      # y_idx == 0 is y = 1; moving down absorbs
                    nxt[y_idx - 1] += c
                nxt[y_idx + 1] += c
        counts = nxt
        out.append(sum(counts))
    return out


def reflection_window_count(x: int, l: int) -> int:
    """Exact count with P(-|x| < Y_l < |x|) = count / 2**l for SSRW from 0."""
    x = abs(int(x))
    total = 0
    for y in range(max(-x + 1, -l), min(x, l + 1)):
        if (l + y) % 2 == 0:
            total += math.comb(l, (l + y) // 2)
    return total


@dataclass(frozen=True)
class HittingTail:
    """Exact first-passage tail from x plus the reflection-formula value.

    The two agree exactly when l and |x| have opposite parity; the flag lets
    callers separate genuine mismatches from the parity caveat.
    """

    x: int
    l: int
    tail: float
    reflection: float
    opposite_parity: bool


def hitting_tail_1d(x: int, l: int) -> HittingTail:
    """P(tau_0 > l | start x) for the 1d walk, by absorbing convolution."""
    if x == 0:
        raise ValueError("start must be nonzero")
    opp = (abs(x) + l) % 2 == 1
    if l <= 2048:
        tail = float(Fraction(hitting_survivor_counts(x, l)[l], 2 ** l))
        refl = float(Fraction(reflection_window_count(x, l), 2 ** l))
    else:
        tail = hitting_tail_curve(x, [l])[l]
        ys = np.arange(-abs(x) + 1, abs(x))
        refl = float(np.sum(ssrw_pmf_1d(np.int64(l), ys)))
    return HittingTail(x=x, l=l, tail=tail, reflection=refl, opposite_parity=opp)


def hitting_tail_curve(x: int, l_points, clip_sigmas: float = 6.0) -> dict[int, float]:
    """P(tau_0 > l | start x) at each requested l, float64 absorbing sweep.

    The state space is clipped at x + clip_sigmas*sqrt(lmax); clipped mass is
    counted as surviving, which biases the tail upward by at most the
    probability of ever reaching the clip boundary (~2*Phi(-clip_sigmas),
    below 1e-8 at the default).
    """
    x = abs(int(x))
    if x == 0:
        raise ValueError("start must be nonzero")
    l_points = sorted(set(int(l) for l in l_points))
    lmax = l_points[-1]
    top = x + int(math.ceil(clip_sigmas * math.sqrt(max(lmax, 1)))) + 16
    q = np.zeros(top + 1)          # q[y] = mass at y, live range y = 1..top-1
    q[x] = 1.0
    absorbed = 0.0
    out = {}
    want = set(l_points)
    if 0 in want:
        out[0] = 1.0
    for l in range(1, lmax + 1):
        absorbed += 0.5 * q[1]
        nxt = np.zeros_like(q)
        # mass stepping up from top-1 leaves the grid for good; it can never
        # come back to absorb, so dropping it only inflates the tail by the
        # (negligible) escape probability
        nxt[1:top] = 0.5 * (q[2:top + 1] + q[0:top - 1])
        q = nxt
        if l in want:
            out[l] = float(1.0 - absorbed)
    return out


# ---------------------------------------------------------------------------
# Optimal value by backward induction
# ---------------------------------------------------------------------------

class _DerivedSlices(Sequence):
    """``ValueTable.values`` or ``ValueTable.policy``, derived on access from
    the kept step values.

    ``steps[t]`` is A_t, the value of stepping at time t (A_n is 1 at the
    origin).  Standing keeps x fixed, so with k = min(m-1-j, n-i)

        v_i(x, j) = max(A_i(x), ..., A_{i+k}(x)),

    and the tie-prefers-stand policy stands iff j < m-1 and
    max(A_{i+1}(x), ..., A_{i+k}(x)) >= A_i(x).  Item i has shape
    grid + (m,), indexed [x..., j]; ``at`` reads one cell without building
    the slice.
    """

    def __init__(self, steps: np.ndarray, m: int, policy: bool):
        self.steps = steps
        self.m = m
        self.policy = policy

    def __len__(self) -> int:
        return len(self.steps) - int(self.policy)

    def __getitem__(self, i: int) -> np.ndarray:
        i = range(len(self))[i]
        n, m, a = len(self.steps) - 1, self.m, self.steps
        # span[j] = k, the last offset the window of counter j reaches
        span = np.minimum(np.arange(m - 1, -1, -1), n - i)
        if not self.policy:
            prefix = np.maximum.accumulate(a[i:i + span[0] + 1])
            return np.moveaxis(prefix[span], 0, -1)
        out = np.zeros(a.shape[1:] + (m,), dtype=np.int8)
        if m >= 2:
            later = np.maximum.accumulate(a[i + 1:i + span[0] + 1])
            out[..., :m - 1] = np.moveaxis(later[span[:-1] - 1] >= a[i], 0, -1)
        return out

    def at(self, i: int, cell: tuple, j: int):
        """values[i][cell + (j,)] or policy[i][cell + (j,)], from one column of A."""
        i = range(len(self))[i]
        if not 0 <= j < self.m:
            raise IndexError(f"counter j={j} outside [0, {self.m - 1}]")
        k = min(self.m - 1 - j, len(self.steps) - 1 - i)
        column = self.steps[(slice(i, i + k + 1),) + cell]
        if not self.policy:
            return column.max()
        return k >= 1 and column[1:].max() >= column[0]


@dataclass
class ValueTable:
    """Backward-induction output: the optimal value and, when kept, the
    per-time-slice value function and extracted policy.

    Only the step values A_t (t = 0..n) are stored, one array per time on a
    centered grid of half-width n with one guard cell on each side: shape
    (2n+3,) in one dimension and (2n+3, 2n+3) in two.  ``values`` (length
    n+1) and ``policy`` (length n) derive their items from them on access:
    ``values[i]`` has shape grid + (m,), indexed [x..., j], and so has
    ``policy[i]``, with 1 for STAND and 0 for STEP.
    """

    problem: Problem
    value: float
    keep: str = "none"
    values: Optional[Sequence] = None
    policy: Optional[Sequence] = None

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


def _dp_budget_check(problem: Problem, budget: float, kept: bool) -> None:
    n, m, d = problem.n, problem.m, problem.d
    # backward step i updates the cone |x|_inf <= n - i: sum_{r=1..n} (2r+1)^d
    updates = float(n * (n + 2) if d == 1
                    else (n + 1) * (2 * n + 1) * (2 * n + 3) // 3 - 1)
    window = min(m, n + 1)
    slices = window + (n + 1 if kept else 0)
    cells = float(2 * n + 3) ** d * slices
    if updates > budget:
        raise BudgetError(
            f"backward induction needs ~{updates:.3g} cell updates "
            f"(budget {budget:.3g}) and ~{cells * 8 / 1e6:.0f} MB of slices; "
            f"raise the budget to force the run",
            required_transitions=updates, required_bytes=cells * 8)
    if cells > _FULL_TABLE_CELLS:
        kept_note = f" and {n + 1} kept step slices" if kept else ""
        raise BudgetError(
            f"backward induction holds {cells:.3g} cells in {window} window "
            f"slices{kept_note} (cap {_FULL_TABLE_CELLS:.3g})",
            required_bytes=cells * 8)


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
    """
    if keep not in ("none", "full"):
        raise ValueError(f"keep must be 'none' or 'full', got {keep!r}")
    kept = keep == "full" or want_policy
    _dp_budget_check(problem, budget, kept)
    value, steps = _step_values(problem.d, problem.n, problem.m, kept)
    values = _DerivedSlices(steps, problem.m, policy=False) if keep == "full" else None
    policy = _DerivedSlices(steps, problem.m, policy=True) if want_policy else None
    table = ValueTable(problem=problem, value=value, keep=keep,
                       values=values, policy=policy)
    return value, table


class _WindowMax:
    """Max over the last ``length`` arrays pushed, kept as a two-stack queue
    (the running-max form of van Herk 1992 and Gil & Werman 1993): O(1)
    amortised numpy ops per push, whatever the length.

    The arrays sit in a ring of ``length`` slots, oldest first.  The back
    stack holds the raw arrays pushed since the last transfer, with their
    running max.  When the front stack runs empty, a transfer rewrites the
    back stack's slots, newest to oldest, into suffix maxima, so the oldest
    slot of the front holds the max of the whole front.  Every operation
    acts on a caller-given region that must cover the nonzero entries of
    all stored arrays; outside it the buffers stay zero.
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


def _box(c: int, r: int, d: int) -> tuple:
    """Index of the cube |x|_inf <= r on a grid centered at c."""
    return (slice(c - r, c + r + 1),) * d


def _neighbour_mean(field: np.ndarray, box: tuple, out: np.ndarray) -> None:
    """out = mean of ``field`` over the 2d lattice neighbours of each cell of
    ``box``.  Terms are added axis by axis, -1 before +1, which rounds as
    0.5*(a+b) in one dimension and 0.25*(a+b+c+d) in two."""
    views = [field[box[:k] + (slice(s.start + e, s.stop + e),) + box[k + 1:]]
             for k, s in enumerate(box) for e in (-1, 1)]
    np.add(views[0], views[1], out=out)
    for view in views[2:]:
        out += view
    out *= 1.0 / len(views)


def _step_values(d: int, n: int, m: int, keep: bool):
    """Backward induction without the stand counter.

    A_t, the value of stepping at time t, is the neighbour mean of
    v_{t+1}(., 0), and v_t(x, 0) = max(A_t(x), ..., A_{min(t+m-1, n)}(x))
    with A_n = 1 at the origin.  So only A is built, and v(., 0) is a
    sliding-window max over time.  A_t vanishes outside the cone
    |x|_inf <= n - t, and all work at time t stays inside that cone.  Max is
    exact in floating point, so the result equals the (x, j) recursion's bit
    for bit.

    Returns v_0(0, 0) and, when ``keep``, the (n+1,) + grid array of A.
    """
    c = n + 1
    shape = (2 * n + 3,) * d
    steps = np.zeros((n + 1,) + shape) if keep else None
    window = _WindowMax(min(m, n + 1), shape)
    origin = _box(c, 0, d)
    window.slot(origin)[...] = 1.0
    window.commit(origin)
    if steps is not None:
        steps[n][origin] = 1.0
    for i in range(n - 1, -1, -1):
        v_next = window.max(_box(c, n - i - 1, d))
        cone = _box(c, n - i, d)
        a = window.slot(cone)
        _neighbour_mean(v_next, cone, out=a)
        window.commit(cone)
        if steps is not None:
            steps[i][cone] = a
    return float(window.max(origin)[(c,) * d]), steps


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
# Exact strategy evaluation by forward propagation
# ---------------------------------------------------------------------------

def evaluate_strategy_exact(strategy: Strategy, problem: Problem,
                            budget: float = DEFAULT_EVAL_BUDGET) -> float:
    """Exact success probability of a Markov-signature strategy.

    Pushes the state distribution over (position, counter, phase) forward
    from the origin, applying the strategy's deterministic decision per
    state.  Exact up to float accumulation.  Full-history strategies are
    refused: their state space is the trajectory itself.
    """
    if strategy.signature not in ("wj", "wji", "wjip"):
        raise SignatureError(
            f"strategy {strategy.name!r} declares signature {strategy.signature!r}; "
            "exact evaluation supports wj / wji / wjip only (use Monte Carlo)")
    width = 2 * problem.n + 1
    cells = float(width) ** problem.d * problem.n
    if cells > budget:
        raise BudgetError(
            f"forward propagation needs ~{cells:.3g} cell-steps (budget {budget:.3g})",
            required_transitions=cells)
    if strategy.w_independent and strategy.zero_split_ok:
        return _propagate(strategy, problem)
    return _propagate_scalar(strategy, problem)


# A band holds the mass of one (phase, counter) on the cube |x|_inf <= r,
# as an array of side 2r+1 in every axis, centred on the origin.  Mass
# starts at the origin (r = 0), a step widens the cube by one cell on every
# side, a stand or a split keeps it, and a merge takes the larger one, so no
# band needs an offset.

def _band_add(store: dict, key, arr: np.ndarray, owned: bool) -> None:
    """Accumulate a band into store[key], the smaller band into the centre
    of the larger (float addition commutes, so which one is kept does not
    change a sum)."""
    held = store.get(key)
    if held is None:
        store[key] = arr if owned else arr.copy()
        return
    if held.shape[0] < arr.shape[0]:
        held, arr = (arr if owned else arr.copy()), held
        store[key] = held
    r = (held.shape[0] - arr.shape[0]) // 2
    held[(slice(r, r + arr.shape[0]),) * held.ndim] += arr


def _deposit_split(store, p_zero, p_away, j2, arr, owned):
    """Deposit a band, routing the mass at the origin to its own phase."""
    if p_zero == p_away:
        _band_add(store, (p_zero, j2), arr, owned)
        return
    origin = (arr.shape[0] // 2,) * arr.ndim
    z = arr[origin]
    if z != 0.0:
        if not owned:
            arr = arr.copy()
            owned = True
        arr[origin] = 0.0
        _band_add(store, (p_zero, j2), np.array(z, ndmin=arr.ndim), True)
    _band_add(store, (p_away, j2), arr, owned)


@functools.cache
def _neighbour_slots(d: int) -> tuple:
    """Indices of a band's 2*d neighbour copies inside a band one cell
    wider on every side: axis by axis, -1 before +1."""
    slots = []
    for k in range(d):
        for shifted in (slice(None, -2), slice(2, None)):
            index = [slice(1, -1)] * d
            index[k] = shifted
            slots.append(tuple(index))
    return tuple(slots)


def _spread(arr: np.ndarray, weight: float) -> np.ndarray:
    """``weight`` times one fair step of the band ``arr``, on a band one cell
    wider on every side.  Adds (weight / 2d) * arr for each neighbour in the
    order of ``_neighbour_slots``."""
    q = (weight / (2 * arr.ndim)) * arr
    res = np.zeros([s + 2 for s in arr.shape])
    for index in _neighbour_slots(arr.ndim):
        res[index] += q
    return res


def _propagate(strategy: Strategy, problem: Problem) -> float:
    """Forward propagation of a position-blind strategy: one band of mass
    over positions per (phase, counter), on Z^d."""
    n, m, d = problem.n, problem.m, problem.d
    inv_m = 1.0 / m
    cur = {(strategy.start_phase(problem), 0): np.ones((1,) * d)}
    for i in range(n):
        new: dict = {}
        for (p, j), arr in cur.items():
            dec = strategy.decide(None, j, i, p)
            if dec is Decision.STAND:
                j2 = j + 1
                if j2 > m - 1:
                    raise AdmissibilityError(
                        f"strategy {strategy.name!r} stands at time {i + 1} with "
                        f"counter {j}", time_step=i + 1)
                pz, pa = strategy.zero_split(p, i + 1, j2)
                _deposit_split(new, pz, pa, j2, arr, owned=False)
                continue
            pz, pa = strategy.zero_split(p, i + 1, 0)
            weight = 1.0
            if dec is not Decision.STEP:
                _deposit_split(new, pz, pa, 0, (1.0 - inv_m) * arr, owned=True)
                weight = inv_m
            _deposit_split(new, pz, pa, 0, _spread(arr, weight), owned=True)
        cur = new
    total = 0.0
    for arr in cur.values():
        total += float(arr[(arr.shape[0] // 2,) * d])
    return total


def state_distribution(strategy: Strategy, problem: Problem,
                       at_time: int | None = None) -> dict:
    """Probability mass over (phase, j, position) atoms at a fixed time.

    Scalar reference propagation: handles position-dependent decisions and
    arbitrary phase transitions, at quadratic cost.  The banded engine is
    validated against it on small instances.
    """
    n, m, d = problem.n, problem.m, problem.d
    if at_time is None:
        at_time = n
    if not 0 <= at_time <= n:
        raise ValueError(f"time must lie in [0, {n}], got {at_time}")
    inv_m = 1.0 / m
    moves = _MOVES[d]
    pstep = 1.0 / len(moves)
    cur = {(strategy.start_phase(problem), 0, problem.origin): 1.0}
    for i in range(at_time):
        new: dict = {}
        for (p, j, x), mass in cur.items():
            dec = strategy.decide(x, j, i, p)
            if dec is Decision.STAND:
                j2 = j + 1
                if j2 > m - 1:
                    raise AdmissibilityError(
                        f"strategy {strategy.name!r} stands at time {i + 1} with "
                        f"counter {j}", time_step=i + 1)
                p2 = strategy.next_phase(p, i + 1, x, j2)
                key = (p2, j2, x)
                new[key] = new.get(key, 0.0) + mass
                continue
            targets = []
            if dec is Decision.DELAYED_STEP:
                p2 = strategy.next_phase(p, i + 1, x, 0)
                targets.append(((p2, 0, x), (1.0 - inv_m) * mass))
                w_step = inv_m * mass
            else:
                w_step = mass
            for mv in moves:
                x2 = _add(x, mv, d)
                p2 = strategy.next_phase(p, i + 1, x2, 0)
                targets.append(((p2, 0, x2), w_step * pstep))
            for key, val in targets:
                new[key] = new.get(key, 0.0) + val
        cur = new
    return cur


def _propagate_scalar(strategy: Strategy, problem: Problem) -> float:
    dist = state_distribution(strategy, problem)
    return float(sum(mass for (p, j, x), mass in dist.items()
                     if x == problem.origin))
