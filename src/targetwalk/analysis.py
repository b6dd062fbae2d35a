"""Numerical checks of the inequalities behind the staged strategies.

Each check compares an exact or empirical quantity against the bound the
staged argument uses, at concrete finite sizes, and reports pass/fail plus
the raw numbers.  Named constants in the bounds are never asserted as such:
checks bound ratios and trends, and fits report their residuals.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exact import (expected_local_time, hitting_tail_curve, survivor_counts,
                    window_counts)
from .schedule import Schedule

#: each larger |x| may deviate from the Gaussian shape at most this many
#: times as much as the previous one
NORMAL_APPROX_SLACK = 1.05
#: local-time starts sit on an axis at distance floor(N**LOCAL_TIME_X_EXPONENT)
LOCAL_TIME_X_EXPONENT = 0.4
#: the local-time ratio must stay above this on the whole horizon grid
LOCAL_TIME_RATIO_FLOOR = 0.05
#: max/min of the from-origin local time over log(N) may exceed 1 by this
LOCAL_TIME_STABILITY_TOL = 0.10
#: a scaling fit needs this many positive points spanning this many decades
FIT_MIN_POINTS = 4
FIT_MIN_DECADES = 1.0


def _phi(t: float) -> float:
    """Standard normal CDF via erf (accurate to ~1e-15)."""
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


def gaussian_tail_value(y: float) -> float:
    """Limit shape of the first-passage tail: 2*(Phi(1/sqrt(y)) - Phi(0))."""
    return 2.0 * (_phi(1.0 / math.sqrt(y)) - 0.5)


# ---------------------------------------------------------------------------
# Reflection identity
# ---------------------------------------------------------------------------

@dataclass
class ReflectionReport:
    xmax: int
    lmax: int
    checked_pairs: int
    excluded_same_parity: int
    mismatches: list[tuple[int, int]]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def check_reflection(xmax: int = 20, lmax: int = 400) -> ReflectionReport:
    """First-passage tail equals the centered-window probability, exactly.

    For every start 1 <= x <= xmax and length l <= lmax of parity opposite
    to x, the number of length-l paths from x avoiding 0 must equal the
    number of length-l paths from 0 ending strictly inside (-x, x).  Both
    sides are exact integers (denominator 2**l), streamed one row per l for
    all starts at once: the absorbing-barrier recursion
    ``exact.survivor_counts`` and the Pascal-row window sums
    ``exact.window_counts``.  So the comparison is equality, not a
    tolerance.  Same-parity pairs are excluded and counted: there the open
    window misses exactly the atom P_0(S_l = x), which is nonzero.  The
    half-open window -x < S_l <= x holds at every pair, and
    ``exact.hitting_tail_curve`` computes the tail from it.
    """
    mismatches = []
    checked = 0
    excluded = 0
    rows = zip(survivor_counts(xmax, lmax), window_counts(xmax, lmax))
    for l, (survivors, windows) in enumerate(rows):
        for x in range(1, xmax + 1):
            if (x + l) % 2 == 0:
                excluded += 1
                continue
            checked += 1
            if survivors[x] != windows[x]:
                mismatches.append((x, l))
    mismatches.sort()
    return ReflectionReport(xmax=xmax, lmax=lmax, checked_pairs=checked,
                            excluded_same_parity=excluded, mismatches=mismatches)


# ---------------------------------------------------------------------------
# Gaussian shape of the first-passage tail
# ---------------------------------------------------------------------------

@dataclass
class NormalApproxRow:
    x: int
    y: float
    l: int
    exact: float
    gaussian: float
    rel_dev: float


@dataclass
class NormalApproxReport:
    rows: list[NormalApproxRow]
    max_dev_by_x: dict[int, float]
    shrinking: bool
    monotone_in_x: bool

    @property
    def passed(self) -> bool:
        return self.shrinking and self.monotone_in_x


def check_normal_approx(x_values: Sequence[int] = (10, 50, 200),
                        y_values: Sequence[float] = (0.25, 0.5, 1.0, 2.0,
                                                     4.0, 8.0, 16.0)
                        ) -> NormalApproxReport:
    """Exact tails P(tau_0 > y*x^2 | x) against the Gaussian limit shape.

    The max relative deviation over the y grid must shrink as |x| grows
    (each larger |x| at most 1.05 times the previous,
    ``NORMAL_APPROX_SLACK``), and at any fixed duration the exact tail must
    be nondecreasing in |x|.
    """
    xs = sorted(int(x) for x in x_values)
    common_ls = sorted(int(round(y * xs[0] ** 2)) for y in y_values)
    rows = []
    max_dev = {}
    tails_at_common = {}
    for x in xs:
        ls = [int(round(y * x * x)) for y in y_values]
        curve = hitting_tail_curve(x, sorted(set(ls) | set(common_ls)))
        tails_at_common[x] = [curve[l] for l in common_ls]
        worst = 0.0
        for y, l in zip(y_values, ls):
            g = gaussian_tail_value(y)
            dev = abs(float(curve[l]) / g - 1.0)
            rows.append(NormalApproxRow(x=x, y=float(y), l=l,
                                        exact=float(curve[l]), gaussian=g, rel_dev=dev))
            worst = max(worst, dev)
        max_dev[x] = float(worst)
    shrinking = all(max_dev[xs[i + 1]] <= max_dev[xs[i]] * NORMAL_APPROX_SLACK
                    for i in range(len(xs) - 1))
    monotone = True
    for li in range(len(common_ls)):
        vals = [tails_at_common[x][li] for x in xs]
        if any(vals[i + 1] < vals[i] - 1e-12 for i in range(len(vals) - 1)):
            monotone = False
    return NormalApproxReport(rows=rows, max_dev_by_x=max_dev,
                              shrinking=shrinking, monotone_in_x=monotone)


# ---------------------------------------------------------------------------
# Stand-block overshoot (Hoeffding) bounds
# ---------------------------------------------------------------------------

def hoeffding_exponent(schedule: Schedule, k: int) -> float:
    """Exponent of the stage-k overshoot bound.

    Stage k <= u; the displacement accumulated while crawling (one step per
    m time steps over at most N_k times) must exceed the window half-width,
    and Hoeffding gives exp(-h^2 / (2 * N_k / m)).  With the schedule's
    half-widths this is m*eps_m*N_{k+1}/(2*N_k) in one dimension and
    m*N_{k+1}^(2*theta)/(2*N_k) in two.
    """
    if not 1 <= k <= schedule.u:
        raise ValueError(f"stage k must be in 1..u={schedule.u}, got {k}")
    lengths = schedule.lengths
    n_k = lengths[k - 1]
    n_next = lengths[k]
    if schedule.d == 1:
        return schedule.m * schedule.eps_m * n_next / (2.0 * n_k)
    return schedule.m * n_next ** (2.0 * schedule.theta) / (2.0 * n_k)


def hoeffding_bound(schedule: Schedule, k: int) -> float:
    e = math.exp(-hoeffding_exponent(schedule, k))
    return min(1.0, e if schedule.d == 1 else 4.0 * e)


@dataclass
class HoeffdingStageRow:
    stage: int
    exponent: Optional[float]
    bound: float
    hits: int
    overshoots: int
    freq: Optional[float]
    se: Optional[float]
    status: str               # "ok" / "insufficient data"
    within: bool


@dataclass
class HoeffdingReport:
    rows: list[HoeffdingStageRow]

    @property
    def passed(self) -> bool:
        return all(r.within for r in self.rows if r.status == "ok")


def check_hoeffding(schedule: Schedule, stage_stats: list[dict]) -> HoeffdingReport:
    """Empirical overshoot frequency per stage against the analytic bound.

    Overshoot = among trials whose seek reached the origin within the stage,
    the walk sat outside the stage window at the checkpoint.  The empirical
    frequency must not exceed the bound by more than 3 binomial standard
    errors.  The terminal stage stands at the origin after its hit, so its
    overshoot count must be exactly zero.
    """
    rows = []
    for row in stage_stats:
        k = row["stage"]
        hits = row["hit_trials"]
        overs = row["overshoot_trials"]
        if k == schedule.u + 1:
            rows.append(HoeffdingStageRow(
                stage=k, exponent=None, bound=0.0, hits=hits, overshoots=overs,
                freq=(overs / hits if hits else None),
                se=0.0 if hits else None,
                status="ok" if hits else "insufficient data",
                within=(overs == 0)))
            continue
        bound = hoeffding_bound(schedule, k)
        expo = hoeffding_exponent(schedule, k)
        if hits == 0:
            rows.append(HoeffdingStageRow(
                stage=k, exponent=expo, bound=bound, hits=0, overshoots=0,
                freq=None, se=None, status="insufficient data", within=True))
            continue
        freq = overs / hits
        se = math.sqrt(freq * (1.0 - freq) / hits)
        rows.append(HoeffdingStageRow(
            stage=k, exponent=expo, bound=bound, hits=hits, overshoots=overs,
            freq=freq, se=se, status="ok", within=freq <= bound + 3.0 * se))
    return HoeffdingReport(rows=rows)


# ---------------------------------------------------------------------------
# Local-time ratio (two dimensions)
# ---------------------------------------------------------------------------

@dataclass
class LocalTimeRow:
    horizon: int
    x: int
    numerator: float
    denominator: float
    ratio: float
    den_over_log: float


@dataclass
class LocalTimeReport:
    rows: list[LocalTimeRow]
    min_ratio: float
    log_stability: float        # max/min of den/log(N) across the grid

    @property
    def passed(self) -> bool:
        return (self.min_ratio > LOCAL_TIME_RATIO_FLOOR
                and self.log_stability <= 1.0 + LOCAL_TIME_STABILITY_TOL)


def check_local_time_ratio(horizons: Sequence[int] = tuple(2 ** k for k in range(10, 15))
                           ) -> LocalTimeReport:
    """Exact local-time ratios across a grid of horizons.

    The ratio is E(visits to 0 | start x) / E(visits to 0 | start 0) over
    1..N, a rigorous lower bound on the probability of hitting the origin
    within N from x: conditioning the visit count on "at least one visit"
    can only push its mean up to the from-the-origin value.

    Starts sit on an axis at distance floor(N**0.4)
    (``LOCAL_TIME_X_EXPONENT``).  The ratio must stay above 0.05
    (``LOCAL_TIME_RATIO_FLOOR``) on the whole grid, and the from-origin
    expected local time divided by log(N) must be stable within 0.10
    (``LOCAL_TIME_STABILITY_TOL``), the logarithmic growth that makes the
    ratio work.  An empty grid, or a horizon that is not an integer (a bool
    or an integral float included) or is below 2, raises ValueError.
    """
    if not horizons or any(isinstance(n, bool) or not isinstance(n, numbers.Integral)
                           or n < 2 for n in horizons):
        raise ValueError(f"horizons must be a nonempty grid of integer horizons >= 2, "
                         f"got {tuple(horizons)!r}")
    rows = []
    for n in horizons:
        xd = int(math.floor(n ** LOCAL_TIME_X_EXPONENT))
        num = expected_local_time((xd, 0), n)
        den = expected_local_time((0, 0), n)
        rows.append(LocalTimeRow(horizon=n, x=xd, numerator=num, denominator=den,
                                 ratio=num / den, den_over_log=den / math.log(n)))
    stab = [r.den_over_log for r in rows]
    return LocalTimeReport(rows=rows, min_ratio=min(r.ratio for r in rows),
                           log_stability=max(stab) / min(stab))


# ---------------------------------------------------------------------------
# Scaling fits
# ---------------------------------------------------------------------------

@dataclass
class FitResult:
    slope: float
    stderr: float
    intercept: float
    residuals: list[float]


def fit_scaling(x_values: Sequence[float], p_values: Sequence[float]) -> FitResult:
    """Least-squares slope of log p against log x.

    Requires at least 4 (``FIT_MIN_POINTS``) strictly positive estimates at
    strictly positive x spanning at least 1 (``FIT_MIN_DECADES``) decade;
    raises ValueError on a degenerate grid (too few points, an x or an
    estimate that is not positive, or too narrow a span).
    """
    x = np.asarray(x_values, dtype=float)
    p = np.asarray(p_values, dtype=float)
    if len(x) != len(p):
        raise ValueError("x and p must have equal length")
    if len(x) < FIT_MIN_POINTS:
        raise ValueError(f"degenerate grid: need >= {FIT_MIN_POINTS} points, got {len(x)}")
    for name, values in (("x values", x), ("estimates", p)):
        if not np.all(values > 0.0):        # NaN included
            raise ValueError(f"degenerate grid: {name} that are not positive "
                             "cannot be log-fitted")
    span = math.log10(x.max() / x.min())
    if span < FIT_MIN_DECADES - 1e-9:
        raise ValueError(f"degenerate grid: x spans {span:.3g} decades "
                         f"< {FIT_MIN_DECADES}")
    lx, lp = np.log(x), np.log(p)
    coeffs, cov = np.polyfit(lx, lp, 1, cov=True)
    fitted = np.polyval(coeffs, lx)
    return FitResult(slope=float(coeffs[0]), stderr=float(math.sqrt(cov[0, 0])),
                     intercept=float(coeffs[1]),
                     residuals=[float(r) for r in (lp - fitted)])
