"""Law tests for the staged chunk sampler against exact oracles.

Each test states its power.  Chi-square tests bin the outcome into classes
of roughly equal exact probability and reject at level 1e-3; with 9 degrees
of freedom a noncentrality of 34.1 is detected with probability 0.9, i.e. a
relative error of r in one bin of probability p shows once N * p * r^2 >= 34.
"""

import math
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy.stats import binom, chi2

from targetwalk import (McConfig, Problem, ScheduleParams1D, build_schedule_1d,
                        delayed_wrapper, estimate_success, evaluate_strategy_exact,
                        ssrw_return_probability, wilson_interval)
from targetwalk import samplers
from targetwalk.exact import _propagate_scalar
from targetwalk.rng import chunk_generator
from targetwalk.samplers import _TABLE_MAX_LENGTH, _BinomialTable, _seek, _touch_prob
from targetwalk.strategies import Staged, strategy_from_spec

_ALPHA = 1e-3
_BINS = 10


def _walk_pmf(t, y) -> np.ndarray:
    """P(S_t = y) for a 1d simple random walk from 0, elementwise."""
    t, y = np.broadcast_arrays(np.asarray(t), np.asarray(y))
    ok = (np.abs(y) <= t) & ((t + y) % 2 == 0)
    return np.where(ok, binom.pmf((t + y) // 2, t, 0.5), 0.0)


def _ballot_law(M: int, T: int) -> tuple[list, list]:
    """Outcome keys and exact masses of a 1d seek from M > 0 over T steps.

    A hit at t has mass (M/t) P(S_t = M); a miss ending at x > 0 has key
    T + x and mass P(S_T = x - M) - P(S_T = x + M).
    """
    ts, xs = np.arange(1, T + 1), np.arange(1, T + M + 1)
    keys = list(ts) + list(T + xs)
    probs = (list(M / ts * _walk_pmf(ts, M))
             + list(_walk_pmf(T, xs - M) - _walk_pmf(T, xs + M)))
    return keys, probs


def _bin_edges(keys: list, probs: list, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Group sorted outcome keys into about ``bins`` classes of equal mass.

    Returns the right edge (last key) of each class and its exact mass.
    """
    edges, masses = [], []
    acc = 0.0
    for key, p in zip(keys, probs):
        acc += p
        if acc >= 1.0 / bins:
            edges.append(key)
            masses.append(acc)
            acc = 0.0
    edges[-1] = keys[-1]
    masses[-1] += acc
    return np.array(edges), np.array(masses)


def _chi2_pvalue(observed_keys: np.ndarray, edges: np.ndarray,
                 masses: np.ndarray) -> float:
    counts = np.bincount(np.searchsorted(edges, observed_keys), minlength=len(edges))
    assert counts.size == len(edges), "an outcome fell outside the exact support"
    expected = masses / masses.sum() * observed_keys.size
    stat = float(((counts - expected) ** 2 / expected).sum())
    return float(chi2.sf(stat, len(edges) - 1))


def _check_ballot_seek(M: int, T: int) -> None:
    """Seek 10^5 walkers from x = M over T steps; chi-square against the
    ballot law of the hit time or, for a miss, the end position."""
    N = 100_000
    keys, probs = _ballot_law(M, T)
    assert math.isclose(sum(probs), 1.0, rel_tol=1e-12)
    edges, masses = _bin_edges(keys, probs, _BINS)

    end, tau = _seek(chunk_generator(31, 0), np.full((1, N), M, dtype=np.int64), 0, T)
    assert (end[0, tau >= 0] == 0).all()
    assert (tau[tau >= 0] % 2 == M % 2).all()    # the classes cannot see parity
    assert (end[0, tau < 0] > 0).all()
    observed = np.where(tau >= 0, tau, T + end[0])
    assert _chi2_pvalue(observed, edges, masses) > _ALPHA


def test_seek_matches_ballot_law_1d():
    """Seek from x = M = 9 against the ballot law, hit time and miss position.

    The seek draws the endpoint at T = 300, keeps the walkers whose bridge
    touches 0 (by reflection) and bisects each for its first zero over 9
    levels.  The outcome is the hit time tau, with
    P(tau = t) = (M/t) P(S_t = M), or for a miss the end position x > 0,
    with P(tau > T, S_T = x) = P(S_T = x - M) - P(S_T = x + M).  Ten
    classes of mass about 0.1 at N = 10^5: a 6% relative error in any one
    class is caught with probability 0.9.
    """
    _check_ballot_seek(9, 300)


@pytest.mark.parametrize("M", [9, 200])
def test_seek_matches_ballot_law_1d_long(M):
    """The law of ``test_seek_matches_ballot_law_1d`` at T = 4096, 12 levels.

    Ten classes at N = 10^5 again catch a 6% relative error in any one
    class with probability 0.9.  From M = 9 seven classes are hit times;
    from M = 200 (3.1 standard deviations) only 0.18% of walkers hit, so
    the classes test the touch probability through the miss positions.
    """
    _check_ballot_seek(M, 4096)


def _first_passage_2d(start: tuple, T: int) -> np.ndarray:
    """f[t] = P(first visit to the origin at t), t = 0..T, from a diagonal start.

    In diagonal coordinates (a, b) the walk is two independent 1d walks, so
    p_x(t) = P(A_t = 0) P(B_t = 0) from the start x, and the first-passage
    law solves the renewal equation f = p_x - f * p_0 (convolution over
    s = 1..t-1), one dot product per t.
    """
    ts = np.arange(T + 1)
    p0 = _walk_pmf(ts, 0) ** 2
    px = _walk_pmf(ts, start[0]) * _walk_pmf(ts, start[1])
    f = np.zeros(T + 1)
    for t in range(1, T + 1):
        f[t] = px[t] - f[1:t] @ p0[t - 1:0:-1]
    return f


@pytest.mark.parametrize("start, T", [pytest.param((0, 0), 400, id="start0"),
                                      pytest.param((6, 2), 400, id="start1"),
                                      pytest.param((30, 10), 4096, id="start2-4096")])
def test_seek_matches_renewal_law_2d(start, T):
    """Planar seek against the renewal first-passage law.

    Each round bisects one diagonal coordinate's bridge for its first zero
    and reads the other coordinate there; a walker hits when that reads 0.
    From the origin a walker first steps to (+/-1, +/-1); from (30, 10) the
    first round seeks the coordinate at 30, over 12 bisection levels.  The
    outcome is the hit time up to T, or a miss.  At T = 400, ten classes at
    N = 10^5: a 6% relative error in any one class is caught with
    probability 0.9.  From (30, 10) only 16% of walkers hit by T = 4096, so
    there are two classes, the hits up to t = 1702 (mass 0.1) and the rest:
    a 4.3% relative error in the first is caught with probability 0.9.
    """
    N = 100_000
    f = _first_passage_2d(start, T)
    keys = list(range(1, T + 2))           # key T + 1 stands for a miss
    probs = list(f[1:]) + [1.0 - f.sum()]
    edges, masses = _bin_edges(keys, probs, _BINS)

    pos = np.array(start, dtype=np.int64)[:, None].repeat(N, axis=1)
    end, tau = _seek(chunk_generator(32, 0), pos, 0, T)
    assert not end[:, tau >= 0].any()
    assert (tau[tau >= 0] % 2 == start[0] % 2).all()   # the classes cannot see parity
    observed = np.where(tau >= 0, tau, T + 1)
    assert _chi2_pvalue(observed, edges, masses) > _ALPHA


def test_seek_law_holds_across_blocks(monkeypatch):
    """With blocks of 5 steps, a seek over T = 60 crosses 11 block ends.

    Each block draws fresh endpoints and a walker that misses one starts the
    next from its endpoints, so the 1d ballot law and the 2d renewal law
    must hold as they do in one block.  Ten classes at N = 4 * 10^4 per
    law: a 9.5% relative error in any one class is caught with probability
    0.9.
    """
    monkeypatch.setattr(samplers, "_BLOCK", 5)
    T, N = 60, 40_000
    for d, start in ((1, (3,)), (2, (4, 2))):
        if d == 1:
            keys, probs = _ballot_law(start[0], T)
        else:
            f = _first_passage_2d(start, T)
            keys, probs = list(range(1, T + 2)), list(f[1:]) + [1.0 - f.sum()]
        edges, masses = _bin_edges(keys, probs, _BINS)
        pos = np.array(start, dtype=np.int64)[:, None].repeat(N, axis=1)
        end, tau = _seek(chunk_generator(36, d), pos, 0, T)
        assert not end[:, tau >= 0].any()
        assert (tau[tau >= 0] % 2 == start[0] % 2).all()
        observed = np.where(tau >= 0, tau, T + (end[0] if d == 1 else 1))
        assert _chi2_pvalue(observed, edges, masses) > _ALPHA, d


@pytest.mark.parametrize("d", [1, 2])
def test_seek_splits_long_horizons_into_blocks(d):
    """A horizon of 3 * 10^9 steps runs as six blocks of at most 2^29.

    numpy's hypergeometric takes counts below 10^9 only.  64 walkers start
    10^5 away, so in d = 1 nearly all hits fall after the first block; in
    d = 2 a hit from there is very unlikely, but each round's bisection
    still spans the blocks.  Misses end off the origin at the parity of the
    horizon.
    """
    t0, t_end = 12_345, 12_345 + 3_000_000_000
    pos = np.full((d, 64), 100_000, dtype=np.int64)
    end, tau = _seek(chunk_generator(37, d), pos, t0, t_end)
    hit = tau >= 0
    if d == 1:
        assert hit.any() and (~hit).any()
    assert ((tau[hit] > t0) & (tau[hit] <= t_end)).all()
    assert not end[:, hit].any()
    assert end[:, ~hit].any(axis=0).all()
    assert (end[:, ~hit] % 2 == (100_000 + t_end - t0) % 2).all()


def _exact_touch(J: int, A: int, B: int) -> Fraction:
    """C(J, (J+A+B)/2) / C(J, (J+B-A)/2), exactly."""
    up = (J + B - A) // 2
    if up + A > J:
        return Fraction(0)
    if J <= 5000:
        return Fraction(comb(J, up + A), comb(J, up))
    out = Fraction(1)
    for i in range(1, A + 1):
        out *= Fraction(J - up - i + 1, up + i)
    return out


def _touch_cases() -> list:
    cases = []
    for J in (1, 2, 3):                    # every feasible same-side pair
        cases += [(J, A, B) for A in range(1, J + 2) for B in range(1, J + 2)
                  if (J + A + B) % 2 == 0 and abs(A - B) <= J]
    for J in (40, 999, 5000):
        cases += [(J, A, J - A) for A in (1, 2, 3, J - 1)]                # A + B = J
        cases += [(J, A, J - A + 2) for A in (1, 2, J // 3, J - 1)]       # A + B > J
        cases += [(J, A, B) for A in (1, 2, 5, 37, J // 2)
                  for B in (1, 2, 13, J // 4, J // 2) if (J + A + B) % 2 == 0]
    for J in (10 ** 4 + 1, 10 ** 5, 10 ** 6):
        cases += [(J, A, B) for A in (1, 2, 3, 17, 40, 301)
                  for B in (1, 2, 100, 999, 2000, 5001, J - 301)
                  if (J + A + B) % 2 == 0 and A + B <= J + 1]
    return cases


def test_touch_prob_matches_exact_ratios():
    """The same-side touch probability against exact integer ratios.

    Over J = 1..3 (every feasible pair), A + B = J, A + B > J (exactly 0.0)
    and interior pairs up to J = 10^6, the relative error is at most 1e-10.
    math.comb gives the reference up to J = 5000, and beyond it the product
    of the A factors (J - k - i + 1) / (k + i), k = (J + B - A) / 2.  Each
    case runs alone, where small arguments read the lgamma table, and all
    run in one call, which sums the Stirling terms for every case.
    """
    cases = _touch_cases()
    J, A, B = (np.array(col, dtype=np.int64) for col in zip(*cases))
    up = (J + B - A) // 2
    batched = _touch_prob(up, J - up, A)
    alone = [_touch_prob(up[i:i + 1], J[i:i + 1] - up[i:i + 1], A[i:i + 1])[0]
             for i in range(len(cases))]
    for case, values in zip(cases, zip(batched, alone)):
        exact = _exact_touch(*case)
        for value in values:
            if 0 < exact < 1e-300:         # below the normal doubles
                assert value < 1e-290, case
            elif exact == 0:
                assert value == 0.0, case
            else:
                assert abs(Fraction(float(value)) - exact) <= Fraction(1, 10 ** 10) * exact, case


def test_stage_tallies_match_ballot_law():
    """Per-stage counters of the staged sampler against exact 1d laws.

    Stage 1 seeks from the origin over t_1 steps: no hit has probability
    P(S_{t_1} = 0) (t_1 even).  A trial counted as failed-prior in stage 2
    missed that seek and sat in window 1 at t_1, with probability
    2 sum_{x=1..h_1} (x/t_1) P(S_{t_1} = x).  Each frequency must lie within
    3 standard errors at N = 10^5; a bias of 4.3 standard errors (about
    0.0032 and 0.0017 here) fails with probability 0.9.
    """
    p = Problem(d=1, n=400, m=6)
    sched = build_schedule_1d(ScheduleParams1D(n=400, m=6, eta=0.5))
    t1, h1 = sched.times[1], sched.half_widths[1]
    N = 100_000
    rep = estimate_success(McConfig(problem=p, strategy={"name": "windowed_1d", "eta": 0.5},
                                    trials=N, master_seed=33, schedule=sched))
    stages = rep.stage_stats
    xs = np.arange(1, h1 + 1)
    exact = {
        "no_hit": float(_walk_pmf(t1, 0)),
        "failed_prior": float(2 * (xs / t1 * _walk_pmf(t1, xs)).sum()),
    }
    observed = {"no_hit": stages[0]["no_hit_events"] / N,
                "failed_prior": stages[1]["failed_prior_events"] / N}
    for key, q in exact.items():
        se = math.sqrt(q * (1 - q) / N)
        assert abs(observed[key] - q) < 3 * se, (key, observed[key], q)
    assert stages[0]["cond_events"] == N
    assert stages[0]["alive_trials"] == N


@pytest.mark.parametrize("spec, d, n, m", [
    ({"name": "windowed_2d", "epsilon": 0.5}, 2, 60, 8),
    ({"name": "lazy_then_sprint", "delayed": True}, 1, 80, 4),
    ({"name": "lazy_then_sprint", "delayed": True}, 2, 40, 4),
])
def test_fast_and_generic_agree_with_exact(spec, d, n, m, use_generic):
    """Staged and step-by-step samplers both within 3 SE of the exact value.

    A bias of 4.3 standard errors fails the bound with probability 0.9:
    about 0.0024 (windowed_2d, p = 0.066), 0.0036 and 0.0023 (delayed
    lazy_then_sprint, p = 0.166 and 0.063) for the 2*10^5 staged trials, and
    4.5 times that for the 10^4 generic trials.
    """
    p = Problem(d=d, n=n, m=m)
    exact = evaluate_strategy_exact(strategy_from_spec(spec, p), p)
    for trials, generic in ((200_000, False), (10_000, True)):
        if generic:
            use_generic()
        cfg = McConfig(problem=p, strategy=spec, trials=trials, master_seed=34)
        rep = estimate_success(cfg)
        assert rep.to_json_dict()["runtime"]["sampler"] == ("generic" if generic
                                                            else "staged")
        se = math.sqrt(exact * (1 - exact) / trials)
        assert abs(rep.p_hat - exact) < 3 * se, (generic, rep.p_hat, exact)


def _successes(sampler, trials: int, seed: int) -> int:
    """Trials of ``sampler`` that end at the origin, run chunk by chunk."""
    total = 0
    for lo in range(0, trials, samplers._CHUNK):
        pos, _ = sampler.run_chunk(seed, lo, min(lo + samplers._CHUNK, trials))
        total += int(np.count_nonzero(~pos.any(axis=0)))
    return total


@pytest.mark.parametrize("delayed", [False, True])
@pytest.mark.parametrize("p, crawl, times", [
    (Problem(d=1, n=90, m=4), 20, (45, 70, 90)),
    (Problem(d=2, n=40, m=3), 8, (20, 32, 40)),
])
def test_crawl_then_stages_matches_the_references(p, crawl, times, delayed):
    """A crawl followed by three stages, a shape no built-in has.

    The plan engine must equal ``_propagate_scalar``, which follows
    ``decide``/``next_phase`` step by step, within 1e-12 (they agree within
    3e-17).  A plan engine that drops the crawl, or walks it at every time,
    moves these values by 8e-4 to 0.017.

    The exact value must then lie in the z = 4 Wilson interval of both the
    staged sampler (10^5 trials) and the generic one (2 * 10^4 trials); each
    misses it with probability about 6e-5.  A bias of 5.3 standard errors
    is caught with probability 0.9.  On the staged sampler that is 0.0055
    and 0.0050 at d = 1 (p = 0.123, delayed 0.101), and 0.0024 and 0.0021
    at d = 2 (p = 0.022, delayed 0.016); on the generic one it is 2.2 times
    that.
    """
    strat = Staged("staged", p, crawl, times)
    if delayed:
        strat = delayed_wrapper(strat, p)
    exact = evaluate_strategy_exact(strat, p)
    assert exact == pytest.approx(_propagate_scalar(strat, p), abs=1e-12)
    for trials, generic in ((100_000, False), (20_000, True)):
        sampler = (samplers.GenericSampler(p, strat) if generic
                   else samplers.make_sampler(strat, p))
        assert sampler.name == ("generic" if generic else "staged")
        lo, hi = wilson_interval(_successes(sampler, trials, 36), trials, z=4.0)
        assert lo <= exact <= hi, (generic, lo, hi, exact)


@pytest.mark.parametrize("name, delayed, d, n, m", [
    ("always_step", False, 1, 100, 3), ("always_step", False, 2, 100, 3),
    ("lazy_max", False, 1, 1000, 10), ("lazy_max", False, 2, 1000, 10),
    ("lazy_max", False, 1, 1001, 7),                         # 143 steps: p = 0
    # m = 1
    ("always_step", False, 1, 64, 1), ("lazy_max", False, 1, 64, 1),
    ("lazy_max", False, 2, 64, 1), ("lazy_max", True, 1, 64, 1),
    ("lazy_max", True, 2, 64, 1),
    # n < m
    ("always_step", False, 2, 6, 8), ("lazy_max", False, 1, 5, 8),
    ("lazy_max", False, 2, 5, 8),
])
def test_one_segment_plans_match_ssrw_return_probability(name, delayed, d, n, m):
    """``always_step`` (a walk of n steps) and ``lazy_max`` (a crawl of n
    times, n // m steps; delayed at m = 1, Binomial(n, 1) = n steps) on the staged
    sampler against the exact SSRW return law.

    The exact value must lie inside the z = 4 Wilson interval of 4 * 10^5
    trials, which misses it with probability about 6e-5.  A bias of 5.3
    standard errors is caught with probability 0.9: about 3% relative at
    p = 0.08-0.1 (every d = 1 cell with p > 0, and always_step at d = 2,
    n = 6) and 8-11% at p = 0.0063-0.0099 (the other d = 2 cells).  A step
    count off by one is always caught, as its parity gives p = 0 against
    p > 0, and so are the cells with exact p = 0 (an odd step count) and
    p = 1 (lazy_max with n < m takes no step), where one wrong trial fails.
    """
    p = Problem(d=d, n=n, m=m)
    trials = 400_000
    spec = {"name": name, "delayed": True} if delayed else {"name": name}
    rep = estimate_success(McConfig(problem=p, strategy=spec, trials=trials,
                                    master_seed=35))
    assert rep.to_json_dict()["runtime"]["sampler"] == "staged"
    exact = ssrw_return_probability(n if name == "always_step" else n // m, d)
    lo, hi = wilson_interval(rep.successes, trials, z=4.0)
    assert lo <= exact <= hi, (rep.p_hat, exact)


def test_runtime_names_the_sampler(use_generic):
    """``runtime`` names the sampler and counts the chunks and the entries
    of the lead table: L + 1 for a lead of L = walk + crawl // m steps (40,
    13 and 37 // 3 = 12 here), and 0 for a plan without a lead, a delayed
    plan and the generic sampler."""
    cases = [({"name": "always_step"}, "staged", 41), ({"name": "lazy_max"}, "staged", 14),
             ({"name": "lazy_max", "delayed": True}, "staged", 0),
             ({"name": "lazy_then_sprint"}, "staged", 13),
             ({"name": "lazy_then_sprint", "delayed": True}, "staged", 0),
             ({"name": "windowed_1d", "eta": 0.5}, "staged", 0),
             ({"name": "windowed_1d", "eta": 0.5, "delayed": True}, "staged", 0)]
    p = Problem(d=1, n=40, m=3)
    for spec, name, entries in cases:
        cfg = McConfig(problem=p, strategy=spec, trials=5000, master_seed=1)
        runtime = estimate_success(cfg).to_json_dict()["runtime"]
        assert (runtime["sampler"], runtime["chunks"],
                runtime["lead_table_entries"]) == (name, 2, entries), spec
    use_generic()
    cfg = McConfig(problem=p, strategy={"name": "lazy_max"}, trials=50, master_seed=1)
    rep = estimate_success(cfg)
    assert rep.to_json_dict()["runtime"]["sampler"] == "generic"
    assert (rep.chunks, rep.lead_table_entries) == (1, 0)
    assert "runtime" not in rep.to_json_dict(include_runtime=False)


_TABLE_LENGTHS = [0, 1, 2, 63, 64, 1000, 3000]


@pytest.mark.parametrize("length", _TABLE_LENGTHS)
def test_lead_table_cdf_matches_exact_rationals(length):
    """Every finite cdf entry of the lead table is within 1e-13 of the exact
    sum_{i <= lo + j} C(length, i) / 2^length, the entries outside the table
    hold less than 1e-13 of mass, and the last entry is +inf.

    Power: a table built for length - 1 or length + 1 moves the cdf near
    the mode by about one pmf entry, which is above 1e-2 at these lengths
    (at length 0 the table for 1 has two atoms where the law has one), and
    a cdf shifted by one atom is off by as much.
    """
    table = _BinomialTable(length)
    cdf = table.cdf / table.buckets
    lo = (table.shift + length) // 2
    assert 2 * lo - length == table.shift and cdf[-1] == np.inf
    total = 2 ** length
    exact = np.cumsum([comb(length, i) for i in range(lo, lo + cdf.size)],
                      dtype=object)
    for j in range(cdf.size - 1):
        assert abs(Fraction(float(cdf[j])) - Fraction(int(exact[j]), total)) <= 1e-13, j
    below = sum(comb(length, i) for i in range(lo))
    assert Fraction(below, total) < 1e-13
    assert Fraction(total - below - int(exact[-1]), total) < 1e-13


@pytest.mark.parametrize("length", _TABLE_LENGTHS)
def test_lead_table_lookup_inverts_the_cdf(length):
    """The lookup maps a uniform u to the least atom j with u < cdf[j].

    It maps u = cdf[j] to the next atom whose cdf is larger (j + 1 where
    the entries differ), the double just below cdf[j] to the first atom
    whose cdf is that large (j where the entries differ), u = 0 to the
    first atom, and the largest double below 1 to the first atom whose cdf
    rounds to 1 or more: the last atom for length <= 52; beyond, the atoms
    past it hold less than 2^-53 and no double below 1 reaches them.  Each
    bucket's two ends are checked against ``np.searchsorted`` too.

    Power: a guide read one bucket off sends the double below a cdf entry
    in a bucket of its own to the next bucket's atom, j + 1, and fails at
    every length here but 0, whose single atom every u maps to.  A search
    with side="left" sends u = cdf[j] to j and fails at every length above
    2; at 0, 1 and 2 every cdf entry lies on a bucket edge, so no uniform
    that meets one is searched.
    """
    table = _BinomialTable(length)
    cdf = table.cdf / table.buckets
    finite = cdf[:-1]
    u = np.concatenate([finite, np.nextafter(finite, 0.0), [0.0, np.nextafter(1.0, 0.0)],
                        np.arange(table.buckets) / table.buckets,
                        np.nextafter(np.arange(1, table.buckets + 1) / table.buckets, 0.0)])
    u = u[u < 1.0]
    atoms = table.index(u.copy())
    assert atoms.dtype == np.int32
    np.testing.assert_array_equal(atoms, np.searchsorted(cdf, u, side="right"))
    j = np.arange(finite.size)
    rises = finite < cdf[1:]
    inside = finite < 1.0
    np.testing.assert_array_equal(table.index(finite[rises & inside]), j[rises & inside] + 1)
    rose = np.concatenate([[True], finite[1:] > finite[:-1]])
    below = np.nextafter(finite, 0.0)
    np.testing.assert_array_equal(table.index(below[rose & inside]), j[rose & inside])
    first, last = table.index(np.array([0.0, np.nextafter(1.0, 0.0)]))
    assert first == 0
    assert last == (np.flatnonzero(cdf >= 1.0)[0])
    if length <= 52:
        assert last == cdf.size - 1


def test_lead_table_draws_only_from_its_atoms():
    """Draws of a d = 2 chunk land on the table's support with the walk's
    parity; a shift or scale slip moves them off it."""
    table = _BinomialTable(64)
    pos = np.zeros((2, 4096), dtype=np.int64)
    table.add_endpoints(chunk_generator(7, 0).random(pos.shape), pos)
    assert pos.min() >= -64 and pos.max() <= 64 and not (pos % 2).any()
    assert abs(pos.mean()) < 1.0 and 7.0 < pos.std() < 9.0


def test_lead_tables_stop_at_the_length_cap():
    """Leads up to ``_TABLE_MAX_LENGTH`` steps draw from a table; longer
    ones keep numpy's binomial, whose cost does not grow with the length:
    ``always_step`` at d = 1, n = 10^9 over 10 trials takes well under 1 s.
    """
    for n, entries in ((_TABLE_MAX_LENGTH, True), (_TABLE_MAX_LENGTH + 1, False)):
        sampler = samplers.make_sampler(strategy_from_spec({"name": "always_step"},
                                                           Problem(d=1, n=n, m=1)),
                                        Problem(d=1, n=n, m=1))
        assert (sampler.lead_table_entries > 0) == entries, n
    start = time.perf_counter()
    rep = estimate_success(McConfig(problem=Problem(d=1, n=10 ** 9, m=1),
                                    strategy={"name": "always_step"}, trials=10,
                                    master_seed=3))
    assert time.perf_counter() - start < 1.0
    assert rep.lead_table_entries == 0 and rep.chunks == 1

