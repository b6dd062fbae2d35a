"""Law tests for the staged chunk sampler against exact oracles.

Each test states its power.  Chi-square tests bin the outcome into classes
of roughly equal exact probability and reject at level 1e-3; with 9 degrees
of freedom a noncentrality of 34.1 is detected with probability 0.9, i.e. a
relative error of r in one bin of probability p shows once N * p * r^2 >= 34.
"""

import logging
import math
from math import comb

import numpy as np
import pytest
from scipy.stats import chi2

from targetwalk import (McConfig, Problem, ScheduleParams1D, build_schedule_1d,
                        estimate_success, evaluate_strategy_exact,
                        ssrw_return_probability, wilson_interval)
from targetwalk.rng import chunk_generator
from targetwalk.samplers import _seek
from targetwalk.strategies import strategy_from_spec

_ALPHA = 1e-3
_BINS = 10


def _walk_prob(t: int, y: int) -> float:
    """P(S_t = y) for a 1d simple random walk from 0."""
    if abs(y) > t or (t + y) % 2:
        return 0.0
    return comb(t, (t + y) // 2) / 2 ** t


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


def test_seek_matches_ballot_law_1d():
    """Jump seek from x = M against the ballot law, hit time and miss position.

    From M = 9 the first move is one jump of 8 steps, and a walker that
    wanders off takes jumps of its distance minus one, so most of the
    10^5 walkers need several jumps before t = 300.  The outcome is the hit
    time tau, with P(tau = t) = (M/t) P(S_t = M), or for a miss the end
    position x > 0, with P(tau > T, S_T = x) = P(S_T = x - M) - P(S_T = x + M).
    Ten classes of mass about 0.1 at N = 10^5: a 6% relative error in any
    one class is caught with probability 0.9.
    """
    M, T, N = 9, 300, 100_000
    keys, probs = [], []
    for t in range(1, T + 1):
        keys.append(t)
        probs.append(M / t * _walk_prob(t, M))
    for x in range(1, T + M + 1):
        keys.append(T + x)                 # misses sort after every hit time
        probs.append(_walk_prob(T, x - M) - _walk_prob(T, x + M))
    assert math.isclose(sum(probs), 1.0, rel_tol=1e-12)
    edges, masses = _bin_edges(keys, probs, _BINS)

    end, tau = _seek(chunk_generator(31, 0), np.full((1, N), M, dtype=np.int64), 0, T)
    assert (end[0, tau >= 0] == 0).all()
    assert (end[0, tau < 0] > 0).all()
    observed = np.where(tau >= 0, tau, T + end[0])
    assert _chi2_pvalue(observed, edges, masses) > _ALPHA


@pytest.mark.parametrize("start", [(0, 0), (6, 2)])
def test_seek_matches_renewal_law_2d(start):
    """Planar jump seek against the renewal first-passage law.

    In diagonal coordinates (a, b) the walk is two independent 1d walks, so
    p_x(t) = P(A_t = 0) P(B_t = 0) from the start x, and the first-passage
    law solves f = p_x - f * p_0 (convolution over s = 1..t-1).  From the
    origin a walker first steps to max(|a|, |b|) = 1, and those that escape
    take jumps of growing length; from (6, 2) the first move is a 5-step
    jump.  The outcome is the hit time up to T = 400, or a miss.  Ten
    classes at N = 10^5: a 6% relative error in any one class is caught
    with probability 0.9.
    """
    T, N = 400, 100_000
    a0, b0 = start
    p0 = [_walk_prob(t, 0) ** 2 for t in range(T + 1)]
    f = [0.0] * (T + 1)
    for t in range(1, T + 1):
        px = _walk_prob(t, a0) * _walk_prob(t, b0)
        f[t] = px - sum(f[s] * p0[t - s] for s in range(1, t))
    keys = list(range(1, T + 2))           # key T + 1 stands for a miss
    probs = f[1:] + [1.0 - sum(f)]
    edges, masses = _bin_edges(keys, probs, _BINS)

    pos = np.array([[a0], [b0]], dtype=np.int64).repeat(N, axis=1)
    end, tau = _seek(chunk_generator(32, 0), pos, 0, T)
    assert not end[:, tau >= 0].any()
    observed = np.where(tau >= 0, tau, T + 1)
    assert _chi2_pvalue(observed, edges, masses) > _ALPHA


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
    exact = {
        "no_hit": _walk_prob(t1, 0),
        "failed_prior": 2 * sum(x / t1 * _walk_prob(t1, x) for x in range(1, h1 + 1)),
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
def test_fast_and_generic_agree_with_exact(spec, d, n, m):
    """Staged and step-by-step samplers both within 3 SE of the exact value.

    A bias of 4.3 standard errors fails the bound with probability 0.9:
    about 0.0024 (windowed_2d, p = 0.066), 0.0036 and 0.0023 (delayed
    lazy_then_sprint, p = 0.166 and 0.063) for the 2*10^5 staged trials, and
    4.5 times that for the 10^4 generic trials.
    """
    p = Problem(d=d, n=n, m=m)
    exact = evaluate_strategy_exact(strategy_from_spec(spec, p), p)
    for trials, generic in ((200_000, False), (10_000, True)):
        cfg = McConfig(problem=p, strategy=spec, trials=trials, master_seed=34)
        rep = estimate_success(cfg, force_generic=generic)
        assert rep.to_json_dict()["runtime"]["sampler"] == ("generic" if generic
                                                            else "staged")
        se = math.sqrt(exact * (1 - exact) / trials)
        assert abs(rep.p_hat - exact) < 3 * se, (generic, rep.p_hat, exact)


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
    """``always_step`` (one Walk of n steps) and ``lazy_max`` (one Crawl of
    n // m steps; delayed at m = 1, Binomial(n, 1) = n steps) on the staged
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


def test_runtime_names_the_sampler_and_warns_on_generic(caplog):
    cases = [({"name": "always_step"}, "staged"), ({"name": "lazy_max"}, "staged"),
             ({"name": "lazy_max", "delayed": True}, "staged"),
             ({"name": "lazy_then_sprint"}, "staged"),
             ({"name": "windowed_1d", "eta": 0.5}, "staged")]
    p = Problem(d=1, n=40, m=3)
    with caplog.at_level(logging.WARNING, logger="targetwalk.samplers"):
        for spec, name in cases:
            cfg = McConfig(problem=p, strategy=spec, trials=50, master_seed=1)
            assert estimate_success(cfg).to_json_dict()["runtime"]["sampler"] == name
        assert not caplog.records
        cfg = McConfig(problem=p, strategy={"name": "lazy_max"}, trials=50, master_seed=1)
        rep = estimate_success(cfg, force_generic=True)
    assert rep.to_json_dict()["runtime"]["sampler"] == "generic"
    assert "runtime" not in rep.to_json_dict(include_runtime=False)
    assert any("generic" in r.getMessage() for r in caplog.records)
