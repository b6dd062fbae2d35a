"""Reference values that the benchmark checks task outputs against.

``EXACT`` pins what the exact engines returned for the ``exact_solve``
tasks at the commit that introduced the benchmark; a task passes when it
matches to a relative 1e-12.  ``OPTIMAL_FOR_EVALUATE`` pins the optimal value
of each problem an ``evaluate_strategy_exact`` task runs on, for the
dominance rule (evaluated value <= optimal + 1e-10).

``MC`` pins the exact success probability of the Monte Carlo tasks whose
value no cheap public function gives.  Each was derived from ``exact``:

* ``lazy_then_sprint_d1``: ``evaluate_strategy_exact`` with the budget
  lifted (n=10^5 is over the default forward-propagation budget).
* ``lazy_then_sprint_d2``: the lazy phase ends at time n - m after
  (n - m) // m true steps, then the sprint steps until it first hits the
  origin, within m steps.  The value is sum_x P(X = x) P(tau_0 <= m | x),
  with first-passage laws from the renewal equation f = p_x - f * p_0 over
  ``return_probabilities_2d``.  The same formula is checked against
  ``evaluate_strategy_exact`` on a small 2d instance.
* ``lazy_max_delayed_d1``: sum_k Binomial(n, 1/m)(k) P(S_k = 0).

Recompute everything with ``PYTHONPATH=src python3 bench/references.py``;
it takes about a minute and prints each recomputed value next to its pin.
"""

from __future__ import annotations

EXACT_RTOL = 1e-12
DOMINANCE_TOL = 1e-10

EXACT = {
    "optimal_d1_n3000_m64": 0.7462692585517494,
    "optimal_d2_n300_m8": 0.10001012633206272,
    "optimal_full_d1_n400_m64": 0.8475004458585522,
    "evaluate_windowed_1d": 0.5731728522454705,
    "evaluate_windowed_1d_delayed": 0.31809841478180384,
    "evaluate_always_step_d2": 0.0021185320835944233,
}

OPTIMAL_FOR_EVALUATE = {
    (1, 10_000, 100): 0.7611681018460386,
    (2, 300, 8): 0.10001012633206272,
}

MC = {
    "lazy_then_sprint_d1": 0.19457089376732484,
    "lazy_then_sprint_d2": 0.014838375459408734,
    "lazy_max_delayed_d1": 0.012617193117798655,
}


def _first_passage_within(p_x, p_0):
    """P(tau_0 <= L) per row, from return laws p_x[:, t-1], p_0[t-1], t=1..L."""
    import numpy as np

    f = np.zeros_like(p_x)
    for t in range(p_x.shape[1]):
        # f(t) = p_x(t) - sum_{s<t} f(s) p_0(t - s)
        f[:, t] = p_x[:, t] - f[:, :t] @ p_0[:t][::-1]
    return f.sum(axis=1)


def lazy_then_sprint_2d(n: int, m: int) -> float:
    """Exact non-delayed lazy_then_sprint success probability in 2d."""
    import numpy as np

    from targetwalk import return_probabilities_2d

    k = (n - m) // m
    p_0 = return_probabilities_2d((0, 0), m)
    reach = min(k, m)       # only starts within m steps of the origin can hit
    starts, weights = [], []
    for x0 in range(-reach, reach + 1):
        for x1 in range(-reach + abs(x0), reach - abs(x0) + 1):
            if (x0 + x1 + k) % 2:
                continue
            w = return_probabilities_2d((x0, x1), k)[-1]
            if w > 0.0:
                starts.append((x0, x1))
                weights.append(w)
    p_x = np.array([return_probabilities_2d(x, m) for x in starts])
    return float(np.dot(weights, _first_passage_within(p_x, p_0)))


def lazy_max_delayed_1d(n: int, m: int) -> float:
    """Exact delayed lazy_max success probability in 1d."""
    import numpy as np
    from scipy.stats import binom

    from targetwalk import ssrw_return_probability

    k = np.arange(n + 1)
    pk = binom.pmf(k, n, 1.0 / m)
    live = np.nonzero(pk > 1e-300)[0]
    return float(sum(pk[i] * ssrw_return_probability(int(i), 1) for i in live
                     if i % 2 == 0))


def recompute() -> dict:
    """Every pinned value, computed afresh from the package."""
    import targetwalk as tw

    def problem(d, n, m):
        return tw.Problem(d=d, n=n, m=m)

    def windowed(p, delayed=False):
        sched = tw.build_schedule_1d(tw.ScheduleParams1D(n=p.n, m=p.m, eta=0.5))
        spec = {"name": "windowed_1d", "eta": 0.5, "delayed": delayed}
        return tw.strategy_from_spec(spec, p, sched)

    out = {}
    out["optimal_d1_n3000_m64"] = tw.optimal_value(problem(1, 3000, 64))[0]
    out["optimal_d2_n300_m8"] = tw.optimal_value(problem(2, 300, 8))[0]
    out["optimal_full_d1_n400_m64"] = tw.optimal_value(
        problem(1, 400, 64), keep="full", want_policy=True)[0]
    p = problem(1, 10_000, 100)
    out["evaluate_windowed_1d"] = tw.evaluate_strategy_exact(windowed(p), p)
    out["evaluate_windowed_1d_delayed"] = tw.evaluate_strategy_exact(
        windowed(p, delayed=True), p)
    p2 = problem(2, 300, 8)
    out["evaluate_always_step_d2"] = tw.evaluate_strategy_exact(tw.always_step(), p2)
    out[(1, 10_000, 100)] = tw.optimal_value(p, budget=float("inf"))[0]
    out[(2, 300, 8)] = out["optimal_d2_n300_m8"]

    p = problem(1, 100_000, 100)
    out["lazy_then_sprint_d1"] = tw.evaluate_strategy_exact(
        tw.lazy_then_sprint(p), p, budget=float("inf"))
    small = problem(2, 400, 20)
    via_engine = tw.evaluate_strategy_exact(tw.lazy_then_sprint(small), small)
    via_formula = lazy_then_sprint_2d(small.n, small.m)
    if abs(via_engine - via_formula) > 1e-12 * via_engine:
        raise AssertionError(f"2d sprint formula {via_formula!r} disagrees with "
                             f"the exact engine {via_engine!r}")
    out["lazy_then_sprint_d2"] = lazy_then_sprint_2d(100_000, 100)
    small = problem(1, 2000, 10)
    via_engine = tw.evaluate_strategy_exact(
        tw.delayed_wrapper(tw.lazy_max(small), small), small)
    via_formula = lazy_max_delayed_1d(small.n, small.m)
    if abs(via_engine - via_formula) > 1e-9 * via_engine:
        raise AssertionError(f"delayed lazy_max formula {via_formula!r} disagrees "
                             f"with the exact engine {via_engine!r}")
    out["lazy_max_delayed_d1"] = lazy_max_delayed_1d(100_000, 100)
    return out


if __name__ == "__main__":
    pinned = {**EXACT, **OPTIMAL_FOR_EVALUATE, **MC}
    for key, value in recompute().items():
        print(f"{key!r}: {value!r},  # pinned {pinned.get(key)!r}")
