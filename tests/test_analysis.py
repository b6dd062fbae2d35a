import math
import re

import pytest

from targetwalk import (McConfig, Problem, ScheduleParams1D, ScheduleParams2D,
                        build_schedule_1d, build_schedule_2d, check_hoeffding,
                        check_local_time_ratio, check_normal_approx,
                        check_reflection, estimate_success, fit_scaling,
                        ssrw_return_probability)
from targetwalk.analysis import gaussian_tail_value, hoeffding_bound, hoeffding_exponent
from targetwalk.exact import (expected_local_time, hitting_tail_curve, survivor_counts,
                              window_counts)


def test_check_reflection_small_grid_exact():
    rep = check_reflection(xmax=8, lmax=120)
    assert rep.passed
    assert rep.checked_pairs > 400
    assert rep.excluded_same_parity > 400


def test_reflection_example_pairs():
    # rows are indexed [l][x]
    survivors = list(survivor_counts(2, 2))
    windows = list(window_counts(2, 2))
    assert survivors[2][1] == 2 and windows[2][1] == 2
    assert survivors[1][2] == 2 and windows[1][2] == 2
    # same parity: excluded from the identity, and indeed unequal
    assert survivors[1][1] == 1
    assert windows[1][1] == 0


def test_gaussian_tail_reference_values():
    assert gaussian_tail_value(1.0) == pytest.approx(0.6826894921, abs=1e-9)
    assert gaussian_tail_value(16.0) == pytest.approx(0.1974126514, abs=1e-9)


def test_normal_approx_spot_values():
    curve = hitting_tail_curve(100, [10_000])
    assert curve[10_000] == pytest.approx(gaussian_tail_value(1.0), rel=0.02)
    curve = hitting_tail_curve(50, [16 * 2500])
    assert curve[40_000] < 0.21
    assert gaussian_tail_value(16.0) < 0.21


def test_normal_approx_report():
    rep = check_normal_approx(x_values=(10, 30, 90),
                              y_values=(0.25, 1.0, 4.0, 16.0))
    assert rep.passed
    devs = [rep.max_dev_by_x[x] for x in (10, 30, 90)]
    assert devs[2] <= devs[0] * 1.05


def test_hoeffding_identity_at_exact_ratio():
    # with N_{k+1}/N_k = m^-eta the exponent collapses to log(m)/2,
    # making the bound exactly m^(-1/2)
    s = build_schedule_1d(ScheduleParams1D(n=10**6, m=100, eta=0.5))
    lengths = s.lengths
    k = 3
    assert lengths[k] / lengths[k - 1] == pytest.approx(100 ** -0.5, abs=1e-12)
    assert hoeffding_exponent(s, k) == pytest.approx(math.log(100) / 2, rel=1e-12)
    assert hoeffding_bound(s, k) == pytest.approx(100 ** -0.5, rel=1e-12)
    assert hoeffding_bound(s, k) <= math.sqrt(s.eps_m)


def test_hoeffding_exponent_2d_grows_with_n():
    # along m = sqrt(n) at n = 10^6 the first stage's exponent is positive and
    # every stage's bound is a probability
    s = build_schedule_2d(ScheduleParams2D(n=10**6, m=1000, epsilon=0.5,
                                           theta=0.45, kappa=0.444))
    assert hoeffding_exponent(s, 1) > 0.0
    assert all(hoeffding_bound(s, k) <= 1.0 for k in range(1, s.u + 1))


def test_check_hoeffding_pass_and_fail_paths():
    s = build_schedule_1d(ScheduleParams1D(n=10**4, m=100, eta=0.5))
    base = {"no_hit_events": 0, "overshoot_events": 0, "failed_prior_events": 0,
            "cond_events": 0, "stay_events": 0, "alive_trials": 1000}
    ok_stats = [dict(base, stage=k, hit_trials=1000, overshoot_trials=0)
                for k in range(1, s.u + 2)]
    rep = check_hoeffding(s, ok_stats)
    assert rep.passed
    bad_stats = [dict(r) for r in ok_stats]
    bad_stats[0]["overshoot_trials"] = 990   # frequency ~1 dwarfs any bound+3se
    assert not check_hoeffding(s, bad_stats).passed
    empty = [dict(base, stage=k, hit_trials=0, overshoot_trials=0)
             for k in range(1, s.u + 2)]
    rep = check_hoeffding(s, empty)
    assert rep.passed and all(r.status == "insufficient data" for r in rep.rows
                              if r.stage <= s.u)


def test_check_hoeffding_with_real_mc_data():
    p = Problem(d=1, n=10**4, m=100)
    s = build_schedule_1d(ScheduleParams1D(n=p.n, m=p.m, eta=0.5))
    cfg = McConfig(problem=p, strategy={"name": "windowed_1d", "eta": 0.5},
                   trials=4000, master_seed=14, schedule=s)
    rep = estimate_success(cfg)
    hrep = check_hoeffding(s, rep.stage_stats)
    assert hrep.passed
    assert hrep.rows[-1].overshoots == 0


def local_time_ratio(x, horizon):
    """E(visits to 0 | start x) / E(visits to 0 | start 0) over 1..horizon."""
    return expected_local_time(x, horizon) / expected_local_time((0, 0), horizon)


def test_local_time_ratio_reference_points():
    assert local_time_ratio((0, 0), 512) == 1.0
    r = local_time_ratio((int(2**12 * 0.4 // 1), 0), 2**12)
    assert 0.0 < r < 1.0


def test_local_time_ratio_monotone_in_distance():
    n = 2**12
    vals = [local_time_ratio((x, 0), n) for x in (1, 2, 4, 8)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_check_local_time_report():
    rep = check_local_time_ratio(horizons=(2**10, 2**11, 2**12))
    assert rep.passed
    assert rep.min_ratio > 0.05
    assert rep.log_stability <= 1.10


def test_fit_scaling_exact_slopes():
    ns = [2**k for k in range(8, 15, 2)]
    ps = [ssrw_return_probability(n, 1) for n in ns]
    fit = fit_scaling(ns, ps)
    assert fit.slope == pytest.approx(-0.5, abs=0.01)
    ps2 = [ssrw_return_probability(n, 2) for n in ns]
    fit2 = fit_scaling(ns, ps2)
    assert fit2.slope == pytest.approx(-1.0, abs=0.02)
    assert max(abs(r) for r in fit.residuals) < 0.02


def test_hoeffding_exponent_and_fit_refuse_mismatched_input():
    s = build_schedule_1d(ScheduleParams1D(n=10**6, m=100, eta=0.5))
    for k in (0, s.u + 1):
        with pytest.raises(ValueError, match=f"stage k must be in 1..u={s.u}, got {k}"):
            hoeffding_exponent(s, k)
    with pytest.raises(ValueError, match="x and p must have equal length"):
        fit_scaling([1, 10, 100, 1000], [0.1, 0.2, 0.3])


def test_fit_scaling_degenerate_grids():
    with pytest.raises(ValueError):
        fit_scaling([1, 2, 4], [0.1, 0.2, 0.3])          # too few points
    with pytest.raises(ValueError):
        fit_scaling([1, 2, 3, 4], [0.1, 0.2, 0.3, 0.4])  # under a decade
    with pytest.raises(ValueError):
        fit_scaling([1, 3, 9, 27], [0.1, 0.0, 0.3, 0.4])  # zero estimate
    for x0 in (0, -1, math.nan):                            # x not positive
        with pytest.raises(ValueError, match="degenerate grid"):
            fit_scaling([x0, 10, 100, 1000], [0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ValueError, match="degenerate grid"):
        fit_scaling([1, 10, 100, 1000], [0.1, math.nan, 0.3, 0.4])  # NaN estimate


@pytest.mark.parametrize("horizons", [(), (1,), (1024, 1)], ids=repr)
def test_local_time_ratio_refuses_short_horizons(horizons):
    with pytest.raises(ValueError, match=re.escape(f"horizons >= 2, got {horizons!r}")):
        check_local_time_ratio(horizons=horizons)


@pytest.mark.parametrize("horizons", [(2.5,), (1024.0,), (True,), (1024, False),
                                      (1024, "2048")], ids=repr)
def test_local_time_ratio_refuses_non_integer_horizons(horizons):
    # checked before any horizon is used: a float reached numpy's TypeError
    with pytest.raises(ValueError, match=re.escape(f"horizons >= 2, got {horizons!r}")):
        check_local_time_ratio(horizons=horizons)
