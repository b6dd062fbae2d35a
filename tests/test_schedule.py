import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetwalk import (Schedule, ScheduleParams1D, ScheduleParams2D, ScheduleError,
                        build_schedule_1d, build_schedule_2d, choose_theta_kappa,
                        stage_count, validate_regime)


def test_stage_count_examples():
    assert stage_count(10**6, 100, 0.5) == 4
    assert stage_count(10, 10, 1.0) == 0
    assert stage_count(10**6, 10, 1.0) == 5


def test_stage_count_boundary_is_exact():
    # 100**3 == 10**6 exactly; float logs must not flip the comparison
    assert stage_count(10**6, 100, 0.5) == 4
    assert stage_count(10**6 - 1, 100, 0.5) == 3
    assert stage_count(10**6, 1000, 1.0 / 3.0) == 3  # 1000**(1+3/3) == 10**6


def test_stage_count_zero_when_m_exceeds_n():
    assert stage_count(10, 100, 0.5) == 0


def test_stage_count_validation():
    with pytest.raises(ValueError):
        stage_count(10, 1, 0.5)
    with pytest.raises(ValueError):
        stage_count(10, 2, 0.0)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(4, 10**6), m=st.integers(2, 1000),
       lam=st.floats(0.1, 2.0, allow_nan=False))
def test_stage_count_monotonicity(n, m, lam):
    u = stage_count(n, m, lam)
    assert stage_count(n + max(1, n // 7), m, lam) >= u
    if m < 1000:
        assert stage_count(n, m + 1, lam) <= u
    assert stage_count(n, m, lam * 1.5) <= u


def test_build_schedule_1d_reference_case():
    s = build_schedule_1d(ScheduleParams1D(n=10**6, m=100, eta=0.5))
    assert s.u == 4
    assert s.times == (0, 495000, 990000, 999000, 999900, 10**6)
    assert abs(s.eps_m - math.log(100) / 10.0) < 1e-12
    assert s.half_widths[2] == 64
    assert s.lengths[2] == 9000    # N_3
    assert s.half_widths[0] == 0 and s.half_widths[-1] == 0


def test_build_schedule_1d_shallow_case_pads_to_two_stages():
    s = build_schedule_1d(ScheduleParams1D(n=1000, m=100, eta=0.5))
    assert s.times == (0, 450, 900, 1000)
    assert s.u == 2


def test_schedule_structure_invariants():
    for (n, m, eta) in [(10**6, 100, 0.5), (10**4, 100, 0.5), (64, 4, 0.5),
                        (10**6, 10**5, 0.5), (2048, 8, 0.3)]:
        s = build_schedule_1d(ScheduleParams1D(n=n, m=m, eta=eta))
        assert s.times[0] == 0 and s.times[-1] == n
        assert all(a < b for a, b in zip(s.times, s.times[1:]))
        assert sum(s.lengths) == n
        assert s.times[s.u] == n - m          # final stage has length exactly m
        assert s.times[1] == s.times[2] // 2
        assert all(h >= 0 for h in s.half_widths)


def test_interior_length_ratio_is_m_to_minus_eta():
    s = build_schedule_1d(ScheduleParams1D(n=10**6, m=100, eta=0.5))
    lengths = s.lengths
    for k in range(3, s.u):        # exact before rounding; allow +-2 slack on times
        ratio_times = lengths[k] / lengths[k - 1]
        ideal = 100 ** -0.5
        slack = 2.0 * (1 / lengths[k - 1] + 1 / lengths[k])
        assert abs(ratio_times - ideal) <= slack + 1e-12


def test_build_schedule_1d_fails_loudly_on_degenerate_rounding():
    with pytest.raises((ScheduleError, ValueError)):
        build_schedule_1d(ScheduleParams1D(n=10, m=9, eta=0.5))


def test_choose_theta_kappa_reference_values():
    theta, kappa = choose_theta_kappa(0.5)
    assert theta == pytest.approx(0.45)
    assert kappa == pytest.approx(4.0 / 9.0)
    theta, kappa = choose_theta_kappa(0.9)
    assert theta == pytest.approx(0.275)
    assert kappa == pytest.approx(0.909090909 / 2.0, rel=1e-6)


@settings(max_examples=120, deadline=None)
@given(eps=st.floats(0.01, 0.99, allow_nan=False))
def test_choose_theta_kappa_satisfies_constraints(eps):
    theta, kappa = choose_theta_kappa(eps)
    assert (1 - eps) / 2 < theta < 0.5
    assert 0.0 < kappa < 1.0
    ratio = (1 - 2 * theta) / (1 - 2 * kappa * theta)
    assert 0.0 < ratio < eps


def test_build_schedule_2d_reference_case():
    s = build_schedule_2d(ScheduleParams2D(n=10**6, m=1000, epsilon=0.5,
                                           theta=0.45, kappa=0.444))
    assert s.u == 2
    assert s.times == (0, 499500, 999000, 10**6)
    assert s.half_widths[0] == 0 and s.half_widths[-1] == 0
    assert all(h < math.sqrt(s.n) for h in s.half_widths)
    assert s.in_window((0, 0), s.u + 1)
    assert not s.in_window((1, 0), s.u + 1)


def test_build_schedule_2d_window_halfwidths():
    s = build_schedule_2d(ScheduleParams2D(n=10**6, m=1000, epsilon=0.5))
    for k in range(1, s.u + 1):
        assert s.half_widths[k] == int(s.lengths[k] ** s.theta)


def test_schedule_params_2d_validation():
    with pytest.raises(ValueError):
        ScheduleParams2D(n=100, m=10, epsilon=0.5, theta=0.2, kappa=0.4)  # theta too small
    with pytest.raises(ValueError):
        ScheduleParams2D(n=100, m=10, epsilon=0.5, theta=0.45, kappa=1.5)


def test_stage_cap_enforced():
    with pytest.raises(ScheduleError):
        build_schedule_2d(ScheduleParams2D(n=10**6, m=2, epsilon=0.5, stage_cap=3))


def test_validate_regime_flagging():
    r = validate_regime(ScheduleParams1D(n=10**6, m=100, eta=0.5))
    assert r.u_n == 4
    assert r.eps_u_sq == pytest.approx(0.46052 * 16, rel=1e-3)
    assert r.flagged
    r2 = validate_regime(ScheduleParams1D(n=10**6, m=10**4, eta=0.5))
    assert r2.u_n == 1
    assert r2.eps_u_sq == pytest.approx(0.0921, rel=1e-2)
    assert not r2.flagged


def test_regime_ratio_vanishes_in_m():
    vals = [validate_regime(ScheduleParams1D(n=10**6, m=m, eta=0.5)).root_ratio
            for m in (100, 1000, 10**4, 10**5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_regime_hypothesis_warning():
    with pytest.warns(UserWarning, match="regime hypothesis"):
        ScheduleParams1D(n=10**6, m=100, eta=0.5)


def test_schedule_json_round_trip():
    for s in (build_schedule_1d(ScheduleParams1D(n=10**4, m=100, eta=0.5)),
              build_schedule_2d(ScheduleParams2D(n=10**4, m=100, epsilon=0.5))):
        blob = s.to_json()
        back = Schedule.from_json_dict(json.loads(blob))
        assert back == s


@pytest.mark.parametrize("field, value", [
    ("m", True), ("n", True), ("u", False), ("d", True), ("d", 3), ("d", 0),
    ("d", 1.0), ("times", [0, True, 10000]), ("half_widths", [0, False, 0])])
def test_schedule_from_json_rejects_bools_and_bad_d(field, value):
    # a bool passes isinstance(v, int); unchecked, "m": true failed later
    # with "terminal stage ... longer than m = True", and "d": true or 3
    # loaded without complaint
    data = build_schedule_1d(ScheduleParams1D(n=10**4, m=100, eta=0.5)).to_json_dict()
    data[field] = value
    with pytest.raises(ScheduleError, match=f"schedule {field} must be"):
        Schedule.from_json_dict(data)
