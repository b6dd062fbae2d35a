import json
import math
import time
from decimal import Decimal, localcontext

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
    # kappa = 4/9 at epsilon = 0.5: 2**(1 + 65 * 4/9) <= 2**30 gives 65 stages
    assert stage_count(2**30, 2, 4 / 9) == 65
    with pytest.raises(ScheduleError, match="cap 64"):
        build_schedule_2d(ScheduleParams2D(n=2**30, m=2, epsilon=0.5))


def test_regime_warning_names_the_caller():
    with pytest.warns(UserWarning, match="regime hypothesis weakly satisfied") as record:
        ScheduleParams1D(n=100, m=10, eta=0.999)
    assert [w.filename for w in record] == [__file__]


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
        blob = json.dumps(s.to_json_dict())
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


def test_stage_count_takes_any_positive_exponent():
    # one log estimate, corrected by exact powers: no loop grows as lam
    # shrinks.  1e-5 has no small-denominator form, and the float
    # 1.0000000000000000818e-5 puts 100**(1 + 200_000 lam) above 10**6
    assert stage_count(10**6, 100, 1e-5) == 199_999
    assert stage_count(10**6, 100, 1e-4) == 20_000       # 100**(1 + 2) == 10**6
    assert stage_count(10**6, 100, 1e-300) > 10**300
    assert stage_count(10**6, 100, 5e-324) > 10**323
    # a lam far past log n / log m takes no power: 3**(1 + 10**7) took 3 s
    start = time.perf_counter()
    assert stage_count(10, 3, 1e7) == 0 and stage_count(10**6, 100, 1e300) == 0
    assert time.perf_counter() - start < 0.1


def test_stage_cap_applies_in_one_dimension():
    # eta = 4/9 as in the d = 2 case: 65 stages
    with pytest.raises(ScheduleError, match="cap 64"):
        build_schedule_1d(ScheduleParams1D(n=2**30, m=2, eta=4 / 9))
    with pytest.raises(ScheduleError, match="cap 64"):
        build_schedule_1d(ScheduleParams1D(n=10**6, m=100, eta=1e-300))


def test_schedule_sizes_past_the_float_range_are_refused():
    from targetwalk.schedule import MAX_SIZE

    # at the bound every float the schedule takes is finite
    s = build_schedule_1d(ScheduleParams1D(n=MAX_SIZE, m=2**1000, eta=0.5))
    assert s.times[-1] == MAX_SIZE and s.u == 2
    s = build_schedule_2d(ScheduleParams2D(n=MAX_SIZE, m=2**1000, epsilon=0.5))
    assert s.times[-1] == MAX_SIZE
    for params in (ScheduleParams1D, ScheduleParams2D):
        with pytest.raises(ValueError, match=r"n must be at most 2\*\*1023"):
            params(n=MAX_SIZE + 1, m=2)
        with pytest.raises(ValueError, match=r"n must be at most 2\*\*1023"):
            params(n=10**800, m=10**700)


def test_checkpoint_powers_are_exact_past_the_float_mantissa():
    # m^e reaches 1e27 here, where a float estimate is about 1e11 off; a
    # fix-up by unit steps never finished
    n, m = 9311121896934247819774385769, 45867
    s = build_schedule_1d(ScheduleParams1D(n=n, m=m, eta=1 / 3))
    assert s.u == stage_count(n, m, 1 / 3) > 2
    for k in range(2, s.u + 1):
        power = n - s.times[k]
        assert power ** 3 <= m ** (3 + s.u - k) < (power + 1) ** 3


def test_validate_regime_refuses_past_the_stage_cap():
    # it squared an uncapped stage count: OverflowError at eta = 1e-300
    with pytest.raises(ScheduleError, match="cap 64"):
        validate_regime(ScheduleParams1D(n=10**6, m=100, eta=1e-300))
    # 2**(1 + 65 * 4/9) <= 2**30: 65 stages, one past the cap
    with pytest.raises(ScheduleError, match="cap 64"):
        validate_regime(ScheduleParams1D(n=2**30, m=2, eta=4 / 9))
    assert validate_regime(ScheduleParams1D(n=2**30, m=2, eta=29 / 64)).u_n == 64


@pytest.mark.parametrize("base, p, q", [(2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 2, 3),
                                        (10, 1, 1), (7, 4, 9)])
def test_the_cap_is_exact_at_its_boundary(base, p, q):
    """m = base**q and lam = p/q put m**(1 + k*lam) = base**(q + k*p) on an
    integer n, which has k stages, and n - 1 has k - 1.  The log estimate
    the cap reads first must not refuse the 64 stages of 65's n - 1, which
    reading the estimate itself, not one less, as a lower bound could."""
    from targetwalk.schedule import _capped_stage_count

    m, lam = base**q, p / q
    at_64, at_65 = base ** (q + 64 * p), base ** (q + 65 * p)
    assert _capped_stage_count(at_64, m, lam) == 64
    assert _capped_stage_count(at_64 - 1, m, lam) == 63
    assert _capped_stage_count(at_65 - 1, m, lam) == 64
    with pytest.raises(ScheduleError, match="cap 64"):
        _capped_stage_count(at_65, m, lam)


def test_a_count_far_past_the_cap_is_refused_before_any_power():
    # stage_count's exact powers take about 2 s to reach 5 990 000 stages
    params = ScheduleParams1D(n=3**600 + 5, m=3, eta=0.0001)
    start = time.perf_counter()
    with pytest.raises(ScheduleError, match="cap 64"):
        build_schedule_1d(params)
    with pytest.raises(ScheduleError, match="cap 64"):
        validate_regime(params)
    assert time.perf_counter() - start < 0.2


def test_params_refuse_exponents_outside_their_ranges():
    for eta in (0.0, 1.0):
        with pytest.raises(ValueError, match="eta must lie in"):
            ScheduleParams1D(n=1000, m=10, eta=eta)
    for epsilon in (0.0, 1.0):
        with pytest.raises(ValueError, match="epsilon must lie in"):
            ScheduleParams2D(n=1000, m=10, epsilon=epsilon)
        with pytest.raises(ValueError, match="epsilon must lie in"):
            choose_theta_kappa(epsilon)
    # both in range, but (1 - 0.6) / (1 - 0.54) = 0.87 is not below eps = 0.5
    with pytest.raises(ValueError, match=r"not in \(0, eps=0.5\)"):
        ScheduleParams2D(n=1000, m=10, epsilon=0.5, theta=0.3, kappa=0.9)


@pytest.mark.parametrize("data", [{"d": 1}, {"d": 1, "n": 10, "m": 2, "u": 0,
                                             "times": 5, "half_widths": []}])
def test_schedule_from_json_names_a_missing_or_mistyped_field(data):
    with pytest.raises(ScheduleError, match="malformed schedule"):
        Schedule.from_json_dict(data)


@pytest.mark.parametrize("n, m, lam", [(10**6, 100, 0.5), (10**6, 1000, 1 / 3),
                                       (10**6, 10, 1.0), (10, 10, 1.0),
                                       (2**30, 2, 29 / 64),
                                       (27497316398, 37, 1 / math.sqrt(2))])
def test_stage_count_corrects_a_low_log_estimate_upward(monkeypatch, n, m, lam):
    """With the log estimate forced one low, the exact power comparisons
    must step the count back up; without the upward loop the count would be
    one short."""
    import targetwalk.schedule as schedule

    want = stage_count(n, m, lam)
    estimate = schedule._log_stage_estimate
    monkeypatch.setattr(schedule, "_log_stage_estimate",
                        lambda *args: estimate(*args) - 1)
    assert stage_count(n, m, lam) == want


def test_power_floor_is_exact_without_a_small_denominator():
    """An exponent with no small-denominator form takes the floor of a
    decimal power of m**e.  It equals a 60-digit Decimal floor everywhere
    here, where the float floor it replaces was one too high in some
    cases; a schedule with such an eta takes these floors as its checkpoint
    powers."""
    from fractions import Fraction

    from targetwalk.schedule import _DENOMINATOR, _exponent, _floor_power

    lam = 1 / math.sqrt(2)
    assert _exponent(lam) == Fraction(lam) and Fraction(lam).denominator > _DENOMINATOR
    errors = set()
    for j in range(1, 9):
        e = 1 + j * Fraction(lam)
        for m in range(2, 2 ** int(53 / e), 1 + 2 ** int(53 / e) // 400):
            with localcontext() as ctx:
                ctx.prec = 60
                power = Decimal(m) ** (1 + j * Decimal(lam))
                exact = int(power.to_integral_value("ROUND_FLOOR"))
            errors.add(_floor_power(m, e) - exact)
    assert errors == {0}
    s = build_schedule_1d(ScheduleParams1D(n=10**9, m=100, eta=lam))
    assert [s.n - t for t in s.times[2:-1]] == [
        _floor_power(100, 1 + (s.u - k) * Fraction(lam)) for k in range(2, s.u + 1)]


def test_stage_count_matches_a_decimal_count_without_a_small_denominator():
    """For lam = 1/sqrt(2), against the count of an 80-digit Decimal power,
    at n = floor(m**(1 + k*lam)) - 1, that floor and one past it: a log
    estimate with 1e-12 slack and no exact correction gave 53 of these 165
    wrong, one high (stage_count(27497316398, 37, lam) was 8, though
    37**(1 + 8 lam) > n).  A float lam with a power-of-2 denominator past
    10 000 is exact at a tie too: (14**4)**(1 + 4096 * 3/16384) = 14**7,
    where the log estimate alone is one low."""
    lam = 1 / math.sqrt(2)
    with localcontext() as ctx:
        ctx.prec = 80

        def count(n, m):
            k = 0
            while Decimal(m) ** (1 + (k + 1) * Decimal(lam)) <= n:
                k += 1
            return k

        wrong = []
        for m in (10, 37, 100, 1000, 12345):
            for k in range(1, 12):
                top = math.floor(Decimal(m) ** (1 + k * Decimal(lam)))
                for n in (top - 1, top, top + 1):
                    if stage_count(n, m, lam) != count(n, m):
                        wrong.append((n, m))
    assert wrong == []
    assert stage_count(27497316398, 37, lam) == 7
    assert [stage_count(14**7 + i, 14**4, 3 / 16384) for i in (-1, 0)] == [4095, 4096]
