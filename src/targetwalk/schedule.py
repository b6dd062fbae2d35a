"""Space-time window schedules for the staged strategies.

A schedule is a sequence of checkpoint times 0 = t_0 < t_1 < ... < t_{u+1} = n
together with spatial windows around the origin at each checkpoint: intervals
[-h_k, h_k] in one dimension, squares [-h_k, h_k]^2 in two.  The staged
strategy seeks the origin inside each stage (t_{k-1}, t_k] and then crawls
(one SSRW step every m-th time step) to stay parked near it; the windows are
the yardstick for how well that works, not an input to the strategy itself.

Checkpoint layout: t_k = n - floor(m^(1 + lam*(u-k))) for 2 <= k <= u, with
t_1 = floor(t_2/2) and t_{u+1} = n, where lam is the stage exponent (eta in
one dimension, kappa in two).  The stage count u is the largest k with
m^(1+k*lam) <= n, floored at 2 so that the final stage always has length
exactly m and the first stage is the half-split of the second checkpoint.
Both are exact: lam counts as its small-denominator form p/q when it has
one, else as the float's own value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from .errors import ScheduleError

SCHEMA_VERSION = 1

# Stage exponents below this make the checkpoint grid needlessly deep; the
# default theta/kappa picker shifts theta upward until kappa clears it.
_KAPPA_FLOOR = 1.0 / 3.0

#: the most stages a schedule may have
STAGE_CAP = 64

#: the largest n a schedule takes (see ``_check_sizes``)
MAX_SIZE = 2 ** 1023


def _check_sizes(n: int, m: int) -> None:
    """Refuse m < 2, n <= m and n > ``MAX_SIZE`` with ValueError.

    A schedule is built in floats: the regime ratio and eps_m take
    m^(1-eta), and ``_checkpoint_times`` floors powers m^e of at most n,
    starting Newton's method from float estimates up to 1e-9 above them.
    With m < n <= 2^1023 each of them stays below 2^(1023 + 1e-8) < 2^1024,
    past which a float overflows.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2 for a schedule, got {m}")
    if n <= m:
        raise ValueError(f"need n > m, got n={n}, m={m}")
    if n > MAX_SIZE:
        raise ValueError("n must be at most 2**1023 for a schedule, which is "
                         "built in floats")


@dataclass(frozen=True)
class ScheduleParams1D:
    n: int
    m: int
    eta: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        _check_sizes(self.n, self.m)
        hyp = self.m ** (1.0 - self.eta) * math.log(self.m) / math.log(max(self.n, 2)) ** 2
        if hyp < 10.0:
            # level 3 skips the dataclass-generated __init__ and names the
            # line that builds the params
            warnings.warn(
                f"regime hypothesis weakly satisfied: m^(1-eta)*log(m)/log(n)^2 = "
                f"{hyp:.3g} < 10", stacklevel=3)


@dataclass(frozen=True)
class ScheduleParams2D:
    n: int
    m: int
    epsilon: float = 0.5
    theta: float | None = None
    kappa: float | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        _check_sizes(self.n, self.m)
        theta, kappa = self.theta, self.kappa
        if theta is None or kappa is None:
            t, k = choose_theta_kappa(self.epsilon)
            theta = t if theta is None else theta
            kappa = k if kappa is None else kappa
            object.__setattr__(self, "theta", theta)
            object.__setattr__(self, "kappa", kappa)
        if not (1.0 - self.epsilon) / 2.0 < theta < 0.5:
            raise ValueError(f"theta={theta} outside ((1-eps)/2, 1/2) for eps={self.epsilon}")
        if not 0.0 < kappa < 1.0:
            raise ValueError(f"kappa={kappa} outside (0, 1)")
        ratio = (1.0 - 2.0 * theta) / (1.0 - 2.0 * kappa * theta)
        if not 0.0 < ratio < self.epsilon:
            raise ValueError(
                f"(1-2*theta)/(1-2*kappa*theta) = {ratio:.6g} not in (0, eps={self.epsilon})")


@dataclass(frozen=True)
class Schedule:
    """Checkpoint times, window half-widths, and the constants behind them.

    ``half_widths[k]`` is the half-width of the window at ``times[k]``;
    entries 0 and u+1 are zero (the terminal windows are the origin alone).
    """

    d: int
    n: int
    m: int
    u: int
    times: tuple[int, ...]
    half_widths: tuple[int, ...]
    eps_m: float | None = None
    eta: float | None = None
    epsilon: float | None = None
    theta: float | None = None
    kappa: float | None = None

    @property
    def lengths(self) -> tuple[int, ...]:
        """Stage lengths N_k = t_k - t_{k-1} for k = 1..u+1."""
        return tuple(self.times[k] - self.times[k - 1] for k in range(1, self.u + 2))

    def to_json_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "d": self.d, "n": self.n, "m": self.m, "u": self.u,
            "times": list(self.times),
            "half_widths": list(self.half_widths),
        }
        for key in ("eps_m", "eta", "epsilon", "theta", "kappa"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "Schedule":
        """Inverse of ``to_json_dict``.

        Raises ScheduleError naming the field unless d is 1 or 2; d, n, m,
        u, the times and the half-widths are integers (not bools); the u+2
        times run strictly increasing from 0 to n; the u+2 half-widths are
        non-negative; and the terminal stage is at most m long (the staged
        samplers stand through it).
        """
        try:
            sched = cls(d=data["d"], n=data["n"], m=data["m"], u=data["u"],
                        times=tuple(data["times"]),
                        half_widths=tuple(data["half_widths"]),
                        eps_m=data.get("eps_m"), eta=data.get("eta"),
                        epsilon=data.get("epsilon"), theta=data.get("theta"),
                        kappa=data.get("kappa"))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ScheduleError(f"malformed schedule: missing or mistyped {exc}") from exc
        for name in ("d", "n", "m", "u", "times", "half_widths"):
            value = getattr(sched, name)
            if not all(isinstance(v, int) and not isinstance(v, bool)
                       for v in (value if isinstance(value, tuple) else (value,))):
                raise ScheduleError(f"schedule {name} must be integers, got {value!r}")
        if sched.d not in (1, 2):
            raise ScheduleError(f"schedule d must be 1 or 2, got {sched.d}")
        times, widths, u = sched.times, sched.half_widths, sched.u
        if u < 0 or len(times) != u + 2 or len(widths) != u + 2:
            raise ScheduleError(f"need u+2 = {u + 2} times and half-widths, got "
                                f"{len(times)} and {len(widths)}")
        if times[0] != 0 or times[-1] != sched.n:
            raise ScheduleError(f"times must run from 0 to n = {sched.n}, got "
                                f"{times[0]} .. {times[-1]}")
        if any(a >= b for a, b in zip(times, times[1:])):
            raise ScheduleError(f"times must be strictly increasing, got {list(times)}")
        if min(widths) < 0:
            raise ScheduleError(f"half-widths must be non-negative, got {list(widths)}")
        if times[-1] - times[-2] > sched.m:
            raise ScheduleError(f"terminal stage ({times[-2]}, {times[-1]}] is longer "
                                f"than m = {sched.m}")
        return sched


# exponents with a denominator up to this are compared by exact integer powers
_DENOMINATOR = 10_000


def _exponent(lam: float) -> Fraction:
    """``lam`` as an exact rational: p/q with q <= ``_DENOMINATOR`` when one
    is within 1e-15 of it (1/3 for 1.0 / 3.0), else the float's own value,
    whose denominator is then a power of 2 past ``_DENOMINATOR``."""
    f = Fraction(lam).limit_denominator(_DENOMINATOR)
    return f if f and abs(float(f) - lam) <= 1e-15 * max(1.0, lam) else Fraction(lam)


def _power_leq(m: int, exponent: Fraction, n: int) -> bool:
    """Exact test of m**exponent <= n.  A denominator q up to
    ``_DENOMINATOR`` compares m**p with n**q.  A larger one makes
    m**exponent irrational (m < 2**q is no perfect q-th power), and logs to
    50 digits past the digits of q decide: were log n / log m a fraction,
    its denominator would be at most log2 m, more than 1 / (q log2 m) away."""
    if (m.bit_length() - 1) * exponent >= n.bit_length():
        return False    # m**exponent >= 2**n.bit_length(): no power is taken
    p, q = exponent.numerator, exponent.denominator
    if q <= _DENOMINATOR:
        return m ** p <= n ** q
    with localcontext() as ctx:
        ctx.prec = 50 + len(str(q))
        return Decimal(m).ln() * p / q <= Decimal(n).ln()


def _log_stage_estimate(n: int, m: int, lam: Fraction) -> int:
    """floor((log n / log m - 1) / lam), from logs to 40 digits past the
    quotient's integer part: the stage count, or one more or less where
    m**(1 + k*lam) lies within about 1e-40 of n."""
    with localcontext() as ctx:
        ctx.prec = 45 + len(str(lam.denominator // lam.numerator))
        ratio = Decimal(n).ln() / Decimal(m).ln()
        return math.floor((ratio - 1) * lam.denominator / lam.numerator)


def stage_count(n: int, m: int, lam: float) -> int:
    """Largest k >= 0 with m**(1 + k*lam) <= n; 0 when even m itself exceeds n.

    ``lam`` counts as its rational form ``_exponent``.  The log form
    k <= (log n / log m - 1) / lam gives k within one, and exact power
    comparisons correct it; the log form's precision grows with 1 / lam,
    so no small lam overflows it.
    """
    if n < 1 or m < 2 or lam <= 0.0:
        raise ValueError(f"need n >= 1, m >= 2, lam > 0; got n={n}, m={m}, lam={lam}")
    if m > n:
        return 0
    frac = _exponent(lam)
    return _corrected_count(n, m, frac, _log_stage_estimate(n, m, frac))


def _corrected_count(n: int, m: int, frac: Fraction, k: int) -> int:
    """Largest k >= 0 with m**(1 + k*frac) <= n, for m <= n, from the log
    estimate ``k`` by exact power comparisons."""
    while k > 0 and not _power_leq(m, 1 + k * frac, n):
        k -= 1
    while _power_leq(m, 1 + (k + 1) * frac, n):
        k += 1
    return k


def _floor_power(m: int, exponent: Fraction) -> int:
    """floor(m**exponent), exact.  A denominator q up to ``_DENOMINATOR``
    takes the integer q-th root of m**p by Newton's method, from just above
    the float estimate, which converges in a few steps at any size.  A
    larger one makes m**exponent irrational (see ``_power_leq``), and it is
    floored from a decimal power 30 digits past its integer part."""
    p, q = exponent.numerator, exponent.denominator
    if q == 1:
        return m ** p
    if q <= _DENOMINATOR:
        power = m ** p
        root = int(m ** float(exponent) * (1.0 + 1e-9)) + 1
        while True:
            lower = ((q - 1) * root + power // root ** (q - 1)) // q
            if lower >= root:
                return root
            root = lower
    with localcontext() as ctx:
        ctx.prec = 31 + int(float(exponent) * math.log10(m))
        return math.floor((Decimal(m).ln() * p / q).exp())


def _capped_stage_count(n: int, m: int, lam: float) -> int:
    """``stage_count`` of the sizes a schedule takes (2 <= m < n), or
    ScheduleError when it exceeds ``STAGE_CAP``.  One log estimate serves
    both steps: one less than it, a lower bound, is compared with the cap
    first, so a refused count takes no exact power of a large n; then the
    exact powers correct it."""
    frac = _exponent(lam)
    k = _log_stage_estimate(n, m, frac)
    if k - 1 > STAGE_CAP:
        raise ScheduleError(f"stage count exceeds the cap {STAGE_CAP}")
    u_n = _corrected_count(n, m, frac, k)
    if u_n > STAGE_CAP:
        raise ScheduleError(f"stage count {u_n} exceeds the cap {STAGE_CAP}")
    return u_n


def _checkpoint_times(n: int, m: int, lam: float) -> tuple[int, ...]:
    """The u + 2 checkpoint times, u = max(stage_count, 2); ScheduleError
    before any power is taken when the stage count exceeds ``STAGE_CAP``."""
    u = max(_capped_stage_count(n, m, lam), 2)
    frac = _exponent(lam)
    times = [0] * (u + 2)
    times[u + 1] = n
    for k in range(2, u + 1):
        times[k] = n - _floor_power(m, 1 + frac * (u - k))
    times[1] = times[2] // 2
    for k in range(u + 1):
        if times[k] >= times[k + 1]:
            raise ScheduleError(
                f"checkpoint times not strictly increasing after rounding: "
                f"t_{k}={times[k]} >= t_{k + 1}={times[k + 1]} (n={n}, m={m}, lam={lam})")
    return tuple(times)


def _build_schedule(d: int, params, lam: float, width, **constants) -> Schedule:
    """The checkpoint grid of stage exponent ``lam`` with half-widths
    ``width(N_{k+1})`` at the inner checkpoints, recording ``constants``."""
    times = _checkpoint_times(params.n, params.m, lam)
    widths = [0] + [width(b - a) for a, b in zip(times[1:-1], times[2:])] + [0]
    return Schedule(d=d, n=params.n, m=params.m, u=len(times) - 2, times=times,
                    half_widths=tuple(widths), **constants)


def build_schedule_1d(params: ScheduleParams1D) -> Schedule:
    """Window schedule for the one-dimensional staged strategy.

    Half-widths are floor(sqrt(eps_m * N_{k+1})) with
    eps_m = log(m) / m**(1 - eta) (natural log).  Raises ScheduleError when
    the stage count exceeds ``STAGE_CAP`` (64).
    """
    eps_m = math.log(params.m) / params.m ** (1.0 - params.eta)
    return _build_schedule(
        1, params, params.eta, lambda length: math.floor(math.sqrt(eps_m * length)),
        eps_m=eps_m, eta=params.eta)


def build_schedule_2d(params: ScheduleParams2D) -> Schedule:
    """Window schedule for the two-dimensional staged strategy.

    Same checkpoint grid with kappa as the stage exponent; square windows of
    half-width floor(N_{k+1}**theta).  Raises ScheduleError when the stage
    count exceeds ``STAGE_CAP`` (64).
    """
    return _build_schedule(
        2, params, params.kappa, lambda length: math.floor(length ** params.theta),
        epsilon=params.epsilon, theta=params.theta, kappa=params.kappa)


def choose_theta_kappa(epsilon: float) -> tuple[float, float]:
    """Default (theta, kappa) for a given epsilon in (0, 1).

    theta starts at the midpoint (2 - eps)/4 of the allowed interval
    ((1-eps)/2, 1/2) and kappa at half the critical value solving
    (1-2*theta)/(1-2*kappa*theta) = eps, which works out to
    kappa = 1/(2*(2-eps)).  When that leaves kappa at or below 1/3 (epsilon
    <= 1/2), theta is shifted toward 1/2 so that 1 - 2*theta = eps/5, giving
    kappa = 2/(5 - eps) with comfortable slack in both strict inequalities.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    kappa_mid = 1.0 / (2.0 * (2.0 - epsilon))
    if kappa_mid > _KAPPA_FLOOR:
        theta, kappa = (2.0 - epsilon) / 4.0, kappa_mid
    else:
        theta, kappa = (1.0 - epsilon / 5.0) / 2.0, 2.0 / (5.0 - epsilon)
    ratio = (1.0 - 2.0 * theta) / (1.0 - 2.0 * kappa * theta)
    assert (1.0 - epsilon) / 2.0 < theta < 0.5
    assert 0.0 < ratio < epsilon and 0.0 < kappa < 1.0
    return theta, kappa


@dataclass(frozen=True)
class RegimeReport:
    """Finite-size diagnostics for the 1d window argument.

    ``eps_u_sq`` (= eps_m * u_n**2) must be small for the staged argument to
    have any force; ``root_ratio`` is its square root, u_n / (m^(1-eta)/log m)^(1/2).
    """

    n: int
    m: int
    eta: float
    u_n: int
    eps_m: float
    root_ratio: float
    eps_u_sq: float
    flagged: bool
    hypothesis_ratio: float

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "n": self.n, "m": self.m, "eta": self.eta, "u_n": self.u_n,
            "eps_m": self.eps_m, "root_ratio": self.root_ratio,
            "eps_u_sq": self.eps_u_sq, "flagged": self.flagged,
            "hypothesis_ratio": self.hypothesis_ratio,
        }


def validate_regime(params: ScheduleParams1D) -> RegimeReport:
    """Advisory report on how asymptotic the (n, m, eta) combination is.

    Flags eps_m * u_n**2 > 0.1 (the quantity that must vanish for the staged
    windows to succeed with high probability); also reports the ratio
    m**(1-eta) * log(m) / log(n)**2, which should be large.  Raises
    ScheduleError, as the schedule builder does, when u_n exceeds
    ``STAGE_CAP``.
    """
    n, m, eta = params.n, params.m, params.eta
    u_n = _capped_stage_count(n, m, eta)
    eps_m = math.log(m) / m ** (1.0 - eta)
    eps_u_sq = eps_m * u_n ** 2
    root_ratio = u_n * math.sqrt(eps_m)
    hyp = m ** (1.0 - eta) * math.log(m) / math.log(n) ** 2
    flagged = eps_u_sq > 0.1
    return RegimeReport(n=n, m=m, eta=eta, u_n=u_n, eps_m=eps_m,
                        root_ratio=root_ratio, eps_u_sq=eps_u_sq,
                        flagged=flagged, hypothesis_ratio=hyp)
