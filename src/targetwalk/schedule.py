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
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import ScheduleError

SCHEMA_VERSION = 1

# Stage exponents below this make the checkpoint grid needlessly deep; the
# default theta/kappa picker shifts theta upward until kappa clears it.
_KAPPA_FLOOR = 1.0 / 3.0


@dataclass(frozen=True)
class ScheduleParams1D:
    n: int
    m: int
    eta: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if self.m < 2:
            raise ValueError(f"m must be >= 2 for a schedule, got {self.m}")
        if self.n <= self.m:
            raise ValueError(f"need n > m, got n={self.n}, m={self.m}")
        hyp = self.m ** (1.0 - self.eta) * math.log(self.m) / math.log(max(self.n, 2)) ** 2
        if hyp < 10.0:
            warnings.warn(
                f"regime hypothesis weakly satisfied: m^(1-eta)*log(m)/log(n)^2 = "
                f"{hyp:.3g} < 10", stacklevel=2)


@dataclass(frozen=True)
class ScheduleParams2D:
    n: int
    m: int
    epsilon: float = 0.5
    theta: float | None = None
    kappa: float | None = None
    stage_cap: int = 64

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.m < 2:
            raise ValueError(f"m must be >= 2 for a schedule, got {self.m}")
        if self.n <= self.m:
            raise ValueError(f"need n > m, got n={self.n}, m={self.m}")
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

    def in_window(self, w, k: int) -> bool:
        h = self.half_widths[k]
        if self.d == 1:
            return abs(w) <= h
        return abs(w[0]) <= h and abs(w[1]) <= h

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

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

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


def _as_fraction(x: float) -> Fraction | None:
    """Rational form of x when it has a small exact denominator, else None."""
    f = Fraction(x).limit_denominator(10_000)
    return f if abs(float(f) - x) <= 1e-15 * max(1.0, abs(x)) else None


def _power_leq(m: int, exponent: Fraction, n: int) -> bool:
    """Exact test of m**exponent <= n for rational exponents."""
    return m ** exponent.numerator <= n ** exponent.denominator


def stage_count(n: int, m: int, lam: float) -> int:
    """Largest k >= 0 with m**(1 + k*lam) <= n; 0 when even m itself exceeds n.

    Uses exact integer power comparisons when ``lam`` is rational with a
    small denominator, otherwise log comparisons with 1e-12 relative slack.
    """
    if n < 1 or m < 2 or lam <= 0.0:
        raise ValueError(f"need n >= 1, m >= 2, lam > 0; got n={n}, m={m}, lam={lam}")
    if m > n:
        return 0
    frac = _as_fraction(lam)
    log_n, log_m = math.log(n), math.log(m)
    k = 0
    while True:
        e = 1.0 + (k + 1) * lam
        if frac is not None:
            ok = _power_leq(m, 1 + (k + 1) * frac, n)
        else:
            ok = e * log_m <= log_n * (1.0 + 1e-12)
        if not ok:
            return k
        k += 1
        if k > 10_000:  # lam > 0 and m >= 2 make this unreachable
            raise RuntimeError("stage_count failed to terminate")


def _floor_power(m: int, exponent: float, frac_exp: Fraction | None) -> int:
    """floor(m**exponent), exact when the exponent is rational."""
    if frac_exp is not None:
        if frac_exp.denominator == 1:
            return m ** frac_exp.numerator
        cand = int(m ** float(frac_exp))
        # fix float drift around integer boundaries
        while (cand + 1) ** frac_exp.denominator <= m ** frac_exp.numerator:
            cand += 1
        while cand ** frac_exp.denominator > m ** frac_exp.numerator:
            cand -= 1
        return cand
    return int(math.floor(m ** exponent))


def _checkpoint_times(n: int, m: int, lam: float, u: int) -> tuple[int, ...]:
    frac = _as_fraction(lam)
    times = [0] * (u + 2)
    times[u + 1] = n
    for k in range(2, u + 1):
        e = 1.0 + lam * (u - k)
        fe = None if frac is None else 1 + frac * (u - k)
        times[k] = n - _floor_power(m, e, fe)
    times[1] = times[2] // 2
    for k in range(u + 1):
        if times[k] >= times[k + 1]:
            raise ScheduleError(
                f"checkpoint times not strictly increasing after rounding: "
                f"t_{k}={times[k]} >= t_{k + 1}={times[k + 1]} (n={n}, m={m}, lam={lam})")
    return tuple(times)


def build_schedule_1d(params: ScheduleParams1D) -> Schedule:
    """Window schedule for the one-dimensional staged strategy.

    Half-widths are floor(sqrt(eps_m * N_{k+1})) with
    eps_m = log(m) / m**(1 - eta) (natural log).
    """
    n, m, eta = params.n, params.m, params.eta
    u = max(stage_count(n, m, eta), 2)
    times = _checkpoint_times(n, m, eta, u)
    eps_m = math.log(m) / m ** (1.0 - eta)
    widths = [0] * (u + 2)
    for k in range(1, u + 1):
        n_next = times[k + 1] - times[k]
        widths[k] = int(math.floor(math.sqrt(eps_m * n_next)))
    return Schedule(d=1, n=n, m=m, u=u, times=times, half_widths=tuple(widths),
                    eps_m=eps_m, eta=eta)


def build_schedule_2d(params: ScheduleParams2D) -> Schedule:
    """Window schedule for the two-dimensional staged strategy.

    Same checkpoint grid with kappa as the stage exponent; square windows of
    half-width floor(N_{k+1}**theta).
    """
    n, m = params.n, params.m
    theta, kappa = params.theta, params.kappa
    u_n = stage_count(n, m, kappa)
    if u_n > params.stage_cap:
        raise ScheduleError(f"stage count {u_n} exceeds the configured cap "
                            f"{params.stage_cap}")
    u = max(u_n, 2)
    times = _checkpoint_times(n, m, kappa, u)
    widths = [0] * (u + 2)
    for k in range(1, u + 1):
        n_next = times[k + 1] - times[k]
        widths[k] = int(math.floor(n_next ** theta))
    return Schedule(d=2, n=n, m=m, u=u, times=times, half_widths=tuple(widths),
                    epsilon=params.epsilon, theta=theta, kappa=kappa)


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
    m**(1-eta) * log(m) / log(n)**2, which should be large.
    """
    n, m, eta = params.n, params.m, params.eta
    u_n = stage_count(n, m, eta)
    eps_m = math.log(m) / m ** (1.0 - eta)
    eps_u_sq = eps_m * u_n ** 2
    root_ratio = u_n * math.sqrt(eps_m)
    hyp = m ** (1.0 - eta) * math.log(m) / math.log(n) ** 2
    flagged = eps_u_sq > 0.1
    return RegimeReport(n=n, m=m, eta=eta, u_n=u_n, eps_m=eps_m,
                        root_ratio=root_ratio, eps_u_sq=eps_u_sq,
                        flagged=flagged, hypothesis_ratio=hyp)
