"""Weight functions and grid-certified checks of their defining conditions.

A verdict here is a certificate over a finite grid, never a proof: every
"holds" report carries the grid description and the safety factor applied
to the constants found by the sweep.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .errors import ConfigurationError, DomainError, GsdynError, ResourceLimitError

class Weight:
    """Base class; concrete families below. Instances are immutable."""

    def __call__(self, t: float) -> float:
        if t < 0:
            raise DomainError("weights are defined on [0, inf), got t=%r" % (t,))
        return self._eval(float(t))

    def _eval(self, t: float) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def derivatives(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(omega'(t), omega''(t)) elementwise on an array of t > 0."""
        raise NotImplementedError  # pragma: no cover - abstract

    def spec(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return "Weight(%s)" % self.spec()


@dataclass(frozen=True, repr=False)
class Gevrey(Weight):
    """omega(t) = t**(1/d), d > 1."""

    d: float

    def __post_init__(self):
        if not 1 < self.d < math.inf:
            raise DomainError("Gevrey index must be finite and > 1, got %r" % (self.d,))

    def _eval(self, t: float) -> float:
        return t ** (1.0 / self.d)

    def derivatives(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        e = 1.0 / self.d
        d1 = e * t ** (e - 1.0)
        return d1, (e - 1.0) * d1 / t

    def spec(self) -> str:
        return "gevrey:%g" % self.d


@dataclass(frozen=True, repr=False)
class LogPower(Weight):
    """omega(t) = max(0, log t)**p, p > 1."""

    p: float

    def __post_init__(self):
        if not 1 < self.p < math.inf:
            raise DomainError("log-power exponent must be finite and > 1, got %r" % (self.p,))

    def _eval(self, t: float) -> float:
        if t <= 1.0:
            return 0.0
        try:
            return math.log(t) ** self.p
        except OverflowError:
            raise ResourceLimitError("%s at t=%g overflows" % (self.spec(), t)) from None

    def derivatives(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # zero on t <= 1; with u = log t past it, p u^(p-1)/t and p u^(p-2)(p-1-u)/t^2
        u = np.log(np.maximum(t, 1.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            d1 = np.where(t > 1.0, self.p * u ** (self.p - 1.0) / t, 0.0)
            d2 = np.where(t > 1.0, self.p * u ** (self.p - 2.0) * (self.p - 1.0 - u) / t**2, 0.0)
        return d1, d2

    def spec(self) -> str:
        return "logpow:%g" % self.p


@dataclass(frozen=True, repr=False)
class RootComposed(Weight):
    """omega(t) = base(t**(1/a)), a >= 1."""

    base: Weight
    a: float

    def __post_init__(self):
        if not 1 <= self.a < math.inf:
            raise DomainError("root exponent must be finite and >= 1, got %r" % (self.a,))

    def _eval(self, t: float) -> float:
        return self.base(t ** (1.0 / self.a))

    def derivatives(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # chain rule through s = t^(1/a): base'(s) s' and base''(s) s'^2 + base'(s) s''
        e = 1.0 / self.a
        s1 = e * t ** (e - 1.0)
        b1, b2 = self.base.derivatives(t**e)
        return b1 * s1, b2 * s1 * s1 + b1 * (e - 1.0) * s1 / t

    def spec(self) -> str:
        return "root:%g:%s" % (self.a, self.base.spec())


def sigma_transform(w: Weight, a: float) -> Weight:
    """The target-space weight t -> w(t**(1/a)); identity when a == 1."""
    if a < 1:
        raise DomainError("sigma transform requires a >= 1, got %r" % (a,))
    if a == 1:
        return w
    return RootComposed(w, float(a))


def gevrey_index(w: Weight) -> Optional[float]:
    """Effective Gevrey index when w reduces to t**(1/d), else None."""
    if isinstance(w, Gevrey):
        return w.d
    if isinstance(w, RootComposed):
        inner = gevrey_index(w.base)
        if inner is not None:
            return inner * w.a
    return None


def parse_weight(text: str) -> Weight:
    """Parse the CLI literal: gevrey:<d>, logpow:<p>, root:<a>:<inner>."""
    head, _, rest = text.strip().partition(":")
    try:
        if head == "gevrey":
            return Gevrey(float(rest))
        if head in ("logpow", "logpower"):
            return LogPower(float(rest))
        if head == "root":
            a_text, _, inner = rest.partition(":")
            if not inner:
                raise ConfigurationError("root weight needs an inner spec: %r" % text)
            return RootComposed(parse_weight(inner), float(a_text))
    except GsdynError:  # gsdyn's usage errors are ValueErrors too
        raise
    except ValueError:
        raise ConfigurationError("malformed number in weight spec %r" % text) from None
    raise ConfigurationError("unknown weight spec %r" % text)


# --------------------------------------------------------------------------
# condition checks
# --------------------------------------------------------------------------


GRID_T_MAX = 1e100  # the certification grid is log-spaced on [1e-6, GRID_T_MAX]
GRID_POINTS = 400
SAFETY = 1.05  # factor applied to the constants a sweep finds
LOGCOND_GAMMA = 2.0
QUAD_NODES = 24  # Gauss-Legendre nodes per panel of the beta and epsilon integrals
# widest panels of the beta rule (in u = log t) and the epsilon rule (in
# s = -log u); both rules also grade their panels toward the log-power kink
BETA_PANEL = 32.0
EPSILON_PANEL = 40.0
_GRID = "log grid, %d points on (0, %g], safety %.3g" % (GRID_POINTS, GRID_T_MAX, SAFETY)


def _log_grid(lo: float = 1e-6, hi: float = GRID_T_MAX, n: int = GRID_POINTS) -> List[float]:
    r = math.log(hi / lo) / (n - 1)
    return [lo * math.exp(r * i) for i in range(n)]


@dataclass
class ConditionReport:
    condition: str
    verdict: str  # "holds" | "fails" | "inconclusive"
    constants: dict = field(default_factory=dict)
    counterexample: Union[float, list, None] = None

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    def to_dict(self) -> dict:
        return dict(asdict(self), grid=_GRID)


def _log1p_sq(t: float) -> float:
    # log(1 + t^2) without overflowing t*t
    if t > 1e150:
        return 2.0 * math.log(t)
    return math.log1p(t * t)


def _check_alpha(w: Weight) -> ConditionReport:
    sup = 0.0
    for t in _log_grid():
        sup = max(sup, w(2.0 * t) / (w(t) + 1.0))
    big_l = max(1.0, SAFETY * sup)
    return ConditionReport("alpha", "holds", {"L": big_l})


def _tail_exponent(w: Weight, t_hi: float) -> float:
    # empirical power-law slope of omega on [t_hi/100, t_hi]
    lo, hi = w(t_hi / 100.0), w(t_hi)
    if lo <= 0 or hi <= 0:
        return 0.0
    return (math.log(hi) - math.log(lo)) / math.log(100.0)


@functools.cache
def _legendre_rule():
    # nodes and weights on [-1, 1], built on first use (numpy.polynomial loads then)
    return np.polynomial.legendre.leggauss(QUAD_NODES)


def _gauss_legendre(
    f: Callable[[float], float], lo: float, hi: float, width: float, kink: float
) -> float:
    """Composite Gauss-Legendre rule for a scalar f on [lo, hi].

    The interval is cut into equal panels no wider than `width`, with
    QUAD_NODES nodes each.  The panels also shrink by factors of 8 toward
    `kink`, where f may fail to be smooth (such as (log t)^p at t = 1), on
    both sides and whether it lies inside [lo, hi] or just outside: that
    keeps the rule exponentially accurate next to an algebraic singularity."""
    x, wt = _legendre_rule()
    edges = set(np.linspace(lo, hi, math.ceil((hi - lo) / width) + 1).tolist())
    edges.add(kink)
    edges.update(kink + side * width * 8.0 ** -k for k in range(1, 9) for side in (-1, 1))
    edges = np.array(sorted(e for e in edges if lo <= e <= hi))
    half = 0.5 * np.diff(edges)
    nodes = (edges[:-1] + half)[:, None] + half[:, None] * x
    vals = np.array([f(u) for u in nodes.ravel().tolist()])
    return float((half[:, None] * wt).ravel() @ vals)


def _check_beta(w: Weight) -> ConditionReport:
    beta_hat = _tail_exponent(w, GRID_T_MAX)
    if beta_hat >= 0.99:
        return ConditionReport("beta", "inconclusive", {"tail_exponent": beta_hat})
    # u = log t turns omega(t)/(1+t^2) dt into omega(e^u)/(2 cosh u) du,
    # exponentially small at both ends; the log-power kink t = 1 is u = 0
    t_lo, t_hi = 1e-16, GRID_T_MAX
    integral = _gauss_legendre(
        lambda u: w(math.exp(u)) / (2.0 * math.cosh(u)),
        math.log(t_lo),
        math.log(t_hi),
        BETA_PANEL,
        0.0,
    )
    # omega is non-decreasing, so the integral over [0, t_lo] is at most
    # t_lo omega(t_lo).  Past t_hi, omega(t) <= omega(t_hi)(t/t_hi)^beta_hat
    # (log-log slope non-increasing for the in-scope families, and beta_hat is
    # the secant slope on [t_hi/100, t_hi]), so the tail is at most:
    tail = w(t_hi) / (t_hi * (1.0 - beta_hat))
    return ConditionReport(
        "beta",
        "holds",
        {"integral": t_lo * w(t_lo) + integral + tail, "tail_exponent": beta_hat},
    )


def _check_gamma(w: Weight) -> ConditionReport:
    ts = _log_grid()
    tail = ts[-max(8, len(ts) // 10):]
    ratios = [_log1p_sq(t) / w(t) for t in tail]
    monotone = all(b <= a * (1.0 + 1e-12) for a, b in zip(ratios, ratios[1:]))
    if monotone and ratios[-1] < 0.01:
        return ConditionReport("gamma", "holds", {"final_ratio": ratios[-1]})
    return ConditionReport("gamma", "fails", {"final_ratio": ratios[-1]}, tail[-1])


def _check_delta(w: Weight) -> ConditionReport:
    hi = math.log(GRID_T_MAX)
    n = GRID_POINTS
    us = [hi * i / (n - 1) for i in range(n)]
    vals = [w(math.exp(u)) for u in us]
    for i in range(1, n - 1):
        d2 = vals[i - 1] - 2.0 * vals[i] + vals[i + 1]
        if d2 < -1e-9 * (1.0 + abs(vals[i])):
            return ConditionReport("delta", "fails", {"second_difference": d2}, math.exp(us[i]))
    return ConditionReport("delta", "holds")


def _check_epsilon(w: Weight) -> ConditionReport:
    ys = _log_grid(1e-2, 1e6, 25)
    s_hi = 80.0
    sup = 0.0
    y_at = ys[0]
    for y in ys:
        # u = 1/t, then u = e^-s: integral_1^inf omega(y t)/t^2 dt
        # = integral_0^1 omega(y/u) du = integral_0^inf omega(y e^s) e^-s ds,
        # whose log-power kink y e^s = 1 sits at s = -log y
        val = _gauss_legendre(
            lambda s: w(y * math.exp(s)) * math.exp(-s), 0.0, s_hi, EPSILON_PANEL, -math.log(y)
        )
        # past s_hi, omega(y e^s) <= omega(x)e^(b(s - s_hi)) with x = y e^s_hi and
        # b the secant slope on [x/100, x], as in the beta check (exact for
        # Gevrey); its integral against e^-s is finite whenever b < 1
        x = y * math.exp(s_hi)
        b = _tail_exponent(w, x)
        if b >= 1.0:
            return ConditionReport("epsilon", "inconclusive", {"tail_exponent": b, "y": y})
        ratio = (val + w(x) * math.exp(-s_hi) / (1.0 - b)) / (1.0 + w(y))
        if ratio > sup:
            sup, y_at = ratio, y
    return ConditionReport("epsilon", "holds", {"C": SAFETY * sup, "argmax_y": y_at})


_ZETA_CANDIDATES = tuple(range(1, 11)) + tuple(2 ** k for k in range(4, 18))


def _check_zeta(w: Weight) -> ConditionReport:
    # condition is asymptotic, so probe far past the regular grid
    ts = _log_grid(hi=1e300)
    for big_h in _ZETA_CANDIDATES:
        ok = True
        for t in ts:
            lhs = 2.0 * w(t)
            rhs = w(min(big_h * t, 1e307)) + big_h
            if lhs > rhs + 1e-12 * (1.0 + rhs):
                ok = False
                break
        if ok:
            return ConditionReport("zeta", "holds", {"H": float(big_h)})
    big_h = _ZETA_CANDIDATES[-1]
    worst_t, worst = None, 0.0
    for t in ts:
        viol = 2.0 * w(t) - w(min(big_h * t, 1e307)) - big_h
        if viol > worst:
            worst, worst_t = viol, t
    return ConditionReport(
        "zeta",
        "fails",
        {"H_max_tried": float(big_h), "violation": worst},
        worst_t,
    )


_LOGCOND_CAP = 1e6


def _check_logcond(w: Weight) -> ConditionReport:
    gamma = LOGCOND_GAMMA
    ts = _log_grid()
    sup = 0.0
    for t in ts:
        ratio = w(t ** gamma) / (1.0 + w(t))
        if ratio > _LOGCOND_CAP:
            return ConditionReport("logcond", "fails", {"gamma": gamma, "ratio": ratio}, t)
        sup = max(sup, ratio)
    return ConditionReport("logcond", "holds", {"gamma": gamma, "C": SAFETY * sup})


def _check_subadditive(w: Weight) -> ConditionReport:
    ts = [0.0] + _log_grid()[:: GRID_POINTS // 48]
    for i, t1 in enumerate(ts):
        for t2 in ts[i:]:
            lhs = w(min(t1 + t2, 1e307))
            rhs = w(t1) + w(t2)
            if lhs > rhs + 1e-12 * (1.0 + lhs):
                return ConditionReport("subadditive", "fails", {"violation": lhs - rhs}, [t1, t2])
    return ConditionReport("subadditive", "holds")


_CHECKS = {
    "alpha": _check_alpha,
    "beta": _check_beta,
    "gamma": _check_gamma,
    "delta": _check_delta,
    "epsilon": _check_epsilon,
    "zeta": _check_zeta,
    "logcond": _check_logcond,
    "subadditive": _check_subadditive,
}
CONDITIONS = tuple(_CHECKS)


def check_condition(w: Weight, condition: str) -> ConditionReport:
    try:
        fn = _CHECKS[condition]
    except KeyError:
        raise ConfigurationError(
            "unknown condition %r (expected one of %s)" % (condition, ", ".join(CONDITIONS))
        ) from None
    return fn(w)


def check_all_conditions(w: Weight) -> List[ConditionReport]:
    return [check_condition(w, c) for c in CONDITIONS]
