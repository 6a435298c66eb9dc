"""Weight functions and grid-certified checks of their defining conditions.

A verdict here is a certificate over a finite grid, never a proof: every
"holds" report carries the grid description and the safety factor applied
to the constants found by the sweep.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Union

from scipy import integrate

from .errors import ConfigurationError, DomainError

CONDITIONS = (
    "alpha",
    "beta",
    "gamma",
    "delta",
    "epsilon",
    "zeta",
    "logcond",
    "subadditive",
)


class Weight:
    """Base class; concrete families below. Instances are immutable."""

    def __call__(self, t: float) -> float:
        if t < 0:
            raise DomainError("weights are defined on [0, inf), got t=%r" % (t,))
        return self._eval(float(t))

    def _eval(self, t: float) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def spec(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return "Weight(%s)" % self.spec()


@dataclass(frozen=True, repr=False)
class Gevrey(Weight):
    """omega(t) = t**(1/d), d > 1."""

    d: float

    def __post_init__(self):
        if not self.d > 1:
            raise DomainError("Gevrey index must satisfy d > 1, got %r" % (self.d,))

    def _eval(self, t: float) -> float:
        return t ** (1.0 / self.d)

    def spec(self) -> str:
        return "gevrey:%g" % self.d


@dataclass(frozen=True, repr=False)
class LogPower(Weight):
    """omega(t) = max(0, log t)**p, p > 1."""

    p: float

    def __post_init__(self):
        if not self.p > 1:
            raise DomainError("log-power exponent must satisfy p > 1, got %r" % (self.p,))

    def _eval(self, t: float) -> float:
        if t <= 1.0:
            return 0.0
        return math.log(t) ** self.p

    def spec(self) -> str:
        return "logpow:%g" % self.p


@dataclass(frozen=True, repr=False)
class RootComposed(Weight):
    """omega(t) = base(t**(1/a)), a >= 1."""

    base: Weight
    a: float

    def __post_init__(self):
        if not self.a >= 1:
            raise DomainError("root exponent must satisfy a >= 1, got %r" % (self.a,))

    def _eval(self, t: float) -> float:
        return self.base(t ** (1.0 / self.a))

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
    if head == "gevrey":
        return Gevrey(float(rest))
    if head in ("logpow", "logpower"):
        return LogPower(float(rest))
    if head == "root":
        a_text, _, inner = rest.partition(":")
        if not inner:
            raise ConfigurationError("root weight needs an inner spec: %r" % text)
        return RootComposed(parse_weight(inner), float(a_text))
    raise ConfigurationError("unknown weight spec %r" % text)


# --------------------------------------------------------------------------
# condition checks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Log-spaced certification grid on (0, t_max]."""

    t_max: float = 1e100
    points: int = 400
    safety: float = 1.05
    logcond_gamma: float = 2.0

    def __post_init__(self):
        if self.points < 16:
            raise ConfigurationError("grid needs at least 16 points, got %d" % self.points)
        if self.t_max < 1e6:
            raise ConfigurationError("grid must reach t_max >= 1e6, got %g" % self.t_max)

    def values(self, lo: float = 1e-6, hi: Optional[float] = None) -> List[float]:
        hi = self.t_max if hi is None else hi
        n = self.points
        r = math.log(hi / lo) / (n - 1)
        return [lo * math.exp(r * i) for i in range(n)]

    def describe(self) -> str:
        return "log grid, %d points on (0, %g], safety %.3g" % (
            self.points,
            self.t_max,
            self.safety,
        )


DEFAULT_GRID = GridSpec()


@dataclass
class ConditionReport:
    condition: str
    verdict: str  # "holds" | "fails" | "inconclusive"
    constants: dict = field(default_factory=dict)
    counterexample: Union[float, list, None] = None
    grid: str = ""

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "verdict": self.verdict,
            "constants": dict(self.constants),
            "counterexample": self.counterexample,
            "grid": self.grid,
        }


def _log1p_sq(t: float) -> float:
    # log(1 + t^2) without overflowing t*t
    if t > 1e150:
        return 2.0 * math.log(t)
    return math.log1p(t * t)


def _check_alpha(w: Weight, g: GridSpec) -> ConditionReport:
    sup = 0.0
    for t in g.values():
        sup = max(sup, w(2.0 * t) / (w(t) + 1.0))
    big_l = max(1.0, g.safety * sup)
    return ConditionReport("alpha", "holds", {"L": big_l}, None, g.describe())


def _tail_exponent(w: Weight, t_hi: float) -> float:
    # empirical power-law slope of omega on [t_hi/100, t_hi]
    lo, hi = w(t_hi / 100.0), w(t_hi)
    if lo <= 0 or hi <= 0:
        return 0.0
    return (math.log(hi) - math.log(lo)) / math.log(100.0)


def _check_beta(w: Weight, g: GridSpec) -> ConditionReport:
    t_quad = min(g.t_max, 1e8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        integral, _ = integrate.quad(
            lambda t: w(t) / (1.0 + t * t), 0.0, t_quad, limit=400
        )
    beta_hat = _tail_exponent(w, g.t_max)
    if beta_hat >= 0.99:
        return ConditionReport(
            "beta",
            "inconclusive",
            {"tail_exponent": beta_hat},
            None,
            g.describe(),
        )
    # omega(t) <= omega(T)(t/T)^beta for t >= T (log-log slope non-increasing
    # for the in-scope families), hence the tail integral is bounded by:
    tail = w(t_quad) / (t_quad * (1.0 - beta_hat))
    return ConditionReport(
        "beta",
        "holds",
        {"integral": integral + tail, "tail_exponent": beta_hat},
        None,
        g.describe(),
    )


def _check_gamma(w: Weight, g: GridSpec) -> ConditionReport:
    ts = g.values()
    tail = ts[-max(8, len(ts) // 10):]
    ratios = [_log1p_sq(t) / w(t) for t in tail]
    monotone = all(b <= a * (1.0 + 1e-12) for a, b in zip(ratios, ratios[1:]))
    if monotone and ratios[-1] < 0.01:
        return ConditionReport(
            "gamma", "holds", {"final_ratio": ratios[-1]}, None, g.describe()
        )
    return ConditionReport(
        "gamma",
        "fails",
        {"final_ratio": ratios[-1]},
        tail[-1],
        g.describe(),
    )


def _check_delta(w: Weight, g: GridSpec) -> ConditionReport:
    hi = math.log(g.t_max)
    n = max(64, g.points)
    us = [hi * i / (n - 1) for i in range(n)]
    vals = [w(math.exp(u)) for u in us]
    for i in range(1, n - 1):
        d2 = vals[i - 1] - 2.0 * vals[i] + vals[i + 1]
        if d2 < -1e-9 * (1.0 + abs(vals[i])):
            return ConditionReport(
                "delta", "fails", {"second_difference": d2}, math.exp(us[i]), g.describe()
            )
    return ConditionReport("delta", "holds", {}, None, g.describe())


def _check_epsilon(w: Weight, g: GridSpec) -> ConditionReport:
    ys = GridSpec(t_max=1e6, points=25).values(lo=1e-2)
    sup = 0.0
    y_at = ys[0]
    for y in ys:
        # substitute u = 1/t: integral_1^inf omega(y t)/t^2 dt = integral_0^1 omega(y/u) du
        val, _ = integrate.quad(lambda u: w(y / u), 0.0, 1.0, limit=400)
        ratio = val / (1.0 + w(y))
        if ratio > sup:
            sup, y_at = ratio, y
    return ConditionReport(
        "epsilon", "holds", {"C": g.safety * sup, "argmax_y": y_at}, None, g.describe()
    )


_ZETA_CANDIDATES = tuple(range(1, 11)) + tuple(2 ** k for k in range(4, 18))


def _check_zeta(w: Weight, g: GridSpec) -> ConditionReport:
    # condition is asymptotic, so probe far past the regular grid
    ts = GridSpec(t_max=1e300, points=g.points).values()
    for big_h in _ZETA_CANDIDATES:
        ok = True
        for t in ts:
            lhs = 2.0 * w(t)
            rhs = w(min(big_h * t, 1e307)) + big_h
            if lhs > rhs + 1e-12 * (1.0 + rhs):
                ok = False
                break
        if ok:
            return ConditionReport("zeta", "holds", {"H": float(big_h)}, None, g.describe())
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
        g.describe(),
    )


_LOGCOND_CAP = 1e6


def _check_logcond(w: Weight, g: GridSpec) -> ConditionReport:
    gamma = g.logcond_gamma
    ts = GridSpec(t_max=min(g.t_max, 1e150), points=g.points).values()
    sup = 0.0
    for t in ts:
        ratio = w(t ** gamma) / (1.0 + w(t))
        if ratio > _LOGCOND_CAP:
            return ConditionReport(
                "logcond",
                "fails",
                {"gamma": gamma, "ratio": ratio},
                t,
                g.describe(),
            )
        sup = max(sup, ratio)
    return ConditionReport(
        "logcond", "holds", {"gamma": gamma, "C": g.safety * sup}, None, g.describe()
    )


def _check_subadditive(w: Weight, g: GridSpec) -> ConditionReport:
    ts = [0.0] + g.values()[:: max(1, g.points // 48)]
    for i, t1 in enumerate(ts):
        for t2 in ts[i:]:
            lhs = w(min(t1 + t2, 1e307))
            rhs = w(t1) + w(t2)
            if lhs > rhs + 1e-12 * (1.0 + lhs):
                return ConditionReport(
                    "subadditive",
                    "fails",
                    {"violation": lhs - rhs},
                    [t1, t2],
                    g.describe(),
                )
    return ConditionReport("subadditive", "holds", {}, None, g.describe())


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


def check_condition(w: Weight, condition: str, grid: Optional[GridSpec] = None) -> ConditionReport:
    grid = DEFAULT_GRID if grid is None else grid
    try:
        fn = _CHECKS[condition]
    except KeyError:
        raise ConfigurationError(
            "unknown condition %r (expected one of %s)" % (condition, ", ".join(CONDITIONS))
        ) from None
    return fn(w, grid)


def check_all_conditions(w: Weight, grid: Optional[GridSpec] = None) -> List[ConditionReport]:
    return [check_condition(w, c, grid) for c in CONDITIONS]


# --------------------------------------------------------------------------
# weight sequences (Gevrey-factorial generator only)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightSequence:
    """M_p = (p!)**s for s > 1, tabulated up to max_index."""

    s: float
    max_index: int = 50

    def __post_init__(self):
        if not self.s > 1:
            raise DomainError("Gevrey-factorial exponent must satisfy s > 1")
        if self.max_index < 10:
            raise ConfigurationError("max_index must be at least 10")

    def log_m(self, p: int) -> float:
        return self.s * math.lgamma(p + 1)

    def ratio(self, p: int) -> float:
        """m_p = M_p / M_{p-1} = p**s."""
        return float(p) ** self.s


def check_weight_sequence(ws: WeightSequence) -> List[ConditionReport]:
    reports = []
    n = ws.max_index
    desc = "indices 0..%d" % n

    # (M0) with witness c = 1/e; p log((p+1)/e) <= log M_p
    ok = all(p * (math.log(p + 1) - 1.0) <= ws.log_m(p) + 1e-12 for p in range(n + 1))
    reports.append(
        ConditionReport("M0", "holds" if ok else "fails", {"c": 1.0 / math.e}, None, desc)
    )

    # log-convexity M_p^2 <= M_{p-1} M_{p+1}, exact on the factorial base.
    # (The commonly printed variant with M_{2p} on the left is not what we
    # check; see the index-doubling note in the report grid string.)
    conv = all(
        math.factorial(p + 1) * math.factorial(p - 1) >= math.factorial(p) ** 2
        for p in range(1, n)
    )
    reports.append(
        ConditionReport(
            "M1",
            "holds" if conv else "fails",
            {},
            None,
            desc + "; checked as log-convexity M_p^2 <= M_{p-1} M_{p+1}",
        )
    )

    # (M2) with A = 1: H >= (M_p / min_q M_q M_{p-q})^(1/p)
    need = 0.0
    for p in range(1, n + 1):
        m_min = min(ws.log_m(q) + ws.log_m(p - q) for q in range(p + 1))
        need = max(need, (ws.log_m(p) - m_min) / p)
    big_h = 1.05 * math.exp(need)
    reports.append(ConditionReport("M2", "holds", {"A": 1.0, "H": big_h}, None, desc))

    # (M3)' truncated sum with integral tail bound for sum_{j>n} j^(-s)
    tail = float(n) ** (1.0 - ws.s) / (ws.s - 1.0)
    sup = 0.0
    for p in range(1, n + 1):
        partial = sum(j ** (-ws.s) for j in range(p, n + 1)) + tail
        sup = max(sup, ws.ratio(p) / p * partial)
    reports.append(ConditionReport("M3'", "holds", {"sup": sup, "tail_bound": tail}, None, desc))
    return reports
