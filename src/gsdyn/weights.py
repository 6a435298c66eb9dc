"""Weight functions and their defining conditions: one class per family.

There are two families: Gevrey t^(1/d), d > 1, and log-power
(log+ t / scale)^p = c (log+ t)^p, p > 1, c = scale^(-p).  Each class holds
every formula of its family: omega, phi(u) = omega(e^u), the closed-form
conjugate of phi, Q = sup_{t >= 1} omega(t)/t (`q_linear`), the field a root
multiplies and its row of the condition table.  A root t -> omega(t^(1/a))
is folded into its family when it is built (`RootComposed`): d becomes d a,
or scale becomes scale a, so nested roots multiply.  The rows:

  condition                               Gevrey t^(1/d)       c (log+ t)^p
  alpha    omega(2t) <= L (omega(t) + 1)  L = 2^(1/d)          L = S(log 2)
  beta     int_0^inf omega/(1+t^2) dt     pi / (2 cos(pi/2d))  c Gamma(p+1) beta_D(p+1)
  gamma    log(1 + t^2) = o(omega)        holds                holds
  delta    phi(u) = omega(e^u) convex     holds                holds
  epsilon  int_1^inf omega(yt)/t^2 dt     C = d/(d-1)          C = S(Gamma(p+1)^(1/p))
             <= C (1 + omega(y))
  zeta     2 omega(t) <= omega(Ht) + H    H = 2^d              fails
  logcond  omega(t^2) <= C (1+omega(t))   fails                C = 2^p
  subadditive                             holds                fails at (1, 1)

S(a) = sup_{u >= 0} c (u + a)^p / (c u^p + 1), and beta_D is the Dirichlet
beta.  Each constant is the least that works, except the log-power epsilon C,
a bound by Minkowski's inequality.  A failed zeta or logcond carries no
counterexample: the failure is asymptotic, and any single t is met by a large
enough constant.  A constant or Q past the double range raises
ResourceLimitError, and so does a conjugate, in `conjugate.young_conjugate`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional, Tuple

from .errors import ConfigurationError, DomainError, GsdynError, ResourceLimitError
from .logspace import number_literal

if TYPE_CHECKING:  # numpy is imported only where arrays are computed on
    import numpy as np

# the parameters each seminorm family reads (seminorms.SeminormSpec); the CLI
# refuses any other.  It lives here so that the CLI's parser needs no numpy.
FAMILY_PARAMS = {"plainp": ("weight", "lam"), "globalp": ("weight", "lam"),
                 "expq": ("weight", "lam", "mu"), "gevreyseq": ("mu", "s")}


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
    """omega(t) = t**(1/d), d > 1; `literal` is the root spec folded into d, if any."""

    d: float
    literal: str = field(default="", compare=False)

    ROOT_FIELD = "d"
    CONDITION_ROW = {
        "alpha": lambda w: _holds(L=2.0 ** (1.0 / w.d)),
        # cos(pi/(2d)) written as a sine, which keeps its relative accuracy as d -> 1
        "beta": lambda w: _holds(integral=math.pi / (2.0 * math.sin(0.5 * math.pi * (w.d - 1.0) / w.d))),
        "gamma": lambda w: _holds(),
        "delta": lambda w: _holds(),
        "epsilon": lambda w: _holds(C=w.d / (w.d - 1.0)),  # the integral is d/(d-1) omega(y)
        "zeta": lambda w: _holds(H=2.0 ** w.d),  # omega(2^d t) = 2 omega(t)
        "logcond": lambda w: ("fails", {}, None),  # omega(t^2) / omega(t) = omega(t)
        "subadditive": lambda w: _holds(),
    }

    def __post_init__(self):
        if not 1 < self.d < math.inf:
            raise DomainError("Gevrey index must be finite and > 1, got %r" % (self.d,))

    def _eval(self, t: float) -> float:
        return t ** (1.0 / self.d)

    def derivatives(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        e = 1.0 / self.d
        d1 = e * t ** (e - 1.0)
        return d1, (e - 1.0) * d1 / t

    def phi(self, t: float) -> float:
        return math.exp(t / self.d)

    def conjugate(self, x: float) -> float:
        # x d log(x d / e), the sup at t = d log(x d); -1 at t = 0 for x d <= 1
        xd = x * self.d
        if xd <= 1.0:
            return -1.0
        return xd * math.log(xd / math.e)

    def q_linear(self) -> float:
        return 1.0  # t^(1/d) / t is largest at t = 1

    def spec(self) -> str:
        return self.literal or "gevrey:" + number_literal(self.d)


@dataclass(frozen=True, repr=False)
class LogPower(Weight):
    """omega(t) = max(0, log t / scale)**p, p > 1, scale >= 1; `literal` as for Gevrey."""

    p: float
    scale: float = 1.0
    literal: str = field(default="", compare=False)

    ROOT_FIELD = "scale"
    CONDITION_ROW = {
        # with u = log t, omega(2t) / (omega(t) + 1) = c (u + log 2)^p / (c u^p + 1)
        "alpha": lambda w: _holds(L=_sup_ratio(math.log(LOG2), w.p, w.c)),
        "beta": lambda w: _holds(
            integral=math.exp(math.log(w.c) + math.lgamma(w.p + 1.0)) * _dirichlet_beta(w.p + 1.0)
        ),
        "gamma": lambda w: _holds(),
        "delta": lambda w: _holds(),
        # Minkowski in L^p(dt/t^2) on [1, inf): the integral is at most
        # c (log+ y + Gamma(p+1)^(1/p))^p
        "epsilon": lambda w: _holds(C=_sup_ratio(math.lgamma(w.p + 1.0) / w.p, w.p, w.c)),
        "zeta": lambda w: ("fails", {}, None),  # 2 omega(t) / omega(H t) -> 2 for every H
        "logcond": lambda w: _holds(C=2.0 ** w.p),  # omega(t^2) = 2^p omega(t)
        "subadditive": lambda w: (
            "fails", {"violation": math.exp(math.log(w.c) + w.p * math.log(LOG2))}, [1.0, 1.0]
        ),
    }

    def __post_init__(self):
        if not 1 < self.p < math.inf:
            raise DomainError("log-power exponent must be finite and > 1, got %r" % (self.p,))
        if not 1 <= self.scale < math.inf:
            raise DomainError("log-power scale must be finite and >= 1, got %r" % (self.scale,))

    @property
    def c(self) -> float:
        """scale^(-p); past the double range of scale^p it underflows to 0.0."""
        return self.scale ** -self.p

    def _eval(self, t: float) -> float:
        if t <= 1.0:
            return 0.0
        try:
            return (math.log(t) / self.scale) ** self.p
        except OverflowError:
            raise ResourceLimitError("%s at t=%g overflows" % (self.spec(), t)) from None

    def derivatives(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # zero on t <= 1; with u = log t and v = u / scale past it,
        # p v^(p-1)/(scale t) and p v^(p-2)(p-1-u)/(scale t)^2
        import numpy as np

        u = np.log(np.maximum(t, 1.0))
        v, st = u / self.scale, self.scale * t
        with np.errstate(divide="ignore", invalid="ignore"):
            d1 = np.where(t > 1.0, self.p * v ** (self.p - 1.0) / st, 0.0)
            d2 = np.where(t > 1.0, self.p * v ** (self.p - 2.0) * (self.p - 1.0 - u) / st**2, 0.0)
        return d1, d2

    def phi(self, t: float) -> float:
        return (t / self.scale) ** self.p if t > 0.0 else 0.0

    def conjugate(self, x: float) -> float:
        # the sup sits at t = scale (scale x / p)^(1/(p-1))
        return (self.p - 1.0) * (self.scale * x / self.p) ** (self.p / (self.p - 1.0))

    def q_linear(self) -> float:
        """c (p/e)^p, at log t = p."""
        try:
            return math.exp(math.log(self.c) + self.p * (math.log(self.p) - 1.0))
        except (OverflowError, ValueError):  # exp past the double range; log of an underflowed c
            raise ResourceLimitError("%s: Q = c (p/e)^p overflows a double" % self.spec()) from None

    def spec(self) -> str:
        inner = "logpow:" + number_literal(self.p)
        root = "root:%s:%s" % (number_literal(self.scale), inner)
        return self.literal or (inner if self.scale == 1.0 else root)


def RootComposed(base: Weight, a: float) -> Weight:
    """t -> base(t**(1/a)), a >= 1: base's family with d a or scale a; spec root:<a>:<base>."""
    if not 1 <= a < math.inf:
        raise DomainError("root exponent must be finite and >= 1, got %r" % (a,))
    literal = "root:%s:%s" % (number_literal(a), base.spec())
    folded = getattr(base, base.ROOT_FIELD) * a
    if folded == math.inf:
        raise ResourceLimitError("%s: the folded index overflows a double" % literal)
    return replace(base, literal=literal, **{base.ROOT_FIELD: folded})


def gevrey_index(w: Weight) -> Optional[float]:
    """Effective Gevrey index when w reduces to t**(1/d), else None."""
    return w.d if isinstance(w, Gevrey) else None


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
# conditions, decided by each family's CONDITION_ROW
# --------------------------------------------------------------------------


LOG2 = math.log(2.0)
DIRICHLET_TERMS = 30  # terms of the accelerated Dirichlet-beta series


@dataclass
class ConditionReport:
    condition: str
    verdict: str  # "holds" | "fails"
    constants: dict = field(default_factory=dict)
    counterexample: Optional[list] = None

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    def to_dict(self) -> dict:
        return asdict(self)


def _sup_ratio(log_a: float, p: float, c: float) -> float:
    """S(a) from log a.  The derivative has the sign of 1 - a c u^(p-1), so
    the sup sits at u* = (a c)^(-1/(p-1)), where 1/(c u*^p) = a/u* and the
    ratio is (1 + a/u*)^(p-1).  In logs, because u* overflows as p -> 1."""
    log_a_over_u = log_a + (log_a + math.log(c)) / (p - 1.0)
    return math.exp((p - 1.0) * _log1p_exp(log_a_over_u))


def _log1p_exp(x: float) -> float:
    """log(1 + e^x) without overflow, as numpy's logaddexp(0, x) computes it."""
    return x + LOG2 if x == 0 else max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def _dirichlet_beta(s: float) -> float:
    """beta(s) = sum over k >= 0 of (-1)^k (2k+1)^(-s), s > 1, by the
    alternating-series acceleration of Cohen, Rodriguez Villegas and Zagier
    (Algorithm 1).  Its error is below 2 (3 + sqrt 8)^-n times the sum, far
    under double rounding at n = DIRICHLET_TERMS."""
    n = DIRICHLET_TERMS
    d = (3.0 + math.sqrt(8.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b, c, total = -1.0, -d, 0.0
    for k in range(n):
        c = b - c
        total += c * (2.0 * k + 1.0) ** -s
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return total / d


def _holds(**constants):
    return "holds", constants, None


CONDITIONS = tuple(Gevrey.CONDITION_ROW)


def check_condition(w: Weight, condition: str) -> ConditionReport:
    if condition not in CONDITIONS:
        raise ConfigurationError(
            "unknown condition %r (expected one of %s)" % (condition, ", ".join(CONDITIONS))
        )
    try:
        verdict, constants, counterexample = w.CONDITION_ROW[condition](w)
    except (OverflowError, ValueError):  # exp past the double range; log of an underflowed c
        raise ResourceLimitError(
            "%s: a constant of condition %s overflows a double" % (w.spec(), condition)
        ) from None
    return ConditionReport(condition, verdict, constants, counterexample)


def check_all_conditions(w: Weight) -> List[ConditionReport]:
    return [check_condition(w, c) for c in CONDITIONS]
