"""Young conjugates of phi(t) = omega(e^t).

Both families' conjugates are exact: a Gevrey phi(t) = e^(t/d) gives
x d log(x d / e) on x >= 1/d and -1 below (the sup sits at t = 0 there), and
a log-power phi(t) = (t / scale)^p gives (p - 1) (scale x / p)^(p / (p - 1)).
A root weight needs no case of its own: it was folded into d or the scale
when it was built.  The oracle (method="numeric") is a fixed-step
golden-section maximisation of t -> x t - phi(t).
"""

from __future__ import annotations

import math

from .errors import BoundaryHitError, DomainError, ResourceLimitError
from .weights import Gevrey, Weight, gevrey_index

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

NUMERIC_STEPS = 60  # golden steps of the numeric conjugate: final bracket ~3e-13 x its right end
T_MAX = 100.0  # first right end of that bracket, doubled while the sup lies beyond


def phi(w: Weight, t: float) -> float:
    """phi_omega(t) = omega(e^t), evaluated without forming e^t."""
    if t < 0:
        raise DomainError("phi is used on t >= 0, got %r" % (t,))
    if isinstance(w, Gevrey):
        return math.exp(t / w.d)
    return (t / w.scale) ** w.p


def _closed_form(w: Weight, x: float) -> float:
    d = gevrey_index(w)
    if d is not None:
        xd = x * d
        if xd <= 1.0:
            return -1.0
        return xd * math.log(xd / math.e)
    try:
        return (w.p - 1.0) * (w.scale * x / w.p) ** (w.p / (w.p - 1.0))
    except OverflowError:
        raise ResourceLimitError("conjugate of %s at x=%g overflows" % (w.spec(), x)) from None


def _golden_max(f, a: float, b: float) -> float:
    """NUMERIC_STEPS golden-section steps for the max of a unimodal f on [a, b];
    returns the final midpoint."""
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(NUMERIC_STEPS):
        if fc >= fd:  # keep [a, d]
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:  # keep [c, b]
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _numeric_sup(w: Weight, x: float) -> float:
    def f(t: float) -> float:
        try:
            return x * t - phi(w, t)
        except OverflowError:
            return float("-inf")

    # expand the bracket until the objective is decreasing at the right end
    hi = T_MAX
    expansions = 0
    while f(hi) > f(hi * (1.0 - 1e-9)):
        hi *= 2.0
        expansions += 1
        if expansions > 200:
            raise BoundaryHitError("conjugate maximiser escaped past t=%g" % hi)
    return max(f(_golden_max(f, 0.0, hi)), f(0.0))


def young_conjugate(w: Weight, x: float, method: str = "closed") -> float:
    """phi*_omega(x) = sup_{t >= 0} (x t - phi_omega(t)); "numeric" is the oracle."""
    if not x >= 0:  # NaN fails this too
        raise DomainError("the Young conjugate is evaluated on x >= 0, got %r" % (x,))
    if method == "closed":
        return _closed_form(w, x)
    if method == "numeric":
        return _numeric_sup(w, x)
    raise DomainError("unknown conjugate method %r" % (method,))
