"""Young conjugates of phi(t) = omega(e^t).

`young_conjugate` checks x and switches between the closed form each weight
family carries (`conjugate`: x d log(x d / e) for Gevrey, and
(p - 1) (scale x / p)^(p / (p - 1)) for log-power; a root weight was folded
into d or the scale when it was built) and the oracle (method="numeric"), a
fixed-step golden-section maximisation of t -> x t - phi(t).  A closed value
past the double range raises ResourceLimitError, for either family.
"""

from __future__ import annotations

import math

from .errors import BoundaryHitError, DomainError, ResourceLimitError
from .weights import Weight

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

NUMERIC_STEPS = 60  # golden steps of the numeric conjugate: final bracket ~3e-13 x its right end
T_MAX = 100.0  # first right end of that bracket, doubled while the sup lies beyond


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
            return x * t - w.phi(t)
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
    if not 0 <= x < math.inf:  # NaN fails this too
        raise DomainError("the Young conjugate is evaluated on finite x >= 0, got %r" % (x,))
    if method == "closed":
        try:  # a formula overflows by raising or by returning inf
            value = w.conjugate(x)
        except OverflowError:
            value = math.inf
        if value == math.inf:
            raise ResourceLimitError("conjugate of %s at x=%g overflows" % (w.spec(), x))
        return value
    if method == "numeric":
        return _numeric_sup(w, x)
    raise DomainError("unknown conjugate method %r" % (method,))
