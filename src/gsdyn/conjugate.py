"""Young conjugates of phi(t) = omega(e^t) and the parameter-shift constants.

For Gevrey-reducible weights the conjugate is exact and piecewise:
phi(t) = e^(t/d) conjugates to x d log(x d / e) on x >= 1/d and to -1 below
(the supremum sits at t = 0 there).  Everything else goes through a
golden-section maximisation of the concave map t -> x t - phi(t).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .errors import BoundaryHitError, DomainError, VerificationError
from .weights import Gevrey, LogPower, RootComposed, Weight, gevrey_index

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

TOL = 1e-12  # width of the final bracket of the numeric conjugate
T_MAX = 100.0  # first right end of that bracket, doubled while the sup lies beyond
N_CHECK = 200  # the shift constants are fitted and re-verified on n = 0..N_CHECK


def phi(w: Weight, t: float) -> float:
    """phi_omega(t) = omega(e^t), evaluated without forming e^t when possible."""
    if t < 0:
        raise DomainError("phi is used on t >= 0, got %r" % (t,))
    if isinstance(w, Gevrey):
        return math.exp(t / w.d)
    if isinstance(w, LogPower):
        return t ** w.p
    if isinstance(w, RootComposed):
        return phi(w.base, t / w.a)
    return w(math.exp(t))


def _closed_form(d: float, x: float) -> float:
    xd = x * d
    if xd <= 1.0:
        return -1.0
    return xd * math.log(xd / math.e)


def _golden_max(
    f, a: float, b: float, steps: Optional[int] = None, width: float = -math.inf
) -> float:
    """Golden-section search for the max of a unimodal f on [a, b].

    Stops after `steps` steps, or, when steps is None, once the bracket is no
    wider than `width`; returns the midpoint of the final bracket.
    """
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(steps) if steps is not None else itertools.count():
        if b - a <= width:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
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
    return max(f(_golden_max(f, 0.0, hi, width=TOL)), f(0.0))


def young_conjugate(w: Weight, x: float, method: str = "auto") -> float:
    """phi*_omega(x) = sup_{t >= 0} (x t - phi_omega(t))."""
    if not x >= 0:  # NaN fails this too
        raise DomainError("the Young conjugate is evaluated on x >= 0, got %r" % (x,))
    if method not in ("auto", "closed", "numeric"):
        raise DomainError("unknown conjugate method %r" % (method,))
    d = gevrey_index(w)
    if method == "closed" or (method == "auto" and d is not None):
        if d is None:
            raise DomainError("no closed-form conjugate for weight %s" % w.spec())
        return _closed_form(d, x)
    return _numeric_sup(w, x)


@dataclass(frozen=True)
class ShiftConstants:
    """(mu, A, D) with exp(-lam phi*(n/lam)) <= D A^-n exp(-mu phi*(n/mu))."""

    mu: float
    A: float
    D: float
    n_checked: int


def lambda_shift_constants(w: Weight, lam: float) -> ShiftConstants:
    """Parameter-shift constants behind the seminorm truncation estimate.

    mu = 2 lam always works for the in-scope families; for an effective
    Gevrey index d the geometric gain is exactly A = 2^d past the conjugate
    knee, and D absorbs the knee region.
    """
    if lam <= 0:
        raise DomainError("shift constants need lam > 0")
    mu = 2.0 * lam
    d = gevrey_index(w)
    big_a = 2.0 ** d if d is not None else 2.0
    log_a = math.log(big_a)
    log_d = 0.0
    for n in range(N_CHECK + 1):
        r = (
            n * log_a
            - lam * young_conjugate(w, n / lam)
            + mu * young_conjugate(w, n / mu)
        )
        log_d = max(log_d, r)
    big_d = math.exp(log_d)
    # re-verify the displayed inequality with the returned constants
    for n in range(N_CHECK + 1):
        lhs = -lam * young_conjugate(w, n / lam)
        rhs = log_d - n * log_a - mu * young_conjugate(w, n / mu)
        if lhs > rhs + 1e-9 * (1.0 + abs(rhs)):
            raise VerificationError(
                "shift constants rejected at n=%d (lhs=%g rhs=%g)" % (n, lhs, rhs)
            )
    return ShiftConstants(mu=mu, A=big_a, D=big_d, n_checked=N_CHECK)
