"""Young conjugates of phi(t) = omega(e^t) and the parameter-shift constants.

Every family's conjugate is exact: a Gevrey-reducible phi(t) = e^(t/d) gives
x d log(x d / e) on x >= 1/d and -1 below (the sup sits at t = 0 there), a
log-power phi(t) = t^p gives (p - 1) (x / p)^(p / (p - 1)), and a root
phi(t) = phi_base(t / a) gives phi_base*(a x).  The oracle (method="numeric")
is a fixed-step golden-section maximisation of t -> x t - phi(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryHitError, DomainError, ResourceLimitError, VerificationError
from .weights import Gevrey, LogPower, RootComposed, Weight, gevrey_index

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

NUMERIC_STEPS = 60  # golden steps of the numeric conjugate: final bracket ~3e-13 x its right end
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


def _closed_form(w: Weight, x: float) -> float:
    d = gevrey_index(w)
    if d is not None:
        xd = x * d
        if xd <= 1.0:
            return -1.0
        return xd * math.log(xd / math.e)
    if isinstance(w, LogPower):
        try:
            return (w.p - 1.0) * (x / w.p) ** (w.p / (w.p - 1.0))
        except OverflowError:
            raise ResourceLimitError("conjugate of %s at x=%g overflows" % (w.spec(), x)) from None
    if isinstance(w, RootComposed):
        return _closed_form(w.base, w.a * x)
    raise DomainError("no closed-form conjugate for weight %s" % w.spec())


def _golden_max(f, a, b, steps: int):
    """`steps` golden-section steps for the max of a unimodal f on [a, b]; returns
    the final midpoint.  a, b may be arrays of brackets searched in lockstep (f
    maps one probe per lane to its value), each lane as if searched alone."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        left = fc >= fd  # keep [a, d]; else keep [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        probe = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fp = f(probe)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
    return 0.5 * (a + b)


def _numeric_sup(w: Weight, x: float) -> float:
    def f(t) -> float:
        t = float(t)  # the golden loop probes with 0-d arrays
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
    return max(f(_golden_max(f, 0.0, hi, NUMERIC_STEPS)), f(0.0))


def young_conjugate(w: Weight, x: float, method: str = "closed") -> float:
    """phi*_omega(x) = sup_{t >= 0} (x t - phi_omega(t)); "numeric" is the oracle."""
    if not x >= 0:  # NaN fails this too
        raise DomainError("the Young conjugate is evaluated on x >= 0, got %r" % (x,))
    if method == "closed":
        return _closed_form(w, x)
    if method == "numeric":
        return _numeric_sup(w, x)
    raise DomainError("unknown conjugate method %r" % (method,))


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
