"""Exact univariate polynomials: iteration, fixed points, affine normal forms.

A Polynomial's coefficients are Fractions.  Fixed-point classification is
the hypothesis of the growth theorems, so root isolation is done with exact
sign counts (Sturm chains) and rational bisection; no floating root finder
is involved.  Isolation reads only signs, so it runs on integer primitive
forms: Sturm chains by primitive pseudo-remainders, and signs at rational
points by homogeneous Horner over ints.  x^2 + 1/4 and x^2 + 0.2500001 must
land on different sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .errors import DomainError, ResourceLimitError, VerificationError

_ZERO = Fraction(0)
_ONE = Fraction(1)

DEGREE_CAP = 4096


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary value
    raise DomainError("cannot coerce %r to an exact rational" % (x,))


@dataclass(frozen=True)
class Polynomial:
    """Ascending coefficients, canonical (no trailing zeros)."""

    coeffs: Tuple[Fraction, ...]

    @staticmethod
    def of(coeffs: Sequence) -> "Polynomial":
        cs = [_to_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Polynomial(tuple(cs) if cs else (_ZERO,))

    @staticmethod
    def parse(text: str) -> "Polynomial":
        """Comma list of rationals, constant term first: "1/4,0,1" is x^2+1/4."""
        try:
            coeffs = [Fraction(part.strip()) for part in text.split(",")]
        except (ValueError, ZeroDivisionError):
            raise DomainError("malformed polynomial literal %r" % (text,)) from None
        return Polynomial.of(coeffs)

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial.of([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (_ZERO,)

    def __call__(self, x):
        cs = self.coeffs if isinstance(x, Fraction) else [float(c) for c in self.coeffs]
        acc = cs[-1]
        for c in reversed(cs[:-1]):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [_ZERO] * (n - len(self.coeffs))
        b = list(other.coeffs) + [_ZERO] * (n - len(other.coeffs))
        return Polynomial.of([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "Polynomial":
        c = _to_fraction(c)
        return Polynomial.of([c * a for a in self.coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial.of(out)

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """self(inner(x)) by Horner over polynomials."""
        acc = Polynomial.of([self.coeffs[-1]])
        for c in reversed(self.coeffs[:-1]):
            acc = acc * inner + Polynomial.of([c])
        return acc

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial.of([0])
        return Polynomial.of([i * c for i, c in enumerate(self.coeffs)][1:])

    def derivatives_at(self, x0, order: int) -> List[Fraction]:
        """Exact derivatives f^(n)(x0) for n = 0..order."""
        x0 = _to_fraction(x0)
        cur = self
        out = [cur(x0)]
        for _ in range(order):
            cur = cur.derivative()
            out.append(cur(x0))
        return out

    def spec(self) -> str:
        return ",".join(str(c) for c in self.coeffs)


def iterate(psi: Polynomial, m: int) -> Polynomial:
    """The m-fold composition of psi with itself."""
    if m < 0:
        raise DomainError("iteration count must be >= 0, got %r" % (m,))
    if m == 0:
        return Polynomial.x()
    deg = max(psi.degree, 1)
    if deg ** m > DEGREE_CAP:
        raise ResourceLimitError(
            "iterate degree %d^%d exceeds the cap %d" % (deg, m, DEGREE_CAP)
        )
    result = psi
    for _ in range(m - 1):
        result = psi.compose(result)
    return result


# --------------------------------------------------------------------------
# affine maps and normal forms
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineMap:
    """ell(x) = alpha x + beta with alpha != 0."""

    alpha: Fraction
    beta: Fraction

    @staticmethod
    def of(alpha, beta) -> "AffineMap":
        alpha = _to_fraction(alpha)
        if alpha == 0:
            raise DomainError("affine conjugator must be invertible (alpha != 0)")
        return AffineMap(alpha, _to_fraction(beta))

    @staticmethod
    def identity() -> "AffineMap":
        return AffineMap(_ONE, _ZERO)

    def __call__(self, x: Fraction) -> Fraction:
        return self.alpha * x + self.beta

    def inverse(self) -> "AffineMap":
        return AffineMap(1 / self.alpha, -self.beta / self.alpha)

    def as_polynomial(self) -> Polynomial:
        return Polynomial.of([self.beta, self.alpha])


def conjugate_by(psi: Polynomial, ell: AffineMap) -> Polynomial:
    """ell o psi o ell^-1, exactly."""
    inv = ell.inverse()
    return ell.as_polynomial().compose(psi.compose(inv.as_polynomial()))


@dataclass(frozen=True)
class NormalForm:
    kind: str  # "identity" | "reflection" | "dilation" | "translation"
    a: Optional[Fraction]
    poly: Polynomial
    conjugator: AffineMap


def normal_form_degree1(psi: Polynomial) -> NormalForm:
    """Affine normal form: ell with conjugate_by(form, ell) == psi exactly."""
    if psi.degree != 1:
        raise DomainError("normal form is defined for degree-1 polynomials")
    b, a = psi.coeffs[0], psi.coeffs[1]
    if a == 1 and b == 0:
        nf = NormalForm("identity", None, Polynomial.x(), AffineMap.identity())
    elif a == 1:
        # x + 1 conjugated by ell(x) = b x gives x + b
        nf = NormalForm("translation", None, Polynomial.of([1, 1]), AffineMap.of(b, 0))
    else:
        # a x conjugated by ell(x) = x + b/(1-a) gives a x + b
        ell = AffineMap.of(1, b / (1 - a))
        kind = "reflection" if a == -1 else "dilation"
        nf = NormalForm(kind, a, Polynomial.of([0, a]), ell)
    if conjugate_by(nf.poly, nf.conjugator) != psi:
        raise VerificationError("normal-form conjugation failed to reproduce psi")
    return nf


# --------------------------------------------------------------------------
# fixed points
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPoint:
    location: Union[Fraction, Tuple[Fraction, Fraction]]
    multiplier: float
    kind: str  # "attracting" | "neutral" | "repelling"
    exact: bool

    @property
    def value(self) -> float:
        if self.exact:
            return float(self.location)
        lo, hi = self.location
        return float((lo + hi) / 2)


class AllPointsFixed:
    """Marker returned when psi(x) = x identically."""

    def __repr__(self):
        return "AllPointsFixed()"

    def __eq__(self, other):
        return isinstance(other, AllPointsFixed)


# Integer forms: ascending lists of Python ints, [] for the zero polynomial.
# An integer form stands for a positive rational multiple of the polynomial
# it came from, so it has the same sign everywhere.


def _primitive(a: List[int]) -> List[int]:
    g = math.gcd(*a)
    return a if g == 1 else [c // g for c in a]


def _int_form(p: Polynomial) -> List[int]:
    """p times a positive rational: coprime integer coefficients."""
    if p.is_zero():
        return []
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return _primitive([c.numerator * (den // c.denominator) for c in p.coeffs])


def _trim(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _prem(a: List[int], b: List[int]) -> Tuple[List[int], List[int]]:
    """(q, r) with lc(b)^e a = q b + r, deg r < deg b, e = max(deg a - deg b + 1, 0)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    n, lb = len(b) - 1, b[-1]
    q = [0] * max(len(a) - n, 0)
    r = list(a)
    for k in range(len(a) - 1 - n, -1, -1):
        f = r.pop()
        q[k] = f * lb ** k  # each of the k steps still to come scales q by lb
        r = [lb * c for c in r]
        for i in range(n):
            r[k + i] -= f * b[i]
    return _trim(q), _trim(r)


def _sturm_chain(a: List[int], b: List[int]) -> List[List[int]]:
    """a, b, then -rem of the last two, each made primitive, until the
    remainder is zero: a Sturm chain when b = a', and the last entry is
    gcd(a, b) up to a constant factor."""
    chain = [a, b]
    while True:
        e = max(len(chain[-2]) - len(chain[-1]) + 1, 0)
        _, r = _prem(chain[-2], chain[-1])
        if not r:
            return chain
        # -rem(a, b) is -r / lc(b)^e: negate, and flip back when lc(b)^e < 0
        negate = chain[-1][-1] > 0 or e % 2 == 0
        chain.append(_primitive([-c for c in r] if negate else r))


def _derivative(a: List[int]) -> List[int]:
    return _primitive([i * c for i, c in enumerate(a)][1:])


def _square_free(a: List[int]) -> List[int]:
    """A positive multiple of a / gcd(a, a') for a of degree >= 1."""
    g = _sturm_chain(a, _derivative(a))[-1]
    if len(g) == 1:
        return a
    q = _primitive(_prem(a, g)[0])
    return q if (q[-1] > 0) == (a[-1] > 0) else [-c for c in q]


def _sign_at(a: Sequence[int], x: Fraction) -> int:
    """The sign of a(x), from d^deg(a) a(n/d) for x = n/d by homogeneous Horner."""
    n, d = x.numerator, x.denominator
    acc, dk = a[-1], 1
    for c in reversed(a[:-1]):
        dk *= d
        acc = acc * n + c * dk
    return (acc > 0) - (acc < 0)


def _variations(chain: Sequence[List[int]], x: Fraction) -> int:
    signs = [s for s in (_sign_at(p, x) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _cauchy_bound(a: List[int]) -> Fraction:
    return 1 + Fraction(max(abs(c) for c in a), abs(a[-1]))


def _isolate_roots(p: List[int]) -> List[Tuple[Fraction, Fraction]]:
    """Disjoint intervals (lo, hi], one simple root each; p must be square-free.

    Every root lies strictly inside the Cauchy bound, so neither starting end
    is a root.  The stack holds (a, V(a), b, V(b)) with V the Sturm sign
    variations, so the chain is evaluated once per point."""
    chain = _sturm_chain(p, _derivative(p))
    bound = _cauchy_bound(p)
    out: List[Tuple[Fraction, Fraction]] = []
    stack = [(-bound, _variations(chain, -bound), bound, _variations(chain, bound))]
    while stack:
        a, va, b, vb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        if _sign_at(p, mid) == 0:
            # exact root at the probe: wall it off with a tiny gap
            gap = (b - a) / 2 ** 24
            while True:
                lo, hi = mid - gap, mid + gap
                vlo, vhi = _variations(chain, lo), _variations(chain, hi)
                if vlo - vhi == 1:
                    break
                gap /= 2
            out.append((lo, hi))
            stack.append((a, va, lo, vlo))
            stack.append((hi, vhi, b, vb))
        else:
            vm = _variations(chain, mid)
            stack.append((a, va, mid, vm))
            stack.append((mid, vm, b, vb))
    out.sort(key=lambda iv: iv[0])
    return out


def _refine(p: List[int], lo: Fraction, hi: Fraction, width: Fraction) -> Tuple[Fraction, Fraction]:
    """Bisect the sign change in (lo, hi] down to the requested width."""
    slo = _sign_at(p, lo)
    if slo == 0:  # lo is -bound, a probe that is not a root, or a wall-off end
        raise VerificationError("refinement interval endpoint is a root")
    while hi - lo > width:
        mid = (lo + hi) / 2
        sm = _sign_at(p, mid)
        if sm == 0:
            return (mid, mid)
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def _snap_rational(p: List[int], lo: Fraction, hi: Fraction) -> Optional[Fraction]:
    mid = (lo + hi) / 2
    for den_cap in (1, 10, 10 ** 3, 10 ** 6, 10 ** 9):
        cand = Fraction(float(mid)).limit_denominator(den_cap)
        if lo < cand <= hi and _sign_at(p, cand) == 0:
            return cand
    return None


def _kind_near_one(
    r_sf: List[int], dpsi: Polynomial, lo: Fraction, hi: Fraction
) -> Tuple[str, Fraction, Fraction]:
    """The exact kind of the root of r_sf in (lo, hi], where |psi'| is too
    close to 1 for a float, and the interval it was read on.

    |psi'| - 1 has the sign of s = psi'^2 - 1.  The root is neutral iff
    gcd(r_sf, s) vanishes in (lo, hi]; that gcd divides r_sf, so it is
    square-free and changes sign there.  Otherwise bisect until s has no root
    in [lo, hi] and read its sign at lo."""
    s = _int_form(dpsi * dpsi - Polynomial.of([1]))
    if not s:  # |psi'| = 1 everywhere
        return "neutral", lo, hi
    if len(s) == 1:
        return ("repelling" if s[0] > 0 else "attracting"), lo, hi
    g = _sturm_chain(r_sf, s)[-1]
    if len(g) > 1 and _sign_at(g, lo) != _sign_at(g, hi):
        return "neutral", lo, hi
    s_sf = _square_free(s)
    s_chain = _sturm_chain(s_sf, _derivative(s_sf))
    while _sign_at(s, lo) == 0 or _variations(s_chain, lo) != _variations(s_chain, hi):
        lo, hi = _refine(r_sf, lo, hi, (hi - lo) / 2)
    return ("repelling" if _sign_at(s, lo) > 0 else "attracting"), lo, hi


def fixed_points(psi: Polynomial) -> Union[List[FixedPoint], AllPointsFixed]:
    """All real solutions of psi(x) = x, classified by |psi'|."""
    if psi.degree < 1:
        raise DomainError("fixed points need deg(psi) >= 1")
    r = psi - Polynomial.x()
    if r.is_zero():
        return AllPointsFixed()
    if r.degree == 0:
        return []
    r_sf = _square_free(_int_form(r))
    dpsi = psi.derivative()
    out: List[FixedPoint] = []
    for lo, hi in _isolate_roots(r_sf):
        lo, hi = _refine(r_sf, lo, hi, Fraction(1, 10 ** 13))
        exact_root = lo if lo == hi else _snap_rational(r_sf, lo, hi)
        if exact_root is not None:
            mult = abs(dpsi(exact_root))
            kind = "repelling" if mult > 1 else ("neutral" if mult == 1 else "attracting")
            out.append(FixedPoint(exact_root, float(mult), kind, True))
            continue
        # irrational root: classify at the midpoint, exactly when the float is ambiguous
        mult = abs(float(dpsi((lo + hi) / 2)))
        if abs(mult - 1.0) > 1e-9:
            kind = "repelling" if mult > 1 else "attracting"
        else:
            kind, lo, hi = _kind_near_one(r_sf, dpsi, lo, hi)
            mult = 1.0 if kind == "neutral" else abs(float(dpsi((lo + hi) / 2)))
        out.append(FixedPoint((lo, hi), mult, kind, False))
    out.sort(key=lambda fp: fp.value)
    return out
