"""Exact univariate polynomials: iteration, fixed points, affine normal forms.

Coefficients are Fractions throughout.  Fixed-point classification is the
hypothesis of the growth theorems, so root isolation is done with exact
sign counts (Sturm chains) and rational bisection; no floating root finder
is involved.  x^2 + 1/4 and x^2 + 0.2500001 must land on different sides.
"""

from __future__ import annotations

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
        acc = self.coeffs[-1] if isinstance(x, Fraction) else float(self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + (c if isinstance(x, Fraction) else float(c))
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


def _poly_divmod(a: Polynomial, b: Polynomial) -> Tuple[Polynomial, Polynomial]:
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = [_ZERO] * max(1, a.degree - b.degree + 1)
    r = list(a.coeffs)
    bl = b.coeffs[-1]
    while len(r) - 1 >= b.degree and any(c != 0 for c in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < b.degree:
            break
        k = len(r) - 1 - b.degree
        f = r[-1] / bl
        q[k] = f
        for i, c in enumerate(b.coeffs):
            r[k + i] -= f * c
        r.pop()
    return Polynomial.of(q), Polynomial.of(r)


def _poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while not b.is_zero():
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a.is_zero():
        return a
    return a.scale(1 / a.coeffs[-1])  # monic


def _sturm_chain(p: Polynomial) -> List[Polynomial]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        _, r = _poly_divmod(chain[-2], chain[-1])
        chain.append(r.scale(-1))
    return chain[:-1]


def _variations(chain: Sequence[Polynomial], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = p(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count_roots(chain, lo: Fraction, hi: Fraction) -> int:
    return _variations(chain, lo) - _variations(chain, hi)


def _cauchy_bound(p: Polynomial) -> Fraction:
    lead = abs(p.coeffs[-1])
    return 1 + max(abs(c) for c in p.coeffs) / lead


def _isolate_roots(p: Polynomial) -> List[Tuple[Fraction, Fraction]]:
    """Disjoint intervals (lo, hi], one simple root each; p must be square-free."""
    chain = _sturm_chain(p)
    bound = _cauchy_bound(p)
    lo, hi = -bound, bound
    # nudge endpoints off roots
    while p(lo) == 0:
        lo -= 1
    while p(hi) == 0:
        hi += 1
    out: List[Tuple[Fraction, Fraction]] = []
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        n = _count_roots(chain, a, b)
        if n == 0:
            continue
        if n == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        if p(mid) == 0:
            # exact root at the probe: wall it off with a tiny gap
            gap = (b - a) / 2 ** 24
            while _count_roots(chain, mid - gap, mid + gap) != 1:
                gap /= 2
            out.append((mid - gap, mid + gap))
            stack.append((a, mid - gap))
            stack.append((mid + gap, b))
        else:
            stack.append((a, mid))
            stack.append((mid, b))
    out.sort(key=lambda iv: iv[0])
    return out


def _refine(p: Polynomial, lo: Fraction, hi: Fraction, width: Fraction) -> Tuple[Fraction, Fraction]:
    """Bisect the sign change in (lo, hi] down to the requested width."""
    flo = p(lo)
    if flo == 0:  # endpoint nudge in _isolate_roots prevents this
        raise VerificationError("refinement interval endpoint is a root")
    while hi - lo > width:
        mid = (lo + hi) / 2
        fm = p(mid)
        if fm == 0:
            return (mid, mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo, hi)


def _snap_rational(p: Polynomial, lo: Fraction, hi: Fraction) -> Optional[Fraction]:
    mid = (lo + hi) / 2
    for den_cap in (1, 10, 10 ** 3, 10 ** 6, 10 ** 9):
        cand = Fraction(float(mid)).limit_denominator(den_cap)
        if lo < cand <= hi and p(cand) == 0:
            return cand
    return None


def fixed_points(psi: Polynomial) -> Union[List[FixedPoint], AllPointsFixed]:
    """All real solutions of psi(x) = x, classified by |psi'|."""
    if psi.degree < 1:
        raise DomainError("fixed points need deg(psi) >= 1")
    r = psi - Polynomial.x()
    if r.is_zero():
        return AllPointsFixed()
    if r.degree == 0:
        return []
    g = _poly_gcd(r, r.derivative())
    r_sf = _poly_divmod(r, g)[0] if g.degree >= 1 else r
    dpsi = psi.derivative()
    out: List[FixedPoint] = []
    for lo, hi in _isolate_roots(r_sf):
        lo, hi = _refine(r_sf, lo, hi, Fraction(1, 10 ** 13))
        exact_root: Optional[Fraction] = None
        if lo == hi:
            exact_root = lo
        else:
            exact_root = _snap_rational(r_sf, lo, hi)
        if exact_root is not None:
            mult = abs(dpsi(exact_root))
            kind = "repelling" if mult > 1 else ("neutral" if mult == 1 else "attracting")
            out.append(FixedPoint(exact_root, float(mult), kind, True))
            continue
        # irrational root: classify at the midpoint, refining while ambiguous
        width = Fraction(1, 10 ** 13)
        while True:
            mid = (lo + hi) / 2
            mult = abs(float(dpsi(mid)))
            if abs(mult - 1.0) > 1e-9 or width < Fraction(1, 10 ** 16):
                break
            width /= 2 ** 8
            lo, hi = _refine(r_sf, lo, hi, width)
        kind = (
            "repelling"
            if mult > 1 + 1e-9
            else ("attracting" if mult < 1 - 1e-9 else "neutral")
        )
        out.append(FixedPoint((lo, hi), mult, kind, False))
    out.sort(key=lambda fp: fp.value)
    return out
