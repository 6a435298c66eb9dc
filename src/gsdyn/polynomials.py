"""Exact univariate polynomials: iteration, fixed points, affine normal forms.

A Polynomial is integer coefficients over one positive denominator, in lowest
terms, and every operation runs on those ints; `coeffs` gives the Fractions.
Fixed-point classification is the hypothesis of the growth theorems, so roots
are isolated with exact sign counts (Sturm chains) and rational bisection, and
refined by quadratic interval refinement: a secant only guesses which
subinterval holds the root, and exact signs at its ends confirm it.  Isolation
reads only signs, so it runs on integer primitive forms: Sturm chains by
primitive pseudo-remainders, values at n/d as d^deg p(n/d) by Horner over ints.
Bisection from the Cauchy bound B visits only points B u / 2^k, so the chain
is scaled by B once and each sign is a Horner whose denominator powers are
shifts; points at or past the root radius R, a power of two above Fujiwara's
bound, have the sign variations of +-infinity and are not evaluated.  A root
is exact iff it is rational, and then it is k / |lead(p)| for an integer k.
x^2 + 1/4 and x^2 + 0.2500001 must land on different sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .errors import DomainError, ResourceLimitError, VerificationError

DEGREE_CAP = 4096
ITERATE_WORK_CAP = 2**31  # x^2 - 39/10 x + 111/25: 1.2e9 at m = 9 (0.15 s), 9.5e9 at m = 10 (1.8 s)


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
    """Ascending coefficients num[i] / den in lowest terms, den > 0, no trailing zeros."""

    num: Tuple[int, ...]
    den: int

    @staticmethod
    def of(coeffs: Sequence) -> "Polynomial":
        cs = [_to_fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        return _lowest([c.numerator * (den // c.denominator) for c in cs], den)

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
        return Polynomial((0, 1), 1)

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return self.num == (0,)

    def __call__(self, x):
        # int true division is correctly rounded: float(Fraction), bit for bit
        cs = self.coeffs if isinstance(x, Fraction) else [c / self.den for c in self.num]
        acc = cs[-1]
        for c in reversed(cs[:-1]):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        den, n = math.lcm(self.den, other.den), max(len(self.num), len(other.num))
        a, b = ([c * (den // p.den) for c in p.num] + [0] * (n - len(p.num)) for p in (self, other))
        return _lowest([x + y for x, y in zip(a, b)], den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def scale(self, c) -> "Polynomial":
        c = _to_fraction(c)
        return _lowest([c.numerator * a for a in self.num], c.denominator * self.den)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return _lowest(_mul(self.num, other.num, len(self.num) + len(other.num) - 1), self.den * other.den)

    def compose(self, inner: "Polynomial", order: Optional[int] = None) -> "Polynomial":
        """self(inner(x)), exactly, cut after x^order when an order is given.

        Horner on den a(n / d) = acc / e, for self = a / den and inner = n / d:
        acc <- acc n + a_i e d and e <- e d, each step divided by gcd(e,
        content of acc), so the result is in lowest terms as it comes."""
        a, n, d = self.num, inner.num, inner.den
        acc, e = [a[-1]], 1
        for c in reversed(a[:-1]):
            size = len(acc) + len(n) - 1
            acc, e = _mul(acc, n, size if order is None else min(size, order + 1)), e * d
            acc[0] += c * e
            g = math.gcd(e, *acc)
            acc, e = [x // g for x in acc], e // g
        g = math.gcd(self.den, *acc)
        return Polynomial(tuple(_trim([x // g for x in acc])) or (0,), self.den // g * e)

    def derivative(self) -> "Polynomial":
        return _lowest([i * c for i, c in enumerate(self.num)][1:], self.den)

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


def _lowest(num: List[int], den: int) -> Polynomial:
    """num / den as a Polynomial: trailing zeros cut, common factors divided out."""
    _trim(num)
    g = math.gcd(den, *num)
    return Polynomial(tuple(c // g for c in num) or (0,), den // g)


def iterate(psi: Polynomial, m: int) -> Polynomial:
    """The m-fold composition of psi with itself.  Before expanding: with
    q psi = P integral, h = log2 max(q, |P|_1) and D = deg psi, psi^m's
    coefficients have at most h (D^m - 1)/(D - 1) bits, and integer Horner
    composition costs about terms^2 times that: D^(2m), or 1 for a monomial."""
    if m < 0:
        raise DomainError("iteration count must be >= 0, got %r" % (m,))
    if m == 0:
        return Polynomial.x()
    deg = max(psi.degree, 1)
    if deg ** m > DEGREE_CAP:
        raise ResourceLimitError(
            "iterate degree %d^%d exceeds the cap %d" % (deg, m, DEGREE_CAP)
        )
    h = math.log2(max(psi.den, sum(map(abs, psi.num))))
    bits = h * m if deg == 1 else h * (deg**m - 1) / (deg - 1)
    terms = deg**m if sum(c != 0 for c in psi.num) > 1 else 1
    if terms**2 * max(bits, 1.0) > ITERATE_WORK_CAP:
        raise ResourceLimitError("iterate %d^%d: terms^2 x coefficient bits (up to %.0f) exceeds "
                                 "the work cap %.3g" % (deg, m, bits, ITERATE_WORK_CAP))
    out = psi
    for _ in range(m - 1):
        out = psi.compose(out)
    return out


def _mul(a: Sequence[int], b: Sequence[int], size: int) -> List[int]:
    """The first `size` coefficients of a b."""
    out = [0] * size
    for i, x in enumerate(a[:size]):
        if x:  # sparse iterates, like those of x^2, stay linear
            for j, y in enumerate(b[:size - i], i):
                out[j] += x * y
    return out


# --------------------------------------------------------------------------
# affine maps and normal forms
# --------------------------------------------------------------------------


def conjugate_by(psi: Polynomial, ell: Polynomial) -> Polynomial:
    """ell o psi o ell^-1, exactly, for an affine ell(x) = beta + alpha x."""
    if ell.degree != 1:
        raise DomainError("affine conjugator must be invertible (alpha != 0)")
    beta, alpha = ell.coeffs
    return ell.compose(psi.compose(Polynomial.of([-beta / alpha, 1 / alpha])))


@dataclass(frozen=True)
class NormalForm:
    kind: str  # "identity" | "reflection" | "dilation" | "translation"
    a: Optional[Fraction]
    poly: Polynomial
    conjugator: Polynomial  # beta + alpha x


def normal_form_degree1(psi: Polynomial) -> NormalForm:
    """Affine normal form: ell with conjugate_by(form, ell) == psi exactly."""
    if psi.degree != 1:
        raise DomainError("normal form is defined for degree-1 polynomials")
    b, a = psi.coeffs[0], psi.coeffs[1]
    if a == 1 and b == 0:
        nf = NormalForm("identity", None, Polynomial.x(), Polynomial.x())
    elif a == 1:
        # x + 1 conjugated by ell(x) = b x gives x + b
        nf = NormalForm("translation", None, Polynomial.of([1, 1]), Polynomial.of([0, b]))
    else:
        # a x conjugated by ell(x) = x + b/(1-a) gives a x + b
        ell = Polynomial.of([b / (1 - a), 1])
        kind = "reflection" if a == -1 else "dilation"
        nf = NormalForm(kind, a, Polynomial.of([0, a]), ell)
    if conjugate_by(nf.poly, nf.conjugator) != psi:
        raise VerificationError("normal-form conjugation failed to reproduce psi")
    return nf


# --------------------------------------------------------------------------
# fixed points
# --------------------------------------------------------------------------


def _float(num: int, den: int, point: Fraction) -> float:
    """num / den correctly rounded, or a ResourceLimitError naming the fixed point."""
    try:
        return num / den
    except OverflowError:
        near = format(Decimal(point.numerator) / Decimal(point.denominator), ".10g")
        raise ResourceLimitError("fixed point at %s: a value overflows a float" % near) from None


@dataclass(frozen=True)
class FixedPoint:
    location: Union[Fraction, Tuple[Fraction, Fraction]]
    multiplier: float
    kind: str  # "attracting" | "neutral" | "repelling"
    exact: bool

    @property
    def value(self) -> float:
        mid = self.location if self.exact else (self.location[0] + self.location[1]) / 2
        return _float(mid.numerator, mid.denominator, mid)


@dataclass(frozen=True)
class AllPointsFixed:
    """Marker returned when psi(x) = x identically."""


# Integer forms: ascending lists of Python ints, [] for the zero polynomial.
# An integer form stands for a positive rational multiple of the polynomial
# it came from, so it has the same sign everywhere.


def _primitive(a: List[int]) -> List[int]:
    g = math.gcd(*a)
    return a if g == 1 else [c // g for c in a]


def _int_form(p: Polynomial) -> List[int]:
    """p times a positive rational: coprime integer coefficients."""
    return [] if p.is_zero() else _primitive(list(p.num))


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


def _square_free(a: List[int], chain: Optional[List[List[int]]] = None) -> List[int]:
    """A positive multiple of a / gcd(a, a') for a of degree >= 1 (a itself
    if the gcd is constant); `chain`, if given, is a's Sturm chain."""
    g = (chain or _sturm_chain(a, _derivative(a)))[-1]
    if len(g) == 1:
        return a
    q = _primitive(_prem(a, g)[0])
    return q if (q[-1] > 0) == (a[-1] > 0) else [-c for c in q]


def _homogenize(a: Sequence[int], d: int) -> List[int]:
    """The coefficients c_i d^(deg - i): their polynomial at n is d^deg a(n/d)."""
    out, dk = [a[-1]], 1
    for c in reversed(a[:-1]):
        dk *= d
        out.append(c * dk)
    return out[::-1]


def _horner(a: Sequence[int], n: int) -> int:
    """a(n) over ints: the one exact evaluation behind every sign."""
    acc = a[-1]
    for c in reversed(a[:-1]):
        acc = acc * n + c
    return acc


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _sign_at(a: Sequence[int], x: Fraction) -> int:
    """The sign of a(x), from d^deg(a) a(n/d) for x = n/d."""
    return _sign(_horner(_homogenize(a, x.denominator), x.numerator))


def _sign_changes(signs: Sequence[int]) -> int:
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations(chain: Sequence[List[int]], x: Fraction) -> int:
    return _sign_changes([_sign_at(p, x) for p in chain])


def _cauchy_bound(a: List[int]) -> Fraction:
    return 1 + Fraction(max(abs(c) for c in a), abs(a[-1]))


def _root_radius(a: List[int]) -> int:
    """An r with 2^r strictly above the modulus of every complex root of a.

    Fujiwara's bound |z| <= 2 max_i |a_(n-i) / a_n|^(1/i) (Tohoku Math. J. 10,
    1916) is below 2^r once 2^((r-1) i) |a_n| > |a_(n-i)| for every i, which
    holds when (r-1) i >= bits(a_(n-i)) - bits(a_n) + 1.  This r is at most
    two above the least exponent whose power of two is above the bound."""
    n, lead = len(a) - 1, abs(a[-1]).bit_length()
    return 1 + max((-((lead - abs(a[n - i]).bit_length() - 1) // i)
                    for i in range(1, n + 1) if a[n - i]), default=0)


def _grid_signs(scaled: Sequence[List[int]], u: int, k: int) -> List[int]:
    """The signs of a chain at B u / 2^k, each member q prescaled by B, from
    2^(k deg q) q(u / 2^k) by Horner over ints: every power of 2^k is a shift."""
    signs = []
    for q in scaled:
        acc, shift = q[-1], 0
        for c in reversed(q[:-1]):
            shift += k
            acc = acc * u + (c << shift)
        signs.append(_sign(acc))
    return signs


def _isolate_roots(p: List[int], chain: Optional[List[List[int]]] = None) -> List[Tuple[Fraction, Fraction]]:
    """Disjoint intervals (lo, hi], one simple root each; p must be square-free
    and `chain`, if given, its Sturm chain.

    Bisection from (-B, B], B the Cauchy bound, so every point it visits is
    B u / 2^k: the stack holds (u_a, V(a), u_b, V(b), k) with V the Sturm sign
    variations, so the chain is evaluated once per point, and only at points
    inside the root radius R.  No root lies at or past R, so there V is its
    value at +-infinity, read off the leading coefficients."""
    chain = chain or _sturm_chain(p, _derivative(p))
    bound = _cauchy_bound(p)
    n, d, r = bound.numerator, bound.denominator, _root_radius(p)
    # d^deg q(B t) = sum of c_i n^i d^(deg - i) t^i, positive multiples kept primitive
    npow = [n ** i for i in range(len(p))]
    scaled = [_primitive([c * npow[i] for i, c in enumerate(_homogenize(q, d))]) for q in chain]
    v_top = _sign_changes([_sign(q[-1]) for q in chain])
    v_bottom = _sign_changes([_sign(q[-1]) * (-1) ** (len(q) - 1) for q in chain])

    def signs_at(u: int, k: int) -> Tuple[int, int]:
        """(V, sign of p) at B u / 2^k."""
        z = min((u & -u).bit_length() - 1, k) if u else k
        u, k = u >> z, k - z
        e = k + r
        if abs(u) * n << max(-e, 0) >= d << max(e, 0):  # |B u / 2^k| >= 2^r
            return (v_top if u > 0 else v_bottom), 1
        signs = _grid_signs(scaled, u, k)
        return _sign_changes(signs), signs[0]

    cells: List[Tuple[int, int, int]] = []
    stack = [(-1, v_bottom, 1, v_top, 0)]
    while stack:
        ua, va, ub, vb, k = stack.pop()
        roots = va - vb
        if roots == 0:
            continue
        if roots == 1:
            cells.append((ua, ub, k))
            continue
        um = ua + ub  # the midpoint, on level k + 1
        vm, sm = signs_at(um, k + 1)
        if sm == 0:
            # exact root at the probe: wall it off with a tiny gap (b - a) / 2^j
            j = 24
            while True:
                lo, hi = (um << (j - 1)) - (ub - ua), (um << (j - 1)) + (ub - ua)
                (vlo, _), (vhi, _) = signs_at(lo, k + j), signs_at(hi, k + j)
                if vlo - vhi == 1:
                    break
                j += 1
            cells.append((lo, hi, k + j))
            stack.append((ua << j, va, lo, vlo, k + j))
            stack.append((hi, vhi, ub << j, vb, k + j))
        else:
            stack.append((2 * ua, va, um, vm, k + 1))
            stack.append((um, vm, 2 * ub, vb, k + 1))
    out = [(Fraction(n * ua, d << k), Fraction(n * ub, d << k)) for ua, ub, k in cells]
    out.sort(key=lambda iv: iv[0])
    return out


def _level(span: Fraction, width: Fraction) -> int:
    """The least k >= 0 with span / 2^k <= width."""
    return 0 if span <= width else (math.ceil(span / width) - 1).bit_length()


def _refine(p: List[int], lo: Fraction, hi: Fraction, width: Fraction) -> Tuple[Fraction, Fraction]:
    """The cell (lo + i w, lo + (i+1) w] of (lo, hi] that holds the one root
    of p there, w = (hi - lo) / 2^_level(hi - lo, width); (g, g)
    when the root is a grid point g strictly inside.  Bisection gives the
    same result; `hi` may be a root and is never evaluated.

    Quadratic interval refinement (Abbott 2006): a bracket (a, b] of grid
    points is split into N parts.  The secant through the exact values at a
    and b guesses the part that holds the root, and the exact signs at its
    two ends confirm it: N is squared on success, and on failure one plain
    bisection step is taken and N is square-rooted.  The guess only picks an
    index, so every bracket is certified by signs.  Until the right end has a
    known value (b < hi), the steps are bisections."""
    k = _level(hi - lo, width)
    # grid point j is (base + j span) / d; every value is d^deg p there
    c = math.lcm(lo.denominator, hi.denominator)
    base = lo.numerator * (c // lo.denominator)
    span = hi.numerator * (c // hi.denominator) - base
    base, d = base << k, c << k
    scaled = _homogenize(p, d)

    def value(j: int) -> int:
        return _horner(scaled, base + j * span)

    def point(j: int) -> Fraction:
        return Fraction(base + j * span, d)

    fa = value(0)
    slo = _sign(fa)
    if slo == 0:  # lo is -bound, a probe that is not a root, or a wall-off end
        raise VerificationError("refinement interval endpoint is a root")
    # (a, b] holds the root, N = 2^s; fb is None while b is hi
    a, b, fb, s = 0, 1 << k, None, 2
    while b - a > 1:
        h, seen = b - a, {}
        if fb is not None:
            step = h >> min(s, h.bit_length() - 1)
            lft = a + (h // step) * fa // (fa - fb) * step  # fa, fb differ in sign
            rgt = lft + step
            for j in (lft, rgt):
                if a < j < b:
                    seen[j] = value(j)
                    if seen[j] == 0:
                        return (point(j), point(j))
            f_lft, f_rgt = seen.get(lft, fa), seen.get(rgt, fb)
            if _sign(f_lft) == slo != _sign(f_rgt):
                a, b, fa, fb, s = lft, rgt, f_lft, f_rgt, 2 * s
                continue
            s = max(s // 2, 1)
        # one bisection step; the midpoint may be an end just evaluated
        mid = a + h // 2
        fm = seen[mid] if mid in seen else value(mid)
        if fm == 0:
            return (point(mid), point(mid))
        if _sign(fm) == slo:
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return (point(a), point(b))


def _rational_root(p: List[int], lo: Fraction, hi: Fraction) -> Optional[Fraction]:
    """The root of p in (lo, hi] if it is rational, else None, for hi - lo <=
    1 / L with L = |lead(p)|.  A rational root of p is k / L for an integer k
    (the rational root theorem), and (lo, hi] holds at most one such point."""
    lead = abs(p[-1])
    cand = Fraction(hi.numerator * lead // hi.denominator, lead)
    return cand if lo < cand and _sign_at(p, cand) == 0 else None


def _kind_near_one(
    r_sf: List[int], dpsi: Polynomial, lo: Fraction, hi: Fraction
) -> Tuple[str, Fraction, Fraction]:
    """The exact kind of the irrational root of r_sf in (lo, hi], where |psi'|
    is too close to 1 for a float, and the interval it was read on.

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


def _multiplier(dpsi: Polynomial, x: Fraction) -> Tuple[float, int]:
    """|psi'(x)| as a float and the sign of |psi'(x)| - 1, for psi' = b / q:
    |d^deg b(n/d)| / (q d^deg) at x = n/d, over ints."""
    b, q, d = dpsi.num, dpsi.den, x.denominator
    num, den = abs(_horner(_homogenize(b, d), x.numerator)), q * d ** (len(b) - 1)
    return _float(num, den, x), _sign(num - den)


def fixed_points(psi: Polynomial) -> Union[List[FixedPoint], AllPointsFixed]:
    """All real solutions of psi(x) = x in ascending order (that of their
    isolating intervals), classified by |psi'|."""
    if psi.degree < 1:
        raise DomainError("fixed points need deg(psi) >= 1")
    r = psi - Polynomial.x()
    if r.is_zero():
        return AllPointsFixed()
    if r.degree == 0:
        return []
    r_int = _int_form(r)
    chain = _sturm_chain(r_int, _derivative(r_int))
    r_sf = _square_free(r_int, chain)
    dpsi = psi.derivative()
    width = Fraction(1, 10 ** 13)
    out: List[FixedPoint] = []
    for lo, hi in _isolate_roots(r_sf, chain if r_sf is r_int else None):
        a, b = _refine(r_sf, lo, hi, min(width, Fraction(1, abs(r_sf[-1]))))
        exact_root = a if a == b else _rational_root(r_sf, a, b)
        if exact_root is not None:
            mult, above = _multiplier(dpsi, exact_root)
            kind = ("attracting", "neutral", "repelling")[above + 1]
            out.append(FixedPoint(exact_root, mult, kind, True))
            continue
        # irrational root: the width cell that holds (a, b], classified at its midpoint
        w = (hi - lo) / 2 ** _level(hi - lo, width)
        lo += (a - lo) // w * w
        hi = lo + w
        mid = (lo + hi) / 2
        mult = _multiplier(dpsi, mid)[0]
        if abs(mult - 1.0) > 1e-9:
            kind = "repelling" if mult > 1 else "attracting"
        else:
            kind, lo, hi = _kind_near_one(r_sf, dpsi, lo, hi)
            mid = (lo + hi) / 2
            mult = 1.0 if kind == "neutral" else _multiplier(dpsi, mid)[0]
        out.append(FixedPoint((lo, hi), mult, kind, False))
    return out
