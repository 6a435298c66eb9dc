import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gsdyn import polynomials
from gsdyn.errors import DomainError, ResourceLimitError
from gsdyn.polynomials import (
    AffineMap,
    AllPointsFixed,
    FixedPoint,
    Polynomial,
    _derivative,
    _int_form,
    _prem,
    _sign_at,
    _sturm_chain,
    _trim,
    conjugate_by,
    fixed_points,
    iterate,
    normal_form_degree1,
)

X2 = Polynomial.of([0, 0, 1])


def test_parse_spec_round_trip():
    p = Polynomial.parse("1/4,0,1")
    assert p(Fraction(1, 2)) == Fraction(1, 2)
    assert Polynomial.parse(p.spec()) == p


def test_canonical_trailing_zeros():
    assert Polynomial.of([1, 2, 0, 0]) == Polynomial.of([1, 2])
    assert Polynomial.of([0]).degree == 0


def test_iterate_degrees_and_values():
    assert iterate(X2, 3).degree == 8
    assert iterate(X2, 3)(Fraction(2)) == 256
    assert iterate(X2, 0) == Polynomial.x()


def test_iterate_degree_cap():
    with pytest.raises(ResourceLimitError):
        iterate(X2, 13)  # degree 8192 over the default cap


small_coeffs = st.lists(
    st.integers(min_value=-3, max_value=3), min_size=1, max_size=4
)


@given(small_coeffs, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_iterate_additivity(coeffs, a, b):
    psi = Polynomial.of(coeffs)
    try:
        lhs = iterate(psi, a + b)
        rhs = iterate(psi, a).compose(iterate(psi, b))
    except ResourceLimitError:
        return
    assert lhs == rhs


def test_derivatives_at_match_taylor():
    # f^(n)(x0) = n! times the t^n coefficient of f(x0 + t)
    p = Polynomial.parse("1,2,3,4")
    x0 = Fraction(1, 3)
    derivs = p.derivatives_at(x0, 5)
    taylor = p.compose(Polynomial.of([x0, 1])).coeffs
    for n in range(6):
        assert derivs[n] == (taylor[n] * math.factorial(n) if n < len(taylor) else 0)


def test_fixed_points_square_map():
    pts = fixed_points(X2)
    assert not isinstance(pts, AllPointsFixed)
    by_loc = {p.location: p for p in pts}
    assert by_loc[Fraction(0)].kind == "attracting"
    assert by_loc[Fraction(1)].kind == "repelling"
    assert by_loc[Fraction(1)].multiplier == pytest.approx(2.0)


def test_fixed_points_neutral_and_empty():
    pts = fixed_points(Polynomial.parse("1/4,0,1"))
    assert len(pts) == 1 and pts[0].kind == "neutral"
    assert pts[0].location == Fraction(1, 2)
    assert fixed_points(Polynomial.parse("5,0,1")) == []


def test_fixed_points_identity():
    assert isinstance(fixed_points(Polynomial.x()), AllPointsFixed)


def _fp(location, multiplier, kind):
    """A FixedPoint from a rational string (exact) or a pair of them (an interval)."""
    if isinstance(location, str):
        return FixedPoint(Fraction(location), multiplier, kind, True)
    return FixedPoint(tuple(map(Fraction, location)), multiplier, kind, False)


# a benchmark quadratic: multiplier -3/2 at 6/5, an attracting 4-cycle
SLOT = "111/25,-39/10,1"

# (psi, m) -> fixed_points(psi^m), every interval and multiplier as recorded
FIXED_POINT_PINS = {
    # 0 is the first probe and a root: the wall-off path
    ("0,0,1", 1): [_fp("0", 0.0, "attracting"), _fp("1", 2.0, "repelling")],
    # 1/3 is not dyadic: snapped after refinement
    ("0,0,3", 1): [_fp("0", 0.0, "attracting"), _fp("1/3", 2.0, "repelling")],
    ("-2,1,1", 1): [
        _fp(("-24879108095805/17592186044416", "-49758216191607/35184372088832"),
            1.8284271247462414, "repelling"),
        _fp(("49758216191607/35184372088832", "24879108095805/17592186044416"),
            3.8284271247462414, "repelling"),
    ],
    # a double root of psi(x) - x, isolated on the square-free part
    ("1/4,0,1", 1): [_fp("1/2", 1.0, "neutral")],
    (SLOT, 4): [
        _fp(("1469997002334601728807720043/2305843009213693952000000000",
             "14699970023348151324363674379/23058430092136939520000000000"),
            0.03049997597305946, "attracting"),
        _fp("7/10", 1.5625, "repelling"),
        _fp(("18578350684422590689985109467/23058430092136939520000000000",
             "2322293835553090590783947927/2882303761517117440000000000"),
            0.03049997597417606, "attracting"),
        _fp("6/5", 5.0625, "repelling"),
        _fp(("22446289462109939626401684197/11529215046068469760000000000",
             "44892578924222013289089842343/23058430092136939520000000000"),
            0.030499975974102457, "attracting"),
        _fp("11/5", 1.5625, "repelling"),
        _fp(("54420918195285158091694152891/23058430092136939520000000000",
             "1360522954882182303199515671/576460752303423488000000000"),
            0.030499975974484454, "attracting"),
        _fp("37/10", 150.0625, "repelling"),
    ],
    (SLOT, 5): [_fp("6/5", 7.59375, "repelling"), _fp("37/10", 525.21875, "repelling")],
}


@pytest.mark.parametrize("spec, m", list(FIXED_POINT_PINS))
def test_fixed_points_pinned(spec, m):
    assert fixed_points(iterate(Polynomial.parse(spec), m)) == FIXED_POINT_PINS[spec, m]


@pytest.mark.parametrize("spec, m", [("0,0,1", 1), ("1/4,0,1", 1), (SLOT, 4)])
def test_sturm_chain_evaluated_once_per_point(monkeypatch, spec, m):
    seen = []
    variations = polynomials._variations

    def counted(chain, x):
        seen.append((id(chain), x))
        return variations(chain, x)

    monkeypatch.setattr(polynomials, "_variations", counted)
    fixed_points(iterate(Polynomial.parse(spec), m))
    assert seen and len(seen) == len(set(seen))


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
ints = st.integers(min_value=-60, max_value=60)


@given(st.lists(ints, max_size=9), st.lists(ints, max_size=6))
@settings(max_examples=80, deadline=None)
def test_prem_identity(a, b):
    a, b = _trim(a), _trim(b)
    if not b:
        with pytest.raises(ZeroDivisionError):
            _prem(a, b)
        return
    q, r = _prem(a, b)
    e = max(len(a) - len(b) + 1, 0)
    lhs = Polynomial.of(a).scale(b[-1] ** e)
    assert Polynomial.of(q) * Polynomial.of(b) + Polynomial.of(r) == lhs
    assert len(r) < len(b)


@given(
    st.lists(rationals, min_size=1, max_size=8),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_sign_at_matches_fraction_horner(coeffs, x, vanish):
    p = Polynomial.of(coeffs)
    if vanish:  # make x a root, so the zero sign is reached
        p = p * Polynomial.of([-x, 1])
    assume(not p.is_zero())
    v = p(x)
    assert _sign_at(_int_form(p), x) == (v > 0) - (v < 0)


def _classical_sturm_chain(p):
    """p, p', then -rem of the last two by Fraction long division."""
    chain = [p, p.derivative()]
    while True:
        a, b = chain[-2].coeffs, chain[-1].coeffs
        n, r = len(b) - 1, list(a)
        for k in range(len(a) - 1 - n, -1, -1):
            f = r[k + n] / b[-1]
            for i, c in enumerate(b):
                r[k + i] -= f * c
        rem = Polynomial.of(r[:n])
        if rem.is_zero():
            return chain
        chain.append(rem.scale(-1))


@given(st.lists(st.sampled_from([-3, -2, -1, 0, 0, 0, 1, 2, 3]), min_size=2, max_size=9))
@settings(max_examples=150, deadline=None)
def test_sturm_chain_is_positive_multiples_of_the_classical_one(coeffs):
    # sparse polynomials give degree gaps, where lc(b)^e can be negative
    p = Polynomial.of(coeffs)
    assume(p.degree >= 1)
    a = _int_form(p)
    chain = _sturm_chain(a, _derivative(a))
    assert chain == [_int_form(q) for q in _classical_sturm_chain(p)]


def _below_root(y, k, sign):
    """Whether y < sign * sqrt(k), for a non-square k > 0, decided on rationals."""
    if sign > 0:
        return y < 0 or y * y < k
    return y < 0 and y * y > k


def _contains(interval, k, sign):
    """Whether (lo, hi] contains the irrational sign * sqrt(k)."""
    lo, hi = interval
    return _below_root(lo, k, sign) and not _below_root(hi, k, sign)


# a degree-50 product: 32 roots, every second one doubled, times x^2 - 3
WIDE_ROOTS = [Fraction(i, 4) for i in range(-16, 16)]


@given(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=7),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([2, 3, 5, 6, 7, 8, 10, 11, 12]),
    st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(lambda c: c != 0),
)
@example(WIDE_ROOTS, 16, 3, Fraction(1, 7))
@settings(max_examples=40, deadline=None)
def test_fixed_points_oracle(roots, repeats, k, scale):
    # psi = x + scale * prod (x - a) * (x^2 - k): its fixed points are the
    # roots a, given exactly, and +-sqrt(k), which are irrational
    factors = roots + roots[::2][:repeats]
    prod = Polynomial.of([-k, 0, 1]).scale(scale)
    for a in factors:
        prod = prod * Polynomial.of([-a, 1])
    pts = fixed_points(Polynomial.x() + prod)
    assert [p.location for p in pts if p.exact] == sorted(set(roots))
    dprod = prod.derivative()
    for p in pts:
        if p.exact:  # psi' = 1 + prod'
            mult = abs(1 + dprod(p.location))
            assert p.kind == ("repelling" if mult > 1 else "neutral" if mult == 1 else "attracting")
    inexact = [p.location for p in pts if not p.exact]
    assert len(inexact) == 2
    assert _contains(inexact[0], k, -1) and _contains(inexact[1], k, 1)


def test_near_neutral_points_get_their_exact_kinds():
    # x^2 + 1/4 - 10^-20 fixes 1/2 -+ 10^-10, where psi' = 2x = 1 -+ 2 10^-10;
    # the denominators are past the snapping caps, so both come as intervals
    eps = Fraction(1, 10 ** 10)
    pts = fixed_points(Polynomial.of([Fraction(1, 4) - eps * eps, 0, 1]))
    assert [p.kind for p in pts] == ["attracting", "repelling"]
    for p, root in zip(pts, (Fraction(1, 2) - eps, Fraction(1, 2) + eps)):
        lo, hi = p.location
        assert not p.exact and lo < root <= hi
    assert pts[0].multiplier < 1 < pts[1].multiplier


@pytest.mark.parametrize(
    "coeffs, kind",
    [
        ([Fraction(1, 10 ** 12), -1], "neutral"),  # psi' = -1 everywhere
        ([Fraction(1, 3 * 10 ** 20), 1 + Fraction(1, 10 ** 10)], "repelling"),
        ([Fraction(1, 3 * 10 ** 20), -1 + Fraction(1, 10 ** 10)], "attracting"),
    ],
)
def test_degree_one_maps_near_modulus_one(coeffs, kind):
    # the fixed point's denominator is past the snapping caps: an interval
    (p,) = fixed_points(Polynomial.of(coeffs))
    root = coeffs[0] / (1 - coeffs[1])
    lo, hi = p.location
    assert not p.exact and lo < root <= hi and p.kind == kind


def test_irrational_neutral_points_stay_neutral():
    # psi = x + (x^2 - 2)^2 has psi'(+-sqrt 2) = 1
    pts = fixed_points(Polynomial.parse("4,1,-4,0,1"))
    assert [(p.kind, p.exact, p.multiplier) for p in pts] == [("neutral", False, 1.0)] * 2
    assert _contains(pts[0].location, 2, -1) and _contains(pts[1].location, 2, 1)


def test_normal_form_dilation():
    nf = normal_form_degree1(Polynomial.parse("3,2"))  # 2x + 3
    assert nf.kind == "dilation" and nf.a == 2
    assert conjugate_by(nf.poly, nf.conjugator) == Polynomial.parse("3,2")


def test_normal_form_translation():
    nf = normal_form_degree1(Polynomial.parse("7,1"))  # x + 7
    assert nf.kind == "translation"
    assert nf.poly == Polynomial.parse("1,1")
    assert conjugate_by(nf.poly, nf.conjugator) == Polynomial.parse("7,1")


def test_normal_form_reflection_and_identity():
    assert normal_form_degree1(Polynomial.parse("0,-1")).kind == "reflection"
    assert normal_form_degree1(Polynomial.x()).kind == "identity"
    with pytest.raises(DomainError):
        normal_form_degree1(X2)


@given(
    st.integers(min_value=-5, max_value=5).filter(lambda a: a != 0),
    st.integers(min_value=-5, max_value=5),
    small_coeffs,
)
@settings(max_examples=40, deadline=None)
def test_conjugation_round_trip(alpha, beta, coeffs):
    ell = AffineMap.of(alpha, beta)
    psi = Polynomial.of(coeffs)
    back = conjugate_by(conjugate_by(psi, ell), ell.inverse())
    assert back == psi
