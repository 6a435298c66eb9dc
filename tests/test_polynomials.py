import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdyn import polynomials
from gsdyn.errors import DomainError, ResourceLimitError
from gsdyn.polynomials import (
    AffineMap,
    AllPointsFixed,
    FixedPoint,
    Polynomial,
    _poly_divmod,
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


@given(st.lists(rationals, max_size=8), st.lists(rationals, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_poly_divmod_identity(a_coeffs, b_coeffs):
    a, b = Polynomial.of(a_coeffs), Polynomial.of(b_coeffs)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            _poly_divmod(a, b)
        return
    q, r = _poly_divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


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
