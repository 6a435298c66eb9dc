import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdyn.errors import DomainError, ResourceLimitError
from gsdyn.polynomials import (
    AffineMap,
    AllPointsFixed,
    Polynomial,
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
