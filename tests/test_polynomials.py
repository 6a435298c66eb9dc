import importlib.util
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gsdyn import polynomials
from gsdyn.errors import DomainError, ResourceLimitError, VerificationError
from gsdyn.polynomials import (
    AllPointsFixed,
    FixedPoint,
    Polynomial,
    _cauchy_bound,
    _derivative,
    _int_form,
    _isolate_roots,
    _multiplier,
    _prem,
    _refine,
    _root_radius,
    _sign_at,
    _square_free,
    _sturm_chain,
    _trim,
    _variations,
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


def test_iterate_work_cap():
    # the cost is predicted from psi's degree and height before expanding:
    # x^2 keeps 1-bit coefficients at degree 4096, and 2x^2 stays a monomial,
    # but this quadratic's coefficients double per step (degree 256 at m = 8
    # is 0.02 s, 2^10 would be 1.8 s)
    psi = Polynomial.parse("111/25,-39/10,1")
    assert iterate(psi, 8).degree == 256
    assert iterate(X2, 12).degree == 4096
    assert iterate(Polynomial.of([0, 0, 2]), 12).coeffs[-1] == 2 ** 4095
    for m in (10, 12):
        with pytest.raises(ResourceLimitError, match="work cap"):
            iterate(psi, m)


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
    # 1/3 is not dyadic: the rational root test finds it after refinement
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
    # isolation evaluates the chain at points B u / 2^k (u odd or k = 0), each
    # once, and never at or past the root radius R, where V is known
    seen = []
    grid_signs = polynomials._grid_signs

    def counted(scaled, u, k):
        seen.append((u, k))
        return grid_signs(scaled, u, k)

    monkeypatch.setattr(polynomials, "_grid_signs", counted)
    psi = iterate(Polynomial.parse(spec), m)
    fixed_points(psi)
    p = _square_free(_int_form(psi - Polynomial.x()))
    bound, radius = _cauchy_bound(p), Fraction(2) ** _root_radius(p)
    assert len(seen) == len(set(seen))
    # V at +-B comes from the leading coefficients: a lone root needs no point
    assert bool(seen) == (len(_isolate_roots(p)) > 1)
    assert all(u % 2 or k == 0 for u, k in seen)
    assert all(abs(bound * u / 2 ** k) < radius for u, k in seen)


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


# rationals with denominators up to 10^30, far past any float's resolution
HUGE_DENOMINATORS = st.builds(
    Fraction,
    st.integers(min_value=-10 ** 31, max_value=10 ** 31),
    st.integers(min_value=1, max_value=10 ** 30),
)


@given(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=7),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([2, 3, 5, 6, 7, 8, 10, 11, 12]),
    st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(lambda c: c != 0),
    st.lists(HUGE_DENOMINATORS, max_size=3),
)
@example(WIDE_ROOTS, 16, 3, Fraction(1, 7), [])
@example([Fraction(1, 2)], 1, 2, Fraction(1),
         [Fraction(1, 10 ** 30), Fraction(-1, 10 ** 30), Fraction(10 ** 30 + 1, 2 * 10 ** 30)])
@settings(max_examples=40, deadline=None)
def test_fixed_points_oracle(roots, repeats, k, scale, huge):
    # psi = x + scale * prod (x - a) * (x^2 - k): its fixed points are the
    # roots a, given exactly, and +-sqrt(k), which are irrational
    roots = roots + huge
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


def _near_half(eps):
    """x^2 + 1/4 - 2 eps^2, which fixes the irrational 1/2 -+ sqrt(2) eps,
    where psi' = 2x = 1 -+ 2 sqrt(2) eps."""
    return Polynomial.of([Fraction(1, 4) - 2 * eps * eps, 0, 1])


def test_near_neutral_points_get_their_exact_kinds(monkeypatch):
    # The 1e-13 cells are 2^-44 wide on a dyadic grid through 1/2, the root
    # of psi'^2 - 1.  Once sqrt(2) eps < 2^-44, the cells of both roots end
    # at 1/2, so _kind_near_one halves each h times, for the least h with
    # 2^-(44 + h) < sqrt(2) eps; before that it halves nothing
    refine = polynomials._refine
    calls = []
    monkeypatch.setattr(polynomials, "_refine", lambda *a: calls.append(a) or refine(*a))
    for exponent in (10, 13, 14, 16):
        calls.clear()
        eps = Fraction(1, 10 ** exponent)
        h = 0
        while 2 * eps * eps < Fraction(1, 2 ** (44 + h)) ** 2:
            h += 1
        pts = fixed_points(_near_half(eps))
        assert len(calls) - len(pts) == 2 * h
        assert [p.kind for p in pts] == ["attracting", "repelling"]
        for p, sign in zip(pts, (-1, 1)):
            lo, hi = p.location
            assert not p.exact and hi - lo == Fraction(1, 2 ** (44 + h))
            assert _contains((lo - Fraction(1, 2), hi - Fraction(1, 2)), 2 * eps * eps, sign)
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
    # the fixed point's denominator is past 10^9, and it still comes out exact
    (p,) = fixed_points(Polynomial.of(coeffs))
    root = coeffs[0] / (1 - coeffs[1])
    assert p.exact and p.location == root and p.kind == kind
    assert p.multiplier == float(abs(coeffs[1]))


def test_irrational_neutral_points_stay_neutral():
    # psi = x + (x^2 - 2)^2 has psi'(+-sqrt 2) = 1
    pts = fixed_points(Polynomial.parse("4,1,-4,0,1"))
    assert [(p.kind, p.exact, p.multiplier) for p in pts] == [("neutral", False, 1.0)] * 2
    assert _contains(pts[0].location, 2, -1) and _contains(pts[1].location, 2, 1)


def test_fixed_points_past_the_float_range():
    (p,) = fixed_points(Polynomial.parse("-1e400,2"))
    assert p.exact and p.location == 10 ** 400 and p.multiplier == 2.0
    with pytest.raises(ResourceLimitError, match=r"fixed point at 1.000000000e\+400"):
        p.value
    with pytest.raises(ResourceLimitError, match="overflows a float"):
        fixed_points(Polynomial.parse("-1e400,1e400"))  # its multiplier is 10^400


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


def test_conjugate_by_needs_an_invertible_affine_map():
    for ell in (Polynomial.of([3]), Polynomial.of([1, 0, 1])):
        with pytest.raises(DomainError, match="invertible"):
            conjugate_by(X2, ell)


@given(
    st.integers(min_value=-5, max_value=5).filter(lambda a: a != 0),
    st.integers(min_value=-5, max_value=5),
    small_coeffs,
)
@settings(max_examples=40, deadline=None)
def test_conjugation_round_trip(alpha, beta, coeffs):
    ell = Polynomial.of([beta, alpha])
    inverse = Polynomial.of([Fraction(-beta, alpha), Fraction(1, alpha)])
    psi = Polynomial.of(coeffs)
    back = conjugate_by(conjugate_by(psi, ell), inverse)
    assert back == psi


# --------------------------------------------------------------------------
# _refine against the bisection it replaces
# --------------------------------------------------------------------------


def _bisect(p, lo, hi, width, count=None):
    """The bisection loop _refine's result is defined by; count[0] tallies
    its exact sign evaluations."""
    count = [0] if count is None else count
    count[0] += 1
    slo = _sign_at(p, lo)
    if slo == 0:
        raise VerificationError("refinement interval endpoint is a root")
    while hi - lo > width:
        mid = (lo + hi) / 2
        count[0] += 1
        sm = _sign_at(p, mid)
        if sm == 0:
            return (mid, mid)
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def _outcome(f, *args):
    try:
        return f(*args)
    except VerificationError as exc:
        return (type(exc), str(exc))


def _assert_like_bisection(p, lo, hi, width):
    expected = _outcome(_bisect, p, lo, hi, width)
    assert _outcome(_refine, p, lo, hi, width) == expected
    return expected


def _refine_calls(monkeypatch, psi):
    """The (p, lo, hi, width) of every _refine call fixed_points(psi) makes."""
    calls = []
    refine = polynomials._refine
    monkeypatch.setattr(polynomials, "_refine", lambda *a: calls.append(a) or refine(*a))
    fixed_points(psi)
    monkeypatch.setattr(polynomials, "_refine", refine)
    return calls


def _bench_quadratics():
    """The exact-dynamics benchmark's quadratics, each with its mirror image."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    wl = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(wl)
    return [wl.quadratic(alpha, s * x0, s * c) for alpha, x0, c in wl.EXACT_SLOTS for s in (1, -1)]


@given(
    st.lists(st.integers(min_value=-40, max_value=40), min_size=2, max_size=9),
    st.integers(min_value=1, max_value=2 ** 80),
)
@settings(max_examples=60, deadline=None)
def test_refine_matches_bisection_on_square_free_forms(coeffs, divisor):
    p = _int_form(Polynomial.of(coeffs))
    assume(len(p) >= 2)
    p = _square_free(p)
    for lo, hi in _isolate_roots(p):
        _assert_like_bisection(p, lo, hi, (hi - lo) / divisor)
        _assert_like_bisection(p, lo, hi, Fraction(1, 10 ** 13))


@pytest.mark.parametrize("m", [4, 5])
def test_refine_matches_bisection_on_the_bench_iterates(monkeypatch, m):
    for psi in _bench_quadratics():
        for p, lo, hi, width in _refine_calls(monkeypatch, iterate(psi, m)):
            _assert_like_bisection(p, lo, hi, width)


@pytest.mark.parametrize("lo, hi", [(Fraction(0), Fraction(1)), (Fraction(-3, 7), Fraction(5, 3))])
@pytest.mark.parametrize("k", [0, 1, 5, 12])
def test_refine_on_roots_at_grid_points(lo, hi, k):
    # p = (x - g)(x^2 + 1) with g on the level-j grid of (lo, hi]: a root
    # strictly inside is returned as (g, g) when it is on the level-k grid,
    # and a root at hi (never evaluated) lies in the top level-k cell
    w = (hi - lo) / 2 ** k
    for j in (0, 1, 3, k, k + 1, k + 3):
        for i in range(1, 2 ** j + 1, max(1, 2 ** j // 7)):
            g = lo + i * (hi - lo) / 2 ** j
            p = _int_form(Polynomial.of([-g, 1]) * Polynomial.of([1, 0, 1]))
            got = _assert_like_bisection(p, lo, hi, w)
            if g == hi:
                assert got == (hi - w, hi)
            elif ((g - lo) / w).denominator == 1:
                assert got == (g, g)
            else:
                assert got[0] < g < got[1] == got[0] + w


def test_refine_on_wide_widths_and_root_ends():
    p = _int_form(Polynomial.of([-3, 0, 1]))  # roots +-sqrt 3
    for width in (Fraction(2), Fraction(3), Fraction(100)):
        assert _assert_like_bisection(p, Fraction(0), Fraction(2), width) == (0, 2)
    p = _int_form(Polynomial.of([-1, 0, 1]))  # roots +-1
    for width in (Fraction(5), Fraction(1, 8)):
        got = _assert_like_bisection(p, Fraction(1), Fraction(3), width)
        assert got == (VerificationError, "refinement interval endpoint is a root")


def test_refine_matches_bisection_on_near_neutral_halvings(monkeypatch):
    # _kind_near_one halves the interval one _refine call at a time: 3 times
    # per root at eps = 10^-14, as 2^-47 < sqrt(2) 10^-14 < 2^-46
    calls = _refine_calls(monkeypatch, _near_half(Fraction(1, 10 ** 14)))
    halvings = [c for c in calls if c[3] == (c[2] - c[1]) / 2]
    assert len(halvings) == 6
    for call in calls:
        _assert_like_bisection(*call)


def test_refine_matches_bisection_on_a_huge_interval(monkeypatch):
    # 2x - 10^300 fixes 10^300: its isolating interval is 2 (10^300 + 1) wide
    (call,) = _refine_calls(monkeypatch, Polynomial.parse("-1e300,2"))
    assert call[2] - call[1] > 10 ** 300
    _assert_like_bisection(*call)


def test_refine_halves_the_evaluations_on_the_bench_iterates(monkeypatch):
    # every exact value _refine reads goes through _horner
    calls = [c for psi in _bench_quadratics() for c in _refine_calls(monkeypatch, iterate(psi, 5))]
    bisection = [0]
    for call in calls:
        _bisect(*call, count=bisection)
    evaluations = []
    horner = polynomials._horner
    monkeypatch.setattr(polynomials, "_horner", lambda *a: evaluations.append(1) or horner(*a))
    for call in calls:
        _refine(*call)
    assert len(evaluations) <= bisection[0] // 2


# --------------------------------------------------------------------------
# _isolate_roots against the Fraction bisection it replaces
# --------------------------------------------------------------------------


def _isolate_by_fractions(p, walls=None):
    """The isolation loop _isolate_roots' intervals are defined by: Fraction
    bisection from (-B, B], the chain evaluated at every point it visits;
    `walls` collects the probes that were roots."""
    chain = _sturm_chain(p, _derivative(p))
    bound = _cauchy_bound(p)
    out = []
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
            if walls is not None:
                walls.append(mid)
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


def _wall_off_forms():
    """(x - 1)(d x - n)(x^2 + K) with Cauchy bound B = 2^j: both real roots lie
    in (0, 2], so bisection probes B / 2^j = 1, a root, and walls it off."""
    out = []
    for d in range(1, 6):
        for n in range(1, 2 * d):
            for j in range(2, 13):
                K, rest = divmod(d * (2 ** j - 1), d + n)
                if n == d or rest:
                    continue
                p = _int_form(Polynomial.of([-1, 1]) * Polynomial.of([-n, d]) * Polynomial.of([K, 0, 1]))
                if _cauchy_bound(p) == 2 ** j:
                    out.append(p)
    return out


WALL_OFF_FORMS = _wall_off_forms()


def _assert_radius(p):
    # V at +-R equals V at +-B, and R = 2^r is strictly above every complex
    # root, within a factor 8 of Fujiwara's bound
    mpmath = pytest.importorskip("mpmath")
    chain = _sturm_chain(p, _derivative(p))
    bound, r = _cauchy_bound(p), _root_radius(p)
    radius = Fraction(2) ** r
    for sign in (1, -1):
        assert _variations(chain, sign * radius) == _variations(chain, sign * bound)
    n = len(p) - 1
    if any(p[:-1]):  # the bound of a x^n is 0
        assert any(Fraction(abs(p[n - i]), abs(p[-1])) >= (radius / 16) ** i
                   for i in range(1, n + 1) if p[n - i])
    with mpmath.workdps(60):
        roots = mpmath.polyroots(p[::-1], maxsteps=400, extraprec=400)
        assert max(abs(z) for z in roots) < mpmath.mpf(radius.numerator) / radius.denominator


@given(
    st.lists(st.integers(min_value=-40, max_value=40), min_size=2, max_size=9),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_isolation_matches_the_fraction_bisection(coeffs, root_at_zero):
    p = _int_form(Polynomial.of(coeffs) * Polynomial.of([0, 1] if root_at_zero else [1]))
    assume(len(p) >= 2)
    p = _square_free(p)
    walls, got = [], _isolate_roots(p)
    assert got == _isolate_by_fractions(p, walls)
    if root_at_zero:  # 0 is the first probe
        assert (0 in walls) == (len(got) > 1)
    _assert_radius(p)


@given(st.sampled_from(WALL_OFF_FORMS), st.sampled_from([1, -1]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_isolation_matches_the_fraction_bisection_on_probe_roots(p, sign, root_at_zero):
    # roots at sign B / 2^j, and at 0 (the first probe) with an extra factor x
    p = [c * sign ** i for i, c in enumerate([0] + p if root_at_zero else p)]  # p(sign x)
    walls = []
    assert _isolate_roots(p) == _isolate_by_fractions(p, walls)
    # a wall at 0 moves the grid of the half it leaves, so 1 may not be probed
    assert (0 in walls) == root_at_zero and (root_at_zero or sign in walls)
    _assert_radius(p)


def test_isolation_matches_the_fraction_bisection_on_the_bench_iterates():
    for psi in _bench_quadratics():
        for m in (4, 5):
            p = _square_free(_int_form(iterate(psi, m) - Polynomial.x()))
            assert _isolate_roots(p) == _isolate_by_fractions(p)
            chain = _sturm_chain(p, _derivative(p))
            bound, radius = _cauchy_bound(p), Fraction(2) ** _root_radius(p)
            for sign in (1, -1):
                assert _variations(chain, sign * radius) == _variations(chain, sign * bound)


# --------------------------------------------------------------------------
# integer composition and the multiplier against the Fraction arithmetic
# they replace
# --------------------------------------------------------------------------


def _compose_by_fractions(outer, inner):
    """outer(inner(x)) by Horner over Fraction polynomials: the composition
    that Polynomial.compose and iterate are defined by."""
    acc = Polynomial.of([outer.coeffs[-1]])
    for c in reversed(outer.coeffs[:-1]):
        acc = acc * inner + Polynomial.of([c])
    return acc


exact_coeffs = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.builds(Fraction, st.integers(min_value=-10 ** 20, max_value=10 ** 20),
              st.integers(min_value=1, max_value=10 ** 30)),
)
exact_polys = st.one_of(
    st.lists(exact_coeffs, min_size=1, max_size=4).map(Polynomial.of),  # degrees 0 to 3
    st.builds(lambda c, k: Polynomial.of([0] * k + [c]), exact_coeffs, st.integers(0, 3)),  # monomials
)


@given(exact_polys, exact_polys)
@settings(max_examples=80, deadline=None)
def test_compose_matches_the_fraction_horner(outer, inner):
    assert outer.compose(inner) == _compose_by_fractions(outer, inner)


@given(exact_polys, exact_polys, st.integers(min_value=0, max_value=10))
@settings(max_examples=80, deadline=None)
def test_cut_compose_matches_the_cut_fraction_horner(outer, inner, order):
    # compose(inner, order) keeps x^0..x^order of the full composition
    expected = Polynomial.of(_compose_by_fractions(outer, inner).coeffs[: order + 1])
    assert outer.compose(inner, order) == expected


@given(exact_polys, st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_iterate_matches_the_fraction_horner(psi, m):
    sparse = sum(c != 0 for c in psi.coeffs) <= 1
    assume(sparse or max(psi.degree, 1) ** m <= 32)  # the oracle is slow on dense iterates
    expected = Polynomial.x()
    for _ in range(m):
        expected = _compose_by_fractions(psi, expected)
    assert iterate(psi, m) == expected


def test_multiplier_matches_the_fraction_float_on_the_bench_iterates():
    # every multiplier fixed_points reports is float(|psi'|) at the exact root
    # or at the midpoint of its interval, bit for bit
    for psi in _bench_quadratics():
        for m in (4, 5):
            it = iterate(psi, m)
            dpsi = it.derivative()
            for p in fixed_points(it):
                mid = p.location if p.exact else (p.location[0] + p.location[1]) / 2
                assert p.multiplier == float(abs(dpsi(mid)))


@given(st.lists(exact_coeffs, min_size=1, max_size=5), exact_coeffs)
@settings(max_examples=100, deadline=None)
@example([Fraction(0), Fraction(10 ** 400)], Fraction(1))
@example([Fraction(1, 3), Fraction(2, 3)], Fraction(1, 2))  # |psi'| = 1 exactly
def test_multiplier_is_the_fraction_float_and_the_exact_kind(coeffs, x):
    dpsi = Polynomial.of(coeffs)
    value = abs(dpsi(x))
    try:
        expected = float(value)
    except OverflowError:
        with pytest.raises(ResourceLimitError, match="overflows a float"):
            _multiplier(dpsi, x)
        return
    assert _multiplier(dpsi, x) == (expected, (value > 1) - (value < 1))


def test_sturm_chain_built_once_for_square_free_iterates(monkeypatch):
    # r = psi^m - x: its chain finds gcd(r, r'), and isolation reuses it when
    # that gcd is constant; otherwise the square-free part gets its own chain
    calls = []
    chain = polynomials._sturm_chain
    counted = {True: 0, False: 0}
    for psi in _bench_quadratics():
        for m in (4, 5):
            it = iterate(psi, m)
            r = _int_form(it - Polynomial.x())
            square_free = len(chain(r, _derivative(r))[-1]) == 1
            monkeypatch.setattr(polynomials, "_sturm_chain", lambda *a: calls.append(1) or chain(*a))
            calls.clear()
            fixed_points(it)
            monkeypatch.setattr(polynomials, "_sturm_chain", chain)
            assert len(calls) == (1 if square_free else 2)
            counted[square_free] += 1
    assert counted == {True: 36, False: 20}
