import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdyn.errors import ConfigurationError, DomainError, ResourceLimitError
from gsdyn.logspace import number_literal
from gsdyn.weights import (
    CONDITIONS,
    Gevrey,
    LogPower,
    RootComposed,
    _log1p_exp,
    check_all_conditions,
    check_condition,
    gevrey_index,
    parse_weight,
)


def test_gevrey_values():
    w = Gevrey(2.0)
    assert w(0.0) == 0.0
    assert w(4.0) == pytest.approx(2.0)
    assert w(1e10) == pytest.approx(1e5)


def test_logpower_values():
    w = LogPower(2.0)
    assert w(0.5) == 0.0  # clipped below t = 1
    assert w(math.e ** 3) == pytest.approx(9.0)


def test_root_composed_is_sigma_transform():
    # the root folds into the Gevrey index and keeps the literal it was written as
    w = RootComposed(Gevrey(2.0), 3.0)
    assert isinstance(w, Gevrey) and w.d == 6.0 and gevrey_index(w) == 6.0
    assert w.spec() == "root:3:gevrey:2"
    for t in (1e-3, 0.5, 64.0, 1e12):
        assert w(t) == pytest.approx(Gevrey(2.0)(t ** (1.0 / 3.0)), rel=1e-15, abs=0.0)


def test_logpower_scale_prints_as_a_root():
    # omega = (log+ t / scale)^p; a scale given directly prints as the root it is
    w = LogPower(2.0, 6.0)
    assert w.spec() == "root:6:logpow:2" and parse_weight(w.spec()) == w
    assert (w.p, w.c) == (2.0, 1.0 / 36.0)
    assert w(math.e ** 12) == pytest.approx(4.0, rel=1e-15)
    for bad in (0.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            LogPower(2.0, bad)


def test_gevrey_index_plain():
    assert gevrey_index(Gevrey(2.5)) == pytest.approx(2.5)
    assert gevrey_index(LogPower(2.0)) is None


def test_parse_weight_round_trip():
    for spec in ("gevrey:2", "logpow:1.5", "root:3:gevrey:2"):
        w = parse_weight(spec)
        assert parse_weight(w.spec())(10.0) == pytest.approx(w(10.0))
    assert parse_weight("logpower:2")(math.e ** 2) == pytest.approx(4.0)
    with pytest.raises(ConfigurationError):
        parse_weight("nope:1")


index_above_one = st.floats(min_value=1.0, max_value=1e300, exclude_min=True)


@given(
    st.builds(Gevrey, index_above_one) | st.builds(LogPower, index_above_one),
    st.lists(st.floats(min_value=1.0, max_value=1e300), max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_spec_round_trips(w, roots):
    # Gevrey(1.23456789) and LogPower(1.000000001) once printed as other
    # weights.  Nested roots up to 1e300 multiply into d or the scale; a root
    # whose product overflows a double is a typed limit naming its literal
    for a in roots:
        literal = "root:%s:%s" % (number_literal(a), w.spec())
        if (w.d if isinstance(w, Gevrey) else w.scale) * a == math.inf:
            for build in (lambda: RootComposed(w, a), lambda: parse_weight(literal)):
                with pytest.raises(ResourceLimitError, match=re.escape(literal)):
                    build()
            return
        w = RootComposed(w, a)
        assert w.spec() == literal
    assert parse_weight(w.spec()) == w
    assert parse_weight(w.spec()).spec() == w.spec()


@given(st.floats(min_value=1.0, max_value=1e8), st.floats(min_value=1.0, max_value=1e8))
@settings(max_examples=60, deadline=None)
def test_gevrey_subadditive_property(t1, t2):
    w = Gevrey(2.0)
    assert w(t1 + t2) <= w(t1) + w(t2) + 1e-9


@given(st.floats(min_value=0.0, max_value=1e12), st.floats(min_value=0.0, max_value=1e12))
@settings(max_examples=60, deadline=None)
def test_weights_monotone(a, b):
    lo, hi = sorted((a, b))
    for w in (Gevrey(2.0), LogPower(2.0), RootComposed(Gevrey(2.0), 3.0)):
        assert w(lo) <= w(hi) + 1e-12


GEVREY_EXPECTED = {
    "alpha": True,
    "beta": True,
    "gamma": True,
    "delta": True,
    "epsilon": True,
    "zeta": True,
    "subadditive": True,
    "logcond": False,
}
LOGPOWER_EXPECTED = {
    "alpha": True,
    "beta": True,
    "gamma": True,
    "delta": True,
    "epsilon": True,
    "zeta": False,
    "logcond": True,
}


def test_condition_matrix_gevrey():
    reports = {r.condition: r for r in check_all_conditions(Gevrey(2.0))}
    for cond, expected in GEVREY_EXPECTED.items():
        assert reports[cond].holds is expected, cond


def test_condition_matrix_logpower():
    reports = {r.condition: r for r in check_all_conditions(LogPower(2.0))}
    for cond, expected in LOGPOWER_EXPECTED.items():
        assert reports[cond].holds is expected, cond


def test_condition_reports_carry_evidence():
    reports = {r.condition: r for r in check_all_conditions(Gevrey(2.0))}
    assert reports["alpha"].constants == {"L": math.sqrt(2.0)}
    assert reports["epsilon"].constants == {"C": 2.0}
    assert reports["zeta"].constants == {"H": 4.0}
    assert reports["beta"].constants["integral"] == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-15)
    # an asymptotic failure: each single t is met by a large enough C
    assert not reports["logcond"].holds and reports["logcond"].counterexample is None
    rep = check_condition(LogPower(2.0), "subadditive")
    assert not rep.holds and rep.counterexample == [1.0, 1.0]


@pytest.mark.parametrize(
    "spec, condition, verdict, constants",
    [
        # sampled on log grids up to 1e100 or 1e300, these came out wrong: there
        # log(1 + t^2) / omega(t) has not yet fallen far, a large H still
        # covers 2 omega(t), and the Gevrey candidates H stopped at 2^17
        ("logpow:1.5", "gamma", "holds", {}),
        ("logpow:1.5", "zeta", "fails", {}),
        ("root:3:logpow:2", "gamma", "holds", {}),
        ("root:3:logpow:2", "zeta", "fails", {}),
        ("logpow:1.000000001", "gamma", "holds", {}),
        ("logpow:1.000000001", "zeta", "fails", {}),
        ("logpow:1.000000001", "alpha", "holds", {"L": 1.0}),
        ("gevrey:20", "zeta", "holds", {"H": 2.0 ** 20}),
        ("gevrey:20", "logcond", "fails", {}),
        ("gevrey:20", "epsilon", "holds", {"C": 20.0 / 19.0}),
    ],
)
def test_verdicts_decided_on_the_normal_form(spec, condition, verdict, constants):
    rep = check_condition(parse_weight(spec), condition)
    assert (rep.verdict, rep.constants, rep.counterexample) == (verdict, constants, None)


def test_normal_form_of_roots():
    # a root folds into its family's class: d multiplies, or c = scale^-p falls
    w = parse_weight("root:2:root:3:gevrey:1.5")
    assert isinstance(w, Gevrey) and w.d == 9.0
    for spec, p, c in (("root:2:logpow:3", 3.0, 0.125), ("root:2:root:3:logpow:2", 2.0, 1.0 / 36.0)):
        w = parse_weight(spec)
        assert isinstance(w, LogPower) and (w.p, w.c) == (p, c)


def test_unknown_condition_rejected():
    with pytest.raises(ConfigurationError):
        check_condition(Gevrey(2.0), "sigma")
    assert "alpha" in CONDITIONS


def _gevrey_beta(d):
    # integral_0^inf t^(1/d)/(1+t^2) dt
    return math.pi / (2.0 * math.cos(math.pi / (2.0 * d)))


def _mp_gevrey_beta(d):
    # the same at 30 digits: the double cosine loses its accuracy as d -> 1
    with mpmath.workdps(30):
        return float(mpmath.pi / (2 * mpmath.cos(mpmath.pi / (2 * mpmath.mpf(d)))))


def _logpower_beta(p):
    # integral_1^inf (log t)^p/(1+t^2) dt = Gamma(p+1) beta(p+1), beta the Dirichlet beta
    return float(mpmath.gamma(p + 1) * mpmath.dirichlet(p + 1, [0, 1, 0, -1]))


@pytest.mark.parametrize(
    "spec, exact",
    [
        ("gevrey:1.5", _gevrey_beta(1.5)),
        ("gevrey:2", _gevrey_beta(2.0)),
        ("gevrey:3", _gevrey_beta(3.0)),
        ("root:2:gevrey:2", _gevrey_beta(4.0)),
        ("logpower:1.5", _logpower_beta(1.5)),
        ("logpower:2", _logpower_beta(2)),
        ("logpower:3", _logpower_beta(3)),
        ("gevrey:1.000001", _mp_gevrey_beta(1.000001)),  # once "inconclusive"
    ],
)
def test_beta_integral_is_an_upper_bound_on_the_exact_value(spec, exact):
    rep = check_condition(parse_weight(spec), "beta")
    assert rep.holds
    assert exact * (1.0 - 1e-12) <= rep.constants["integral"] <= exact * (1.0 + 1e-12)


def test_beta_oracles():
    assert _gevrey_beta(2.0) == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-15)
    assert _gevrey_beta(4.0) == pytest.approx(1.70022, abs=1e-5)
    assert _logpower_beta(2) == pytest.approx(math.pi ** 3 / 16.0, rel=1e-15)  # 2 beta(3)


@pytest.mark.parametrize("d", [1.005, 1.1, 1.5, 2.0, 3.0])
def test_epsilon_constant_gevrey_closed_form(d):
    # integral_1^inf (y t)^(1/d) / t^2 dt = y^(1/d) d/(d-1)
    assert check_condition(Gevrey(d), "epsilon").constants["C"] == d / (d - 1.0)


@pytest.mark.parametrize("p, expected", [(2.0, 3.0), (3.0, 7.0 + 2.0 * math.sqrt(6.0))])
def test_epsilon_constant_logpower_closed_form(p, expected):
    # with c = 1, S(Gamma(p+1)^(1/p)) = (1 + Gamma(p+1)^(1/(p-1)))^(p-1)
    c = check_condition(LogPower(p), "epsilon").constants["C"]
    assert c == pytest.approx(expected, rel=1e-14)


def test_epsilon_holds_for_a_steep_log_power():
    # (log t)^100 is still steeper than t at t = e^80, where a quadrature in
    # log t would have to stop; the Minkowski bound needs no tail
    rep = check_condition(LogPower(100.0), "epsilon")
    expected = (1.0 + mpmath.gamma(101) ** (mpmath.mpf(1) / 99)) ** 99
    assert rep.holds and rep.constants["C"] == pytest.approx(float(expected), rel=1e-12)


def test_constants_past_the_double_range_are_a_resource_limit():
    # Gamma(201) overflows a double; alpha's constant for the same weight does not
    assert check_condition(LogPower(200.0), "alpha").holds
    with pytest.raises(ResourceLimitError, match="logpow:200"):
        check_condition(LogPower(200.0), "beta")
    # c = 2^-1100 underflows, so a^-p is out of range as well
    with pytest.raises(ResourceLimitError, match="root:2:logpow:1100"):
        check_condition(parse_weight("root:2:logpow:1100"), "alpha")


def _mp_phi(w):
    # phi(s) = omega(e^s) in mpmath arithmetic, read off the spec literal as
    # written (root:a divides s by a), not from the folded normal form
    return _mp_phi_of_spec(w.spec())


def _mp_phi_of_spec(spec):
    head, _, rest = spec.partition(":")
    if head == "root":
        a_text, _, inner = rest.partition(":")
        base, a = _mp_phi_of_spec(inner), mpmath.mpf(a_text)
        return lambda s: base(s / a)
    x = mpmath.mpf(rest)
    if head == "gevrey":
        return lambda s: mpmath.exp(s / x)
    return lambda s: s ** x if s > 0 else mpmath.mpf(0)


def _mp_omega(w):
    phi = _mp_phi(w)
    return lambda t: phi(mpmath.log(t))


@pytest.mark.parametrize(
    "spec", ["root:3:logpow:2", "root:2:root:3:logpow:2", "root:1.7:logpow:3.5"]
)
def test_root_logpower_values_match_mpmath(spec):
    # one log and one pow on the folded scale: within 1e-15 relative of a
    # 40-digit omega(t) = phi(log t) read off the literal, on t in [1e-3, 1e12]
    w = parse_weight(spec)
    om = _mp_omega(w)
    with mpmath.workdps(40):
        for t in np.geomspace(1e-3, 1e12, 400).tolist():
            exact = om(mpmath.mpf(t)) if t > 1.0 else mpmath.mpf(0)
            assert w(t) == pytest.approx(float(exact), rel=1e-15, abs=0.0), (spec, t)


@pytest.mark.parametrize(
    "spec",
    ["gevrey:1.5", "gevrey:2", "gevrey:3", "logpower:1.5", "logpower:2", "logpower:3",
     "root:2:gevrey:2", "root:3:logpow:2"],
)
def test_derivatives_match_mpmath(spec):
    # omega' and omega'' against mpmath.diff of omega, on both sides of the
    # log-power kink t = 1
    w = parse_weight(spec)
    ts = [0.05, 0.3, 0.9, 0.999, 1.001, 1.2, 2.0, 7.5, 40.0, 1e3]
    d1, d2 = w.derivatives(np.array(ts))
    om = _mp_omega(w)
    with mpmath.workdps(30):
        for t, a1, a2 in zip(ts, d1.tolist(), d2.tolist()):
            r1, r2 = (float(mpmath.diff(om, t, n)) for n in (1, 2))
            assert a1 == pytest.approx(r1, rel=1e-12, abs=1e-300), (spec, t)
            assert a2 == pytest.approx(r2, rel=1e-12, abs=1e-300), (spec, t)
    # phi(u) = omega(e^u), also below the kink u = 0
    for t in ts:
        assert w.phi(math.log(t)) == pytest.approx(w(t), rel=1e-14, abs=0.0), (spec, t)


@st.composite
def table_weights(draw):
    if draw(st.booleans()):
        w = Gevrey(draw(st.floats(min_value=1.0, max_value=10.0, exclude_min=True)))
    else:
        w = LogPower(draw(st.floats(min_value=1.0, max_value=6.0, exclude_min=True)))
    a = draw(st.none() | st.floats(min_value=1.0, max_value=4.0))
    return w if a is None else RootComposed(w, a)


def _le(lhs, rhs):
    # the constants are doubles: allow for their rounding, nothing more
    return lhs <= rhs * (1 + mpmath.mpf(1e-12))


def _first_violation(violated):
    # the first s = 2^j at which violated(s) holds, or None
    return next((s for s in (mpmath.mpf(2) ** j for j in range(200)) if violated(s)), None)


@given(
    table_weights(),
    st.floats(min_value=-5.0, max_value=60.0),
    st.floats(min_value=-5.0, max_value=60.0),
    st.floats(min_value=1.0, max_value=1e6),
)
@settings(max_examples=40, deadline=None)
def test_condition_table_against_mpmath(w, s, r, big):
    # s = log t and r = log y are the drawn points and big a drawn H or C;
    # omega is evaluated in mpmath from the family's formula, at 30 digits
    phi = _mp_phi(w)
    rep = {x.condition: x for x in check_all_conditions(w)}
    gevrey = isinstance(w, Gevrey)
    index, c = (w.d, 1.0) if gevrey else (w.p, w.c)
    assert {k: x.verdict for k, x in rep.items()} == {
        "alpha": "holds", "beta": "holds", "gamma": "holds", "delta": "holds",
        "epsilon": "holds", "zeta": "holds" if gevrey else "fails",
        "logcond": "fails" if gevrey else "holds",
        "subadditive": "holds" if gevrey else "fails",
    }
    with mpmath.workdps(30):
        s, r, big = mpmath.mpf(s), mpmath.mpf(r), mpmath.mpf(big)
        log2 = mpmath.log(2)
        expected = mpmath.exp(s / index) if gevrey else c * max(s, 0) ** index
        assert phi(s) == pytest.approx(expected, rel=1e-12)  # the normal form is w

        big_l = rep["alpha"].constants["L"]
        assert _le(phi(s + log2), big_l * (phi(s) + 1))

        beta = rep["beta"].constants["integral"]
        assert beta == pytest.approx(_mp_gevrey_beta(index) if gevrey else c * _logpower_beta(index), rel=1e-12)

        assert phi(s) <= (phi(s - 1) + phi(s + 1)) / 2  # delta: phi is convex

        # epsilon: integral_1^inf omega(y t)/t^2 dt = integral_0^inf phi(r + x) e^-x dx,
        # with x = z/k so that the Gevrey integrand decays like e^-z
        k = 1 - mpmath.mpf(1) / index if gevrey else 1
        kink = max(-r, 0) * k  # log-power: y e^x = 1
        integral = mpmath.quad(lambda z: phi(r + z / k) * mpmath.exp(-z / k) / k, [0, kink, mpmath.inf])
        assert _le(integral, rep["epsilon"].constants["C"] * (1 + phi(r)))

        if gevrey:
            big_h = rep["zeta"].constants["H"]
            assert _le(2 * phi(s), phi(s + mpmath.log(big_h)) + big_h)
            # omega(s + t) <= omega(s) + omega(t), here at t = e^s and e^r
            assert _le(phi(mpmath.log(mpmath.exp(s) + mpmath.exp(r))), phi(s) + phi(r))
            # logcond fails: omega(t^2) > C (1 + omega(t)) somewhere, for C = big
            assert _first_violation(lambda u: phi(2 * u) > big * (1 + phi(u))) is not None
        else:
            assert _le(phi(2 * s), rep["logcond"].constants["C"] * (1 + phi(s)))
            t1, t2 = rep["subadditive"].counterexample
            assert phi(mpmath.log(t1 + t2)) > phi(mpmath.log(t1)) + phi(mpmath.log(t2))
            # zeta fails: 2 omega(t) > omega(H t) + H at some t = e^k, for H = big
            assert _first_violation(lambda u: 2 * phi(u) > phi(u + mpmath.log(big)) + big) is not None
            # alpha's L is the ratio at u* = (c log 2)^(-1/(p-1)), so it is sharp
            u_star = (c * log2) ** (-1 / (mpmath.mpf(index) - 1))
            assert phi(u_star + log2) / (phi(u_star) + 1) == pytest.approx(big_l, rel=1e-12)


@given(st.floats(min_value=-800.0, max_value=800.0) | st.sampled_from([0.0, -0.0, 1e-300, -1e-300]))
@settings(max_examples=500, deadline=None)
def test_log1p_exp_is_numpy_logaddexp_bit_for_bit(x):
    # the log-power S(a) takes log(1 + e^x) bit for bit as numpy's logaddexp(0, x)
    assert _log1p_exp(x).hex() == float(np.logaddexp(0.0, x)).hex()
