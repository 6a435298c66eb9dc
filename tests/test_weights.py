import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdyn.errors import ConfigurationError
from gsdyn.weights import (
    CONDITIONS,
    SAFETY,
    Gevrey,
    LogPower,
    RootComposed,
    check_all_conditions,
    check_condition,
    _log_grid,
    gevrey_index,
    parse_weight,
    sigma_transform,
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
    w = sigma_transform(Gevrey(2.0), 3.0)
    assert isinstance(w, RootComposed)
    assert w(64.0) == pytest.approx(Gevrey(2.0)(4.0))
    assert gevrey_index(w) == pytest.approx(6.0)


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


@given(st.floats(min_value=1.0, max_value=1e8), st.floats(min_value=1.0, max_value=1e8))
@settings(max_examples=60, deadline=None)
def test_gevrey_subadditive_property(t1, t2):
    w = Gevrey(2.0)
    assert w(t1 + t2) <= w(t1) + w(t2) + 1e-9


@given(st.floats(min_value=0.0, max_value=1e12), st.floats(min_value=0.0, max_value=1e12))
@settings(max_examples=60, deadline=None)
def test_weights_monotone(a, b):
    lo, hi = sorted((a, b))
    for w in (Gevrey(2.0), LogPower(2.0), sigma_transform(Gevrey(2.0), 3.0)):
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
    rep = check_condition(Gevrey(2.0), "alpha")
    assert rep.holds and rep.constants["L"] >= 1.0
    rep = check_condition(Gevrey(2.0), "logcond")
    assert not rep.holds and rep.counterexample is not None


def test_unknown_condition_rejected():
    with pytest.raises(ConfigurationError):
        check_condition(Gevrey(2.0), "sigma")
    assert "alpha" in CONDITIONS


def _gevrey_beta(d):
    # integral_0^inf t^(1/d)/(1+t^2) dt
    return math.pi / (2.0 * math.cos(math.pi / (2.0 * d)))


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
    ],
)
def test_beta_integral_is_an_upper_bound_on_the_exact_value(spec, exact):
    rep = check_condition(parse_weight(spec), "beta")
    assert rep.holds
    assert exact * (1.0 - 1e-12) <= rep.constants["integral"] <= exact * (1.0 + 1e-4)


def test_beta_oracles():
    assert _gevrey_beta(2.0) == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-15)
    assert _gevrey_beta(4.0) == pytest.approx(1.70022, abs=1e-5)
    assert _logpower_beta(2) == pytest.approx(math.pi ** 3 / 16.0, rel=1e-15)  # 2 beta(3)


@pytest.mark.parametrize("d", [1.005, 1.1, 1.5, 2.0, 3.0])
def test_epsilon_constant_gevrey_closed_form(d):
    # integral_0^1 (y/u)^(1/d) du = y^(1/d) d/(d-1)
    expected = SAFETY * max(
        y ** (1.0 / d) * (d / (d - 1.0)) / (1.0 + y ** (1.0 / d))
        for y in _log_grid(1e-2, 1e6, 25)
    )
    c = check_condition(Gevrey(d), "epsilon").constants["C"]
    assert c == pytest.approx(expected, rel=1e-9)
    if d == 2.0:
        assert expected == pytest.approx(2.0979020979, rel=1e-10)


@pytest.mark.parametrize("p, expected", [(2.0, 2.7250424244954385), (3.0, 9.273039265644718)])
def test_epsilon_constant_logpower_pinned(p, expected):
    c = check_condition(LogPower(p), "epsilon").constants["C"]
    assert c == pytest.approx(expected, rel=1e-9)


def test_epsilon_without_a_tail_bound_is_inconclusive():
    # (log t)^100 still has log-log slope 100/80 > 1 at t = e^80, where the
    # quadrature stops, so no power-law bound covers the rest
    rep = check_condition(LogPower(100.0), "epsilon")
    assert rep.verdict == "inconclusive" and rep.constants["tail_exponent"] >= 1.0


def _mp_omega(w):
    # omega in mpmath arithmetic, from the family's formula
    if isinstance(w, Gevrey):
        return lambda t: t ** (mpmath.mpf(1) / w.d)
    if isinstance(w, LogPower):
        return lambda t: mpmath.log(t) ** w.p if t > 1 else mpmath.mpf(0)
    base = _mp_omega(w.base)
    return lambda t: base(t ** (mpmath.mpf(1) / w.a))


@pytest.mark.parametrize(
    "spec",
    ["gevrey:1.5", "gevrey:2", "gevrey:3", "logpower:1.5", "logpower:2", "logpower:3",
     "root:2:gevrey:2"],
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
