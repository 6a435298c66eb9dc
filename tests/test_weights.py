import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdyn.errors import ConfigurationError
from gsdyn.weights import (
    CONDITIONS,
    Gevrey,
    LogPower,
    RootComposed,
    check_all_conditions,
    check_condition,
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
