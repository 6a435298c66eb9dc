import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdyn.cli import main
from gsdyn.conjugate import NUMERIC_STEPS, _golden_max, young_conjugate
from gsdyn.errors import DomainError
from gsdyn.weights import Gevrey, LogPower, RootComposed


def test_gevrey_closed_form_value():
    # phi*(1) for d = 2: knee at x d = 1, here x d = 2 -> 2 log(2/e)
    assert young_conjugate(Gevrey(2.0), 1.0) == pytest.approx(
        2.0 * (math.log(2.0) - 1.0), abs=1e-12
    )


def test_below_knee_is_minus_one():
    # x d <= 1 freezes the sup at t -> -inf where x t - e^(t/d) -> 0 - 1
    assert young_conjugate(Gevrey(2.0), 0.4) == pytest.approx(-1.0, abs=1e-12)
    assert young_conjugate(Gevrey(2.0), 0.0) == pytest.approx(-1.0, abs=1e-12)


def test_closed_vs_numeric_agreement():
    for d in (1.5, 2.0, 3.0):
        w = Gevrey(d)
        for x in (0.3, 0.5, 1.0, 2.5, 7.0, 40.0):
            c = young_conjugate(w, x, method="closed")
            n = young_conjugate(w, x, method="numeric")
            assert abs(c - n) <= 1e-8 * max(1.0, abs(c)), (d, x)


def test_numeric_path_logpower():
    # the oracle on its own: monotone and finite
    w = LogPower(2.0)
    vals = [young_conjugate(w, x, method="numeric") for x in (0.5, 1.0, 2.0, 4.0)]
    assert all(math.isfinite(v) for v in vals)
    assert vals == sorted(vals)


@given(st.floats(min_value=0.01, max_value=50.0), st.floats(min_value=0.01, max_value=50.0))
@settings(max_examples=50, deadline=None)
def test_conjugate_monotone_in_x(a, b):
    w = Gevrey(2.0)
    lo, hi = sorted((a, b))
    assert young_conjugate(w, lo) <= young_conjugate(w, hi) + 1e-10


def test_identity_weight_factor():
    # exp(-lam phi*_sigma(m/lam)) = (lam e/(2 s m))^(2 s m) for sigma = Gevrey(2s)
    for s in (1.5, 2.0):
        sigma = Gevrey(2.0 * s)
        for lam in (0.5, 1.0, 2.0):
            for m in (1, 5, 50, 100):
                if m < lam / (2.0 * s):
                    continue
                lhs = -lam * young_conjugate(sigma, m / lam)
                rhs = 2.0 * s * m * (math.log(lam * math.e / (2.0 * s * m)))
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs)), (s, lam, m)


def test_lambda_geometric_gap_d2():
    # k phi*(n/k) - h phi*(n/h) = 2 n log(h/k) for d = 2 past both knees
    w = Gevrey(2.0)
    for n in (5, 20, 80):
        gap = 1.0 * young_conjugate(w, n / 1.0) - 2.0 * young_conjugate(w, n / 2.0)
        assert gap == pytest.approx(2.0 * n * math.log(2.0), rel=1e-12)


def test_invalid_inputs():
    with pytest.raises(DomainError):
        young_conjugate(Gevrey(2.0), -1.0)


def test_golden_max_step_rule():
    # each step shrinks the bracket by the golden ratio, whatever f is
    calls = []

    def f(x):
        calls.append(x)
        return -((x - 0.3) ** 2)

    x = _golden_max(f, 0.0, 1.0)
    assert len(calls) == NUMERIC_STEPS + 2  # two interior probes, then one per step
    assert abs(x - 0.3) <= 0.5 * ((math.sqrt(5.0) - 1.0) / 2.0) ** NUMERIC_STEPS


_X = st.floats(min_value=0.0, max_value=200.0)
_LOGPOWER = st.builds(LogPower, st.floats(min_value=1.1, max_value=4.0))
_ROOTED = st.builds(
    RootComposed,
    st.one_of(st.builds(Gevrey, st.floats(min_value=1.1, max_value=4.0)), _LOGPOWER),
    st.floats(min_value=1.0, max_value=3.0),
)


@given(st.one_of(_LOGPOWER, _ROOTED), _X)
@settings(max_examples=60, deadline=None)
def test_closed_form_matches_numeric_every_family(w, x):
    c = young_conjugate(w, x, method="closed")
    n = young_conjugate(w, x, method="numeric")
    assert abs(c - n) <= 1e-9 * max(1.0, abs(c)), (w, x, c, n)


def test_logpower_conjugate_past_t_8192_returns():
    # the maximiser t* = (150 / 1.5)^2 = 10^4 lies where doubles are spaced
    # wider than 1e-12; both methods must still return
    code = (
        "from gsdyn.conjugate import young_conjugate\n"
        "from gsdyn.weights import LogPower\n"
        "print(young_conjugate(LogPower(1.5), 150.0, 'closed'))\n"
        "print(young_conjugate(LogPower(1.5), 150.0, 'numeric'))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    closed, numeric = map(float, r.stdout.split())
    assert closed == 0.5 * (150.0 / 1.5) ** 3  # (p - 1)(x/p)^(p/(p-1))
    assert numeric == pytest.approx(closed, rel=1e-12)


def test_cli_check_runs_on_logpower():
    assert main(["conjugate", "--weight", "logpower:2", "--x", "3", "--check"]) == 0
    assert main(["conjugate", "--weight", "logpower:2", "--x", "3", "--method", "auto"]) == 2
    # p near 1 puts phi*(200) past double range: a typed limit, not an OverflowError
    assert main(["conjugate", "--weight", "logpower:1.0001", "--x", "200"]) == 3
