import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdyn.conjugate import _golden_max, lambda_shift_constants, young_conjugate
from gsdyn.errors import DomainError
from gsdyn.seminorms import truncation_order
from gsdyn.weights import Gevrey, LogPower


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
    # no closed form: just monotone, convex-ish, finite
    w = LogPower(2.0)
    vals = [young_conjugate(w, x) for x in (0.5, 1.0, 2.0, 4.0)]
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


def test_shift_constants_gevrey():
    sc = lambda_shift_constants(Gevrey(2.0), 1.0)
    assert sc.mu == 2.0
    assert sc.A == 4.0
    assert sc.D == pytest.approx(1.0, abs=1e-9)


def test_truncation_order_values():
    w = Gevrey(2.0)
    assert truncation_order(w, 1.0, 1.0, 1e-12) == 20
    sc = lambda_shift_constants(w, 1.0)
    loose = type(sc)(sc.mu, 2.0, 10.0, sc.n_checked)
    assert truncation_order(w, 1.0, 1.0, 1e-6, constants=loose) == 24


def test_invalid_inputs():
    with pytest.raises(DomainError):
        young_conjugate(Gevrey(2.0), -1.0)
    with pytest.raises(DomainError):
        lambda_shift_constants(Gevrey(2.0), 0.0)


def test_golden_max_step_rule():
    # each step shrinks the bracket by the golden ratio, whatever f is
    calls = []

    def f(x):
        calls.append(x)
        return -((x - 0.3) ** 2)

    x = _golden_max(f, 0.0, 1.0, steps=10)
    assert len(calls) == 12  # two interior probes, then one per step
    assert abs(x - 0.3) <= 0.5 * ((math.sqrt(5.0) - 1.0) / 2.0) ** 10


def test_golden_max_width_rule():
    # a kinked maximum at c: the final bracket (width <= 1e-12) still holds c
    c = math.log(2.0)
    calls = []

    def f(x):
        calls.append(x)
        return -abs(x - c)

    x = _golden_max(f, 0.0, 5.0, width=1e-12)
    assert abs(x - c) <= 0.5e-12
    # steps: the smallest n with 5 g^n <= 1e-12
    steps = math.ceil(math.log(5.0 / 1e-12) / math.log(2.0 / (math.sqrt(5.0) - 1.0)))
    assert len(calls) == 2 + steps
