import math
from fractions import Fraction

import pytest

from gsdyn.errors import DomainError, ResourceLimitError
from gsdyn.jets import Gaussian, parse_model
from gsdyn.polynomials import Polynomial
from gsdyn.seminorms import SeminormSpec, eval_seminorm
from gsdyn.weights import Gevrey, LogPower, parse_weight
from gsdyn.witnesses import (
    _square_chain_holds,
    classify_growth,
    falling_factorial_2m,
    fourier_scaling_check,
    repelling_constants,
    rho_construction,
    witness_deg2_topologizable,
    witness_dilation_blowup,
    witness_dilation_delta,
    witness_repelling,
    witness_square,
    witness_translation,
)

G2 = Gevrey(2.0)
X2 = Polynomial.of([0, 0, 1])


# ---------------------------------------------------------------- classifier


def test_classify_constant():
    s = classify_growth([(m, 3.0) for m in range(6)])
    assert s.classification == "constant" and s.rate is None


def test_classify_bounded():
    vals = [(m, 0.1 * ((-1) ** m)) for m in range(10)]
    assert classify_growth(vals).classification == "bounded"


def test_classify_atmostgeometric_linear():
    s = classify_growth([(m, 2.0 * m) for m in range(10)])
    assert s.classification == "atmostgeometric"
    assert s.rate == pytest.approx(2.0)


def test_classify_supergeometric_quadratic():
    s = classify_growth([(m, float(m * m)) for m in range(12)])
    assert s.classification == "supergeometric"
    assert s.details["ratio_gain"] > math.log(2.0)


def test_classify_needs_two_points():
    with pytest.raises(DomainError):
        classify_growth([(0, 1.0)])


# ------------------------------------------------------------- small helpers


def test_falling_factorial_exact():
    assert falling_factorial_2m(3, 3) == 8 * 7 * 6
    assert falling_factorial_2m(5, 0) == 1


def test_square_chain_matches_the_big_integer_comparison():
    # 2^m ... (2^m - m + 1) >= (2^m - m + 1)^m >= 2^(m^2/2), with both sides formed
    for m in range(2, 201):
        mid = ((1 << m) - m + 1) ** m
        big = falling_factorial_2m(m, m) >= mid and mid * mid >= 1 << (m * m)
        assert _square_chain_holds(m) == big, m


def test_repelling_constants_closed_form():
    log_a, log_b = repelling_constants(2.0, 1.0)
    assert log_a == pytest.approx(4.0 * (1.0 - math.log(4.0)), abs=1e-12)
    assert log_b == pytest.approx(2.0 * (math.log(2.0) - 1.0), abs=1e-12)


def test_q_linear_bound_gevrey():
    # sqrt(t) / t peaks at t = 1, and (log t)^2 / t at log t = 2
    assert G2.q_linear() == 1.0
    assert LogPower(2.0).q_linear() == pytest.approx(4.0 / math.e ** 2, rel=1e-15)
    with pytest.raises(ResourceLimitError, match="logpow:200"):
        LogPower(200.0).q_linear()  # (200/e)^200 is past the double range


# ----------------------------------------------------------------- witnesses


def test_translation_gevrey():
    s = witness_translation(G2, 1.0, 1.0, Gaussian(1.0), 8)
    assert s.classification in ("atmostgeometric", "bounded")
    assert s.details["slope_ok"]


def test_translation_logpower():
    s = witness_translation(LogPower(2.0), 1.0, 1.0, Gaussian(1.0), 8)
    assert s.details["slope_ok"]


def test_square_witness():
    s = witness_square(2.0, 1.0, 60)
    assert s.classification == "supergeometric"
    assert s.details["jet_falling_factorials_exact"]
    assert s.details["inequality_chain_ok"]
    assert s.details["divergence_increasing_from"] <= 30
    assert s.details["divergence_first_above_one"] == 44


def test_repelling_witness_square_map():
    s = witness_repelling(X2, 1, 2.0, 1.0, 40)
    assert s.classification == "supergeometric"
    assert s.details["jet_rel_err"] <= 1e-9


def test_repelling_neutral_is_inconclusive():
    psi = Polynomial.parse("1/4,0,1")
    s = witness_repelling(psi, Fraction(1, 2), 2.0, 1.0, 12)
    assert s.classification == "inconclusive"


def test_repelling_negative_multiplier_keeps_the_sign():
    # psi'(-1) = -2: the order-m jet entry carries the sign of (-2)^(m^2)
    s = witness_repelling(Polynomial.parse("-2,0,1"), -1, 2.0, 1.0, 9)
    assert s.classification == "supergeometric"
    assert s.details["jet_rel_err"] <= 1e-9


def test_repelling_cubic_past_the_iterate_degree_cap():
    # psi^12 would have degree 3^12, far past polynomials.DEGREE_CAP
    s = witness_repelling(Polynomial.parse("0,0,0,1"), 1, 2.0, 1.0, 12)
    assert s.classification == "supergeometric"
    assert s.details["jet_check_max"] == 12
    assert s.details["jet_rel_err"] <= 1e-9


def test_jet_paths_never_build_iterates(monkeypatch):
    import gsdyn.witnesses as W

    def forbidden(*args):
        raise AssertionError("iterate called")

    monkeypatch.setattr(W, "iterate", forbidden)
    assert witness_repelling(X2, 1, 2.0, 1.0, 12).details["jet_check_max"] == 12
    assert witness_square(2.0, 1.0, 12).details["jet_falling_factorials_exact"]


def test_repelling_rejects_bad_points():
    with pytest.raises(DomainError):
        witness_repelling(X2, 2, 2.0, 1.0, 12)  # not fixed
    with pytest.raises(DomainError):
        witness_repelling(X2, 0, 2.0, 1.0, 12)  # attracting


def test_dilation_delta_value():
    rep = witness_dilation_delta(G2, 2.0, 1.0, 1.0, 1)
    assert rep.d == pytest.approx(3.6945, abs=1e-3)
    assert rep.j_star == 1


def test_dilation_delta_monotone_in_m():
    vals = [witness_dilation_delta(G2, 2.0, 1.0, 1.0, m).log_d for m in range(1, 6)]
    assert vals == sorted(vals)


def test_dilation_delta_unit_a():
    rep = witness_dilation_delta(G2, 1.0, 1.0, 1.5, 3)
    assert rep.j_star == 0
    assert rep.log_d == pytest.approx(1.5, abs=1e-12)  # -lam phi*(0) = lam


def test_fourier_scaling():
    # scale*|b| = 0.1 puts eta/(scale*|b|) = 60 next to the alias of a
    # fixed 201-point grid, so the grid has to follow the frequencies
    cases = [(1.0, -1.0), (1.0, 0.5), (1.0, 1.0), (1.0, 2.0), (1.0, 3.0), (1.0, 0.1), (0.1, 1.0)]
    for scale, b in cases:
        rep = fourier_scaling_check(Gaussian(scale), b)
        assert rep.max_error < 1e-12
    with pytest.raises(DomainError):
        fourier_scaling_check(Gaussian(1.0), 0.0)
    with pytest.raises(ResourceLimitError):
        fourier_scaling_check(Gaussian(1.0), 1e-5)


def test_rho_construction_forces_gap():
    for m in (1, 2):
        rc = rho_construction(Gaussian(1.0), G2, 2.0, m, "derivative")
        j, q, _ = rc.attainment
        assert j - q >= m
        assert rc.rho > 1.0
    rc = rho_construction(Gaussian(1.0), G2, 2.0, 1, "polynomial")
    j, q, _ = rc.attainment
    assert q - j >= 1


@pytest.mark.parametrize(
    "model, weight, lam, m, direction, log_rho",
    [
        ("gauss:1", "gevrey:2", 1.0, 2, "derivative", 5.639071040534944),
        ("gauss:1", "gevrey:2", 1.0, 2, "polynomial", 5.909574353115627),
        ("gauss:1", "logpower:2", 0.5, 3, "derivative", 19.857438065733376),
        ("shift:1.5:gauss:1", "root:2:gevrey:2", 2.0, 1, "polynomial", 11.403828205963862),
    ],
)
def test_rho_construction_pinned(model, weight, lam, m, direction, log_rho):
    # the table-wide maxima are exact, so log rho is pinned to the last bit
    w = parse_weight(weight)
    rc = rho_construction(parse_model(model), w, lam, m, direction)
    assert rc.log_rho == log_rho
    assert rc.log_value == eval_seminorm(rc.model, SeminormSpec("plainp", w, lam=lam)).log_value


@pytest.mark.parametrize("direction", ["derivative", "polynomial"])
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_rho_construction_at_m_zero_keeps_the_model(lam, direction):
    # the base attainment (0, 0) already has j - q >= 0 and q - j >= 0
    rc = rho_construction(Gaussian(1.0), G2, lam, 0, direction)
    base = eval_seminorm(Gaussian(1.0), SeminormSpec("plainp", G2, lam=lam))
    assert (rc.rho, rc.log_rho, rc.attainment) == (1.0, 0.0, (0, 0, 0.0))
    assert rc.log_value == base.log_value


def test_rho_construction_at_m_zero_scales_only_the_wrong_direction():
    f = parse_model("shift:3:gauss:1")
    base = eval_seminorm(f, SeminormSpec("plainp", G2, lam=1.0))
    assert (base.j, base.q) == (0, 1)
    rc = rho_construction(f, G2, 1.0, 0, "polynomial")
    assert (rc.rho, rc.log_rho, rc.attainment) == (1.0, 0.0, (0, 1, base.x))
    assert rc.log_value == base.log_value
    rc = rho_construction(f, G2, 1.0, 0, "derivative")  # the general path
    j, q, _ = rc.attainment
    assert j >= q and rc.rho == pytest.approx(67.0, rel=1e-3)


def test_rho_polynomial_attainment_is_exact():
    # g(x) = exp(-(x/rho)^2): sup |x|^16 g(x) sits at |x| = rho sqrt(8) exactly
    import mpmath

    rc = rho_construction(Gaussian(1.0), G2, 1.0, 2, "polynomial")
    j, q, x = rc.attainment
    assert (j, q) == (0, 16)
    exact = mpmath.sqrt(8) / mpmath.mpf(abs(rc.model.rho))
    assert abs(abs(mpmath.mpf(x)) - exact) <= 1e-15 * exact


def test_dilation_evaluates_each_seminorm_once(monkeypatch):
    # per ell: p_h(g_ell) in the rho-construction's check, p_k(g_ell(a^m .)) once
    import gsdyn.witnesses as witnesses

    lams = []
    real = witnesses.eval_seminorm

    def counting(model, spec, *args):
        lams.append(spec.lam)
        return real(model, spec, *args)

    monkeypatch.setattr(witnesses, "eval_seminorm", counting)
    witness_dilation_blowup(G2, 2.0, 1.0, 2.0, 1, 3)
    assert sorted(lams) == [1.0] * 3 + [2.0] * 3


def test_dilation_blowup_reflection_constant():
    s = witness_dilation_blowup(G2, -1.0, 1.0, 2.0, 1, 4)
    assert s.classification == "constant"
    s = witness_dilation_blowup(G2, 1.0, 1.0, 2.0, 3, 4)
    assert s.classification == "constant"


def test_dilation_blowup_lower_bound_holds():
    s = witness_dilation_blowup(G2, 2.0, 1.0, 2.0, 1, 4)
    assert s.details["lower_bound_ok"]
    gaps = s.details["attainment_gaps"]
    assert all(b >= a for a, b in zip(gaps, gaps[1:]))
    assert gaps[0] >= 1


def test_deg2_topologizable_finite():
    rep = witness_deg2_topologizable(G2, 3.0, X2, 1.0, 3)
    assert rep.all_finite
    assert rep.mu == pytest.approx(2.0)
    assert len(rep.rows) == 3
    with pytest.raises(DomainError):
        witness_deg2_topologizable(G2, 2.0, X2, 1.0, 3)
