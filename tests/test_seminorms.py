import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdyn.conjugate import young_conjugate
from gsdyn.errors import ConfigurationError, InconclusiveError
from gsdyn.jets import Gaussian, PrescribedJet, Scaled, Translated, parse_model
from gsdyn.seminorms import (
    SearchSpec,
    SeminormSpec,
    attainment_matrix,
    default_radius,
    eval_seminorm,
    truncation_order,
)
from gsdyn.weights import Gevrey, LogPower

G2 = Gevrey(2.0)


def test_gaussian_plainp_value():
    # attained at j = q = 0 where phi*(0) = -1: log p = lam
    rep = eval_seminorm(Gaussian(1.0), SeminormSpec("plainp", G2, lam=2.0), SearchSpec())
    assert rep.log_value == pytest.approx(2.0, abs=1e-12)
    assert (rep.j, rep.q) == (0, 0)


def test_row_zero_closed_form():
    # a_{0,q} = max |x|^q e^(-x^2) * wf = (q/2)^(q/2) e^(-q/2) * wf
    spec = SeminormSpec("plainp", G2, lam=1.0)
    mat = attainment_matrix(Gaussian(1.0), spec, 12, SearchSpec())
    for q in range(1, 13):
        expected = 0.5 * q * (math.log(0.5 * q) - 1.0) - young_conjugate(G2, float(q))
        assert mat[0, q] == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_scaling_covariance():
    # p(f(rho .)) equals max over cells of base matrix + (j - q) log rho
    spec = SeminormSpec("plainp", G2, lam=2.0)
    rho = 2.0
    direct = eval_seminorm(Scaled(Gaussian(1.0), rho), spec, SearchSpec())
    m = direct.truncation_m
    mat = attainment_matrix(Gaussian(1.0), spec, m, SearchSpec())
    shifted = max(
        mat[j, q] + (j - q) * math.log(rho)
        for j in range(m + 1)
        for q in range(m + 1)
        if math.isfinite(mat[j, q])
    )
    assert direct.log_value == pytest.approx(shifted, rel=1e-9)


def test_truncation_stability():
    spec = SeminormSpec("plainp", G2, lam=1.0)
    a = eval_seminorm(Gaussian(1.0), spec, SearchSpec(m=24)).log_value
    b = eval_seminorm(Gaussian(1.0), spec, SearchSpec(m=34)).log_value
    assert abs(a - b) <= 1e-9


def test_brute_force_oracle_denser_grid():
    spec = SeminormSpec("plainp", G2, lam=1.0)
    fine = eval_seminorm(
        Gaussian(1.0), spec, SearchSpec(points=20480, refine=False, m=32)
    ).log_value
    default = eval_seminorm(Gaussian(1.0), spec, SearchSpec()).log_value
    assert abs(fine - default) <= 1e-6 * max(1.0, abs(default))


def test_prescribed_jet_eval():
    model = PrescribedJet.of(0.0, {2: 1.0})
    spec = SeminormSpec("plainp", G2, lam=1.0)
    rep = eval_seminorm(model, spec, SearchSpec())
    assert rep.log_value == pytest.approx(-young_conjugate(G2, 2.0), abs=1e-12)
    assert (rep.j, rep.q) == (2, 0)


PRESCRIBED_SPECS = {
    "plainp": SeminormSpec("plainp", G2, lam=1.0),
    "globalp": SeminormSpec("globalp", LogPower(2.0), lam=2.0),
    "expq": SeminormSpec("expq", G2, mu=1.5),
    "gevreyseq": SeminormSpec("gevreyseq", mu=2.0, s=1.5),
}


@pytest.mark.parametrize(
    "literal, family, m, best, runner_up",
    [
        # a vanishing cell is the runner-up and still sits at the center
        ("jet:2:1=1", "plainp", None, (0.6137056388801093, 1, 0, 2.0), (0, 0, 2.0, -math.inf)),
        ("jet:2:1=1", "gevreyseq", None, (0.6931471805599453, 1, 0, 2.0), (0, 0, 2.0, -math.inf)),
        ("jet:2:1=1", "gevreyseq", 3, (2.426015131959809, 1, 2, 2.0),
         (1, 1, 2.0, 2.0794415416798357)),
        ("jet:-3:0=2,1=-1,3=7", "globalp", None, (3.727030263919617, 0, 3, -3.0),
         (0, 2, -3.0, 2.9657359027997265)),
        ("jet:1/2:0=1,4=5", "expq", None, (2.0606601717798214, 0, 0, 0.5),
         (4, 0, 0.5, -5.965434249224766)),
        ("jet:1/2:0=1,4=5", "expq", 3, (2.0606601717798214, 0, 0, 0.5), (1, 0, 0.5, -math.inf)),
        ("jet:0:2=1", "globalp", 3, (-0.5, 2, 0, 0.0), (2, 1, 0.0, -1.125)),
    ],
)
def test_prescribed_jet_families(literal, family, m, best, runner_up):
    rep = eval_seminorm(parse_model(literal), PRESCRIBED_SPECS[family], SearchSpec(m=m))
    assert (rep.j, rep.q, rep.x) == best[1:]
    assert rep.log_value == pytest.approx(best[0], rel=1e-15)
    assert rep.runner_up[:3] == runner_up[:3]
    assert rep.runner_up[3] == pytest.approx(runner_up[3], rel=1e-15)
    assert rep.radius == 0.0 and rep.certificates["center"] == best[3]


def test_expq_family_ignores_q():
    spec = SeminormSpec("expq", G2, lam=1.0, mu=1.0)
    rep = eval_seminorm(Gaussian(1.0), spec, SearchSpec())
    assert rep.q == 0
    assert math.isfinite(rep.log_value)


def test_gevreyseq_needs_no_weight():
    spec = SeminormSpec("gevreyseq", mu=1.0, s=2.0)
    rep = eval_seminorm(Gaussian(1.0), spec, SearchSpec())
    assert math.isfinite(rep.log_value)
    with pytest.raises(ConfigurationError):
        SeminormSpec("plainp", None, lam=1.0)


def test_runner_up_gap_reported():
    rep = eval_seminorm(Gaussian(1.0), SeminormSpec("plainp", G2, lam=2.0), SearchSpec())
    assert rep.runner_up is not None
    assert rep.gap >= 0.0


def test_fixed_radius_boundary_is_inconclusive():
    spec = SeminormSpec("plainp", G2, lam=2.0)
    shifted = Translated(Gaussian(1.0), 3.0)
    with pytest.raises(InconclusiveError):
        eval_seminorm(shifted, spec, SearchSpec(radius=0.5))


def test_truncation_order_monotone_in_eps():
    assert truncation_order(G2, 1.0, 1.0, 1e-12) > truncation_order(G2, 1.0, 1.0, 1e-3)


@given(st.floats(min_value=0.5, max_value=4.0))
@settings(max_examples=10, deadline=None)
def test_value_matches_matrix_max(scale):
    # the reported value is exactly the best cell of the attainment matrix
    spec = SeminormSpec("plainp", G2, lam=1.0)
    rep = eval_seminorm(Gaussian(scale), spec, SearchSpec())
    m = rep.truncation_m
    mat = attainment_matrix(Gaussian(scale), spec, m, SearchSpec())
    best = np.nanmax(np.where(np.isfinite(mat), mat, -np.inf))
    assert rep.log_value == pytest.approx(best, rel=1e-9)


@pytest.mark.parametrize(
    "model",
    [Gaussian(1.0), Scaled(Gaussian(1.0), -2.0), Translated(Gaussian(1.0), 1.5)],
    ids=["gauss", "scaled", "shifted"],
)
@pytest.mark.parametrize(
    "spec",
    [SeminormSpec("plainp", G2), SeminormSpec("globalp", G2), SeminormSpec("expq", G2, mu=0.5)],
    ids=["plainp", "globalp", "expq"],
)
def test_refine_cells_lockstep_equals_one_by_one(model, spec):
    # refining the top cells together gives exactly what each gives refined alone
    from gsdyn.seminorms import REFINE_TOP, _cell_order, _grid, _grid_cells, _refine_cells

    xs = _grid(default_radius(model, 16), 2048)
    top = sorted(_grid_cells(model, spec, xs, 16), key=_cell_order)[:REFINE_TOP]
    together = _refine_cells(model, spec, top, xs)
    alone = [_refine_cells(model, spec, [c], xs)[0] for c in top]
    assert together == alone
    assert all(r.log_value >= c.log_value for r, c in zip(together, top))
    assert any(r.x != c.x for r, c in zip(together, top))  # the refinement moved
