import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdyn.conjugate import young_conjugate
from gsdyn.errors import ConfigurationError, InconclusiveError
from gsdyn.jets import FunctionModel, Gaussian, PrescribedJet, Scaled, Translated, parse_model
from gsdyn.seminorms import (
    SearchSpec,
    SeminormSpec,
    attainment_matrix,
    default_radius,
    eval_seminorm,
)
from gsdyn.weights import Gevrey, LogPower, parse_weight

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


def test_argmax_on_the_grid_edge_doubles_the_radius():
    # mu = 100 pushes the expq attainment past 0.98 of the default radius 11.07
    spec = SeminormSpec("expq", parse_weight("gevrey:1.5"), mu=100.0)
    rep = eval_seminorm(Gaussian(1.0), spec)
    assert rep.radius == 2 * default_radius(Gaussian(1.0), 16)
    assert abs(rep.x) < 0.98 * rep.radius




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
    from gsdyn.seminorms import REFINE_TOP, _grid, _grid_cells, _rank, _refine_cells

    xs = _grid(default_radius(model, 16), 2048)
    factors = spec.log_factors(16)
    grid = _grid_cells(model, spec, xs, factors)
    js, qs = _rank(grid[0], *np.nonzero(factors > -math.inf))
    js, qs = js[:REFINE_TOP], qs[:REFINE_TOP]
    together = [t.copy() for t in grid]
    _refine_cells(model, spec, together, factors, xs, js, qs)
    alone = [t.copy() for t in grid]
    for lane in range(len(js)):
        _refine_cells(model, spec, alone, factors, xs, js[lane : lane + 1], qs[lane : lane + 1])
    assert all(np.array_equal(t, a) for t, a in zip(together, alone))
    assert np.all(together[0][js, qs] >= grid[0][js, qs])
    assert np.any(together[1][js, qs] != grid[1][js, qs])  # the refinement moved


def _top_cells_refined(model, spec, m=16):
    # the grid table and the same table with its top REFINE_TOP cells refined
    from gsdyn.seminorms import REFINE_TOP, _grid, _grid_cells, _rank, _refine_cells

    xs = _grid(default_radius(model, m), SearchSpec().points)
    factors = spec.log_factors(m)
    grid = _grid_cells(model, spec, xs, factors)
    js, qs = _rank(grid[0], *np.nonzero(factors > -math.inf))
    js, qs = js[:REFINE_TOP], qs[:REFINE_TOP]
    refined = [t.copy() for t in grid]
    _refine_cells(model, spec, refined, factors, xs, js, qs)
    return grid, refined, js, qs


def test_refinement_converges_in_few_probe_rounds(monkeypatch):
    # a Newton lane converges in a handful of rounds; plain bisection would
    # take about 50, so this count catches a silent fall-back to it
    from gsdyn.seminorms import REFINE_TOP

    calls = []
    real = Gaussian.grid_jets

    def counting(self, xs, order):
        calls.append(len(xs))
        return real(self, xs, order)

    monkeypatch.setattr(Gaussian, "grid_jets", counting)
    _top_cells_refined(Gaussian(1.0), SeminormSpec("plainp", G2))
    grid, *refinement = calls
    assert grid == SearchSpec().points + 1
    assert 2 <= len(refinement) <= 8
    assert set(refinement) == {REFINE_TOP}


_SPATIAL_SPECS = {
    "plainp": SeminormSpec("plainp", G2),
    "globalp": SeminormSpec("globalp", G2),
    "expq-gevrey": SeminormSpec("expq", G2, mu=0.5),
    "expq-logpower": SeminormSpec("expq", LogPower(2.0), mu=0.5),
    "gevreyseq": SeminormSpec("gevreyseq", mu=2.0, s=1.5),
}


@pytest.mark.parametrize("name", sorted(_SPATIAL_SPECS))
def test_spatial_log_slopes_match_mpmath(name):
    # first and second derivatives of each spatial row, against mpmath.diff
    # of spatial_log_rows itself (central differences on the float rows)
    spec = _SPATIAL_SPECS[name]
    xs = np.array([-3.2, -1.5, -0.7, -0.05, 0.05, 0.7, 1.5, 3.2])
    q_rows = (0, 1, 5) if spec.uses_q else (0,)
    for q in q_rows:
        d1, d2 = spec.spatial_log_slopes(xs, np.full(len(xs), q))
        for x, a1, a2 in zip(xs.tolist(), d1.tolist(), d2.tolist()):
            row = lambda t: float(spec.spatial_log_rows(np.array([float(t)]), q)[q, 0])  # noqa: E731
            h = 1e-3 * abs(x)
            r1, r2 = (float(mpmath.diff(row, x, n, h=h)) for n in (1, 2))
            assert a1 == pytest.approx(r1, rel=1e-5, abs=1e-9), (name, q, x)
            assert a2 == pytest.approx(r2, rel=1e-5, abs=1e-6), (name, q, x)


def _mp_slope(spec, shift, j, q):
    # L'(x) for f = exp(-(x + shift)^2), from f^(j)(x) = (-1)^j H_j(u) e^(-u^2)
    # with u = x + shift and H_j' = 2j H_(j-1); no code shared with the engine
    omega = {"gevrey:2": mpmath.sqrt, "logpow:2": lambda t: mpmath.log(t) ** 2 if t > 1 else 0}

    def slope(x):
        u = x + shift
        out = -2 * u
        if j > 0:
            out += 2 * j * mpmath.hermite(j - 1, u) / mpmath.hermite(j, u)
        if spec.family == "expq":
            w = omega[spec.weight.spec()]
            out += spec.mu * mpmath.diff(lambda t: w(abs(t)), x)
        elif spec.family == "globalp":
            out += q * mpmath.sign(x) / (1 + abs(x))
        elif q:
            out += q / x
        return out

    return slope


@pytest.mark.parametrize("shift", [0.0, 1.5], ids=["gauss", "shifted"])
@pytest.mark.parametrize("name", sorted(_SPATIAL_SPECS))
def test_refined_argmax_matches_mpmath_root(name, shift):
    # each refined top cell sits on the root of L' next to it, to ~1e-12
    spec = _SPATIAL_SPECS[name]
    model = Translated(Gaussian(1.0), shift) if shift else Gaussian(1.0)
    grid, refined, js, qs = _top_cells_refined(model, spec)
    assert np.all(refined[0][js, qs] >= grid[0][js, qs])
    with mpmath.workdps(30):
        for j, q in zip(js.tolist(), qs.tolist()):
            x = float(refined[1][j, q])
            delta = 1e-6 * max(1.0, abs(x))
            root = mpmath.findroot(
                _mp_slope(spec, shift, j, q), (x - delta, x + delta), solver="illinois"
            )
            assert abs(x - float(root)) <= 1e-12 * max(1.0, abs(float(root))), (j, q, x)


def _index_log_factor(spec, j, q):
    # the index factor of one cell, as the per-cell tabulation computed it
    if spec.family in ("plainp", "globalp"):
        return -spec.lam * young_conjugate(spec.weight, (j + q) / spec.lam)
    if spec.family == "expq":
        return -spec.lam * young_conjugate(spec.weight, j / spec.lam)
    return (j + q) * math.log(spec.mu) - spec.s * (math.lgamma(j + 1) + math.lgamma(q + 1))


def _per_cell_matrix(model, spec, m):
    # reference: one argmax and one index factor per cell, in a Python loop
    from gsdyn.seminorms import _grid

    xs = _grid(default_radius(model, m), SearchSpec().points)
    _, jlogs = model.grid_jets(xs, m)
    spatial = spec.spatial_log_rows(xs, m if spec.uses_q else 0)
    out = np.full((m + 1, m + 1), -math.inf)
    for j in range(m + 1):
        for q in range(m - j + 1 if spec.uses_q else 1):
            vals = jlogs[j] + spatial[q]
            top = float(vals[int(np.argmax(vals))])
            if top != -math.inf:
                out[j, q] = top + _index_log_factor(spec, j, q)
    return out


@pytest.mark.parametrize("model", ["gauss:1", "scaled:-2:gauss:1", "shift:1.5:gauss:1"])
@pytest.mark.parametrize("family", ["plainp", "globalp", "expq", "gevreyseq"])
def test_unrefined_matrix_equals_per_cell_loop(model, family):
    spec = {
        "plainp": SeminormSpec("plainp", G2, lam=2.0),
        "globalp": SeminormSpec("globalp", LogPower(2.0), lam=1.0),
        "expq": SeminormSpec("expq", G2, mu=0.5),
        "gevreyseq": SeminormSpec("gevreyseq", mu=2.0, s=1.5),
    }[family]
    f = parse_model(model)
    mat = attainment_matrix(f, spec, 16, SearchSpec(refine=False))
    ref = _per_cell_matrix(f, spec, 16)
    assert np.isfinite(ref).sum() == (153 if spec.uses_q else 17)
    assert (mat == ref).all()


def test_nan_jets_are_a_resource_limit():
    # the expanded iterate x^81 overflows the t-rescaling near |x| = 1e-5 at
    # order 16, and the Gaussian's Hermite recurrence at x^81 past |x| = 5.8
    # turns NaN, which poisons every order at those points: the search
    # refuses it instead of ranking a NaN cell
    from gsdyn.errors import ResourceLimitError
    from gsdyn.jets import Composed
    from gsdyn.polynomials import Polynomial, iterate

    model = Composed(Gaussian(1.0), iterate(Polynomial.of([0, 0, 0, 1]), 4))
    with np.errstate(all="ignore"), pytest.raises(ResourceLimitError) as err:
        eval_seminorm(model, SeminormSpec("plainp", G2))
    assert str(err.value).endswith("1:gauss:1 are NaN from order 0 on this grid")


def _brute_cells(model, spec, xs, factors):
    # reference: every cell's first argmax over the whole grid
    m = len(factors) - 1
    _, jlogs = model.grid_jets(xs, m)
    spatial = spec.spatial_log_rows(xs, m if spec.uses_q else 0)
    top = np.full(factors.shape, -math.inf)
    idx = np.zeros(factors.shape, dtype=np.intp)
    for j in range(m + 1):
        for q in range(min(m - j + 1, len(spatial))):
            row = jlogs[j] + spatial[q]
            idx[j, q] = int(np.argmax(row))
            top[j, q] = row[idx[j, q]]
    x = np.where(top == -math.inf, xs[len(xs) // 2], xs[idx])
    return top + factors, x, idx


class _TableModel(FunctionModel):
    """A fixed table of jet logs on one grid, for crafted ties."""

    def __init__(self, logs):
        self.logs = logs

    def grid_jets(self, xs, order):
        return np.ones_like(self.logs, dtype=np.int8), self.logs


def _tied_table(m, n_pts, asymmetric=False):
    # small integers, so rows tie often; the positive half mirrors the negative
    rng = np.random.default_rng(5)
    half = rng.integers(-2, 3, size=(m + 1, n_pts // 2)).astype(float)
    middle = rng.integers(-2, 3, size=(m + 1, 1)).astype(float)
    logs = np.hstack([half, middle, half[:, ::-1]])
    if asymmetric:
        logs[3, -2] += 7.0
    return logs


@pytest.mark.parametrize(
    "name, half_grid",
    [("gauss:1", True), ("scaled:-2:gauss:1", True), ("comp:0,0,1:gauss:1", True),
     ("shift:1.5:gauss:1", False), ("tied", True), ("tied-asymmetric", False)],
)
@pytest.mark.parametrize("family", ["plainp", "expq", "gevreyseq"])
def test_grid_cells_match_full_grid_tabulation(monkeypatch, name, half_grid, family):
    # tabulating only up to the middle column of a mirror-symmetric table gives
    # the full tabulation's values, arguments and indices; the half path must
    # actually fire on the symmetric models, so the saving cannot vanish silently
    import gsdyn.seminorms as S

    m, points = 24, 256
    spec = {
        "plainp": SeminormSpec("plainp", G2, lam=2.0),
        "expq": SeminormSpec("expq", G2, mu=0.5),
        "gevreyseq": SeminormSpec("gevreyseq", mu=2.0, s=1.5),
    }[family]
    if name.startswith("tied"):
        model = _TableModel(_tied_table(m, points, asymmetric=name.endswith("asymmetric")))
        xs = S._grid(10.0, points)
    else:
        model = parse_model(name)
        xs = S._grid(default_radius(model, m), points)
    widths = []
    real = S._columns
    monkeypatch.setattr(S, "_columns", lambda *tables: widths.append(real(*tables)) or widths[-1])
    factors = spec.log_factors(m)
    got = S._grid_cells(model, spec, xs, factors)
    want = _brute_cells(model, spec, xs, factors)
    assert widths == [points // 2 + 1 if half_grid else points + 1]
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_jet_order_cap_is_checked_before_the_table(monkeypatch):
    # a truncation order past the jet cap fails before its m + 1 conjugates
    # and (m+1) x (m+1) index table are built
    import gsdyn.seminorms as S
    from gsdyn.errors import ResourceLimitError

    def fail(*args):
        raise AssertionError("a Young conjugate was computed")

    monkeypatch.setattr(S, "young_conjugate", fail)
    spec = SeminormSpec("plainp", G2)
    calls = [
        lambda: eval_seminorm(Gaussian(1.0), spec, SearchSpec(m=100000)),
        lambda: eval_seminorm(PrescribedJet.of(0, {0: 1}), spec, SearchSpec(m=100000)),
        lambda: attainment_matrix(Gaussian(1.0), spec, 100000),
        lambda: SeminormSpec("gevreyseq").log_factors(513),
    ]
    for call in calls:
        with pytest.raises(ResourceLimitError, match=r"jet order capped at 512 \(got (100000|513)\)"):
            call()


def test_grid_size_cap_is_checked_before_the_grid(monkeypatch):
    # a grid whose jet table passes the entry cap is refused before it is built
    import gsdyn.seminorms as S
    from gsdyn.errors import ResourceLimitError

    def fail(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(S, "_grid", fail)
    spec = SeminormSpec("plainp", G2)
    huge = SearchSpec(points=10**13)
    for call in (lambda: eval_seminorm(Gaussian(1.0), spec, huge),
                 lambda: attainment_matrix(Gaussian(1.0), spec, 16, huge)):
        with pytest.raises(ResourceLimitError, match=r"capped at 8388608 entries \(got 17 x "):
            call()


SPECS = {
    "plainp": SeminormSpec("plainp", G2, lam=2.0),
    "globalp": SeminormSpec("globalp", LogPower(2.0), lam=1.0),
    "expq": SeminormSpec("expq", G2, mu=0.5),
    "gevreyseq": SeminormSpec("gevreyseq", mu=2.0, s=1.5),
}


class _TableSpec:
    """Fixed spatial rows, so crafted tables can tie exactly after the sum."""

    uses_q = True

    def __init__(self, rows):
        self.rows = rows

    def spatial_log_rows(self, xs, m_max):
        return self.rows[: m_max + 1]


def _assert_pruned_exact(model, spec, xs, factors):
    # the pruned table ranks the same REFINE_TOP cells first, with the brute
    # force's values, arguments and indices, and has the same ring maximum;
    # every cell it evaluated is exact, and every cell it left is below both
    import gsdyn.seminorms as S

    m = len(factors) - 1
    got = S._grid_cells(model, spec, xs, factors, S.REFINE_TOP)
    want = _brute_cells(model, spec, xs, factors)
    cells = np.nonzero(factors > -math.inf)
    js, qs = S._rank(got[0], *cells)
    wjs, wqs = S._rank(want[0], *cells)
    top = slice(S.REFINE_TOP)
    assert np.array_equal(js[top], wjs[top]) and np.array_equal(qs[top], wqs[top])
    for g, w in zip(got, want):
        assert np.array_equal(g[js[top], qs[top]], w[js[top], qs[top]])
    ring = cells[0] + cells[1] >= m - 2
    assert np.max(got[0][cells][ring]) == np.max(want[0][cells][ring])
    kept = got[0] > -math.inf
    for g, w in zip(got, want):
        assert np.array_equal(g[kept], w[kept])
    left, vals = ~kept[cells], want[0][cells]
    last = len(js[top]) - 1
    assert ((vals[left] < want[0][wjs[last], wqs[last]]) | (vals[left] == -math.inf)).all()
    assert ((vals[left & ring] < np.max(vals[ring])) | (vals[left & ring] == -math.inf)).all()
    return got


@pytest.mark.parametrize("m", [0, 1, 2, 16, 24])
@pytest.mark.parametrize("family", ["plainp", "globalp", "expq", "gevreyseq"])
@pytest.mark.parametrize(
    "name", ["gauss:1", "scaled:-2:gauss:1", "comp:0,0,1:gauss:1", "shift:1.5:gauss:1",
             "tied", "tied-asymmetric"],
)
def test_pruned_cells_match_full_grid_tabulation(name, family, m):
    import gsdyn.seminorms as S

    spec, points = SPECS[family], 256
    if name.startswith("tied"):
        model = _TableModel(_tied_table(m, points))
        if name.endswith("asymmetric"):
            model.logs[min(m, 3), -2] += 7.0
        xs = S._grid(10.0, points)
    else:
        model = parse_model(name)
        xs = S._grid(default_radius(model, m), points)
    _assert_pruned_exact(model, spec, xs, spec.log_factors(m))


def _crafted(m, points):
    # zero tables and factors, to be filled with integers: every sum is exact,
    # so cells tie exactly
    logs = np.zeros((m + 1, points + 1))
    rows = np.zeros((m + 1, points + 1))
    factors = np.where(np.add.outer(np.arange(m + 1), np.arange(m + 1)) <= m, 0.0, -math.inf)
    return logs, rows, factors


def test_pruned_cells_evaluate_every_tie_at_the_top_value():
    # five cells above a tie of 40 (more than one batch) at the REFINE_TOP-th
    # value, whose first-ranked members (j+q = 12) are spread through the bound order
    import gsdyn.seminorms as S

    m, points = 24, 64
    logs, rows, factors = _crafted(m, points)
    factors[factors == 0.0] = -1.0
    for j, q in [(0, 24), (1, 23), (2, 22), (3, 21), (4, 20)]:
        factors[j, q] = 1.0
    tied = [(j, q) for j in range(m + 1) for q in range(m + 1) if j + q == 12][:8]
    tied += [(j, q) for j in range(m + 1) for q in range(m + 1) if 20 <= j + q <= 22][:32]
    for j, q in tied:
        factors[j, q] = 0.0
    got = _assert_pruned_exact(_TableModel(logs), _TableSpec(rows), S._grid(10.0, points), factors)
    assert all(got[0][j, q] == 0.0 for j, q in tied)


def test_pruned_cells_with_vanishing_rows_and_cells():
    # whole -inf jet rows and spatial rows, scattered -inf entries
    import gsdyn.seminorms as S

    m, points = 16, 64
    rng = np.random.default_rng(3)
    logs, rows, factors = _crafted(m, points)
    logs += rng.integers(-3, 4, size=logs.shape)
    rows += rng.integers(-3, 4, size=rows.shape)
    logs[rng.random(logs.shape) < 0.3] = -math.inf
    logs[[0, 5, 9]] = -math.inf
    rows[[1, 2]] = -math.inf
    _assert_pruned_exact(_TableModel(logs), _TableSpec(rows), S._grid(10.0, points), factors)
    logs[:] = -math.inf  # a table that vanishes: every cell -inf, x in the middle
    got = S._grid_cells(_TableModel(logs), _TableSpec(rows), S._grid(10.0, points), factors,
                        S.REFINE_TOP)
    assert (got[0] == -math.inf).all() and (got[1] == 0.0).all() and (got[2] == 0).all()


@pytest.mark.parametrize("column", [10, 32])
def test_pruned_cells_with_an_infinite_jet_entry(column):
    # +inf against finite spatial entries (column 10), and at the middle of a
    # mirror-symmetric grid, where log|x| = -inf makes the sum and the bound
    # NaN (column 32, a chunk of its own): the bounds cannot order such a
    # table, so every cell is evaluated as by the brute force
    import gsdyn.seminorms as S

    m, points = 8, 64
    model = _TableModel(_tied_table(m, points))
    model.logs[3, column] = model.logs[3, points - column] = math.inf
    xs, spec = S._grid(10.0, points), SPECS["plainp"]
    factors = spec.log_factors(m)
    with np.errstate(invalid="ignore"):
        got = S._grid_cells(model, spec, xs, factors, S.REFINE_TOP)
        want = _brute_cells(model, spec, xs, factors)
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True)
    assert got[0][3, 0] == math.inf


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(0, 20),
    half=st.integers(16, 80),
    mirror=st.booleans(),
    spread=st.sampled_from([2, 5, 1000]),
    holes=st.floats(0.0, 0.5),
    family=st.sampled_from(sorted(SPECS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_pruned_cells_match_brute_force_on_random_tables(m, half, mirror, spread, holes, family,
                                                          seed):
    import gsdyn.seminorms as S

    rng = np.random.default_rng(seed)
    side = rng.integers(-spread, spread + 1, size=(m + 1, half)) / rng.choice([1.0, 7.0])
    side[rng.random(side.shape) < holes] = -math.inf
    other = side[:, ::-1] if mirror else rng.permutation(side, axis=1)
    logs = np.hstack([side, rng.integers(-spread, spread + 1, size=(m + 1, 1)), other])
    spec = SPECS[family]
    _assert_pruned_exact(_TableModel(logs), spec, S._grid(10.0, 2 * half), spec.log_factors(m))


@pytest.mark.parametrize("family", ["plainp", "globalp"])
def test_search_tables_evaluate_few_cells(family):
    # at M = 128 the search evaluates a small share of its 8,385 cells, so the
    # saving of the chunk bounds cannot vanish silently
    import gsdyn.seminorms as S

    m, model, spec = 128, Gaussian(1.0), SeminormSpec(family, G2)
    factors = spec.log_factors(m)
    xs = S._grid(default_radius(model, m), 2048)
    vals = S._grid_cells(model, spec, xs, factors, S.REFINE_TOP)[0]
    assert np.isfinite(vals).sum() <= 0.1 * (factors > -math.inf).sum()
