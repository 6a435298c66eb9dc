import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsdyn import logspace as ls
from gsdyn import polynomials
from gsdyn.errors import DomainError, ResourceLimitError
from gsdyn.jets import (
    Composed,
    Gaussian,
    Jet,
    PrescribedJet,
    Scaled,
    Translated,
    compose_jet,
    faa_di_bruno_identity_sum,
    fixed_point_jets,
    jet_of_polynomial,
    multiplicity_partitions,
    parse_model,
)
from gsdyn.polynomials import Polynomial, iterate


def slog_pow(a, k: int):
    if k == 0:
        return (1, 0.0)
    if a[0] == 0:
        return ls.ZERO
    sign = 1 if (a[0] > 0 or k % 2 == 0) else -1
    return (sign, a[1] * k)


def compose_jet_partitions(f: Jet, psi: Jet, order: int) -> Jet:
    """The explicit Faa di Bruno partition sum, term by term: the independent
    oracle compose_jet and the composed grid jets are checked against."""
    if f.exact is not None and psi.exact is not None:
        lift, mul, power, total = Fraction, operator.mul, operator.pow, sum
        f_v, p_v, make = f.exact, psi.exact, Jet.from_exact
    else:
        lift, mul, power, total = ls.slog_of_fraction, ls.slog_mul, slog_pow, ls.slog_sum
        f_v, p_v = list(zip(f.signs, f.logs)), list(zip(psi.signs, psi.logs))
        make = Jet.from_slogs
    out = [f_v[0]]
    for j in range(1, order + 1):
        terms = []
        for k in multiplicity_partitions(j):
            coeff = Fraction(math.factorial(j))
            for ell, kl in enumerate(k, start=1):
                coeff /= math.factorial(kl) * math.factorial(ell) ** kl
            t = mul(lift(coeff), f_v[sum(k)])
            for ell, kl in enumerate(k, start=1):
                if kl:
                    t = mul(t, power(p_v[ell], kl))
            terms.append(t)
        out.append(total(terms))
    return make(psi.center, out)


def value(jet, n):
    """The n-th derivative a jet carries, as a float (a zero entry has log -inf)."""
    s, l = jet.entry(n)
    return s * math.exp(l)


def euler_partition_counts(n: int):
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k, sign, total = 1, 1, 0
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m:
                break
            total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
            sign = -sign
        p[m] = total
    return p


def test_partition_counts_match_euler_recurrence():
    counts = euler_partition_counts(40)
    for j in (1, 2, 3, 7, 15, 28, 40):
        parts = multiplicity_partitions(j)
        assert len(parts) == counts[j]
        assert all(sum((i + 1) * k for i, k in enumerate(p)) == j for p in parts)


def test_partition_cap():
    with pytest.raises(ResourceLimitError):
        multiplicity_partitions(61)


def test_faa_di_bruno_identity_small():
    for j in range(1, 16):
        assert faa_di_bruno_identity_sum(j) == 2 ** (j - 1)


def test_jet_of_polynomial_exact():
    p = Polynomial.parse("1,2,3")  # 3x^2 + 2x + 1
    jet = jet_of_polynomial(p, Fraction(1), 3)
    assert tuple(jet.exact) == (6, 8, 6, 0)


def test_compose_dual_paths_agree_exact():
    f = jet_of_polynomial(Polynomial.parse("0,1,1"), Fraction(2), 6)  # x^2+x at 2
    g = jet_of_polynomial(Polynomial.parse("1,0,1"), Fraction(1), 6)  # x^2+1 at 1
    a = compose_jet(f, g, 6)
    b = compose_jet_partitions(f, g, 6)
    assert a.exact == b.exact
    # sign-log track: a Gaussian outer jet carries no exact values
    a = compose_jet(Gaussian(1.0).jet(2.0, 6), g, 6)
    b = compose_jet_partitions(Gaussian(1.0).jet(2.0, 6), g, 6)
    assert a.exact is None and a.signs == b.signs
    assert a.logs == pytest.approx(b.logs, rel=1e-13)


coeffs = st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5)


@given(
    coeffs,
    coeffs,
    st.integers(min_value=1, max_value=10),
    st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(-2, 3)]),
)
@settings(max_examples=30, deadline=None)
def test_compose_matches_composed_polynomial(outer, inner, order, x0):
    f = Polynomial.of(outer)
    g = Polynomial.of(inner)
    comp = compose_jet(
        jet_of_polynomial(f, g(x0), order), jet_of_polynomial(g, x0, order), order
    )
    direct = jet_of_polynomial(f.compose(g), x0, order)
    assert comp.exact == direct.exact


@given(coeffs, coeffs, coeffs, st.integers(min_value=1, max_value=8))
@settings(max_examples=25, deadline=None)
def test_compose_associativity(cf, cg, ch, order):
    f, g, h = Polynomial.of(cf), Polynomial.of(cg), Polynomial.of(ch)
    x0 = Fraction(1)
    hj = jet_of_polynomial(h, x0, order)
    gj = jet_of_polynomial(g, h(x0), order)
    fj = jet_of_polynomial(f, g(h(x0)), order)
    left = compose_jet(compose_jet(fj, gj, order), hj, order)
    right = compose_jet(fj, compose_jet(gj, hj, order), order)
    assert left.exact == right.exact


@given(
    st.sampled_from([-3, -2, Fraction(-3, 2), 1, Fraction(3, 2), 2, 3]),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    st.fractions(min_value=-2, max_value=2, max_denominator=4).filter(lambda c: c != 0),
)
@settings(max_examples=25, deadline=None)
def test_fixed_point_jets_match_iterates(alpha, x0, c):
    # psi(x) = x0 + alpha (x - x0) + c (x - x0)^2 fixes x0 with multiplier alpha
    psi = Polynomial.of([x0 - alpha * x0 + c * x0 * x0, alpha - 2 * c * x0, c])
    jets = fixed_point_jets(psi, x0, 6)
    assert len(jets) == 6 and jets[0].exact[1] == alpha
    for m in range(1, 7):
        assert jets[m - 1].exact == jet_of_polynomial(iterate(psi, m), x0, 6).exact


taylor = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=2, max_size=5
)


@given(taylor, taylor, st.integers(min_value=0, max_value=16), st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_sparse_outer_jets_match_the_partition_sum(outer, inner, order, flat_outer, flat_inner):
    # polynomials of degree <= 4 given by their Taylor coefficients at the
    # point, so f'(y0) = 0 and g'(x0) = 0 are drawn on purpose
    outer[1] *= not flat_outer
    inner[1] *= not flat_inner
    x0 = Fraction(1, 3)
    g = Polynomial.of(inner).compose(Polynomial.of([-x0, 1]))
    y0 = g(x0)
    f = Polynomial.of(outer).compose(Polynomial.of([-y0, 1]))
    fj, gj = jet_of_polynomial(f, y0, order), jet_of_polynomial(g, x0, order)
    assert compose_jet(fj, gj, order).exact == compose_jet_partitions(fj, gj, order).exact


def test_fixed_point_jets_of_a_quadratic_run_two_horner_steps_per_layer(monkeypatch):
    # each Horner step is one product of integer series cut after t^order
    sizes = []
    mul = polynomials._mul
    monkeypatch.setattr(polynomials, "_mul", lambda a, b, size: sizes.append(size) or mul(a, b, size))
    psi = Polynomial.parse("111/25,-39/10,1")  # fixes 6/5 with multiplier -3/2
    jets = fixed_point_jets(psi, Fraction(6, 5), 12)
    assert len(sizes) == 2 * 11 and max(sizes) == 13
    monkeypatch.setattr(polynomials, "_mul", mul)
    assert jets[4].exact == jet_of_polynomial(iterate(psi, 5), Fraction(6, 5), 12).exact


def _jets_by_compose_jet(psi, x0, order):
    """The compose_jet chain fixed_point_jets is defined by: psi's jet
    composed with that of psi^m, layer by layer."""
    base = jet_of_polynomial(psi, x0, order)
    jets = [base]
    for _ in range(order - 1):
        jets.append(compose_jet(base, jets[-1], order))
    return jets


def _outcome(f, *args):
    try:
        return f(*args)
    except DomainError as exc:
        return (type(exc), str(exc))


@given(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=7), min_size=1, max_size=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=9),
    st.integers(min_value=0, max_value=12),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
@example([Fraction(-3, 2)], Fraction(1, 3), 12, False)  # degree 1
@example([Fraction(2), Fraction(0), Fraction(-1)], Fraction(1, 2), 12, False)  # a cubic
@example([Fraction(2), Fraction(1)], Fraction(1), 12, True)  # not fixed at 2
def test_fixed_point_jets_match_the_compose_jet_chain(taylor, x0, order, moved):
    # psi = x0 + sum of a_k (x - x0)^k, of degree 1 to 3 (0 if every a_k is 0);
    # `moved` asks at a point psi does not fix, which fails from order 2 on
    psi = Polynomial.of([x0] + taylor).compose(Polynomial.of([-x0, 1]))
    at = x0 + 1 if moved and psi(x0 + 1) != x0 + 1 else x0
    got = _outcome(fixed_point_jets, psi, at, order)
    assert got == _outcome(_jets_by_compose_jet, psi, at, order)
    assert isinstance(got, tuple) == (at != x0 and order >= 2)


def test_fixed_point_jets_cubic_and_non_fixed_point():
    cube = Polynomial.parse("0,0,0,1")
    jets = fixed_point_jets(cube, 1, 5)
    for m in range(1, 6):
        assert jets[m - 1].exact == jet_of_polynomial(iterate(cube, m), 1, 5).exact
    with pytest.raises(DomainError, match="not centered"):
        fixed_point_jets(Polynomial.parse("0,0,1"), 2, 3)  # x^2 maps 2 to 4


def test_gaussian_jet_closed_forms():
    g = Gaussian(1.0)
    for u in (0.0, 0.7, -1.3):
        jet = g.jet(u, 2)
        e = math.exp(-u * u)
        assert value(jet, 0) == pytest.approx(e, rel=1e-12)
        assert value(jet, 1) == pytest.approx(-2 * u * e, rel=1e-12, abs=1e-12)
        assert value(jet, 2) == pytest.approx((4 * u * u - 2) * e, rel=1e-12)


def test_gaussian_grid_matches_pointwise():
    g = Gaussian(2.0)
    xs = np.linspace(-3.0, 3.0, 11)
    signs, logs = g.grid_jets(xs, 8)
    for i, x in enumerate(xs):
        jet = g.jet(float(x), 8)
        for n in range(9):
            s, l = jet.entry(n)
            assert signs[n, i] == s
            if s != 0:
                assert logs[n, i] == pytest.approx(l, abs=1e-9)


def test_composed_grid_matches_compose_jet():
    poly = Polynomial.parse("0,1,0,2")  # 2x^3 + x
    model = Composed(Gaussian(1.0), poly)
    xs = np.array([-1.2, 0.3, 0.9])
    signs, logs = model.grid_jets(xs, 12)
    for i, x in enumerate(xs):
        inner = jet_of_polynomial(poly, Fraction(x).limit_denominator(10 ** 12), 12)
        outer = Gaussian(1.0).jet(float(poly(float(x))), 12)
        psi = Jet.from_slogs(float(x), [inner.entry(n) for n in range(13)])
        ref = compose_jet_partitions(outer, psi, 12)
        for n in range(13):
            s, l = ref.entry(n)
            if s != 0 and math.isfinite(l):
                assert signs[n, i] == s
                assert logs[n, i] == pytest.approx(l, rel=1e-10, abs=1e-10)


def test_scaled_translated_jets():
    base = Gaussian(1.0)
    s = Scaled(base, 3.0)
    t = Translated(base, 1.5)
    assert value(s.jet(0.5, 1), 1) == pytest.approx(3.0 * value(base.jet(1.5, 1), 1))
    assert value(t.jet(0.5, 0), 0) == pytest.approx(value(base.jet(2.0, 0), 0))


def test_prescribed_jet():
    f = PrescribedJet.of(1.0, {1: 1})
    jet = f.jet(1.0, 3)
    assert value(jet, 1) == 1.0 and value(jet, 0) == 0.0 and value(jet, 3) == 0.0
    with pytest.raises(DomainError):
        f.jet(2.0, 3)  # only defined at its center
    signs, logs = f.grid_jets(np.array([1.0]), 3)
    assert signs[:, 0].tolist() == [0, 1, 0, 0] and logs[1, 0] == 0.0
    for xs in ([2.0], [1.0, 1.0], [0.0, 1.0, 2.0]):
        with pytest.raises(DomainError, match="its own center"):
            f.grid_jets(np.array(xs), 3)


def test_parse_model():
    assert isinstance(parse_model("gauss:1"), Gaussian)
    m = parse_model("scaled:2:gauss:1")
    assert isinstance(m, Scaled)
    assert value(parse_model("shift:1:gauss:1").jet(0.0, 0), 0) == pytest.approx(
        math.exp(-1.0)
    )


finite = st.floats(allow_nan=False, allow_infinity=False)
any_model = st.recursive(
    st.builds(Gaussian, st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    | st.builds(
        PrescribedJet.of,
        finite,
        st.dictionaries(st.integers(0, 8), st.fractions(max_denominator=50), min_size=1, max_size=3),
    ),
    lambda inner: st.builds(Scaled, inner, finite.filter(lambda rho: rho != 0))
    | st.builds(Translated, inner, finite)
    | st.builds(Composed, inner, st.lists(st.fractions(), min_size=1, max_size=4).map(Polynomial.of)),
    max_leaves=4,
)


@given(any_model)
@settings(max_examples=100, deadline=None)
def test_model_spec_round_trips(m):
    # one number format for every spec: the shortest repr, parsed back exactly
    assert parse_model(m.spec()) == m


def test_composed_inner_values_match_scalar_horner():
    # Composed.grid_jets feeds the base model the row-0 vector Horner values;
    # they must equal the per-point Polynomial.__call__ loop bit for bit.
    from gsdyn.polynomials import iterate
    from gsdyn.seminorms import _grid, default_radius

    polys = ["0,0,1", "1/4,0,1", "0,1,0,2", "-1,0,1", "1/3,-2,0,1"]
    rng = np.random.default_rng(7)
    grids = [_grid(default_radius(Gaussian(1.0), 16), n) for n in (512, 2048)]
    grids.append(rng.uniform(-3.0, 3.0, 4000))
    for spec in polys:
        for m in range(1, 6):
            model = Composed(Gaussian(1.0), iterate(Polynomial.parse(spec), m))
            for xs in grids:
                scalar = np.array([float(model.poly(float(x))) for x in xs])
                vector = model._poly_taylor_rows(xs, 3)[0]
                assert np.array_equal(vector, scalar), (spec, m, len(xs))


def test_composed_float_overflow_is_a_resource_limit():
    # a coefficient past the double range cannot enter the float Horner rows
    model = Composed(Gaussian(1.0), Polynomial.of([0, 10**400]))
    with pytest.raises(ResourceLimitError, match="order 0 overflows a float"):
        model.grid_jets(np.array([0.5]), 4)


def _masked_gaussian_grid(scale, xs, order):
    # reference: the per-row masked Hermite loop that takes each row's sign and
    # log as it goes; also reports whether a renormalization happened
    u = scale * xs
    n_pts = xs.shape[0]
    signs = np.zeros((order + 1, n_pts), dtype=np.int8)
    logs = np.full((order + 1, n_pts), -math.inf)
    renormed = False
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        base = -u * u
        log_scale = math.log(scale)
        signs[0] = 1
        logs[0] = base
        h_prev = np.ones(n_pts)
        h = 2.0 * u
        off = np.zeros(n_pts)
        for n in range(1, order + 1):
            nz = h != 0.0
            signs[n, nz] = (np.sign(h[nz]) * (-1) ** n).astype(np.int8)
            logs[n, nz] = n * log_scale + np.log(np.abs(h[nz])) + off[nz] + base[nz]
            h_prev, h = h, 2.0 * u * h - 2.0 * n * h_prev
            big = np.abs(h) > 1e250
            if big.any() and n < order:
                renormed = True
            h[big] /= 1e250
            h_prev[big] /= 1e250
            off[big] += math.log(1e250)
    return signs, logs, renormed


@pytest.mark.parametrize("order", [0, 1, 2, 17, 128, 256, 512])
@pytest.mark.parametrize("grid", ["search", "wide", "random", "one-point", "extreme"])
def test_gaussian_grid_bit_identical_to_masked_loop(order, grid):
    # whole-table signs and logs reproduce the per-row masked loop to the bit:
    # values, -inf and NaN positions, and the sign bits of NaNs
    from gsdyn.jets import _gaussian_grid
    from gsdyn.seminorms import _grid

    xs = {
        "search": _grid(12.0, 2048),
        "wide": _grid(400.0, 256),
        "random": np.random.default_rng(order).normal(scale=20.0, size=64),
        "one-point": np.array([0.0]),
        "extreme": np.array([1e200, -1e160, math.inf, -math.inf, math.nan, -0.0, 0.0, 1e-300]),
    }[grid]
    for scale in (1e-3, 1.0, 40.0):
        want_signs, want_logs, renormed = _masked_gaussian_grid(scale, xs, order)
        signs, logs = _gaussian_grid(scale, xs, order)
        assert np.array_equal(signs, want_signs)
        assert np.array_equal(logs, want_logs, equal_nan=True)
        assert np.array_equal(np.signbit(logs), np.signbit(want_logs))
        if grid == "wide" and order == 256 and scale == 1.0:
            assert renormed  # the offset rows are exercised
