"""Growth experiments that make each operator-theoretic verdict computable.

Every witness produces a finite series of log-values plus a classification
(constant / bounded / at-most-geometric / super-geometric / inconclusive)
whose window and thresholds are part of the report.  The verdicts are the
machine-checkable stand-ins for (m-)topologizability statements.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from .conjugate import young_conjugate
from .errors import (
    DomainError,
    InconclusiveError,
    ResourceLimitError,
    VerificationError,
)
from .jets import (
    Composed,
    FunctionModel,
    Gaussian,
    Jet,
    Scaled,
    Translated,
    compose_jet,
    fixed_point_jets,
)
from .polynomials import Polynomial, iterate
from .seminorms import SearchSpec, SeminormSpec, attainment_matrix, eval_seminorm
from .weights import Gevrey, RootComposed, Weight, check_condition

LOG2 = math.log(2.0)
NEG_INF = float("-inf")

DEG2_SEARCH = SearchSpec(points=512, radius=6.0)  # the deg >= 2 numerators
DELTA_SCAN_CAP = 100000  # largest j the dilation-delta scan may reach
JET_CHECK_MAX = 12  # largest m the repelling and square jet paths cross-check
ETA_GRID = np.linspace(-6.0, 6.0, 25)  # frequencies of the Fourier check
FOURIER_POINT_CAP = 100000  # most trapezoid nodes the Fourier check may use
LOG_SCALE_CAP = 700.0  # largest |log| of the dilation factor |a|^m and of rho (double range)


# --------------------------------------------------------------------------
# growth classification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthPoint:
    index: int
    log_value: float
    log_ratio: Optional[float]  # None on the first point


@dataclass(frozen=True)
class GrowthSeries:
    points: Tuple[GrowthPoint, ...]
    classification: str
    rate: Optional[float]  # only for at-most-geometric
    window: int
    details: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def classify_growth(
    values: List[Tuple[int, float]],
    details: Optional[Dict[str, object]] = None,
) -> GrowthSeries:
    """Classify a finite log-value series by its tail behaviour, over the
    last max(3, n // 2) points (at most n - 1).

    constant: all increments vanish (to 1e-12);
    bounded: tail log-value span < 0.5;
    super-geometric: tail increments strictly increasing, last - first > log 2;
    otherwise at-most-geometric with rate = max tail increment.
    """
    if len(values) < 2:
        raise DomainError("growth classification needs at least two points")
    pts: List[GrowthPoint] = [GrowthPoint(values[0][0], values[0][1], None)]
    for (i0, v0), (i1, v1) in zip(values, values[1:]):
        pts.append(GrowthPoint(i1, v1, v1 - v0))
    n = len(pts)
    w = min(max(3, n // 2), n - 1)
    tail_vals = [p.log_value for p in pts[-w:]]
    tail_ratios = [p.log_ratio for p in pts[-w:]]
    det = dict(details or {})
    det.update({"tail_span": max(tail_vals) - min(tail_vals)})
    if all(abs(p.log_ratio) < 1e-12 for p in pts[1:]):
        cls, rate = "constant", None
    elif max(tail_vals) - min(tail_vals) < 0.5:
        cls, rate = "bounded", None
    else:
        increasing = all(b > a for a, b in zip(tail_ratios, tail_ratios[1:]))
        if increasing and tail_ratios[-1] - tail_ratios[0] > LOG2:
            cls, rate = "supergeometric", None
            det["ratio_gain"] = tail_ratios[-1] - tail_ratios[0]
        else:
            cls, rate = "atmostgeometric", max(tail_ratios)
    return GrowthSeries(tuple(pts), cls, rate, w, det)


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------


def _fit_slope(points: List[GrowthPoint], window: int) -> float:
    tail = points[-window:]
    xs = np.array([p.index for p in tail], dtype=float)
    ys = np.array([p.log_value for p in tail])
    return float(np.polyfit(xs, ys, 1)[0])


# --------------------------------------------------------------------------
# translation: C_{x+1} iterates are m-topologizable
# --------------------------------------------------------------------------


def witness_translation(
    w: Weight,
    lam: float,
    mu: float,
    f: FunctionModel,
    m_max: int,
) -> GrowthSeries:
    """Series log q_{w,lam,mu}(f(. + m)) - log q_{w,lam,mu}(f) for m = 0..m_max.

    Expected verdict: at-most-geometric with tail slope <= 1.1 mu L Q, where
    L is condition (alpha)'s constant and Q = sup_{t >= 1} omega(t)/t
    (`w.q_linear()`), both exact formulas of w's family.
    """
    rep = check_condition(w, "alpha")
    if not rep.holds:
        raise DomainError("translation witness needs condition (alpha)")
    big_l = float(rep.constants["L"])
    big_q = w.q_linear()
    spec = SeminormSpec("expq", w, lam=lam, mu=mu)
    base = eval_seminorm(f, spec).log_value
    values: List[Tuple[int, float]] = [(0, 0.0)]
    for m in range(1, m_max + 1):
        v = eval_seminorm(Translated(f, float(m)), spec).log_value
        values.append((m, v - base))
    series = classify_growth(values)
    slope = _fit_slope(list(series.points), series.window)
    det = dict(series.details)
    det.update(
        {
            "L": big_l,
            "Q": big_q,
            "slope_fit": slope,
            "slope_bound": 1.1 * mu * big_l * big_q,
            "slope_ok": slope <= 1.1 * mu * big_l * big_q,
        }
    )
    return replace(series, details=det)


# --------------------------------------------------------------------------
# rho-construction: forcing attainment into j - q >= m
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RhoConstruction:
    rho: float
    dominance: int
    direction: str  # "derivative" | "polynomial"
    model: FunctionModel
    attainment: Tuple[int, int, float]  # (j, q, x) of the verification run
    truncation_m: int
    log_rho: float
    log_value: float  # p_lam(model), the value of the verification run


def rho_construction(
    f: FunctionModel,
    w: Weight,
    lam: float,
    m: int,
    direction: str = "derivative",
) -> RhoConstruction:
    """Scale f so the p_lam attainment satisfies j - q >= m (or mirrored).

    The cutoff M is the smallest index such that every diagonal shell
    j + q >= M stays below half the minimum of the (m+1)-box around the
    origin; rho is then 1.05 x the largest of the consecutive-entry ratios
    a_{q+k,q}/a_{q+k+1,q} (q <= M, k up to m) and of max a_{r,l}/a_{1,0}.
    Scaling by rho boosts cells by rho^(j-q), so larger j - q dominates.
    """
    if direction not in ("derivative", "polynomial"):
        raise DomainError("unknown rho-construction direction %r" % (direction,))
    if m < 0:
        raise DomainError("dominance order must be >= 0")
    spec = SeminormSpec("plainp", w, lam=lam)
    if m == 0:
        base = eval_seminorm(f, spec)
        if base.j >= base.q if direction == "derivative" else base.q >= base.j:
            return RhoConstruction(
                1.0, 0, direction, f, (base.j, base.q, base.x), base.truncation_m, 0.0,
                base.log_value,
            )
    cheap = SearchSpec(refine=False)
    m0 = m + 1
    trunc = 4 * m0 + 16
    while True:
        mat = attainment_matrix(f, spec, trunc, cheap)
        if direction == "polynomial":
            mat = mat.T
        box = mat[: m0 + 1, : m0 + 1]
        if not np.all(np.isfinite(box)):
            raise VerificationError("attainment matrix vanishes inside the box")
        j, q = np.indices(mat.shape)
        shell = np.full(2 * trunc + 1, NEG_INF)  # shell[n] = max of the entries j + q = n
        np.maximum.at(shell, (j + q).ravel(), mat.ravel())
        tail = np.maximum.accumulate(shell[trunc::-1])[::-1]  # tail[n] = max of shells >= n
        quiet = np.flatnonzero(tail[1:] <= float(np.min(box)) - math.log(2.0))
        big_m = int(quiet[0]) + 1 if len(quiet) else None
        if big_m is not None and 2 * big_m + m + 1 <= trunc:
            break
        trunc *= 2
        if trunc > 4096:
            raise ResourceLimitError("no truncation certifies the entry decay")
    anchor = mat[1, 0]
    if not math.isfinite(anchor):
        raise VerificationError("anchor entry a_{1,0} vanished")
    # a_{j,q} / a_{j+1,q} for q <= M, j <= q + m, and a_{j,q} / a_{1,0} for j, q <= M
    a0, a1 = mat[:-1], mat[1:]
    consecutive = (q[:-1] <= big_m) & (j[:-1] <= q[:-1] + m) & np.isfinite(a0) & np.isfinite(a1)
    boxed = (j <= big_m) & (q <= big_m) & np.isfinite(mat)
    log_ratio = max(np.max(a0[consecutive] - a1[consecutive]), np.max(mat[boxed] - anchor))
    log_rho = float(max(math.log(1.05) + log_ratio, math.log(1.05)))
    if log_rho > LOG_SCALE_CAP:
        raise ResourceLimitError("rho-construction: rho = e^%g is past e^%g" % (log_rho, LOG_SCALE_CAP))
    rho = math.exp(log_rho)
    g: FunctionModel = Scaled(f, rho if direction == "derivative" else 1.0 / rho)
    check = eval_seminorm(g, spec)
    diff = check.j - check.q if direction == "derivative" else check.q - check.j
    if diff < m:
        raise VerificationError(
            "rho-construction attainment (j=%d, q=%d) misses dominance %d"
            % (check.j, check.q, m)
        )
    return RhoConstruction(
        rho, m, direction, g, (check.j, check.q, check.x), check.truncation_m, log_rho,
        check.log_value,
    )


# --------------------------------------------------------------------------
# dilation blow-up: C_{ax}, |a| > 1, iterates not topologizable
# --------------------------------------------------------------------------


def witness_dilation_blowup(
    w: Weight,
    a: float,
    k: float,
    h: float,
    m: int,
    ell_max: int,
) -> GrowthSeries:
    """Series over ell of log p_k(g_ell(a^m .)) - log p_h(g_ell), where g_ell
    is rho-constructed so its p_h attainment has j - q >= ell.

    The (j, q) cell of p_k(g(a^m .)) is the (j, q) cell of p_h(g) times
    |a|^(m(j - q)) exp(h phi*(n/h) - k phi*(n/k)), n = j + q; the recorded
    lower bound is the log of that factor at the p_h attainment.  For
    Gevrey(d) the exponential is (k/h)^(d n), so the factor is
    (|a|^m (k/h)^d)^j (|a|^-m (k/h)^d)^q and the series is governed by the
    crossover m* = d log(h/k) / log|a|:

    - m <= m*: continuity bound, every cell factor is <= 1, so every value
      is <= 0 (and 0 exactly at m = m* when the attainment has q = 0);
    - m > m*: the q = 0 cells gain exp((m - m*) j log|a|) and the
      construction forces j - q >= ell, so the series is unbounded in ell,
      growing about linearly in log.

    m* is finite for every h, so no single h serves all iterates m: that is
    the non-topologizability of (C_{ax}^m) for |a| > 1.  a = +-1
    short-circuits to a constant series after checking seminorm invariance
    under the reflection.
    """
    if a == 0 or not math.isfinite(a):
        raise DomainError("dilation witness needs a finite a != 0")
    if k > h:
        raise DomainError("dilation witness needs k <= h")
    spec_k = SeminormSpec("plainp", w, lam=k)
    spec_h = SeminormSpec("plainp", w, lam=h)
    if abs(a) == 1.0:
        f = Gaussian(1.0)
        v_id = eval_seminorm(f, spec_k).log_value
        v_ref = eval_seminorm(Scaled(f, a ** m), spec_k).log_value
        if abs(v_ref - v_id) > 1e-12 * max(1.0, abs(v_id)):
            raise VerificationError(
                "seminorm not invariant under x -> %gx (gap %g)" % (a, v_ref - v_id)
            )
        values = [(ell, 0.0) for ell in range(1, ell_max + 1)]
        series = classify_growth(values, details={"a": a, "invariance_gap": v_ref - v_id})
        return series
    log_scale = m * math.log(abs(a))
    if abs(log_scale) > LOG_SCALE_CAP:
        raise ResourceLimitError(
            "dilation factor |a|^m = e^%g is outside e^(+-%g)" % (log_scale, LOG_SCALE_CAP)
        )
    f = Gaussian(1.0)
    scale = a ** m
    values = []
    lower_bounds_ok = []
    gaps: List[int] = []
    log_rhos: List[float] = []
    for ell in range(1, ell_max + 1):
        rc = rho_construction(f, w, h, ell, "derivative")
        num = eval_seminorm(Scaled(rc.model, scale), spec_k)
        v = num.log_value - rc.log_value
        values.append((ell, v))
        jb, qb, _ = rc.attainment  # the p_h attainment of g_ell
        gaps.append(jb - qb)
        log_rhos.append(rc.log_rho)
        # analytic lower bound: the cell factor at the p_h attainment
        n = jb + qb
        wf_gap = float(spec_k.log_factors(n)[jb, qb] - spec_h.log_factors(n)[jb, qb])
        lb = m * (jb - qb) * math.log(abs(a)) + wf_gap
        lower_bounds_ok.append(v >= lb - 1e-9 * max(1.0, abs(lb)))
    return classify_growth(
        values,
        details={
            "a": a,
            "m": m,
            "k": k,
            "h": h,
            "lower_bound_ok": all(lower_bounds_ok),
            "attainment_gaps": gaps,
            "log_rho": log_rhos,
        },
    )


# --------------------------------------------------------------------------
# repelling fixed point: super-geometric growth at |psi'(x0)| > 1
# --------------------------------------------------------------------------


def repelling_constants(d: float, lam: float) -> Tuple[float, float]:
    """log A_{lam,d} with A = (lam e/(2d))^(2d), and log B with B = (d/e)^d."""
    log_a = 2.0 * d * (math.log(lam) + 1.0 - math.log(2.0 * d))
    log_b = d * (math.log(d) - 1.0)
    return log_a, log_b


def witness_repelling(
    psi: Polynomial,
    x0,
    d: float,
    lam: float,
    m_max: int,
) -> GrowthSeries:
    """Closed-form series L_m = m^2 log alpha + m log(AB) - m d log(m log m),
    cross-checked for m <= JET_CHECK_MAX against a prescribed top-order jet
    composed with the exact jet of psi^m at x0 (`fixed_point_jets`).  That
    entry is f^(m)(x0) psi'(x0)^(m^2), so its sign is checked exactly too.

    alpha = 1 (neutral point) runs but is classified inconclusive by policy.
    """
    try:
        x0 = Fraction(x0)
    except (ValueError, ZeroDivisionError):
        raise DomainError("x0 must be a rational literal, got %r" % (x0,)) from None
    if psi(x0) != x0:
        raise DomainError("x0 is not a fixed point of psi")
    if not (1 < d < math.inf and 0 < lam < math.inf) or m_max < 3:
        raise DomainError("repelling witness needs finite d > 1, lam > 0 and m_max >= 3")
    multiplier = psi.derivative()(x0)
    alpha = abs(multiplier)
    if alpha < 1:
        raise DomainError("fixed point is attracting (|psi'(x0)| = %s)" % (alpha,))
    neutral = alpha == 1
    log_alpha = math.log(float(alpha)) if not neutral else 0.0
    log_a, log_b = repelling_constants(d, lam)
    sigma = Gevrey(2.0 * d)
    values: List[Tuple[int, float]] = []
    for m in range(2, m_max + 1):
        lm = (
            m * m * log_alpha
            + m * (log_a + log_b)
            - m * d * math.log(m * math.log(m))
        )
        values.append((m, lm))
    # dual path: prescribed top-order jet pushed through the exact jet of psi^m
    jet_err = 0.0
    m_hi = min(m_max, JET_CHECK_MAX)
    psi_jets = fixed_point_jets(psi, x0, m_hi)
    for m in range(2, m_hi + 1):
        entry_log = m * log_b + m * d * math.log(m / math.log(m))
        entries = [(0, NEG_INF)] * m + [(1, entry_log)]
        fjet = Jet.from_slogs(float(x0), entries)
        comp = compose_jet(fjet, psi_jets[m - 1], m)
        s, l = comp.entry(m)
        if s != (-1 if multiplier < 0 and m % 2 else 1):  # the sign of psi'(x0)^(m^2)
            raise VerificationError("jet path lost the sign at m = %d" % m)
        jet_lm = l - lam * young_conjugate(sigma, m / lam)
        closed = values[m - 2][1]
        jet_err = max(jet_err, abs(jet_lm - closed) / max(1.0, abs(closed)))
    series = classify_growth(
        values,
        details={
            "alpha": float(alpha),
            "d": d,
            "lam": lam,
            "jet_check_max": m_hi,
            "jet_rel_err": jet_err,
        },
    )
    if neutral:
        return replace(series, classification="inconclusive")
    return series


# --------------------------------------------------------------------------
# square map: C_{x^2} iterates not m-topologizable on Sigma_s
# --------------------------------------------------------------------------


def falling_factorial_2m(m: int, j: int) -> int:
    """2^m (2^m - 1) ... (2^m - j + 1), exactly."""
    return math.perm(1 << m, j)


def _square_chain_holds(m: int) -> bool:
    """Whether 2^m (2^m - 1) ... (2^m - m + 1) >= (2^m - m + 1)^m >= 2^(m^2/2),
    checked on integers of about 2m bits: the first link factor by factor (each
    of the m factors is at least 2^m - m + 1 > 0), the second in its m-th-root
    form (2^m - m + 1)^2 >= 2^m, which is equivalent for positive integers."""
    top = 1 << m
    low = top - m + 1
    return low > 0 and all(top - i >= low for i in range(m)) and low * low >= top


def witness_square(s: float, lam: float, m_max: int) -> GrowthSeries:
    """Lower-bound series log [2^(m^2/2) (lam e/(2sm))^(2sm)] for psi = x^2.

    The falling-factorial derivatives (x^(2^m))^(j)(1), j <= m, come out of
    exact jet composition at the fixed point 1 for m <= JET_CHECK_MAX; the
    chain 2^m...(2^m-m+1) >= (2^m-m+1)^m >= 2^(m^2/2) is verified exactly for
    m = 2..200 on small integers (_square_chain_holds); the divergence scan
    2^(m/2)/m^(2s) is reported with its first crossing above 1.
    """
    if not (1 < s < math.inf and 0 < lam < math.inf) or m_max < 6:
        raise DomainError("square witness needs finite s > 1, lam > 0 and m_max >= 6")
    m_hi = min(m_max, JET_CHECK_MAX)
    x2_jets = fixed_point_jets(Polynomial.of([0, 0, 1]), 1, m_hi)
    jet_exact = all(
        x2_jets[m - 1].exact[j] == falling_factorial_2m(m, j)
        for m in range(2, m_hi + 1)
        for j in range(1, m + 1)
    )
    chain_ok = all(_square_chain_holds(m) for m in range(2, 201))
    sigma = Gevrey(2.0 * s)
    values: List[Tuple[int, float]] = []
    for m in range(2, m_max + 1):
        lm = 0.5 * m * m * LOG2 - lam * young_conjugate(sigma, m / lam)
        values.append((m, lm))
    # divergence sequence 2^(m/2) / m^(2s), in log form
    div = [0.5 * m * LOG2 - 2.0 * s * math.log(m) for m in range(1, max(m_max, 60) + 1)]
    increasing_from = 2
    for m in range(len(div), 1, -1):
        if div[m - 1] <= div[m - 2]:
            increasing_from = m + 1
            break
    # first crossing above 1 past the dip (m = 1 is above 1 trivially)
    crossing = next(
        (m for m, v in enumerate(div, start=1) if m >= increasing_from and v > 0), None
    )
    return classify_growth(
        values,
        details={
            "s": s,
            "lam": lam,
            "jet_falling_factorials_exact": jet_exact,
            "inequality_chain_ok": chain_ok,
            "divergence_increasing_from": increasing_from,
            "divergence_first_above_one": crossing,
        },
    )


# --------------------------------------------------------------------------
# degree >= 2 topologizability: sigma = omega(.^(1/a)), a > 2
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Deg2Row:
    m: int
    log_ratio: float
    j: int
    q: int
    x: float
    truncation_m: int


@dataclass(frozen=True)
class Deg2Report:
    mu: float
    sigma_spec: str
    rows: Tuple[Deg2Row, ...]
    all_finite: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "mu": self.mu,
            "sigma": self.sigma_spec,
            "rows": [
                {
                    "m": r.m,
                    "log_ratio": r.log_ratio,
                    "arg": {"j": r.j, "q": r.q, "x": r.x},
                    "truncation_m": r.truncation_m,
                }
                for r in self.rows
            ],
            "all_finite": self.all_finite,
        }


def witness_deg2_topologizable(
    w: Weight,
    a: float,
    psi: Polynomial,
    lam: float,
    m_max: int,
) -> Deg2Report:
    """M_m = log [p_{sigma,lam}(f o psi_m) / p_{w,mu}(f)] for f = Gaussian.

    mu = 2 lam is fixed once, before the m loop: topologizability is exactly
    the statement that the source seminorm does not depend on the iterate.
    """
    if a <= 2:
        raise DomainError("this construction needs a > 2")
    if m_max < 1:
        raise DomainError("deg2 witness needs m_max >= 1")
    if psi.degree < 2:
        raise DomainError("this witness is for deg(psi) >= 2")
    if not check_condition(w, "subadditive").holds:
        raise DomainError("weight must be sub-additive for the deg >= 2 construction")
    mu = 2.0 * lam
    sigma = RootComposed(w, a)
    f = Gaussian(1.0)
    den = eval_seminorm(f, SeminormSpec("plainp", w, lam=mu))
    spec_num = SeminormSpec("plainp", sigma, lam=lam)
    rows: List[Deg2Row] = []
    finite = True
    for m in range(1, m_max + 1):
        num = eval_seminorm(Composed(f, iterate(psi, m)), spec_num, DEG2_SEARCH)
        val = num.log_value - den.log_value
        if not math.isfinite(val):
            finite = False
        rows.append(Deg2Row(m, val, num.j, num.q, num.x, num.truncation_m))
    return Deg2Report(mu, sigma.spec(), tuple(rows), finite)


# --------------------------------------------------------------------------
# dilation-delta bound: |a|^(mj) <= D exp(lam phi*(delta j / lam))
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DilationDelta:
    d: float
    log_d: float
    j_star: int
    scanned: int


def witness_dilation_delta(w: Weight, a: float, delta: float, lam: float, m: int) -> DilationDelta:
    """D = max_j |a|^(mj) exp(-lam phi*(delta j / lam)), with its maximizer.

    |a| < 1 is folded onto |a|^(-1) (the symmetry j -> -j of the bound); |a| = 1
    degenerates to the j = 0 term."""
    if a == 0 or not math.isfinite(a):
        raise DomainError("dilation-delta needs a finite a != 0")
    if not (0 < delta < math.inf and 0 < lam < math.inf) or m < 1:
        raise DomainError("dilation-delta needs finite delta, lam > 0 and m >= 1")
    a_eff = abs(a) if abs(a) >= 1 else 1.0 / abs(a)
    log_a = math.log(a_eff)
    best, j_star = NEG_INF, 0
    below = 0
    j = 0
    while j <= DELTA_SCAN_CAP:
        term = m * j * log_a - lam * young_conjugate(w, delta * j / lam)
        if term > best:
            best, j_star = term, j
            below = 0
        else:
            below += 1
            if below >= 20:
                return DilationDelta(math.exp(best), best, j_star, j)
        j += 1
    raise InconclusiveError("no interior maximizer within %d terms" % DELTA_SCAN_CAP)


# --------------------------------------------------------------------------
# Fourier scaling identity
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FourierReport:
    b: float
    max_error: float
    eta_count: int


def fourier_scaling_check(f: FunctionModel, b: float) -> FourierReport:
    """Quadrature check of F(f(b.))(eta) = (1/|b|) (Ff)(eta/b).

    For the Gaussian base the right side is also matched against the closed
    transform sqrt(pi)/scale * exp(-eta^2/(4 scale^2))."""
    if b == 0 or not math.isfinite(b):
        raise DomainError("Fourier scaling needs a finite b != 0")
    if not isinstance(f, Gaussian):
        raise DomainError("the quadrature check is wired for the Gaussian model")
    s = f.scale
    sb = s * abs(b)
    if sb * sb == math.inf:  # the closed transform divides by (s b)^2
        raise ResourceLimitError("the Fourier check's closed transform overflows at scale*|b| = %g" % sb)

    def transform(scale: float, etas: np.ndarray) -> np.ndarray:
        # trapezoid rule on a uniform grid: exponentially accurate for a
        # Gaussian times cos (Trefethen & Weideman 2014, SIAM Rev. 56).  In
        # y = scale x its error is the transform e^(-k^2/4) at the alias
        # k = 2 pi/(scale h) - |eta|/scale, so the step keeps k >= 12
        lim = 10.0 / scale
        k_max = float(np.max(np.abs(etas))) / scale + 12.0
        points = math.ceil(2.0 * lim * scale * k_max / (2.0 * math.pi)) + 1
        if points > FOURIER_POINT_CAP:
            raise ResourceLimitError(
                "the Fourier check needs %d trapezoid nodes (cap %d); raise scale*|b|"
                % (points, FOURIER_POINT_CAP)
            )
        x, h = np.linspace(-lim, lim, points, retstep=True)
        vals = np.exp(-((scale * x) ** 2)) * np.cos(np.outer(etas, x))
        return np.trapezoid(vals, dx=h, axis=1)

    lhs = transform(sb, ETA_GRID)
    rhs = transform(s, ETA_GRID / b) / abs(b)
    closed = math.sqrt(math.pi) / sb * np.exp(-(ETA_GRID ** 2) / (4.0 * (s * b) ** 2))
    err = float(np.max(np.abs([lhs - rhs, lhs - closed])))
    return FourierReport(b, err, len(ETA_GRID))
