"""Gelfand-Shilov seminorm evaluation over a finite search set.

The supremum over derivative/monomial orders (j, q) is cut off at j+q <= M.
M doubles from M_INIT while the ring of cells next to the cut (j+q >= M-2)
comes within a factor EPS_TAIL of the best cell; this ring check is a
heuristic, not a tail bound.  A cell (j, q) is its best point on a
log-symmetric grid, times its index factor.  A search makes exact only the
cells it reads, its REFINE_TOP best and the best of the ring; every other cell
of its (M+1) x (M+1) table is proven smaller by a chunk bound and left -inf.
Attainment matrices fill every cell.  When every row of the jet and spatial
tables is its own mirror image, only the grid's middle column and those before
it are searched; this is exact, since a maximum past the middle has an equal,
earlier one at its mirror column.
A safeguarded Newton iteration on the log-derivative then refines the
leading cells of that table in lockstep, on the order-(j+2) jets of the same
grid_jets evaluation: each cell stops on its own once its Newton step is a few
ulps, no point left in its bracket can raise its value past rounding, or its
bracket has collapsed (64 probe rounds at most).  The spatial supremum is
therefore a lower bound.  A NaN jet is refused with ResourceLimitError.
Everything is carried as log-values, and the report states exactly what
finite evidence backs the number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .conjugate import young_conjugate
from .errors import ConfigurationError, DomainError, InconclusiveError, ResourceLimitError
from .jets import Composed, FunctionModel, Gaussian, PrescribedJet, Scaled, Translated
from .jets import _check_order, _check_table
from .weights import FAMILY_PARAMS, Weight

NEG_INF = float("-inf")
_EPS = float(np.finfo(float).eps)

M_INIT = 16  # first truncation order of an automatic search
M_CAP = 256  # largest truncation order it may double to
EPS_TAIL = 1e-12  # the ring next to the cut must stay below EPS_TAIL x best
REFINE_ROUNDS = 64  # probe rounds per refinement at most; bisection alone reaches ulps in ~50
REFINE_TOP = 6  # cells refined after the grid search
CHUNK = 32  # grid columns per chunk of a cell bound, and most cells per evaluated batch


@dataclass(frozen=True)
class SeminormSpec:
    """One of the seminorm families.

    plainp:    sup |x|^q |f^(j)(x)| exp(-lam phi*((j+q)/lam))
    globalp:   sup (1+|x|)^q |f^(j)(x)| exp(-lam phi*((j+q)/lam))
    expq:      sup |f^(j)(x)| exp(-lam phi*(j/lam)) exp(mu omega(|x|))
    gevreyseq: sup |x|^q |f^(j)(x)| mu^(j+q) / (j!^s q!^s)
    """

    family: str
    weight: Optional[Weight] = None
    lam: float = 1.0
    mu: float = 1.0
    s: float = 2.0

    def __post_init__(self):
        if self.family not in FAMILY_PARAMS:
            raise ConfigurationError("unknown seminorm family %r" % (self.family,))
        if self.family != "gevreyseq" and self.weight is None:
            raise ConfigurationError("family %r needs a weight" % (self.family,))
        if not all(map(math.isfinite, (self.lam, self.mu, self.s))):
            raise ConfigurationError("seminorm parameters lam, mu, s must be finite")
        if self.lam <= 0 or self.mu <= 0:
            raise ConfigurationError("seminorm parameters lam, mu must be > 0")
        if self.family == "gevreyseq" and self.s <= 1:
            raise ConfigurationError("gevreyseq needs s > 1")

    @property
    def uses_q(self) -> bool:
        return self.family != "expq"

    def _label(self) -> str:
        return "%s seminorm of %s at lam=%r" % (self.family, self.weight.spec(), self.lam)

    def log_factors(self, m: int) -> np.ndarray:
        """table[j, q] = log of the index factor for j+q <= m (expq: q = 0 only),
        -inf elsewhere; one Young conjugate per order n <= m (jet-order cap first)."""
        _check_order(m)
        j, q = np.indices((m + 1, m + 1))
        if self.family == "gevreyseq":
            lg = np.array([math.lgamma(i + 1) for i in range(m + 1)])
            table = (j + q) * math.log(self.mu) - self.s * (lg[:, None] + lg[None, :])
        else:
            if not m / self.lam < math.inf:  # n / lam grows with n, so this checks every order
                raise DomainError("%s: order %d / lam is past the double range" % (self._label(), m))
            try:
                conj = np.array([young_conjugate(self.weight, n / self.lam) for n in range(m + 1)])
            except ResourceLimitError as exc:
                raise ResourceLimitError("%s: %s" % (self._label(), exc)) from None
            table = -self.lam * conj[j if self.family == "expq" else np.minimum(j + q, m)]
        return np.where(q == 0 if self.family == "expq" else j + q <= m, table, NEG_INF)

    def spatial_log_rows(self, xs: np.ndarray, m_max: int) -> np.ndarray:
        """rows[q] = log of the spatial factor at power q (expq: single row)."""
        ax = np.abs(xs)
        if self.family == "expq":
            return self.mu * np.array([self.weight(float(a)) for a in ax])[None, :]
        if self.family == "globalp":
            base = np.log1p(ax)
        else:
            with np.errstate(divide="ignore"):
                base = np.log(ax)
        with np.errstate(invalid="ignore"):
            rows = np.arange(m_max + 1)[:, None] * base[None, :]
        rows[np.isnan(rows)] = 0.0  # 0 * log 0 at the origin, q = 0 row
        return rows

    def spatial_log_slopes(self, xs: np.ndarray, qs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """First and second x-derivatives of row qs[k] of spatial_log_rows at xs[k].

        The origin reads as flat (both 0): every row is flat there or has its
        minimum there (-inf, a kink or a Gevrey cusp), so no maximum sits at 0
        with a slope to follow."""
        ax = np.abs(xs)
        t = np.where(ax > 0, ax, 1.0)
        if self.family == "expq":
            d1, d2 = self.weight.derivatives(t)
            d1, d2 = self.mu * d1, self.mu * d2
        elif self.family == "globalp":
            d1, d2 = qs / (1.0 + t), -qs / (1.0 + t) ** 2
        else:
            d1, d2 = qs / t, -qs / t**2
        return np.where(ax > 0, np.sign(xs) * d1, 0.0), np.where(ax > 0, d2, 0.0)

    def describe(self) -> Dict[str, object]:
        out: Dict[str, object] = {"family": self.family, "lam": self.lam}
        if self.weight is not None:
            out["weight"] = self.weight.spec()
        if self.family == "expq":
            out["mu"] = self.mu
        if self.family == "gevreyseq":
            out["mu"] = self.mu
            out["s"] = self.s
        return out


@dataclass(frozen=True)
class SearchSpec:
    points: int = 2048
    radius: Optional[float] = None
    m: Optional[int] = None
    refine: bool = True

    def __post_init__(self):
        if self.points < 32:
            raise ConfigurationError("spatial grid needs >= 32 points")
        if self.radius is not None and not 0 < self.radius < math.inf:
            raise ConfigurationError("search radius must be finite and > 0, got %r"
                                     % (self.radius,))
        if self.m is not None and self.m < 0:
            raise ConfigurationError("truncation order must be >= 0")


@dataclass(frozen=True)
class AttainmentReport:
    log_value: float
    j: int
    q: int
    x: float
    truncation_m: int
    radius: float
    runner_up: Optional[Tuple[int, int, float, float]]  # (j, q, x, log_value)
    gap: float
    certificates: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        return {
            "log_value": self.log_value,
            "arg": {"j": self.j, "q": self.q, "x": self.x},
            "truncation_m": self.truncation_m,
            "radius": self.radius,
            "runner_up": (
                None
                if self.runner_up is None
                else {
                    "j": self.runner_up[0],
                    "q": self.runner_up[1],
                    "x": self.runner_up[2],
                    "log_value": self.runner_up[3],
                }
            ),
            "gap": self.gap,
            "certificates": self.certificates,
        }


# --------------------------------------------------------------------------
# spatial search helpers
# --------------------------------------------------------------------------


def _model_scale_shift(model: FunctionModel) -> Tuple[float, float]:
    """Effective Gaussian scale and translation margin of a model tree."""
    if isinstance(model, Gaussian):
        return model.scale, 0.0
    if isinstance(model, Scaled):
        s, sh = _model_scale_shift(model.base)
        return s * abs(model.rho), sh / abs(model.rho)
    if isinstance(model, Translated):
        s, sh = _model_scale_shift(model.base)
        return s, sh + abs(model.shift)
    if isinstance(model, Composed):
        # the polynomial only accelerates the decay; unit scale is safe
        return 1.0, 0.0
    raise DomainError("model %r has no spatial extent" % (model,))


def default_radius(model: FunctionModel, m: int) -> float:
    """Grid half-width: the Gaussian tail beats the q <= M monomial factor
    beyond sqrt(M ln 10) in rescaled coordinates."""
    scale, shift = _model_scale_shift(model)
    return (math.sqrt(max(m, 1) * math.log(10.0)) + 5.0) / scale + shift


def _grid(radius: float, points: int) -> np.ndarray:
    half = points // 2
    lo = radius * 1e-7
    pos = np.exp(np.linspace(math.log(lo), math.log(radius), half))
    return np.concatenate([-pos[::-1], [0.0], pos])


# per cell (j, q): log value, argument x and grid index of its best point
Cells = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _grid_cells(
    model: FunctionModel, spec: SeminormSpec, xs: np.ndarray, factors: np.ndarray, top=None
) -> Cells:
    """The best grid point of every cell with a finite factor (the others -inf).

    With `top` set, cells are evaluated in batches by descending chunk bound until
    the next bound is below the `top`-th value, so ties are evaluated; then likewise
    on the ring j+q >= m-2 against its best value.  The others stay -inf, with index
    0.  A vanishing cell reports the middle of the grid: 0.0 on the symmetric search
    grid, the center for a prescribed jet's one-point grid.
    """
    m = len(factors) - 1
    _, jlogs = _jets(model, xs, m)
    spatial = spec.spatial_log_rows(xs, m if spec.uses_q else 0)
    cols = _columns(jlogs, spatial)
    best, idx = np.full(factors.shape, NEG_INF), np.zeros(factors.shape, dtype=np.intp)

    def put(j, q, block):  # row k of block is the cell (j[k], q[k])
        i = np.argmax(block, axis=1)
        idx[j, q] = i
        best[j, q] = block[np.arange(len(i)), i]

    js, qs = np.nonzero(factors > NEG_INF)
    bound = None if top is None else _cell_bounds(jlogs, spatial, cols, factors, js, qs)
    if bound is None:
        for j in range(m + 1):
            block = jlogs[j, :cols] + spatial[: m - j + 1, :cols]  # row q is the cell (j, q)
            put(j, slice(len(block)), block)
    else:
        order, vals = np.argsort(-bound, kind="stable"), np.full(len(js), NEG_INF)
        batch = max(1, min(CHUNK, (m + 1) // 3))  # its three temporaries fit in a row block
        for k, among in ((min(top, len(js)), np.full(len(js), True)), (1, js + qs >= m - 2)):
            cells = order[among[order]]
            for c in (cells[i : i + batch] for i in range(0, len(cells), batch)):
                if bound[c[0]] < np.partition(vals[among], -k)[-k]:
                    break
                put(js[c], qs[c], jlogs[js[c], :cols] + spatial[qs[c], :cols])
                vals[c] = best[js[c], qs[c]] + factors[js[c], qs[c]]
    x = np.where(best == NEG_INF, xs[len(xs) // 2], xs[idx])
    return best + factors, x, idx


def _cell_bounds(jlogs, spatial, cols, factors, js, qs) -> Optional[np.ndarray]:
    """Upper bounds of the cells (js, qs): over chunks of the first cols columns, the
    largest jet plus spatial row chunk maximum, plus the index factor; rounding is
    monotone, so none is below its cell's value.  None if one is NaN or +inf."""
    edges = np.arange(0, cols, CHUNK)
    jmax, smax = (np.maximum.reduceat(t[:, :cols], edges, axis=1).T for t in (jlogs, spatial))
    raw = np.full(factors.shape, NEG_INF)
    buf = np.empty((len(edges), min(CHUNK, len(raw)), smax.shape[1]))  # about a row block
    with np.errstate(invalid="ignore"):
        for j in range(0, len(raw), CHUNK):  # rows j.. and their cells j+q <= m
            n, q = min(CHUNK, len(raw) - j), min(len(raw) - j, smax.shape[1])
            sums = np.add(jmax[:, j : j + n, None], smax[:, None, :q], out=buf[:, :n, :q])
            sums.max(axis=0, out=raw[j : j + n, :q])
        bound = raw[js, qs] + factors[js, qs]
        return bound if (bound < np.inf).all() else None


def _columns(jlogs: np.ndarray, spatial: np.ndarray) -> int:
    """Leading grid columns that hold every row's first maximum: up to the middle
    one if every row of both tables is its own mirror image, else all."""
    half = jlogs.shape[1] // 2
    mirror = all(np.array_equal(t[:, :half], t[:, :half:-1]) for t in (jlogs, spatial))
    return half + 1 if mirror else jlogs.shape[1]


def _rank(vals: np.ndarray, js: np.ndarray, qs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The cells (js, qs) in descending value; ties to smallest j+q, then smallest j."""
    order = np.lexsort((js, js + qs, -vals[js, qs]))
    return js[order], qs[order]


def _jets(model: FunctionModel, xs: np.ndarray, order: int) -> Tuple[np.ndarray, np.ndarray]:
    """model.grid_jets, refusing NaN logs (a jet past the model's float range)."""
    signs, logs = model.grid_jets(xs, order)
    bad = np.isnan(logs).any(axis=1)
    if bad.any():
        raise ResourceLimitError(
            "jets of %s are NaN from order %d on this grid" % (model.label(), int(np.argmax(bad)))
        )
    return signs, logs


def _refine_cells(
    model: FunctionModel, spec: SeminormSpec, cells: Cells, factors: np.ndarray, xs, js, qs
) -> None:
    """Safeguarded Newton refinement of the cells (js, qs) in lockstep, one lane
    per cell, each on L'(x) = 0 with L = log|f^(j)| + S_q in the bracket of the
    grid neighbours of its best point.  Every probe round is one grid_jets call
    to order j_max+2, one probe per lane, which gives L' and L''.  The bracket
    shrinks by the sign of L'; the next probe is the Newton point when L'' < 0
    and it lies inside the bracket, else the midpoint.  A lane stops when the
    Newton step is within a few ulps of the bracket, no point of the bracket
    can raise L past rounding (|L'| x width, which covers L' = 0 and ends the
    linear convergence at degenerate maxima), or the bracket has collapsed.
    A cell takes its refined point, valued from order-j_max jets, where that
    is better, in place; a vanishing cell stays as is."""
    vals, x, idx = cells
    j_max, q_max, lanes = int(js.max()), int(qs.max()), np.arange(len(js))  # expq: q = 0

    def g(probes: np.ndarray, order: int):
        signs, logs = _jets(model, probes, order)
        spatial = spec.spatial_log_rows(probes, q_max)
        v = np.where(signs[js, lanes] != 0, logs[js, lanes], NEG_INF) + spatial[qs, lanes]
        return signs, logs, v

    i = idx[js, qs]
    lo, hi = xs[np.maximum(i - 1, 0)], xs[np.minimum(i + 1, len(xs) - 1)]
    tol = 4.0 * _EPS * (np.abs(lo) + np.abs(hi))
    probe = xs[i]
    x_star = probe.copy()
    active = vals[js, qs] != NEG_INF
    for _ in range(REFINE_ROUNDS):
        if not active.any():
            break
        signs, logs, level = g(probe, j_max + 2)
        s0, l0 = signs[js, lanes], logs[js, lanes]
        with np.errstate(over="ignore", invalid="ignore"):
            r1 = signs[js + 1, lanes] * s0 * np.exp(logs[js + 1, lanes] - l0)  # f^(j+1)/f^(j)
            r2 = signs[js + 2, lanes] * s0 * np.exp(logs[js + 2, lanes] - l0)  # f^(j+2)/f^(j)
            s1, s2 = spec.spatial_log_slopes(probe, qs)
            d1, d2 = r1 + s1, r2 - r1 * r1 + s2
            step = -d1 / d2
        lo = np.where(active & (d1 > 0), probe, lo)
        hi = np.where(active & (d1 < 0), probe, hi)
        newton = (d2 < 0) & (lo < probe + step) & (probe + step < hi)
        done = active & (
            (level == NEG_INF)
            | np.isnan(d1)
            | ((d2 < 0) & (np.abs(step) <= tol))
            | (np.abs(d1) * (hi - lo) <= 4.0 * _EPS * np.maximum(1.0, np.abs(level)))
            | (hi - lo <= tol)
        )
        nxt = np.where(newton, probe + step, 0.5 * (lo + hi))
        x_star = np.where(done, np.where(newton, nxt, probe), x_star)
        active &= ~done
        probe = np.where(active, nxt, probe)
    x_star = np.where(active, probe, x_star)
    v = g(x_star, j_max)[2] + factors[js, qs]
    better = (vals[js, qs] != NEG_INF) & (v > vals[js, qs])
    vals[js[better], qs[better]] = v[better]
    x[js[better], qs[better]] = x_star[better]


def _report(cells: Cells, js, qs, m: int, radius: float, certificates) -> AttainmentReport:
    """Report the first of the ranked cells (js, qs); the runner-up is the second."""
    vals, args, _ = cells
    (j, q, x, v), *rest = [
        (int(j), int(q), float(args[j, q]), float(vals[j, q])) for j, q in zip(js[:2], qs[:2])
    ]
    runner = rest[0] if rest else None
    gap = NEG_INF if runner is None else v - runner[3]
    return AttainmentReport(v, j, q, x, m, radius, runner, gap, certificates)


def eval_seminorm(
    model: FunctionModel, spec: SeminormSpec, search: SearchSpec = SearchSpec()
) -> AttainmentReport:
    """Maximize the seminorm expression over {j+q <= M} x [-R, R].

    M doubles until the ring j+q >= M-2 next to the cut stays below EPS_TAIL
    times the best cell (in log terms); R doubles while the spatial argmax
    sits on the outer edge of the grid.  A prescribed jet is evaluated at its
    center only, with M its highest prescribed order unless search.m is set.
    """
    if isinstance(model, PrescribedJet):
        if search.radius is not None:
            raise DomainError("prescribed jets only support center evaluation")
        m = search.m if search.m is not None else max((n for n, _ in model.entries), default=0)
        factors = spec.log_factors(m)
        cells = _grid_cells(model, spec, np.array([model.center]), factors)
        js, qs = _rank(cells[0], *np.nonzero(factors > NEG_INF))
        return _report(cells, js, qs, m, 0.0, {"kind": "prescribed-jet", "center": model.center})
    m = search.m if search.m is not None else M_INIT
    radius = search.radius
    while True:
        r = radius if radius is not None else default_radius(model, m)
        _check_table(m, search.points)
        xs = _grid(r, search.points)
        factors = spec.log_factors(m)
        cells = _grid_cells(model, spec, xs, factors, REFINE_TOP)
        js, qs = _rank(cells[0], *np.nonzero(factors > NEG_INF))
        vals = cells[0][js, qs]
        if vals[0] == NEG_INF:
            raise InconclusiveError("seminorm vanished on the whole search set")
        # spatial check: argmax strictly inside the grid
        if abs(cells[1][js[0], qs[0]]) > 0.98 * r:
            if search.radius is not None or r > 1e6:
                raise InconclusiveError("spatial argmax on the grid edge at |x|=%g" % r)
            radius = 2.0 * r
            continue
        # ring check: cells next to the cut are negligible (expq cells have q = 0)
        boundary = float(np.max(vals[js + qs >= m - 2]))
        if boundary > vals[0] + math.log(EPS_TAIL):
            if search.m is not None:
                raise InconclusiveError(
                    "attainment too close to the truncation cut j+q <= %d" % m
                )
            if 2 * m > M_CAP:
                raise InconclusiveError(
                    "truncation cap %d reached without a tail certificate" % M_CAP
                )
            m *= 2
            continue
        break
    if search.refine:
        js, qs = js[:REFINE_TOP], qs[:REFINE_TOP]
        _refine_cells(model, spec, cells, factors, xs, js, qs)
        js, qs = _rank(cells[0], js, qs)
    return _report(
        cells,
        js,
        qs,
        m,
        r,
        {
            "boundary_log_max": boundary,
            "tail_eps": EPS_TAIL,
            "grid_points": len(xs),
            "refined": search.refine,
        },
    )


def attainment_matrix(
    model: FunctionModel,
    spec: SeminormSpec,
    m: int,
    search: SearchSpec = SearchSpec(),
) -> np.ndarray:
    """log a_{j,q} for j+q <= m (others -inf); refined per cell if requested."""
    if isinstance(model, PrescribedJet):
        raise DomainError("attainment matrices need a spatial model")
    r = search.radius if search.radius is not None else default_radius(model, m)
    _check_table(m, search.points)
    xs = _grid(r, search.points)
    factors = spec.log_factors(m)
    cells = _grid_cells(model, spec, xs, factors)
    if search.refine:
        _refine_cells(model, spec, cells, factors, xs, *np.nonzero(factors > NEG_INF))
    return cells[0]
