"""Gelfand-Shilov seminorm evaluation over a finite search set.

The supremum over derivative/monomial orders (j, q) is cut off at j+q <= M.
M doubles from M_INIT while the ring of cells next to the cut (j+q >= M-2)
comes within a factor EPS_TAIL of the best cell; this ring check is a
heuristic, not a tail bound.  The spatial supremum runs over a log-symmetric
grid with golden-section refinement around the incumbents, so it is a lower
bound.  Everything is carried as log-values, and the report states exactly
what finite evidence backs the number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .conjugate import ShiftConstants, _golden_max, lambda_shift_constants, young_conjugate
from .errors import ConfigurationError, DomainError, InconclusiveError
from .jets import Composed, FunctionModel, Gaussian, PrescribedJet, Scaled, Translated
from .weights import Weight

NEG_INF = float("-inf")

M_INIT = 16  # first truncation order of an automatic search
M_CAP = 256  # largest truncation order it may double to
EPS_TAIL = 1e-12  # the ring next to the cut must stay below EPS_TAIL x best
REFINE_STEPS = 90  # golden-section steps per refined cell
REFINE_TOP = 6  # cells refined after the grid search

FAMILIES = ("plainp", "globalp", "expq", "gevreyseq")


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
        if self.family not in FAMILIES:
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

    def index_log_factor(self, j: int, q: int) -> float:
        if self.family in ("plainp", "globalp"):
            return -self.lam * young_conjugate(self.weight, (j + q) / self.lam)
        if self.family == "expq":
            return -self.lam * young_conjugate(self.weight, j / self.lam)
        return (
            (j + q) * math.log(self.mu)
            - self.s * (math.lgamma(j + 1) + math.lgamma(q + 1))
        )

    def spatial_log(self, x: float, q: int) -> float:
        """log of the spatial factor at one point: one entry of spatial_log_rows."""
        if self.family == "expq":
            return self.mu * self.weight(abs(x))
        if self.family == "globalp":
            return q * math.log1p(abs(x))
        if q == 0:
            return 0.0
        if x == 0.0:
            return NEG_INF
        return q * math.log(abs(x))

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


def truncation_order(
    w: Weight,
    lam: float,
    bound_p_mu: float,
    eps: float,
    constants: Optional[ShiftConstants] = None,
) -> int:
    """Smallest M with D A^-M bound <= eps, via the parameter-shift constants."""
    if not (math.isfinite(bound_p_mu) and bound_p_mu > 0):
        raise DomainError("truncation needs a finite positive p_mu bound")
    if eps <= 0:
        raise DomainError("truncation needs eps > 0")
    sc = constants if constants is not None else lambda_shift_constants(w, lam)
    target = math.log(sc.D) + math.log(bound_p_mu) - math.log(eps)
    if target <= 0:
        return 0
    return int(math.ceil(target / math.log(sc.A) - 1e-12))


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


@dataclass
class _Cell:
    j: int
    q: int
    log_value: float
    x: float
    x_index: int


def _grid_cells(model: FunctionModel, spec: SeminormSpec, xs: np.ndarray, m: int) -> List[_Cell]:
    """The best grid point of every cell j+q <= m (q = 0 only for expq).

    A vanishing cell reports the middle of the grid: 0.0 on the symmetric
    search grid, the center for a prescribed jet's one-point grid.
    """
    _, jlogs = model.grid_jets(xs, m)
    spatial = spec.spatial_log_rows(xs, m if spec.uses_q else 0)
    middle = float(xs[len(xs) // 2])
    cells: List[_Cell] = []
    for j in range(m + 1):
        for q in range(m - j + 1 if spec.uses_q else 1):
            vals = jlogs[j] + spatial[q]
            i = int(np.argmax(vals))
            top = float(vals[i])
            if top == NEG_INF:
                cells.append(_Cell(j, q, NEG_INF, middle, i))
            else:
                cells.append(_Cell(j, q, top + spec.index_log_factor(j, q), float(xs[i]), i))
    return cells


def _refine_cell(model: FunctionModel, spec: SeminormSpec, cell: _Cell, xs: np.ndarray) -> _Cell:
    if cell.log_value == NEG_INF:
        return cell

    def g(x: float) -> float:
        s, l = model.jet(x, cell.j).entry(cell.j)
        return NEG_INF if s == 0 else l + spec.spatial_log(x, cell.q)

    i = cell.x_index
    a, b = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, len(xs) - 1)])
    x_star = _golden_max(g, a, b, REFINE_STEPS)
    refined = g(x_star) + spec.index_log_factor(cell.j, cell.q)
    if refined > cell.log_value:
        return _Cell(cell.j, cell.q, refined, x_star, cell.x_index)
    return cell


def _cell_order(c: _Cell) -> Tuple[float, int, int]:
    # descending value; ties to smallest j+q, then smallest j
    return (-c.log_value, c.j + c.q, c.j)


def _report(
    cells: List[_Cell], m: int, radius: float, certificates: Dict[str, object]
) -> AttainmentReport:
    """Report the first of the sorted cells; each (j, q) occurs once, so the
    runner-up is the second."""
    best = cells[0]
    runner = cells[1] if len(cells) > 1 else None
    return AttainmentReport(
        log_value=best.log_value,
        j=best.j,
        q=best.q,
        x=best.x,
        truncation_m=m,
        radius=radius,
        runner_up=None if runner is None else (runner.j, runner.q, runner.x, runner.log_value),
        gap=NEG_INF if runner is None else best.log_value - runner.log_value,
        certificates=certificates,
    )


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
        cells = sorted(_grid_cells(model, spec, np.array([model.center]), m), key=_cell_order)
        return _report(cells, m, 0.0, {"kind": "prescribed-jet", "center": model.center})
    m = search.m if search.m is not None else M_INIT
    radius = search.radius
    while True:
        r = radius if radius is not None else default_radius(model, m)
        xs = _grid(r, search.points)
        cells = sorted(_grid_cells(model, spec, xs, m), key=_cell_order)
        best = cells[0]
        if best.log_value == NEG_INF:
            raise InconclusiveError("seminorm vanished on the whole search set")
        # spatial check: argmax strictly inside the grid
        if abs(best.x) > 0.98 * r:
            if search.radius is not None or r > 1e6:
                raise InconclusiveError("spatial argmax on the grid edge at |x|=%g" % r)
            radius = 2.0 * r
            continue
        # ring check: cells next to the cut are negligible (expq cells have q = 0)
        boundary = max(c.log_value for c in cells if c.j + c.q >= m - 2)
        if boundary > best.log_value + math.log(EPS_TAIL):
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
        top = [_refine_cell(model, spec, c, xs) for c in cells[:REFINE_TOP]]
        cells = sorted(top, key=_cell_order) + cells[REFINE_TOP:]
    return _report(
        cells,
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
    xs = _grid(r, search.points)
    out = np.full((m + 1, m + 1), NEG_INF)
    for c in _grid_cells(model, spec, xs, m):
        if search.refine:
            c = _refine_cell(model, spec, c, xs)
        out[c.j, c.q] = c.log_value
    return out
