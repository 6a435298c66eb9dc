"""Gelfand-Shilov seminorm evaluation with certified truncation.

The supremum over derivative/monomial orders (j, q) is cut off at j+q <= M
using the parameter-shift tail bound; the spatial supremum runs over a
log-symmetric grid with golden-section refinement around the incumbents.
Everything is carried as log-values, and the report states exactly what
finite evidence backs the number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .conjugate import lambda_shift_constants, young_conjugate, ShiftConstants
from .errors import ConfigurationError, DomainError, InconclusiveError
from .jets import Composed, FunctionModel, Gaussian, PrescribedJet, Scaled, Translated
from .weights import Weight

NEG_INF = float("-inf")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

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
    m_init: int = 16
    m_cap: int = 256
    eps_tail: float = 1e-12
    refine: bool = True
    refine_iters: int = 90
    refine_top: int = 6

    def __post_init__(self):
        if self.points < 32:
            raise ConfigurationError("spatial grid needs >= 32 points")
        if self.eps_tail <= 0 or self.eps_tail >= 1:
            raise ConfigurationError("eps_tail must lie in (0, 1)")
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


def _grid_cells(
    spec: SeminormSpec,
    jlogs: np.ndarray,
    spatial: np.ndarray,
    m: int,
    xs: np.ndarray,
) -> List[_Cell]:
    cells: List[_Cell] = []
    for j in range(m + 1):
        q_hi = 0 if not spec.uses_q else m - j
        row = jlogs[j]
        for q in range(q_hi + 1):
            vals = row + spatial[q if spec.uses_q else 0]
            i = int(np.argmax(vals))
            top = float(vals[i])
            if top == NEG_INF:
                cells.append(_Cell(j, q, NEG_INF, 0.0, i))
                continue
            cells.append(
                _Cell(j, q, top + spec.index_log_factor(j, q), float(xs[i]), i)
            )
    return cells


def _cell_objective(
    model: FunctionModel, spec: SeminormSpec, j: int, q: int
) -> Callable[[float], float]:
    def g(x: float) -> float:
        s, l = model.jet(x, j).entry(j)
        return NEG_INF if s == 0 else l + spec.spatial_log(x, q)

    return g


def _refine_cell(
    model: FunctionModel,
    spec: SeminormSpec,
    cell: _Cell,
    xs: np.ndarray,
    iters: int,
) -> _Cell:
    if cell.log_value == NEG_INF:
        return cell
    g = _cell_objective(model, spec, cell.j, cell.q)
    i = cell.x_index
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, len(xs) - 1)])
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = g(c), g(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = g(d)
    x_star = 0.5 * (a + b)
    refined = g(x_star) + spec.index_log_factor(cell.j, cell.q)
    if refined > cell.log_value:
        return _Cell(cell.j, cell.q, refined, x_star, cell.x_index)
    return cell


def _cell_order(c: _Cell) -> Tuple[float, int, int]:
    # descending value; ties to smallest j+q, then smallest j
    return (-c.log_value, c.j + c.q, c.j)


def _prescribed_eval(
    model: PrescribedJet, spec: SeminormSpec, search: SearchSpec
) -> AttainmentReport:
    if search.radius is not None:
        raise DomainError("prescribed jets only support center evaluation")
    orders = [n for n, _ in model.entries]
    m = search.m if search.m is not None else (max(orders) if orders else 0)
    jet = model.jet(model.center, m)
    x = model.center
    cells: List[_Cell] = []
    for j in range(m + 1):
        s, l = jet.entry(j)
        q_hi = 0 if not spec.uses_q else max(0, m - j)
        for q in range(q_hi + 1):
            if s == 0:
                cells.append(_Cell(j, q, NEG_INF, x, 0))
                continue
            value = l + spec.spatial_log(x, q) + spec.index_log_factor(j, q)
            cells.append(_Cell(j, q, value, x, 0))
    cells.sort(key=_cell_order)
    best = cells[0]
    runner = cells[1] if len(cells) > 1 else None
    return AttainmentReport(
        log_value=best.log_value,
        j=best.j,
        q=best.q,
        x=best.x,
        truncation_m=m,
        radius=0.0,
        runner_up=None
        if runner is None
        else (runner.j, runner.q, runner.x, runner.log_value),
        gap=NEG_INF if runner is None else best.log_value - runner.log_value,
        certificates={"kind": "prescribed-jet", "center": x},
    )


def eval_seminorm(
    model: FunctionModel, spec: SeminormSpec, search: SearchSpec = SearchSpec()
) -> AttainmentReport:
    """Maximize the seminorm expression over {j+q <= M} x [-R, R].

    M doubles until the indices near the cut contribute below eps_tail of
    the incumbent (in log terms); R doubles while the spatial argmax sits
    on the outer edge of the grid.
    """
    if isinstance(model, PrescribedJet):
        return _prescribed_eval(model, spec, search)
    m = search.m if search.m is not None else search.m_init
    radius = search.radius
    while True:
        r = radius if radius is not None else default_radius(model, m)
        xs = _grid(r, search.points)
        _, jlogs = model.grid_jets(xs, m)
        spatial = spec.spatial_log_rows(xs, m if spec.uses_q else 0)
        cells = _grid_cells(spec, jlogs, spatial, m, xs)
        cells.sort(key=_cell_order)
        best = cells[0]
        if best.log_value == NEG_INF:
            raise InconclusiveError("seminorm vanished on the whole search set")
        # spatial certificate: argmax strictly inside the grid
        if abs(best.x) > 0.98 * r:
            if search.radius is not None or r > 1e6:
                raise InconclusiveError("spatial argmax on the grid edge at |x|=%g" % r)
            radius = 2.0 * r
            continue
        # tail certificate: cells near the cut are negligible
        log_eps = math.log(search.eps_tail)
        ring = [
            c.log_value for c in cells if c.j + c.q >= m - 2
        ] if spec.uses_q else [c.log_value for c in cells if c.j >= m - 2]
        boundary = max(ring) if ring else NEG_INF
        if boundary > best.log_value + log_eps:
            if search.m is not None:
                raise InconclusiveError(
                    "attainment too close to the truncation cut j+q <= %d" % m
                )
            if 2 * m > search.m_cap:
                raise InconclusiveError(
                    "truncation cap %d reached without a tail certificate"
                    % search.m_cap
                )
            m *= 2
            continue
        break
    if search.refine:
        top = cells[: search.refine_top]
        refined = [_refine_cell(model, spec, c, xs, search.refine_iters) for c in top]
        refined.sort(key=_cell_order)
        cells = refined + cells[search.refine_top :]
        best = cells[0]
    runner = None
    for c in cells[1:]:
        if (c.j, c.q) != (best.j, best.q):
            runner = c
            break
    return AttainmentReport(
        log_value=best.log_value,
        j=best.j,
        q=best.q,
        x=best.x,
        truncation_m=m,
        radius=r,
        runner_up=None
        if runner is None
        else (runner.j, runner.q, runner.x, runner.log_value),
        gap=NEG_INF if runner is None else best.log_value - runner.log_value,
        certificates={
            "boundary_log_max": boundary,
            "tail_eps": search.eps_tail,
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
    _, jlogs = model.grid_jets(xs, m)
    spatial = spec.spatial_log_rows(xs, m if spec.uses_q else 0)
    cells = _grid_cells(spec, jlogs, spatial, m, xs)
    out = np.full((m + 1, m + 1), NEG_INF)
    for c in cells:
        if search.refine:
            c = _refine_cell(model, spec, c, xs, search.refine_iters)
        out[c.j, c.q] = c.log_value
    return out
