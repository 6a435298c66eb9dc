"""Jets (truncated derivative sequences), partitions, Faa di Bruno composition.

A jet carries f^(n)(center) for n = 0..N as (sign, log-magnitude) pairs,
plus an exact Fraction track (with a Fraction center) when the underlying
data is rational.  One Taylor substitution, `_compose_series`, serves all
three arithmetics: Fractions and sign-log pairs in `compose_jet`, numpy rows
in `Composed.grid_jets`.  The multiplicity-partition sum
`compose_jet_partitions` is kept as the independent oracle.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import logspace as ls
from .errors import DomainError, GsdynError, ResourceLimitError
from .logspace import SLog, ZERO
from .polynomials import Polynomial

JET_ORDER_CAP = 512
PARTITION_CAP = 60

_RENORM = 1e250
_LOG_RENORM = math.log(_RENORM)


# --------------------------------------------------------------------------
# multiplicity partitions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplicityPartition:
    """(k_1, ..., k_j) with sum of ell * k_ell = j."""

    j: int
    k: Tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.k)


def multiplicity_partitions(j: int) -> List[MultiplicityPartition]:
    """All of I_j in lexicographic order on the multiplicity vector."""
    if j < 1:
        raise DomainError("multiplicity partitions need j >= 1, got %r" % (j,))
    if j > PARTITION_CAP:
        raise ResourceLimitError(
            "partition enumeration capped at j = %d (got %d)" % (PARTITION_CAP, j)
        )
    out: List[MultiplicityPartition] = []
    k = [0] * j

    def rec(pos: int, remaining: int) -> None:
        if remaining == 0:
            out.append(MultiplicityPartition(j, tuple(k)))
            return
        if pos > j:
            return
        for v in range(remaining // pos + 1):
            k[pos - 1] = v
            rec(pos + 1, remaining - pos * v)
        k[pos - 1] = 0

    rec(1, j)
    out.sort(key=lambda mp: mp.k)
    return out


def faa_di_bruno_identity_sum(j: int) -> int:
    """Exact big-integer sum over I_j of (k_1+...+k_j)! / (k_1! ... k_j!)."""
    total = 0
    for mp in multiplicity_partitions(j):
        term = math.factorial(mp.total)
        for kl in mp.k:
            term //= math.factorial(kl)
        total += term
    return total


# --------------------------------------------------------------------------
# jets
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Jet:
    center: Union[float, Fraction]  # a Fraction when built from exact values
    signs: Tuple[int, ...]
    logs: Tuple[float, ...]
    exact: Optional[Tuple[Fraction, ...]] = None

    @property
    def order(self) -> int:
        return len(self.signs) - 1

    def entry(self, n: int) -> SLog:
        return (self.signs[n], self.logs[n])

    def value(self, n: int) -> float:
        return ls.slog_to_float(self.entry(n))

    @staticmethod
    def from_exact(center, values: Sequence[Fraction]) -> "Jet":
        vals = tuple(Fraction(v) for v in values)
        entries = [ls.slog_of_fraction(v) for v in vals]
        return Jet(
            center=Fraction(center),
            signs=tuple(e[0] for e in entries),
            logs=tuple(e[1] for e in entries),
            exact=vals,
        )

    @staticmethod
    def from_slogs(center: float, entries: Sequence[SLog]) -> "Jet":
        return Jet(
            center=center,
            signs=tuple(e[0] for e in entries),
            logs=tuple(e[1] for e in entries),
        )


def jet_of_polynomial(psi: Polynomial, x0, order: int) -> Jet:
    """Exact jet of a polynomial at a rational point."""
    return Jet.from_exact(x0, psi.derivatives_at(x0, order))


def fixed_point_jets(psi: Polynomial, x0, order: int) -> List[Jet]:
    """Exact order-`order` jets of psi^1, ..., psi^order at a fixed point x0.

    Since psi(x0) = x0, the jet of psi^(m+1) is psi's own jet composed with
    that of psi^m (truncated power series composition), so the iterates of
    degree deg(psi)^m are never formed.  A non-fixed x0 fails the centre check
    of `compose_jet` (DomainError) once order >= 2.
    """
    base = jet_of_polynomial(psi, x0, order)
    jets = [base]
    for _ in range(order - 1):
        jets.append(compose_jet(base, jets[-1], order))
    return jets


# --------------------------------------------------------------------------
# composition
# --------------------------------------------------------------------------


def _taylor_slogs(jet: Jet, order: int) -> List[SLog]:
    out = []
    for n in range(order + 1):
        s, l = jet.entry(n)
        out.append((s, l - math.lgamma(n + 1)) if s != 0 else ZERO)
    return out


def _compose_series(f_t: Sequence, p_t: Sequence, order: int, mul=operator.mul, total=sum) -> list:
    """Taylor coefficients of f(p(t)) to `order` from those of f and of p; p_t[0]
    is ignored (f is expanded at p(0)).  Horner in f: acc <- f_k + acc * (p - p_0),
    each coefficient summed with i ascending.  The arithmetic is the caller's:
    Fractions, (sign, log) pairs with slog_mul/slog_sum, or numpy rows."""
    acc = [f_t[order]]
    for k in range(order - 1, -1, -1):
        acc = [f_t[k]] + [
            total(mul(acc[i], p_t[n - i]) for i in range(min(n, len(acc))))
            for n in range(1, order + 1)
        ]
    return acc


def _check_orders(f: Jet, psi: Jet, order: int) -> None:
    if f.order < order or psi.order < order:
        raise DomainError("compose_jet needs both jets to carry order >= %d" % (order,))


def compose_jet(f: Jet, psi: Jet, order: int) -> Jet:
    """Jet of f o psi at psi's center; f must be centered at psi(center)."""
    _check_orders(f, psi, order)
    if f.exact is not None and psi.exact is not None:
        if f.center != psi.exact[0]:
            raise DomainError("outer jet is not centered at psi(center)")
        f_t = [f.exact[n] / math.factorial(n) for n in range(order + 1)]
        p_t = [psi.exact[n] / math.factorial(n) for n in range(order + 1)]
        c = _compose_series(f_t, p_t, order)
        return Jet.from_exact(psi.center, [c[n] * math.factorial(n) for n in range(order + 1)])
    c = _compose_series(
        _taylor_slogs(f, order), _taylor_slogs(psi, order), order, ls.slog_mul, ls.slog_sum
    )
    entries = [(s, l + math.lgamma(n + 1)) if s != 0 else ZERO for n, (s, l) in enumerate(c)]
    return Jet.from_slogs(psi.center, entries)


def compose_jet_partitions(f: Jet, psi: Jet, order: int) -> Jet:
    """Oracle path: the explicit Faa di Bruno partition sum, term by term."""
    _check_orders(f, psi, order)
    if f.exact is not None and psi.exact is not None:
        lift, mul, power, total = Fraction, operator.mul, operator.pow, sum
        f_v, p_v, make = f.exact, psi.exact, Jet.from_exact
    else:
        lift, mul, power, total = ls.slog_of_fraction, ls.slog_mul, ls.slog_pow, ls.slog_sum
        f_v, p_v = list(zip(f.signs, f.logs)), list(zip(psi.signs, psi.logs))
        make = Jet.from_slogs
    out = [f_v[0]]
    for j in range(1, order + 1):
        terms = []
        for mp in multiplicity_partitions(j):
            coeff = Fraction(math.factorial(j))
            for ell, kl in enumerate(mp.k, start=1):
                coeff /= math.factorial(kl) * math.factorial(ell) ** kl
            t = mul(lift(coeff), f_v[mp.total])
            for ell, kl in enumerate(mp.k, start=1):
                if kl:
                    t = mul(t, power(p_v[ell], kl))
            terms.append(t)
        out.append(total(terms))
    return make(psi.center, out)


# --------------------------------------------------------------------------
# function models
# --------------------------------------------------------------------------


class FunctionModel:
    """A function with computable jets at (in general) arbitrary real points."""

    def jet(self, x: float, order: int) -> Jet:
        raise NotImplementedError

    def grid_jets(self, xs: np.ndarray, order: int) -> Tuple[np.ndarray, np.ndarray]:
        """(signs, logs) arrays of shape (order+1, len(xs))."""
        raise NotImplementedError

    def spec(self) -> str:
        raise NotImplementedError

    def label(self) -> str:
        """spec() for error messages: past 120 characters, elided in the middle."""
        text = self.spec()
        return text if len(text) <= 120 else text[:80] + "..." + text[-37:]


def _check_order(order: int) -> None:
    if order < 0:
        raise DomainError("jet order must be >= 0")
    if order > JET_ORDER_CAP:
        raise ResourceLimitError("jet order capped at %d (got %d)" % (JET_ORDER_CAP, order))


def _jet_from_grid(model: FunctionModel, x: float, order: int) -> Jet:
    """A spatial model's jet at x: its grid_jets on the one-point grid [x]."""
    signs, logs = model.grid_jets(np.array([float(x)]), order)
    return Jet.from_slogs(float(x), list(zip(signs[:, 0].tolist(), logs[:, 0].tolist())))


def _gaussian_grid(scale: float, xs: np.ndarray, order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Derivatives of exp(-(scale x)^2) via the Hermite three-term recurrence."""
    u = scale * xs
    n_pts = xs.shape[0]
    signs = np.zeros((order + 1, n_pts), dtype=np.int8)
    logs = np.full((order + 1, n_pts), ls.NEG_INF)
    # an inner value past the double range makes these rows inf or NaN;
    # seminorms._jets refuses NaN jets with a typed error
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        base = -u * u
        log_scale = math.log(scale)
        signs[0] = 1
        logs[0] = base
        if order == 0:
            return signs, logs
        h_prev = np.ones(n_pts)
        h = 2.0 * u
        off = np.zeros(n_pts)
        for n in range(1, order + 1):
            nz = h != 0.0
            signs[n, nz] = (np.sign(h[nz]) * (-1) ** n).astype(np.int8)
            logs[n, nz] = n * log_scale + np.log(np.abs(h[nz])) + off[nz] + base[nz]
            h_prev, h = h, 2.0 * u * h - 2.0 * n * h_prev
            big = np.abs(h) > _RENORM
            if big.any():
                h[big] /= _RENORM
                h_prev[big] /= _RENORM
                off[big] += _LOG_RENORM
    return signs, logs


@dataclass(frozen=True)
class Gaussian(FunctionModel):
    """f(x) = exp(-(scale x)^2)."""

    scale: float = 1.0

    def __post_init__(self):
        if not 0 < self.scale < math.inf:
            raise DomainError("Gaussian scale must be finite and > 0, got %r" % (self.scale,))

    # kept in the class body: perfbench/tracing.py wraps cls.__dict__["jet"]
    jet = _jet_from_grid

    def grid_jets(self, xs: np.ndarray, order: int) -> Tuple[np.ndarray, np.ndarray]:
        _check_order(order)
        return _gaussian_grid(self.scale, xs, order)

    def spec(self) -> str:
        return "gauss:%g" % (self.scale,)


@dataclass(frozen=True)
class Scaled(FunctionModel):
    """g(x) = base(rho x), so g^(n)(x) = rho^n base^(n)(rho x)."""

    base: FunctionModel
    rho: float

    def __post_init__(self):
        if self.rho == 0 or not math.isfinite(self.rho):
            raise DomainError("Scaled model needs a finite rho != 0, got %r" % (self.rho,))

    # kept in the class body: perfbench/tracing.py wraps cls.__dict__["jet"]
    jet = _jet_from_grid

    def grid_jets(self, xs: np.ndarray, order: int) -> Tuple[np.ndarray, np.ndarray]:
        signs, logs = self.base.grid_jets(self.rho * xs, order)
        ns = np.arange(order + 1)
        logs = logs + (ns * math.log(abs(self.rho)))[:, None]
        if self.rho < 0:
            flip = (ns % 2 == 1)
            signs = signs.copy()
            signs[flip] = -signs[flip]
        return signs, logs

    def spec(self) -> str:
        return "scaled:%.17g:%s" % (self.rho, self.base.spec())


@dataclass(frozen=True)
class Translated(FunctionModel):
    """g(x) = base(x + shift)."""

    base: FunctionModel
    shift: float

    def __post_init__(self):
        if not math.isfinite(self.shift):
            raise DomainError("Translated model needs a finite shift, got %r" % (self.shift,))

    # kept in the class body: perfbench/tracing.py wraps cls.__dict__["jet"]
    jet = _jet_from_grid

    def grid_jets(self, xs: np.ndarray, order: int) -> Tuple[np.ndarray, np.ndarray]:
        return self.base.grid_jets(xs + self.shift, order)

    def spec(self) -> str:
        return "shift:%.17g:%s" % (self.shift, self.base.spec())


@dataclass(frozen=True)
class PrescribedJet(FunctionModel):
    """A formal jet at a single center; no global function is attached."""

    center: float
    entries: Tuple[Tuple[int, Fraction], ...]  # (n, value) pairs, n distinct

    @staticmethod
    def of(center, entries: Dict[int, Fraction]) -> "PrescribedJet":
        items = tuple(sorted((int(n), Fraction(v)) for n, v in entries.items()))
        for n, _ in items:
            if n < 0:
                raise DomainError("prescribed jet orders must be >= 0")
        return PrescribedJet(float(center), items)

    def jet(self, x: float, order: int) -> Jet:
        _check_order(order)
        if x != self.center:
            raise DomainError(
                "prescribed jet only supports its own center %g" % (self.center,)
            )
        vals = [Fraction(0)] * (order + 1)
        for n, v in self.entries:
            if n <= order:
                vals[n] = v
        return Jet.from_exact(self.center, vals)

    def grid_jets(self, xs: np.ndarray, order: int) -> Tuple[np.ndarray, np.ndarray]:
        """The jet as a one-point grid; the only grid allowed is [center]."""
        # any other grid gets jet()'s own error (nan is never the center)
        jet = self.jet(float(xs[0]) if len(xs) == 1 else math.nan, order)
        return np.array(jet.signs, dtype=np.int8)[:, None], np.array(jet.logs)[:, None]

    def spec(self) -> str:
        return "jet:%g:%s" % (
            self.center,
            ",".join("%d=%s" % (n, v) for n, v in self.entries),
        )


@dataclass(frozen=True)
class Composed(FunctionModel):
    """g(x) = base(poly(x)); jets by Faa di Bruno through the polynomial."""

    base: FunctionModel
    poly: Polynomial

    def _poly_taylor_rows(self, xs: np.ndarray, order: int) -> np.ndarray:
        """rows[i][p] = poly^(i)(xs[p]) / i! as floats, i = 0..order."""
        rows = np.zeros((order + 1, xs.shape[0]))
        cur = self.poly
        fact = 1.0
        for i in range(order + 1):
            if i > 0:
                cur = cur.derivative()
                fact *= i
                if cur.is_zero():
                    break
            try:
                rows[i] = cur(xs) / fact
            except OverflowError:
                raise ResourceLimitError(
                    "%s: a Taylor coefficient of order %d overflows a float" % (self.label(), i)
                ) from None
        return rows

    # kept in the class body: perfbench/tracing.py wraps cls.__dict__["jet"]
    jet = _jet_from_grid

    def grid_jets(self, xs: np.ndarray, order: int) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized Faa di Bruno: per-point rescaling keeps the Horner
        substitution inside double range, with a shared log offset."""
        _check_order(order)
        p_rows = self._poly_taylor_rows(xs, order)
        f_signs, f_logs = self.base.grid_jets(p_rows[0], order)
        n_pts = xs.shape[0]
        lg = np.array([math.lgamma(n + 1) for n in range(order + 1)])
        # outer Taylor coefficients, peak-normalized per point
        f_t_log = f_logs - lg[:, None]
        peak = np.max(f_t_log, axis=0)
        with np.errstate(invalid="ignore"):
            f_t = f_signs * np.exp(f_t_log - peak[None, :])
        # inner series t-rescaled so |b_i| <= 1 (its constant term is not used)
        b = p_rows[1:]
        with np.errstate(divide="ignore"):
            per_root = np.where(
                b != 0.0,
                np.log(np.abs(b)) / np.arange(1, order + 1)[:, None],
                ls.NEG_INF,
            )
        tau_log = -np.max(per_root, axis=0) if order >= 1 else np.zeros(n_pts)
        tau_log = np.where(np.isfinite(tau_log), tau_log, 0.0)
        btil = p_rows * np.exp(np.arange(order + 1)[:, None] * tau_log[None, :])
        acc = np.array(_compose_series(f_t, btil, order))
        with np.errstate(invalid="ignore"):  # NaN rows: seminorms._jets refuses them
            out_signs = np.sign(acc).astype(np.int8)
        out_logs = np.full((order + 1, n_pts), ls.NEG_INF)
        nz = acc != 0.0
        logn = np.where(nz, np.log(np.abs(np.where(nz, acc, 1.0))), ls.NEG_INF)
        shift = peak[None, :] - np.arange(order + 1)[:, None] * tau_log[None, :] + lg[:, None]
        out_logs[nz] = (logn + shift)[nz]
        return out_signs, out_logs

    def spec(self) -> str:
        return "comp:%s:%s" % (self.poly.spec(), self.base.spec())


def parse_model(text: str) -> FunctionModel:
    """Literals: gauss:<scale>, scaled:<rho>:<inner>, shift:<c>:<inner>,
    jet:<center>:<n=value,...>."""
    kind, _, rest = text.partition(":")
    try:
        if kind == "gauss":
            return Gaussian(float(rest))
        if kind == "scaled":
            rho, _, inner = rest.partition(":")
            return Scaled(parse_model(inner), float(rho))
        if kind == "shift":
            c, _, inner = rest.partition(":")
            return Translated(parse_model(inner), float(c))
        if kind == "jet":
            center, _, pairs = rest.partition(":")
            entries: Dict[int, Fraction] = {}
            for part in pairs.split(","):
                n, _, v = part.partition("=")
                entries[int(n)] = Fraction(v)
            return PrescribedJet.of(float(Fraction(center)), entries)
    except GsdynError:  # gsdyn's usage errors are ValueErrors too
        raise
    except (ValueError, ZeroDivisionError):
        raise DomainError("malformed number in function-model literal %r" % (text,)) from None
    raise DomainError("unknown function-model literal %r" % (text,))
