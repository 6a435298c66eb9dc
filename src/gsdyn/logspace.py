"""Sign + natural-log-magnitude scalar arithmetic.

Quantities in the growth experiments span ranges like 2^(m^2/2) that leave
double precision around m = 40, so everything that can get large is carried
as a pair (sign, log|value|).  sign is -1, 0 or +1; a zero always has
log-magnitude -inf.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Tuple

NEG_INF = float("-inf")
LN2 = math.log(2.0)

SLog = Tuple[int, float]

ZERO: SLog = (0, NEG_INF)


def number_literal(x: float) -> str:
    """The shortest literal that parses back to the float x (its repr), with
    an integral value written without ".0": the number format of every spec."""
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


def log_abs_int(n: int) -> float:
    """log|n| for arbitrarily large Python ints (0 maps to -inf)."""
    if n == 0:
        return NEG_INF
    n = abs(n)
    shift = max(0, n.bit_length() - 53)
    return math.log(n >> shift) + shift * LN2


def log_abs_fraction(x: Fraction) -> float:
    if x == 0:
        return NEG_INF
    return log_abs_int(x.numerator) - log_abs_int(x.denominator)


def slog_of_fraction(x: Fraction) -> SLog:
    if x == 0:
        return ZERO
    return (1 if x > 0 else -1, log_abs_fraction(x))


def slog_mul(a: SLog, b: SLog) -> SLog:
    if a[0] == 0 or b[0] == 0:
        return ZERO
    return (a[0] * b[0], a[1] + b[1])


def slog_sum(terms: Iterable[SLog]) -> SLog:
    """Signed sum; cancellation below double precision collapses to zero."""
    terms = [t for t in terms if t[0] != 0]
    if not terms:
        return ZERO
    peak = max(l for _, l in terms)
    if peak == NEG_INF:
        return ZERO
    acc = 0.0
    for s, l in terms:
        acc += s * math.exp(l - peak)
    if acc == 0.0:
        return ZERO
    return (1 if acc > 0 else -1, peak + math.log(abs(acc)))
