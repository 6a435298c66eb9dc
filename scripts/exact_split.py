"""Time each stage of exact dynamics on the exact-dynamics benchmark's inputs.

    PYTHONPATH=src python3 scripts/exact_split.py

The iterates are psi^4 and psi^5 for each quadratic of perfbench/workloads.py
and its mirror image, 56 in all; the fixed-point jets are those of the 14
quadratics at their fixed points, to the order witness_repelling uses.  Each
stage runs on the outputs of the one before it, computed once, so a stage is
timed alone: the iterates; the square-free part of psi^m(x) - x and its
Sturm chain; root isolation; refinement to 1e-13; snapping to a rational;
the multiplier |psi'| at each root; fixed_point_jets.  It prints one JSON
object: the median of five timings per stage, in seconds, and the count of
what each stage ran on.
"""

import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from gsdyn import jets as J
from gsdyn import polynomials as P
from gsdyn.witnesses import JET_CHECK_MAX

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

WIDTH = Fraction(1, 10 ** 13)  # fixed_points' refinement width
JET_ORDER = min(workloads.REPELLING_M_MAX, JET_CHECK_MAX)


def square_free(it):
    r = P._int_form(it - P.Polynomial.x())
    chain = P._sturm_chain(r, P._derivative(r))
    r_sf = P._square_free(r, chain)
    return r_sf, (chain if r_sf is r else None)


def median_seconds(stage, inputs) -> float:
    seconds = []
    for _ in range(5):
        start = perf_counter()
        for args in inputs:
            stage(*args)
        seconds.append(perf_counter() - start)
    return round(statistics.median(seconds), 4)


def main() -> None:
    slots = [(workloads.quadratic(alpha, x0, c), x0) for alpha, x0, c in workloads.EXACT_SLOTS]
    pairs = [(workloads.quadratic(alpha, s * x0, s * c), m)
             for alpha, x0, c in workloads.EXACT_SLOTS
             for s in (1, -1)
             for m in workloads.FIXED_POINT_ITERATES]
    iterates = [P.iterate(psi, m) for psi, m in pairs]
    forms = [square_free(it) for it in iterates]
    cells, inexact, points = [], [], []
    for it, (r_sf, chain) in zip(iterates, forms):
        dpsi = P._over_lcm(it.derivative())
        for lo, hi in P._isolate_roots(r_sf, chain):
            cells.append((r_sf, lo, hi))
            lo, hi = P._refine(r_sf, lo, hi, WIDTH)
            exact = lo
            if lo != hi:
                inexact.append((r_sf, lo, hi))
                exact = P._snap_rational(r_sf, lo, hi)
            points.append((dpsi, (lo + hi) / 2 if exact is None else exact))
    stages = {
        "iterate": (P.iterate, pairs),
        "square_free_and_chain": (square_free, [(it,) for it in iterates]),
        "isolation": (P._isolate_roots, forms),
        "refinement": (lambda r_sf, lo, hi: P._refine(r_sf, lo, hi, WIDTH), cells),
        "snapping": (P._snap_rational, inexact),
        "multiplier": (P._multiplier, points),
        "fixed_point_jets": (lambda psi, x0: J.fixed_point_jets(psi, x0, JET_ORDER), slots),
    }
    print(json.dumps({
        "counts": {"iterates": len(iterates), "roots": len(cells), "snap_attempts": len(inexact),
                   "jet_slots": len(slots), "jet_order": JET_ORDER},
        "median_s": {name: median_seconds(stage, inputs) for name, (stage, inputs) in stages.items()},
    }, indent=1))


if __name__ == "__main__":
    main()
