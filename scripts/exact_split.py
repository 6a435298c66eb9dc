"""Time each stage of exact dynamics on the exact-dynamics benchmark's inputs.

    PYTHONPATH=src python3 scripts/exact_split.py

The iterates are psi^4 and psi^5 for each quadratic of perfbench/workloads.py
and its mirror image, 56 in all; the fixed-point jets are those of the 14
quadratics at their fixed points, to the order witness_repelling uses.  Each
stage runs on the outputs of the one before it, computed once, so a stage is
timed alone: the iterates; the square-free part of psi^m(x) - x and its
Sturm chain; root isolation; refinement to min(1e-13, 1/L), L the leading
coefficient's modulus; the rational root test, one sign at the one k/L in
each cell refinement leaves; the multiplier |psi'| at each root;
fixed_point_jets.  It prints one JSON object: the median of five timings per
stage, in seconds, and the count of what each stage ran on.
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

WIDTH = Fraction(1, 10 ** 13)  # the width of fixed_points' irrational cells
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
        dpsi = it.derivative()
        width = min(WIDTH, Fraction(1, abs(r_sf[-1])))
        for lo, hi in P._isolate_roots(r_sf, chain):
            cells.append((r_sf, lo, hi, width))
            a, b = P._refine(r_sf, lo, hi, width)
            point = a
            if a != b:
                inexact.append((r_sf, a, b))
                point = P._rational_root(r_sf, a, b)
            if point is None:  # the midpoint of the WIDTH cell that holds (a, b]
                w = (hi - lo) / 2 ** P._level(hi - lo, WIDTH)
                point = lo + (a - lo) // w * w + w / 2
            points.append((dpsi, point))
    stages = {
        "iterate": (P.iterate, pairs),
        "square_free_and_chain": (square_free, [(it,) for it in iterates]),
        "isolation": (P._isolate_roots, forms),
        "refinement": (P._refine, cells),
        "rational_root_test": (P._rational_root, inexact),
        "multiplier": (P._multiplier, points),
        "fixed_point_jets": (lambda psi, x0: J.fixed_point_jets(psi, x0, JET_ORDER), slots),
    }
    print(json.dumps({
        "counts": {"iterates": len(iterates), "roots": len(cells), "rational_root_tests": len(inexact),
                   "jet_slots": len(slots), "jet_order": JET_ORDER},
        "median_s": {name: median_seconds(stage, inputs) for name, (stage, inputs) in stages.items()},
    }, indent=1))


if __name__ == "__main__":
    main()
