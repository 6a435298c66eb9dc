"""Count the points Sturm isolation evaluates on the exact-dynamics benchmark's iterates.

    PYTHONPATH=src python3 scripts/sturm_points.py

The iterates are psi^4 and psi^5 for each quadratic of perfbench/workloads.py
and its mirror image, 56 in all.  For each, _isolate_roots runs on the
square-free part of psi^m(x) - x twice: as it is, counting the points where
the Sturm chain is evaluated, and with a root radius above the Cauchy bound,
which evaluates every point the bisection visits.  It prints one JSON object:
the chain evaluations, the points skipped because they lie at or past the
root radius, the two ends per iterate whose sign variations come from the
leading coefficients, and the median of five timings of isolating all 56.
"""

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

from gsdyn import polynomials as P

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def evaluations(forms) -> int:
    count = [0]
    grid_signs = P._grid_signs

    def counted(scaled, u, k):
        count[0] += 1
        return grid_signs(scaled, u, k)

    P._grid_signs = counted
    try:
        for p in forms:
            P._isolate_roots(p)
    finally:
        P._grid_signs = grid_signs
    return count[0]


def main() -> None:
    forms = [
        P._square_free(P._int_form(P.iterate(workloads.quadratic(alpha, s * x0, s * c), m) - P.Polynomial.x()))
        for alpha, x0, c in workloads.EXACT_SLOTS
        for s in (1, -1)
        for m in workloads.FIXED_POINT_ITERATES
    ]
    evaluated = evaluations(forms)
    root_radius = P._root_radius
    P._root_radius = lambda p: P._cauchy_bound(p).numerator.bit_length()  # 2^r > B: no skips
    try:
        visited = evaluations(forms)
    finally:
        P._root_radius = root_radius
    seconds = []
    for _ in range(5):
        start = perf_counter()
        for p in forms:
            P._isolate_roots(p)
        seconds.append(perf_counter() - start)
    print(json.dumps({
        "iterates": len(forms),
        "chain_evaluations": evaluated,
        "skipped_past_radius": visited - evaluated,
        "ends_from_leading_coefficients": 2 * len(forms),
        "isolation_s": round(statistics.median(seconds), 4),
    }, indent=1))


if __name__ == "__main__":
    main()
