"""Count the cells a seminorm search evaluates exactly, per family and truncation M.

    PYTHONPATH=src python3 scripts/seminorm_cells.py

For each family (weights gevrey:2 and logpower:3 at lam = 1; gevreyseq at
mu = 2, s = 1.5) and M in 16, 32, 64, 128 it tabulates gauss:1 on the default
2048-point grid twice: once as a search does (only the REFINE_TOP best cells
and the ring maximum exact) and once in full.  It prints one JSON object:
per table, the cells with a finite index factor, the exact (finite) cells of
the pruned table, and their share.  Every Gaussian cell is finite, so the
finite cells are the evaluated ones.
"""

import json

import numpy as np

from gsdyn import seminorms as S
from gsdyn.jets import Gaussian
from gsdyn.weights import parse_weight


def main() -> None:
    model = Gaussian(1.0)
    specs = [("gevreyseq", S.SeminormSpec("gevreyseq", mu=2.0, s=1.5))]
    for weight in ("gevrey:2", "logpower:3"):
        for family in ("plainp", "globalp", "expq"):
            specs.append((family + " " + weight, S.SeminormSpec(family, parse_weight(weight))))
    out = {}
    for name, spec in specs:
        for m in (16, 32, 64, 128):
            xs = S._grid(S.default_radius(model, m), 2048)
            factors = spec.log_factors(m)
            cells = int((factors > S.NEG_INF).sum())
            exact = int(np.isfinite(S._grid_cells(model, spec, xs, factors, S.REFINE_TOP)[0]).sum())
            out["%s M=%d" % (name, m)] = {"cells": cells, "exact": exact,
                                          "share": round(exact / cells, 4)}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
