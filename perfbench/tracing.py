"""Span tracing of gsdyn from outside the package.

`Tracer.install()` wraps the public functions of each layer module and the
`jet`/`grid_jets` methods of the spatial function models, and rebinds every
gsdyn module that imported one of those names (for example `gsdyn.witnesses`
and `gsdyn.cli` bind `iterate` at import, so patching `gsdyn.polynomials`
alone would miss their calls).  Per-element helpers (`Weight.__call__`,
`Polynomial.__call__`, `conjugate.phi`, ...) are not wrapped.

Each call records one span: name, start and end (`perf_counter_ns`), the
enclosing span and the benchmark operation id, plus one integer of work
(degree, roots, grid cells, numeric-path flag) where the layer has one.
Spans live in flat arrays and are written out once, at the end.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

import numpy as np

LAYERS = ("polynomials", "jets", "seminorms", "conjugate", "weights", "witnesses", "cli")

# Called once per element inside a layer's own loops; a span per call would
# measure the tracer, not the layer.
_PER_ELEMENT = {
    "gsdyn.conjugate.phi",
    "gsdyn.weights.gevrey_index",
    "gsdyn.weights.eval_weight",
    "gsdyn.witnesses.falling_factorial_2m",
}

# The single-point and grid jets of the spatial models.  PrescribedJet is a
# formal (exact) jet with no grid, so it stays inside its caller's self time.
_SPATIAL_MODELS = ("Gaussian", "Scaled", "Translated", "Composed")


def _degree(args, kwargs, out) -> int:
    return out.degree


def _roots(args, kwargs, out) -> int:
    return len(out) if isinstance(out, list) else 0


def _cells(args, kwargs, out) -> int:
    signs = out[0]
    return signs.shape[0] * signs.shape[1]


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_id: Dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op_id = array("i")
        self.work = array("q")
        self.op = -1
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    # ---------------------------------------------------------------- spans

    def _wrap(self, name: str, fn: Callable, work: Optional[Callable] = None) -> Callable:
        nid = self._name_id.setdefault(name, len(self._name_id))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_id.append(self.op)
            self.start.append(0)
            self.end.append(0)
            self.work.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if work is not None:
                self.work[idx] = work(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        import gsdyn.cli  # noqa: F401  (loads every layer module)
        from gsdyn import jets, weights

        def young_numeric(args, kwargs, out) -> int:
            w = args[0] if args else kwargs["w"]
            method = args[2] if len(args) > 2 else kwargs.get("method", "auto")
            return int(method == "numeric" or (method == "auto" and weights.gevrey_index(w) is None))

        work = {
            "gsdyn.polynomials.iterate": _degree,
            "gsdyn.polynomials.fixed_points": _roots,
            "gsdyn.conjugate.young_conjugate": young_numeric,
        }
        swaps = {}
        for layer in LAYERS:
            mod = sys.modules["gsdyn." + layer]
            for attr, fn in list(vars(mod).items()):
                full = "gsdyn.%s.%s" % (layer, attr)
                if (
                    attr.startswith("_")
                    or not callable(fn)
                    or isinstance(fn, type)
                    or getattr(fn, "__module__", None) != mod.__name__
                    or full in _PER_ELEMENT
                ):
                    continue
                swaps[id(fn)] = (fn, self._wrap("%s.%s" % (layer, attr), fn, work.get(full)))
        # rebind every module that holds one of the originals, not just the definer
        for name, mod in list(sys.modules.items()):
            if name != "gsdyn" and not name.startswith("gsdyn."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = swaps.get(id(val))
                if hit is not None and hit[0] is val:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        for cls_name in _SPATIAL_MODELS:
            cls = getattr(jets, cls_name)
            grid_name = "jets.composed_grid_jets" if cls_name == "Composed" else "jets.grid_jets"
            for meth, span, fn_work in (("jet", "jets.point_jet", None), ("grid_jets", grid_name, _cells)):
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(span, orig, fn_work))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # ------------------------------------------------------------- analysis

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op_id, dtype=np.int32),
            "work": np.frombuffer(self.work, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer counts and self times (span time minus direct children)."""
        a = self.arrays()
        names = np.array(self.names + ["<root>"])
        nid, parent, work = a["name"], a["parent"], a["work"]
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) / 1e9
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        span = names[nid]
        parent_span = names[np.where(has_parent, nid[np.maximum(parent, 0)], len(self.names))]

        def sel(name: str) -> np.ndarray:
            return span == name

        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[layer + ".self_s"] = float(self_s[np.char.startswith(span, layer + ".")].sum())

        def add(name: str, calls: bool = True, work_key: Optional[str] = None, mask=None):
            m = sel(name) if mask is None else mask
            if calls:
                out[name + ".calls"] = int(m.sum())
            out[name + ".self_s"] = float(self_s[sel(name)].sum())
            if work_key:
                out[name + "." + work_key] = int(work[m].sum())

        add("polynomials.iterate", work_key="degree_sum")
        add("polynomials.fixed_points", work_key="roots")
        add("jets.compose_jet")
        add("jets.jet_of_polynomial", calls=False)
        # outermost model call only: Scaled/Translated delegate to their base
        add("jets.grid_jets", work_key="cells", mask=sel("jets.grid_jets") & (parent_span != "jets.grid_jets"))
        add("jets.point_jet", mask=sel("jets.point_jet") & (parent_span != "jets.point_jet"))
        add("jets.composed_grid_jets", calls=False, work_key="cells")
        add("seminorms.eval_seminorm")
        under_eval = parent_span == "seminorms.eval_seminorm"
        out["seminorms.eval_seminorm.turns"] = int(
            (under_eval & (sel("jets.grid_jets") | sel("jets.composed_grid_jets"))).sum()
        )
        out["seminorms.eval_seminorm.point_jets"] = int((under_eval & sel("jets.point_jet")).sum())
        add("seminorms.attainment_matrix")
        add("conjugate.young_conjugate")
        out["conjugate.young_conjugate.numeric_calls"] = int(work[sel("conjugate.young_conjugate")].sum())
        add("conjugate.lambda_shift_constants", calls=False)
        for fn in (
            "witness_repelling",
            "witness_square",
            "rho_construction",
            "witness_dilation_blowup",
            "witness_translation",
            "classify_growth",
            "witness_deg2_topologizable",
        ):
            add("witnesses." + fn, calls=False)
        add("weights.check_condition")
        add("cli.main", calls=False)
        out["spans"] = int(len(dur))
        return out
