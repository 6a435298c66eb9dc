"""The benchmark's span tracer still hooks the seminorm engine.

perfbench/tracing.py wraps the spatial models' `jet` and `grid_jets` from the
class bodies; this loads it read-only and checks the refinement runs on
`grid_jets` alone.
"""

import importlib.util
from pathlib import Path

from gsdyn import seminorms
from gsdyn.jets import Gaussian
from gsdyn.weights import Gevrey

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_grid_jets_spans():
    original = seminorms.eval_seminorm
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        spec = seminorms.SeminormSpec("plainp", Gevrey(2.0), lam=2.0)
        seminorms.eval_seminorm(Gaussian(1.0), spec)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["jets.grid_jets.calls"] > 0
    assert metrics["seminorms.eval_seminorm.calls"] == 1
    assert metrics["jets.point_jet.calls"] == 0  # refinement needs no point jets
    assert seminorms.eval_seminorm is original  # uninstall restored it
