"""The library names the benchmark in perfbench/ binds, checked in tier-1.

perfbench/tracer.py rebinds every function that perfbench/spec.json lists
under "layers", and reads minimal_solution_backward's start and max_start
by name, so renaming any of them breaks the benchmark.
"""

import inspect
import json
from pathlib import Path

import pytest

import rfrac

SPEC = Path(__file__).resolve().parents[1] / "perfbench" / "spec.json"
LAYERS = json.loads(SPEC.read_text())["layers"]


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_layer_names_resolve(layer):
    module = getattr(rfrac, layer)
    missing = [n for n in LAYERS[layer]
               if not callable(getattr(module, n, None))]
    assert not missing, (layer, missing)


def test_backward_sweep_binds_start_and_max_start():
    sig = inspect.signature(rfrac.minimal_solution_backward)
    bound = sig.bind(None, 0.5, window=10)
    bound.apply_defaults()
    assert {"start", "max_start"} <= set(bound.arguments)
