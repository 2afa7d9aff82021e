"""The benchmark's per-layer tracer still finds every demlab binding it wraps.

``benchmarks/layers.py`` wraps demlab functions by module and name, and a
renamed or removed binding would otherwise only surface in a traced bench run.
"""

import sys
from pathlib import Path

import pytest

import demlab.cli  # loaded up front: the tracer wraps its bindings too
import demlab.solvers
from demlab.geometry import Grid

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _bindings():
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "demlab"]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def test_every_traced_binding_is_found_and_restored(monkeypatch):
    pytest.importorskip("scipy")
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import layers

    gmres = demlab.solvers.gmres
    laplacian = Grid.__dict__["laplacian"]
    before = _bindings()
    with layers.instrument(layers.Probe(False), layers.TRACED):
        assert demlab.solvers.gmres is not gmres
    assert demlab.solvers.gmres is gmres
    assert Grid.__dict__["laplacian"] is laplacian
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
