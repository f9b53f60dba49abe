"""The traced benchmark patches program attributes by name; keep them there.

`bench/tracer.py`'s `Tracer.install` swaps module attributes of `cli`,
`sim`, `dual_solver` and `exact` for timing wrappers.  Renaming or moving one
of them would otherwise show only when the traced benchmark runs.  No
experiment runs here.
"""

import importlib.util
import sys
from pathlib import Path

from mmwassoc import cli, dual_solver, exact, sim

TRACER = Path(__file__).parent.parent / "bench" / "tracer.py"
MODULES = (cli, sim, dual_solver, exact)


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_exist_and_are_restored(monkeypatch):
    before = [dict(vars(module)) for module in MODULES]
    tracer = load_tracer(monkeypatch).Tracer()
    try:
        tracer.install(*MODULES)
        patched = [
            (module.__name__, attr)
            for module, names in zip(MODULES, before)
            for attr, original in names.items()
            if getattr(module, attr) is not original
        ]
    finally:
        tracer.restore()
    assert len(patched) == 17, patched
    for module, names in zip(MODULES, before):
        for attr, original in names.items():
            assert getattr(module, attr) is original, (module.__name__, attr)
