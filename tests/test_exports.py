"""The export lists stay true to the code: every name in a module's
`__all__` exists, and the type hints of every exported class and function
resolve.  Each public name has one import path, the module that defines
it: the package root holds only `__version__`, loads no submodule, and is
the one owner of the version that `pyproject.toml` reads."""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import mmwassoc

ROOT = Path(__file__).resolve().parents[1]
MODULES = [
    importlib.import_module(f"mmwassoc.{info.name}")
    for info in pkgutil.iter_modules(mmwassoc.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_type_hint_resolves(module):
    # the annotations are strings (`from __future__ import annotations`), so a
    # name used only in a hint and never imported fails only here
    for name in getattr(module, "__all__", []):
        value = getattr(module, name)
        if inspect.isclass(value) or inspect.isfunction(value):
            typing.get_type_hints(value)


# the top-level packages of the process machinery only jobs >= 2 uses
PROCESS_STACK = ("multiprocessing", "socket", "selectors")


def modules_loaded_by(statement: str) -> set[str]:
    """The mmwassoc, numpy, multiprocessing, socket and selectors modules
    that a fresh interpreter holds after running `statement`."""
    probe = (
        f"import json, sys; {statement}; "
        "print(json.dumps([m for m in sys.modules if m.partition('.')[0] in "
        f"('mmwassoc', 'numpy') + {PROCESS_STACK!r}]))"
    )
    # pyproject's pythonpath reaches only this process, not its children
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(done.stdout))


def process_modules(loaded: set[str]) -> set[str]:
    return {m for m in loaded if m.partition(".")[0] in PROCESS_STACK}


def test_each_import_loads_only_what_it_names():
    assert modules_loaded_by("import mmwassoc") == {"mmwassoc"}
    channel = modules_loaded_by("import mmwassoc.channel")
    assert {m for m in channel if m.startswith("mmwassoc")} == {
        "mmwassoc",
        "mmwassoc.channel",
        "mmwassoc.instance",
    }
    # the benchmark child's import still loads the whole package
    child = modules_loaded_by("from mmwassoc import cli, dual_solver, exact, sim")
    assert {m for m in child if m.startswith("mmwassoc")} == {"mmwassoc"} | {
        f"mmwassoc.{info.name}" for info in pkgutil.iter_modules(mmwassoc.__path__)
    }
    # the process machinery costs about 0.6 MB and 5 ms of start-up: neither
    # that import nor a jobs=1 run loads any of it, only the first jobs=2 run
    assert process_modules(child) == set()
    counter = {"multiprocessing.synchronize", "multiprocessing.sharedctypes"}
    for jobs in (1, 2):
        run = modules_loaded_by(
            "from mmwassoc import sim; sim.os.cpu_count = lambda: 2; sim.run_experiment("
            f"sim.ExperimentConfig(n_aps=2, n_clients=6, slots=2, daa_iters=20), jobs={jobs})"
        )
        if jobs == 1:
            assert process_modules(run) == set()
        else:
            assert {*PROCESS_STACK, *counter} <= process_modules(run)


def test_pyproject_reads_the_version_from_the_package():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in project["project"]
    assert project["project"]["dynamic"] == ["version"]
    dynamic = project["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "mmwassoc.__version__"}
