"""The traced benchmark patches program attributes by name; keep them there.

`bench/tracer.py`'s `Tracer.install` swaps module attributes of `cli`,
`sim`, `dual_solver` and `exact` for timing wrappers.  Renaming or moving one
of them would otherwise show only when the traced benchmark runs.  No
experiment runs here.  The per-layer counts are result attributes read by
name, and a count that is not an int is dropped without an error, so a
renamed attribute would make those figures read 0.
"""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

from mmwassoc import cli, dual_solver, exact, sim
from mmwassoc.instance import example1_instance

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


def test_tracer_counts_are_ints_read_from_the_results(monkeypatch):
    inst = example1_instance(3)
    tracer = load_tracer(monkeypatch).Tracer()
    try:
        tracer.install(*MODULES)
        sim.run_daa(inst, max_iters=7)
        sim.solve_lp_relaxation(inst)
        sim.solve_milp_exact(inst)  # enumerates
        with mock.patch.object(exact, "ENUMERATION_LIMIT", 1):
            sim.solve_milp_exact(inst)  # branches and bounds
    finally:
        tracer.restore()
    counts = {rec["name"]: rec["info"] for rec in tracer.spans if rec.get("info")}
    assert counts["dual_solver.run_daa"] == {"iterations": 7}
    for name, key in [
        ("exact.solve_lp_relaxation", "pivots"),
        ("exact.enumerate_assignments", "assignments"),
        ("exact.branch_and_bound", "nodes"),
    ]:
        assert list(counts[name]) == [key]
        assert type(counts[name][key]) is int and counts[name][key] >= 1, (name, counts[name])


def test_tracer_counts_every_hot_call_the_program_makes(monkeypatch):
    # a hot call the program makes under another name than the patched one
    # would leave its counter at 0 and charge its time to the enclosing span;
    # a slot stage that bound a hooked name at import would call the original,
    # so that layer's span would be missing and its figure would read 0
    cfg = sim.ExperimentConfig(
        n_aps=2, n_clients=6, slots=1, daa_iters=20, seed=0, with_exact=True, force_exact=True
    )
    topo = sim.generate_topology(cfg)
    tracer = load_tracer(monkeypatch).Tracer()
    try:
        tracer.install(*MODULES)
        sim.run_daa(example1_instance(3), max_iters=7)
        assert sim.run_slot(cfg, topo, 0).p_exact is not None
    finally:
        tracer.restore()
    summary = tracer.summary()
    assert set(summary["spans"]) >= {
        "sim.run_slot",
        "instance.build_instance",
        "dual_solver.run_daa",
        "policies.random_policy",
        "policies.rssi_policy",
        "policies.jain_index",
        "dual_solver.duality_gap_bound",
        "exact.solve_lp_relaxation",
        "exact.solve_milp_exact",
    }
    assert summary["spans"]["policies.jain_index"]["calls"] == 4  # DAA, random, RSSI, exact
    calls = {name: counter["calls"] for name, counter in summary["counters"].items()}
    hot = ("channel.compute_gain", "channel.compute_rate", "dual_solver.project_simplex")
    assert sorted(calls) == sorted(hot)
    assert all(calls[name] > 0 for name in hot), calls
    iterations = summary["spans"]["dual_solver.run_daa"]["info"]["iterations"]
    assert iterations == 7 + cfg.daa_iters
    assert calls["dual_solver.project_simplex"] == iterations


def test_tracer_counts_the_iterations_of_a_slot_that_stops_early(monkeypatch):
    # slot 8 of this config closes its certified gap at k = 7 of K = 20
    cfg = sim.ExperimentConfig(n_aps=2, n_clients=6, slots=1, daa_iters=20, seed=0)
    topo = sim.generate_topology(cfg)
    tracer = load_tracer(monkeypatch).Tracer()
    try:
        tracer.install(*MODULES)
        assert sim.run_slot(cfg, topo, 8).feasible
    finally:
        tracer.restore()
    summary = tracer.summary()
    iterations = summary["spans"]["dual_solver.run_daa"]["info"]["iterations"]
    assert summary["counters"]["dual_solver.project_simplex"]["calls"] == iterations
    assert iterations < cfg.daa_iters
