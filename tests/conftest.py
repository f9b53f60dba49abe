import multiprocessing

import pytest

from mmwassoc import sim


@pytest.fixture(autouse=True)
def no_child_left_alive():
    """Close the harness's kept workers, then fail any test that leaves a
    live child process behind.  Closing also keeps a worker forked in one
    test from running another test's patched module."""
    yield
    sim._close_workers()
    alive = multiprocessing.active_children()
    for proc in alive:
        proc.terminate()
        proc.join()
    if alive:
        pytest.fail(f"the test left child processes alive: {alive}")


@pytest.fixture()
def share_counts(monkeypatch):
    """Run the harness's slots serially in this process and return the list
    of process counts it was asked for, one per experiment.  No process
    starts, so tests may pass any `jobs` value."""
    counts = []

    def serial(cfg, topo, processes):
        counts.append(processes)
        return [sim.run_slot(cfg, topo, t) for t in range(cfg.slots)]

    monkeypatch.setattr(sim, "_run_shares", serial)
    return counts
