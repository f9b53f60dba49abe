import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mmwassoc.channel import cell_radius, default_params
from mmwassoc import dual_solver, sim
from mmwassoc.cli import parse_experiment_config
from mmwassoc.instance import InfeasibleClientError
from mmwassoc.sim import (
    ExperimentConfig,
    SlotResult,
    WorkerError,
    aggregate,
    draw_instance,
    generate_topology,
    run_experiment,
    run_slot,
    score_slot,
    sweep,
)
from oracles import candidates_of_client, lens_over_union


WORKLOADS = Path(__file__).parent.parent / "bench" / "workloads"


def workload_cfg(name):
    return parse_experiment_config(json.loads((WORKLOADS / f"{name}.json").read_text()))


def small_cfg(**overrides):
    base = dict(n_aps=3, n_clients=12, slots=10, daa_iters=150, seed=42)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_single_ap_topology_covers_everyone():
    cfg = small_cfg(n_aps=1, n_clients=200)
    topo = generate_topology(cfg)
    radius = cell_radius(cfg.channel, cfg.target_snr_db)
    assert cfg.radius == pytest.approx(radius, rel=1e-12)
    dists = np.hypot(*(topo.client_positions - topo.ap_positions[0]).T)
    assert dists.max() <= radius
    assert candidates_of_client(topo) == ((0,),) * 200


def test_ap_spacing_follows_config():
    cfg = small_cfg(n_aps=4, ap_spacing_factor=1.3)
    topo = generate_topology(cfg)
    spacing = np.diff(topo.ap_positions[:, 0])
    assert spacing == pytest.approx([1.3 * cfg.radius] * 3, rel=1e-12)
    assert topo.ap_positions[:, 1] == pytest.approx([0.0] * 4, abs=0.0)


def test_two_cell_overlap_fraction_matches_lens_area():
    cfg = small_cfg(n_aps=2, n_clients=100_000)
    topo = generate_topology(cfg)
    expected = lens_over_union(cfg.radius, 1.1 * cfg.radius)
    overlap = sum(len(c) == 2 for c in candidates_of_client(topo)) / topo.n_clients
    assert overlap == pytest.approx(expected, rel=0.02)


def test_topology_reproducible_for_seed():
    cfg = small_cfg()
    t1 = generate_topology(cfg)
    t2 = generate_topology(cfg)
    assert np.array_equal(t1.client_positions, t2.client_positions)
    t3 = generate_topology(replace(cfg, seed=cfg.seed + 1))
    assert not np.array_equal(t1.client_positions, t3.client_positions)


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(n_clients=0)
    with pytest.raises(ValueError):
        small_cfg(slots=0)
    with pytest.raises(ValueError):
        small_cfg(demand_max=0.0)


def test_run_slot_is_pure():
    cfg = small_cfg()
    topo = generate_topology(cfg)
    assert repr(run_slot(cfg, topo, 3)) == repr(run_slot(cfg, topo, 3))


@pytest.mark.parametrize("name", ["mc_default", "mc_exact"])
def test_run_slot_is_the_draw_one_solve_and_the_score(name):
    cfg = workload_cfg(name)
    topo = generate_topology(cfg)
    for t in (0, 3):
        inst = draw_instance(cfg, topo, t)
        report = dual_solver.run_daa(inst, cfg.daa_iters, cfg.step_scale, stop_at_zero_gap=True)
        assert repr(run_slot(cfg, topo, t)) == repr(score_slot(cfg, inst, report, t))


def test_infeasible_draw_names_its_client_and_the_slot_counts_it():
    cfg = workload_cfg("mc_default")
    topo = generate_topology(cfg)
    with pytest.raises(InfeasibleClientError) as info:
        draw_instance(cfg, topo, 4)
    assert info.value.client == 61
    assert info.value.reason == "all candidate links pruned (utilization > 1)"
    assert repr(run_slot(cfg, topo, 4)) == repr(SlotResult(slot=4, feasible=False))


def test_single_slot_run_is_deterministic():
    cfg = small_cfg(slots=1)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert len(r1.slots) == 1
    assert repr(r1.slots) == repr(r2.slots)
    assert repr(r1.aggregates) == repr(r2.aggregates)


def test_worker_count_never_changes_results():
    cfg = small_cfg(slots=12, with_exact=True)
    serial = run_experiment(cfg, jobs=1)
    parallel = run_experiment(cfg, jobs=4)
    assert repr(serial.slots) == repr(parallel.slots)
    assert repr(serial.aggregates) == repr(parallel.aggregates)


@pytest.mark.parametrize(
    "jobs, slots, cpus, pool",
    [(10**6, 3, 8, 3), (10**6, 12, 4, 4), (3, 12, None, None), (2, 12, 2, 2), (5, 1, 8, None)],
)
def test_pool_is_bounded_by_slots_and_cpus(monkeypatch, share_counts, jobs, slots, cpus, pool):
    monkeypatch.setattr(sim.os, "cpu_count", lambda: cpus)
    cfg = small_cfg(slots=slots, daa_iters=20)
    result = run_experiment(cfg, jobs=jobs)
    assert share_counts == [1 if pool is None else pool]  # None: the caller runs every slot
    assert repr(result.slots) == repr(run_experiment(cfg, jobs=1).slots)


@pytest.mark.parametrize("slots", [1, 2, 3, 7])
def test_every_job_count_gives_the_same_results(monkeypatch, slots):
    # four CPUs, so that jobs up to 4 really start that many processes
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)
    cfg = small_cfg(slots=slots, daa_iters=40, with_exact=True)
    serial = run_experiment(cfg, jobs=1)
    for jobs in (2, 3, 4):
        result = run_experiment(cfg, jobs=jobs)
        assert repr(result.slots) == repr(serial.slots)
        assert repr(result.aggregates) == repr(serial.aggregates)


def test_failing_caller_share_leaves_no_worker_alive(monkeypatch):
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 3)
    caller, real = os.getpid(), sim.run_slot

    def run_slot(cfg, topo, slot):
        if os.getpid() == caller:
            raise RuntimeError(f"slot {slot} failed")
        time.sleep(60)  # the workers are still busy when the caller fails
        return real(cfg, topo, slot)

    monkeypatch.setattr(sim, "run_slot", run_slot)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="slot 0 failed"):
        run_experiment(small_cfg(slots=6, daa_iters=20), jobs=3)
    assert multiprocessing.active_children() == []
    assert time.monotonic() - start < 30


@pytest.fixture()
def process_starts(monkeypatch):
    """Two CPUs, so that jobs=2 runs two processes; returns the list of every
    process the test starts."""
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
    started, start = [], multiprocessing.process.BaseProcess.start

    def counting_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
    return started


def live_pids():
    return sorted(p.pid for p in multiprocessing.active_children())


def test_kept_worker_serves_later_experiments_and_sweep_cells(process_starts):
    cfg = small_cfg(slots=4, daa_iters=20)
    pids = []
    for _ in range(2):
        run_experiment(cfg, jobs=2)
        pids.append(live_pids())
    rows = sweep(cfg, "n_clients", [10, 12], jobs=2)
    pids.append(live_pids())
    assert [row["error"] for row in rows] == [None, None]
    assert len(process_starts) == 1
    assert pids == [[process_starts[0].pid]] * 3


def test_kept_worker_gives_the_serial_results_across_configs(process_starts):
    configs = [
        small_cfg(n_aps=2, n_clients=8, slots=4, daa_iters=30),
        small_cfg(n_aps=3, n_clients=8, slots=5, daa_iters=30, with_exact=True, force_exact=True),
    ]
    parallel = [run_experiment(cfg, jobs=2) for cfg in configs]
    assert len(process_starts) == 1
    for cfg, result in zip(configs, parallel):
        serial = run_experiment(cfg, jobs=1)
        assert repr(result.slots) == repr(serial.slots)
        assert repr(result.aggregates) == repr(serial.aggregates)
    assert len(process_starts) == 1  # jobs=1 starts nothing


def test_failing_share_closes_every_worker_and_the_next_call_starts_afresh(process_starts):
    cfg = small_cfg(slots=4, daa_iters=20)
    serial = run_experiment(cfg, jobs=1)
    run_experiment(cfg, jobs=2)
    # every slot fails: the caller raises at its slot 0 and never reads
    # the worker's reply, which must not reach the next call
    with pytest.raises(ValueError, match="too large to project"):
        run_experiment(small_cfg(slots=4, daa_iters=20, step_scale=1e17), jobs=2)
    assert multiprocessing.active_children() == []
    result = run_experiment(cfg, jobs=2)
    assert len(process_starts) == 2
    assert repr(result.slots) == repr(serial.slots)


def test_kept_worker_killed_between_experiments_is_a_worker_error(process_starts):
    cfg = small_cfg(slots=4, daa_iters=20)
    serial = run_experiment(cfg, jobs=1)
    run_experiment(cfg, jobs=2)
    (proc, _), = sim._workers
    proc.kill()
    proc.join(timeout=30)
    with pytest.raises(WorkerError, match=r"^a worker exited with code -9$"):
        run_experiment(cfg, jobs=2)
    assert sim._workers == [] and multiprocessing.active_children() == []
    run_experiment(cfg, jobs=2)  # starts afresh
    (proc, _), = sim._workers
    proc.kill()
    proc.join(timeout=30)
    # a sweep cell records the same error, and the next cell starts afresh
    rows = sweep(cfg, "n_clients", [12, 12], jobs=2)
    assert [row["error"] for row in rows] == ["WorkerError: a worker exited with code -9", None]
    assert len(process_starts) == 3
    assert repr(run_experiment(cfg, jobs=2).slots) == repr(serial.slots)


@pytest.mark.parametrize("jobs", [1, 2, 3, 4])
def test_the_smallest_failing_slot_is_raised_for_any_jobs(monkeypatch, jobs):
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)
    real = sim.run_slot

    def failing(cfg, topo, slot):
        if slot == 1:
            time.sleep(0.2)  # slot 3 fails first
        if slot in (1, 3):
            raise RuntimeError(f"slot {slot} failed")
        return real(cfg, topo, slot)

    monkeypatch.setattr(sim, "run_slot", failing)  # before the first fork
    with pytest.raises(RuntimeError, match=r"^slot 1 failed$"):
        run_experiment(small_cfg(slots=6, daa_iters=20), jobs=jobs)
    assert multiprocessing.active_children() == []


def test_uneven_slots_are_pulled_and_give_the_serial_results(process_starts, monkeypatch):
    caller, real, ran_here = os.getpid(), sim.run_slot, []

    def uneven(cfg, topo, slot):
        if os.getpid() == caller:
            ran_here.append(slot)
        if slot % 2 == 0:
            time.sleep(0.1)
        return real(cfg, topo, slot)

    monkeypatch.setattr(sim, "run_slot", uneven)
    cfg = small_cfg(slots=8, daa_iters=20)
    parallel = run_experiment(cfg, jobs=2)
    pulled_by_worker = set(range(cfg.slots)) - set(ran_here)
    serial = run_experiment(cfg, jobs=1)
    assert repr(parallel.slots) == repr(serial.slots)
    assert repr(parallel.aggregates) == repr(serial.aggregates)
    assert pulled_by_worker


def test_more_processes_than_cores_pull_each_slot_once(monkeypatch):
    # near-free slots keep every process at the counter: a lost update
    # would run a slot twice or never
    processes = 2 * (os.cpu_count() or 1) + 1
    monkeypatch.setattr(sim.os, "cpu_count", lambda: processes)
    monkeypatch.setattr(sim, "run_slot", lambda cfg, topo, slot: SlotResult(slot, False))
    cfg = small_cfg(n_aps=2, n_clients=6, slots=20_000)
    start = time.monotonic()
    result = run_experiment(cfg, jobs=processes)
    assert time.monotonic() - start < 60
    assert [r.slot for r in result.slots] == list(range(cfg.slots))


def test_closing_the_workers_drops_their_counter(process_starts):
    cfg = small_cfg(slots=4, daa_iters=20)
    run_experiment(cfg, jobs=2)
    counter = sim._counter
    run_experiment(cfg, jobs=2)
    assert sim._counter is counter  # kept with the workers
    sim._close_workers()
    assert sim._counter is None
    run_experiment(cfg, jobs=2)
    assert sim._counter is not None and sim._counter is not counter
    assert len(process_starts) == 2


ORPHAN_SCRIPT = """
import multiprocessing, os
from mmwassoc import sim
os.cpu_count = lambda: 2
sim.run_experiment(sim.ExperimentConfig(n_aps=2, n_clients=6, slots=4, daa_iters=20), jobs=2)
print(*(p.pid for p in multiprocessing.active_children()), flush=True)
os._exit(0)  # no atexit clean-up: the worker must end on its own
"""


def ended(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
def test_worker_ends_when_its_caller_dies_without_clean_up():
    src = os.path.join(os.path.dirname(sim.__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # the worker inherits stdout: read one line, not up to EOF
    with subprocess.Popen(
        [sys.executable, "-c", ORPHAN_SCRIPT], env=env, stdout=subprocess.PIPE, text=True
    ) as caller:
        (pid,) = map(int, caller.stdout.readline().split())
        assert caller.wait(timeout=60) == 0
    deadline = time.monotonic() + 5.0
    while not ended(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    try:
        assert ended(pid)
    finally:
        if not ended(pid):
            os.kill(pid, signal.SIGKILL)


@pytest.mark.parametrize("jobs", [0, -1])
def test_run_experiment_rejects_nonpositive_jobs(jobs):
    with pytest.raises(ValueError, match="jobs"):
        run_experiment(small_cfg(slots=1), jobs=jobs)


@pytest.mark.parametrize("jobs", [2.5, True, "2", None])
def test_run_experiment_refuses_jobs_that_are_not_an_integer(jobs, share_counts):
    # 2.5 and True ran, "2" raised a TypeError
    with pytest.raises(ValueError, match="^jobs must be an integer, got "):
        run_experiment(small_cfg(slots=2), jobs=jobs)
    assert share_counts == []


def test_run_experiment_takes_a_numpy_integer_jobs(share_counts):
    cfg = small_cfg(slots=2, daa_iters=20)
    assert run_experiment(cfg, jobs=np.int64(2)) == run_experiment(cfg, jobs=2)


def test_slots_that_stop_at_a_zero_gap_equal_full_runs(monkeypatch):
    # the README operating point at seed 0: a slot whose certified gap
    # closes stops early, and its results are those of all K iterations
    cfg = ExperimentConfig(n_aps=5, n_clients=100, slots=20, daa_iters=1000, seed=0)
    topo = generate_topology(cfg)
    iterations = []

    def recorded(inst, max_iters, step_scale, **kwargs):
        report = dual_solver.run_daa(inst, max_iters, step_scale, **kwargs)
        iterations.append(report.iterations_run)
        return report

    monkeypatch.setattr(sim, "run_daa", recorded)
    stopping = [run_slot(cfg, topo, t) for t in range(cfg.slots)]

    def full_run(inst, max_iters, step_scale, *, stop_at_zero_gap):
        assert stop_at_zero_gap
        return dual_solver.run_daa(inst, max_iters, step_scale)

    monkeypatch.setattr(sim, "run_daa", full_run)
    full = [run_slot(cfg, topo, t) for t in range(cfg.slots)]
    assert [repr(s) for s in stopping] == [repr(s) for s in full]
    assert min(iterations) < cfg.daa_iters == max(iterations)


def test_vanishing_demands_drive_objectives_to_zero():
    cfg = small_cfg(demand_max=1e-3, slots=3)
    res = run_experiment(cfg)
    for slot in res.slots:
        assert slot.feasible
        assert 0.0 < slot.p_daa < 1e-10
        assert 0.0 < slot.p_rssi < 1e-10


def test_oversized_demands_are_counted_not_averaged():
    cfg = small_cfg(demand_max=1e16, slots=5)
    res = run_experiment(cfg)
    assert res.aggregates["slots_infeasible"] == 5
    assert res.aggregates["p_daa"] is None


def test_exact_ordering_invariants_per_slot():
    cfg = small_cfg(
        n_aps=3, n_clients=10, slots=30, daa_iters=500, with_exact=True, force_exact=True
    )
    res = run_experiment(cfg)
    checked = 0
    for s in res.slots:
        if not s.feasible:
            continue
        checked += 1
        assert s.d_star <= s.p_exact + 1e-9
        assert s.d_star <= s.p_relax + 1e-8  # dual never beats the relaxation
        assert s.p_relax <= s.p_exact + 1e-9
        assert s.p_exact <= min(s.p_daa, s.p_rand, s.p_rssi) + 1e-9
        assert s.relative_gap == pytest.approx(
            (s.p_exact - s.d_star) / s.p_exact, abs=1e-15
        )
        assert s.relative_gap >= -1e-12
    assert checked >= 20


def test_aggregates_recompute_from_slots():
    cfg = small_cfg(slots=20, with_exact=True)
    res = run_experiment(cfg)
    feasible = [s for s in res.slots if s.feasible]
    assert res.aggregates["p_daa"] == float(np.mean([s.p_daa for s in feasible]))
    assert res.aggregates["p_rssi"] == float(np.mean([s.p_rssi for s in feasible]))
    assert res.aggregates["jain_rand"] == float(np.mean([s.jain_rand for s in feasible]))
    assert res.aggregates["slots_feasible"] == len(feasible)
    again = aggregate(res.slots)
    assert repr(again) == repr(res.aggregates)


def test_exact_auto_disabled_above_limit():
    cfg = small_cfg(n_aps=3, n_clients=15, slots=2, with_exact=True, exact_limit=0.5)
    res = run_experiment(cfg)
    assert all(s.p_exact is None for s in res.slots if s.feasible)
    assert res.aggregates["slots_with_exact"] == 0 < res.aggregates["slots_feasible"]


def test_gap_certificate_holds_per_slot():
    cfg = ExperimentConfig(
        n_aps=2,
        n_clients=10,
        slots=200,
        daa_iters=1000,
        seed=14,
        with_exact=True,
        force_exact=True,
    )
    res = run_experiment(cfg)
    for s in res.slots:
        if not s.feasible:
            continue
        assert s.relative_gap >= -1e-12
        assert s.p_exact - s.d_star <= s.gap_bound + 1e-9
    agg = res.aggregates
    assert agg["ave_rdg"] >= 0.0
    assert agg["ave_dg"] <= agg["gap_bound"]


def test_dual_solver_beats_strongest_signal_on_most_slots():
    cfg = ExperimentConfig(n_aps=5, n_clients=100, slots=100, daa_iters=300, seed=15)
    res = run_experiment(cfg)
    feasible = [s for s in res.slots if s.feasible]
    wins = sum(s.p_daa <= s.p_rssi for s in feasible)
    assert wins >= 0.95 * len(feasible)


def test_relative_gap_trend_with_client_count():
    # direction check: densifying clients shrinks the mean relative gap
    gaps = {}
    for m in (20, 120):
        cfg = ExperimentConfig(
            n_aps=3,
            n_clients=m,
            slots=200,
            daa_iters=2000,
            seed=31,
            with_exact=True,
            force_exact=True,
        )
        res = run_experiment(cfg)
        gaps[m] = res.aggregates["ave_rdg"]
    assert gaps[120] <= gaps[20]


def test_sweep_over_clients_shows_vanishing_relative_gap():
    cfg = ExperimentConfig(
        n_aps=3,
        n_clients=10,
        slots=80,
        daa_iters=1500,
        seed=21,
        with_exact=True,
        force_exact=True,
    )
    rows = sweep(cfg, "n_clients", [10, 40])
    assert all(row["error"] is None for row in rows)
    assert rows[1]["ave_rdg"] <= rows[0]["ave_rdg"]


def test_sweep_single_value_matches_run_experiment():
    cfg = small_cfg(slots=4)
    rows = sweep(cfg, "n_clients", [cfg.n_clients])
    direct = run_experiment(cfg)
    assert rows[0]["error"] is None
    assert rows[0]["p_daa"] == direct.aggregates["p_daa"]
    assert rows[0]["value"] == cfg.n_clients


def test_sweep_records_errors_and_continues():
    cfg = small_cfg(slots=2)
    rows = sweep(cfg, "n_clients", [0, 6])
    assert rows[0]["error"] is not None and "ValueError" in rows[0]["error"]
    assert rows[1]["error"] is None


def test_sweep_rejects_unknown_parameter():
    with pytest.raises(ValueError):
        sweep(small_cfg(), "demand_max", [1.0])
