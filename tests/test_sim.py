import math

import numpy as np
import pytest

from mmwassoc.channel import cell_radius, default_params
from mmwassoc import sim
from mmwassoc.sim import (
    ExperimentConfig,
    aggregate,
    generate_topology,
    run_experiment,
    run_slot,
    sweep,
)
from oracles import lens_over_union


def small_cfg(**overrides):
    base = dict(n_aps=3, n_clients=12, slots=10, daa_iters=150, seed=42)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_single_ap_topology_covers_everyone():
    cfg = small_cfg(n_aps=1, n_clients=200)
    topo = generate_topology(cfg)
    radius = cell_radius(cfg.channel, 10.0 ** (cfg.target_snr_db / 10.0))
    assert topo.radius == pytest.approx(radius, rel=1e-12)
    dists = np.hypot(*(topo.client_positions - topo.ap_positions[0]).T)
    assert dists.max() <= radius
    assert topo.candidates_of_client == ((0,),) * 200


def test_ap_spacing_follows_config():
    cfg = small_cfg(n_aps=4, ap_spacing_factor=1.3)
    topo = generate_topology(cfg)
    spacing = np.diff(topo.ap_positions[:, 0])
    assert spacing == pytest.approx([1.3 * topo.radius] * 3, rel=1e-12)
    assert topo.ap_positions[:, 1] == pytest.approx([0.0] * 4, abs=0.0)


def test_two_cell_overlap_fraction_matches_lens_area():
    cfg = small_cfg(n_aps=2, n_clients=100_000)
    topo = generate_topology(cfg)
    expected = lens_over_union(topo.radius, 1.1 * topo.radius)
    overlap = sum(len(c) == 2 for c in topo.candidates_of_client) / topo.n_clients
    assert overlap == pytest.approx(expected, rel=0.02)


def test_topology_reproducible_for_seed():
    cfg = small_cfg()
    t1 = generate_topology(cfg)
    t2 = generate_topology(cfg)
    assert np.array_equal(t1.client_positions, t2.client_positions)
    t3 = generate_topology(cfg, seed=cfg.seed + 1)
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
def test_pool_is_bounded_by_slots_and_cpus(monkeypatch, pool_sizes, jobs, slots, cpus, pool):
    monkeypatch.setattr(sim.os, "cpu_count", lambda: cpus)
    cfg = small_cfg(slots=slots, daa_iters=20)
    result = run_experiment(cfg, jobs=jobs)
    assert pool_sizes == ([] if pool is None else [pool])
    assert repr(result.slots) == repr(run_experiment(cfg, jobs=1).slots)


@pytest.mark.parametrize("jobs", [0, -1])
def test_run_experiment_rejects_nonpositive_jobs(jobs):
    with pytest.raises(ValueError, match="jobs"):
        run_experiment(small_cfg(slots=1), jobs=jobs)


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
    assert res.infeasible_slots == 5
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
    again = aggregate(cfg, res.slots)
    assert repr(again) == repr(res.aggregates)


def test_exact_auto_disabled_above_limit():
    cfg = small_cfg(n_aps=3, n_clients=15, slots=2, with_exact=True, exact_limit=0.5)
    res = run_experiment(cfg)
    assert all(s.p_exact is None for s in res.slots if s.feasible)
    assert res.exact_skipped == res.aggregates["slots_feasible"]


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
