"""Acceptance suite: one test per release criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the one-line verdicts.
Every tolerance here is fixed; nothing is calibrated at runtime.
"""

import time

import numpy as np
import pytest

from mmwassoc.cli import slots_csv
from mmwassoc.dual_solver import (
    convergence_bound,
    duality_gap_bound,
    project_simplex,
    run_daa,
)
from mmwassoc.exact import (
    branch_and_bound,
    enumerate_assignments,
    solve_lp_relaxation,
    solve_milp_exact,
)
from mmwassoc.instance import example1_instance, example2_instance, instance_from_beta
from mmwassoc.sim import ExperimentConfig, run_experiment
from oracles import (
    lp_cs_residual,
    lp_solution,
    random_full_instance,
    subproblems,
    trace_rows,
)

RELAXATION_SEED = 20240801


def _report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def relaxation_instances():
    """100 random instances with full candidate sets, solved by every route.

    The dual runs use step scale 2.0: with the default 1.0 the a/k schedule's
    total travel budget occasionally leaves a ~1.5e-3 residual at this
    iteration count (measured 1 miss in 400 instances), while 2.0 clears the
    1e-3 tolerance with margin on every draw (0 in 400, worst 7e-4).
    """
    rng = np.random.default_rng(RELAXATION_SEED)
    solved = []
    for _ in range(100):
        inst = random_full_instance(rng, n_lo=2, n_hi=4, m_lo=6, m_hi=15)
        lp = solve_lp_relaxation(inst)
        milp = solve_milp_exact(inst, lower_bound=lp.optimal_value)
        daa = run_daa(inst, max_iters=10_000, step_scale=2.0)
        solved.append((inst, lp, milp, daa))
    return solved


def test_criterion_1_strong_duality_fixtures():
    start = time.time()
    fixtures = [
        ("chain m=3", example1_instance(3, 0.5), 0.5),
        ("chain m=8", example1_instance(8, 0.5), 0.5),
        ("two-tier", example2_instance(2, 0.3, 2, 0.1), 0.5),
    ]
    worst_lp_gap = worst_dual_gap = 0.0
    for _name, inst, expected in fixtures:
        milp = solve_milp_exact(inst)
        lp = solve_lp_relaxation(inst)
        daa = run_daa(inst, max_iters=10_000, step_scale=1.0)
        assert milp.optimal_value == pytest.approx(expected, abs=1e-9)
        worst_lp_gap = max(worst_lp_gap, abs(milp.optimal_value - lp.optimal_value))
        worst_dual_gap = max(worst_dual_gap, abs(milp.optimal_value - daa.dual_value))
    ok = worst_lp_gap <= 1e-9 and worst_dual_gap <= 1e-3
    _report(
        1,
        ok,
        f"|p*-p*_relax|<= {worst_lp_gap:.2e} (tol 1e-9), "
        f"|p*-g_best| <= {worst_dual_gap:.2e} (tol 1e-3), {time.time()-start:.1f}s",
    )


def test_criterion_2_relaxation_equivalence(relaxation_instances):
    start = time.time()
    worst = 0.0
    violations = 0
    for _inst, lp, _milp, daa in relaxation_instances:
        residual = abs(lp.optimal_value - daa.dual_value) / max(1.0, lp.optimal_value)
        worst = max(worst, residual)
        if residual > 1e-3:
            violations += 1
    _report(
        2,
        violations == 0,
        f"100 instances (10^4 iters, a=2), worst |p*_relax - g_best|/"
        f"max(1,p*_relax) = {worst:.2e} (tol 1e-3), {time.time()-start:.1f}s",
    )


def test_criterion_3_duality_gap_certificate(relaxation_instances):
    violations = 0
    worst_slack = np.inf
    for inst, lp, milp, _daa in relaxation_instances:
        gap = milp.optimal_value - lp.optimal_value
        bound = duality_gap_bound(inst)
        if not (-1e-9 <= gap <= bound + 1e-9):
            violations += 1
        worst_slack = min(worst_slack, bound - gap)
    _report(
        3,
        violations == 0,
        f"100 instances, 0 <= p*-p*_relax <= (N+1)(rho+max rho_j); "
        f"min bound slack {worst_slack:.3f}, violations {violations}",
    )


def test_criterion_4_convergence_bound():
    rng = np.random.default_rng(404)
    violations = 0
    closest = np.inf
    for _ in range(20):
        inst = random_full_instance(rng, n_lo=2, n_hi=4, m_lo=6, m_hi=15)
        d_star = solve_lp_relaxation(inst).optimal_value
        report = run_daa(inst, max_iters=2000, step_scale=1.0)
        for k, _g, _t, g_best, _p in trace_rows(report):
            margin = convergence_bound(inst, 1.0, k) - (d_star - g_best)
            closest = min(closest, margin)
            if margin < -1e-9:
                violations += 1
    _report(
        4,
        violations == 0,
        f"20 instances x k in 1..2000: d*-g_best^(k) <= bound(k); "
        f"min margin {closest:.4f}",
    )


def test_criterion_5_policy_comparison_direction():
    start = time.time()
    cfg = ExperimentConfig(n_aps=5, n_clients=100, slots=200, daa_iters=300, seed=1)
    agg = run_experiment(cfg).aggregates
    ratio = agg["p_daa"] / agg["p_rssi"]
    ok = ratio <= 0.92 and agg["p_rssi"] < agg["p_rand"]
    _report(
        5,
        ok,
        f"P_daa/P_rssi = {ratio:.3f} (need <= 0.92), "
        f"P_rssi {agg['p_rssi']:.3f} < P_rand {agg['p_rand']:.3f}, "
        f"{time.time()-start:.0f}s",
    )


def test_criterion_6_asymptotic_optimality_trend():
    start = time.time()
    gaps = []
    for m in (10, 20, 40):
        cfg = ExperimentConfig(
            n_aps=3,
            n_clients=m,
            slots=200,
            daa_iters=2000,
            seed=6,
            with_exact=True,
            force_exact=True,
        )
        gaps.append(run_experiment(cfg).aggregates["ave_rdg"])
    ok = gaps[0] >= gaps[1] >= gaps[2] and gaps[2] <= 0.10
    _report(
        6,
        ok,
        f"mean relative duality gap at M=10/20/40: "
        f"{gaps[0]:.4f} >= {gaps[1]:.4f} >= {gaps[2]:.4f}, last <= 0.10; "
        f"{time.time()-start:.0f}s",
    )


def test_criterion_7_fairness_direction():
    start = time.time()
    cfg = ExperimentConfig(n_aps=5, n_clients=100, slots=100, daa_iters=1000, seed=7)
    agg = run_experiment(cfg).aggregates
    small = ExperimentConfig(
        n_aps=5,
        n_clients=20,
        slots=100,
        daa_iters=1000,
        seed=7,
        with_exact=True,
        force_exact=True,
    )
    agg_small = run_experiment(small).aggregates
    ok = (
        agg["jain_daa"] >= agg["jain_rssi"]
        and agg_small["jain_daa"] >= 0.9 * agg_small["jain_exact"]
    )
    _report(
        7,
        ok,
        f"J_daa {agg['jain_daa']:.4f} >= J_rssi {agg['jain_rssi']:.4f}; "
        f"M=20: J_daa {agg_small['jain_daa']:.4f} >= 0.9*J* "
        f"{0.9 * agg_small['jain_exact']:.4f}; {time.time()-start:.0f}s",
    )


def test_criterion_8_property_suites(relaxation_instances):
    start = time.time()
    rng = np.random.default_rng(808)

    # projection: KKT optimality, idempotence, nonexpansiveness on 1e4 vectors
    def project(v):
        return np.array(project_simplex(v.tolist()))

    worst_kkt = worst_idem = worst_expand = 0.0
    prev = None
    for _ in range(10_000):
        n = int(rng.integers(2, 10))
        v = rng.normal(0.0, 4.0, size=n)
        x = project(v)
        assert x.min() >= 0.0 and abs(x.sum() - 1.0) <= 1e-9
        samples = rng.dirichlet(np.ones(n), size=16)
        worst_kkt = max(worst_kkt, float(((samples - x) @ (v - x)).max()))
        worst_idem = max(worst_idem, float(np.abs(project(x) - x).max()))
        if prev is not None and prev.size == n:
            expansion = np.linalg.norm(x - project(prev)) - np.linalg.norm(v - prev)
            worst_expand = max(worst_expand, float(expansion))
        prev = v
    projection_ok = worst_kkt <= 1e-9 and worst_idem <= 1e-12 and worst_expand <= 1e-12

    # monotone best-value traces on a subsample, weak duality on every
    # oracle-checked instance (every dual value g_k of the run, and random prices)
    monotone_ok = weak_duality_ok = True
    for inst, _lp, _milp, _daa in relaxation_instances[:25]:
        trace = trace_rows(run_daa(inst, max_iters=400))
        for prev_row, row in zip(trace, trace[1:]):
            if row[3] < prev_row[3] or row[4] > prev_row[4]:
                monotone_ok = False
    for inst, _lp, milp, daa in relaxation_instances:
        if any(g > milp.optimal_value + 1e-9 for g in daa.duals):
            weak_duality_ok = False
        for _ in range(5):
            lam = rng.dirichlet(np.ones(inst.n_aps))
            if subproblems(inst, lam)[1] > milp.optimal_value + 1e-9:
                weak_duality_ok = False

    # determinism: same seed, same CSV bytes, any worker count
    cfg = ExperimentConfig(
        n_aps=3, n_clients=15, slots=16, daa_iters=200, seed=88, with_exact=True
    )
    csv_serial = slots_csv(run_experiment(cfg, jobs=1))
    csv_parallel = slots_csv(run_experiment(cfg, jobs=8))
    determinism_ok = csv_serial == csv_parallel

    ok = projection_ok and monotone_ok and weak_duality_ok and determinism_ok
    _report(
        8,
        ok,
        f"projection(kkt={worst_kkt:.1e}, idem={worst_idem:.1e}, "
        f"nonexp={worst_expand:.1e}) monotone={monotone_ok} "
        f"weak_duality={weak_duality_ok} "
        f"csv_1v8_workers={determinism_ok}; {time.time()-start:.0f}s",
    )


def test_criterion_9_oracle_self_consistency():
    start = time.time()
    rng = np.random.default_rng(909)
    mismatches = lp_mismatches = 0
    worst_cs = 0.0
    count = 0
    while count < 100:
        n = int(rng.integers(2, 5))
        m = int(rng.integers(6, 13))
        beta = {}
        for j in range(m):
            size = int(rng.integers(1, n + 1))
            for i in rng.choice(n, size=size, replace=False):
                beta[(int(i), j)] = float(1.0 - rng.uniform())
        inst = instance_from_beta(n, m, beta)
        if inst.candidate_product() > 1e5:
            continue
        count += 1
        enum = enumerate_assignments(inst)
        bnb = branch_and_bound(inst)
        if abs(enum.optimal_value - bnb.optimal_value) > 1e-12:
            mismatches += 1
        lp = lp_solution(inst)
        if lp.value != solve_lp_relaxation(inst).optimal_value:
            lp_mismatches += 1
        worst_cs = max(worst_cs, lp_cs_residual(inst, lp))
    ok = mismatches == 0 and lp_mismatches == 0 and worst_cs <= 1e-8
    print(
        "ACCEPTANCE 9 note: solver per-iteration cost is O(sum_j |N_j|) for the "
        "client subproblems/subgradient plus O(N log N) for the projection."
    )
    _report(
        9,
        ok,
        f"100 instances: branch-and-bound == enumeration (mismatches "
        f"{mismatches}), LP complementary slackness <= {worst_cs:.1e} "
        f"(tol 1e-8) at the value solve_lp_relaxation reports (mismatches "
        f"{lp_mismatches}); {time.time()-start:.0f}s",
    )
