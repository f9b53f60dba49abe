import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmwassoc import dual_solver
from mmwassoc.dual_solver import (
    convergence_bound,
    duality_gap_bound,
    project_simplex,
    run_daa,
    trace_csv_lines,
)
from mmwassoc.exact import solve_lp_relaxation
from mmwassoc.instance import (
    example1_instance,
    instance_from_beta,
    make_assignment,
)
from oracles import (
    brute_force,
    projection_kkt_violation,
    random_full_instance,
    random_subset_instance,
    recording,
    subproblems,
    trace_rows,
)
from test_dual_reference import instances


def pair_instance():
    # client 0: betas (0.4, 0.6); client 1: betas (0.5, 0.5); both see both APs
    return instance_from_beta(2, 2, {(0, 0): 0.4, (1, 0): 0.6, (0, 1): 0.5, (1, 1): 0.5})


def test_client_subproblem_picks_cheapest_product():
    choices, _ = subproblems(pair_instance(), [0.5, 0.5])
    assert choices[0] == 0  # 0.20 < 0.30


def test_client_subproblem_zero_price_wins():
    choices, _ = subproblems(pair_instance(), [0.0, 1.0])
    assert choices[0] == 0


def test_client_subproblem_tie_breaks_to_smallest_index():
    choices, _ = subproblems(pair_instance(), [0.5, 0.5])
    assert choices[1] == 0


def test_dual_value_sums_per_client_minima():
    _, dual = subproblems(pair_instance(), [0.5, 0.5])
    assert dual == pytest.approx(0.20 + 0.25, abs=1e-12)
    single = instance_from_beta(1, 1, {(0, 0): 0.5})
    assert subproblems(single, [1.0])[1] == pytest.approx(0.5, abs=1e-12)


def test_dual_value_at_vertex_counts_only_pinned_clients():
    # client 0 pinned to AP 0; clients 1, 2 see both APs
    inst = instance_from_beta(
        2, 3, {(0, 0): 0.7, (0, 1): 0.4, (1, 1): 0.9, (0, 2): 0.3, (1, 2): 0.8}
    )
    assert subproblems(inst, [1.0, 0.0])[1] == pytest.approx(0.7, abs=1e-12)
    assert subproblems(inst, [0.0, 1.0])[1] == pytest.approx(0.0, abs=1e-12)


def test_subgradient_is_negative_load():
    inst = instance_from_beta(2, 2, {(0, 0): 0.3, (0, 1): 0.2, (1, 1): 0.9})
    a = make_assignment(inst, [0, 0])
    u = -np.array(a.loads)
    assert u == pytest.approx([-0.5, 0.0], abs=1e-12)
    # -u recomputed per AP equals the per-AP utilization of the assignment
    assert (-u).max() == pytest.approx(a.objective, abs=1e-12)


def project(v: np.ndarray) -> np.ndarray:
    """`project_simplex` on an array, as an array."""
    return np.array(project_simplex(v.tolist()))


def test_project_simplex_fixes_members():
    v = [0.2, 0.5, 0.3]
    assert project_simplex(v) == pytest.approx(v, abs=1e-15)


def test_project_simplex_symmetry_and_clamp():
    assert project_simplex([0.6, 0.6]) == pytest.approx([0.5, 0.5], abs=1e-15)
    assert project_simplex([1.2, -0.2]) == pytest.approx([1.0, 0.0], abs=1e-15)


def test_project_simplex_kkt_idempotence_nonexpansiveness():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        v = rng.normal(0.0, 3.0, size=n)
        x = project(v)
        assert x.min() >= 0.0
        assert x.sum() == pytest.approx(1.0, abs=1e-9)
        assert projection_kkt_violation(v, x, rng) <= 1e-9
        assert project(x) == pytest.approx(x, abs=1e-12)
        w = rng.normal(0.0, 3.0, size=n)
        assert np.linalg.norm(project(v) - project(w)) <= np.linalg.norm(v - w) + 1e-12


def test_project_simplex_rejects_bad_input():
    for v in ([math.nan], [math.nan, 0.5], [0.5, math.nan], [math.inf, 0.0], [0.5, -math.inf]):
        with pytest.raises(ValueError, match="entries must be finite"):
            project_simplex(v)
    with pytest.raises(ValueError, match="expected a nonempty 1-D vector"):
        project_simplex([])


def test_run_daa_solves_chain_fixture():
    inst = example1_instance(3)
    report = run_daa(inst, max_iters=2000, step_scale=1.0)
    assert report.dual_value == pytest.approx(0.5, abs=1e-3)
    assert report.primal_value == pytest.approx(0.5, abs=1e-3)
    assert report.gap_certificate >= 0.0


def test_run_daa_single_client_converges_immediately():
    inst = instance_from_beta(1, 1, {(0, 0): 0.42})
    report = run_daa(inst, max_iters=1)
    assert report.primal_value == pytest.approx(0.42, abs=1e-15)
    assert report.dual_value == pytest.approx(0.42, abs=1e-15)
    assert report.assignment.ap_of_client == (0,)


def test_run_daa_trace_sandwiches_brute_force_optimum():
    rng = np.random.default_rng(7)
    inst = random_full_instance(rng, n_lo=2, n_hi=2, m_lo=6, m_hi=6)
    p_star, _ = brute_force(inst)
    report = run_daa(inst, max_iters=300)
    for _k, g, t_k, g_best, p_best in trace_rows(report):
        assert g <= p_star + 1e-9
        assert g_best <= p_star + 1e-9
        assert t_k >= p_star - 1e-12
        assert p_best >= p_star - 1e-12


def test_run_daa_monotone_best_values():
    rng = np.random.default_rng(11)
    inst = random_subset_instance(rng)
    trace = trace_rows(run_daa(inst, max_iters=500))
    for prev, cur in zip(trace, trace[1:]):
        assert cur[3] >= prev[3]  # g_best nondecreasing
        assert cur[4] <= prev[4]  # p_best nonincreasing
        assert cur[3] <= cur[4] + 1e-12  # weak duality along the run


def test_run_daa_validates_arguments():
    inst = example1_instance(2)
    with pytest.raises(ValueError):
        run_daa(inst, max_iters=0)
    with pytest.raises(ValueError):
        run_daa(inst, max_iters=10, step_scale=0.0)
    for max_iters in (2.5, 10.0, True):
        with pytest.raises(ValueError, match="^max_iters must be an integer, got "):
            run_daa(inst, max_iters)
    for step_scale in (True, "1.0"):
        with pytest.raises(ValueError, match="^step_scale must be a real number, got "):
            run_daa(inst, 10, step_scale=step_scale)


def test_run_daa_takes_a_numpy_iteration_count():
    inst = example1_instance(3)
    assert run_daa(inst, np.int64(30)).duals == run_daa(inst, 30).duals


def test_price_scaling_leaves_subproblems_unchanged():
    rng = np.random.default_rng(13)
    inst = random_subset_instance(rng)
    prices = rng.dirichlet(np.ones(inst.n_aps))
    choices, _ = subproblems(inst, prices)
    for scale in (0.1, 3.0, 250.0):
        assert subproblems(inst, scale * prices)[0] == choices


@pytest.mark.parametrize("m", [3, 4, 5])
def test_stopped_chain_run_keeps_an_earlier_dual_value(m):
    # the chain's gap closes at k = 3 or 7 with g_best = 0.5; a full run
    # reaches a dual value one ulp above 0.5 from k = 26 to 31 on, at prices
    # that sum above 1 (see the next test)
    inst = example1_instance(m)
    stopped = run_daa(inst, max_iters=100, stop_at_zero_gap=True)
    full = run_daa(inst, max_iters=100)
    n = stopped.iterations_run
    assert n == (3 if m == 3 else 7)
    assert full.iterations_run == 100  # without the stop, all K iterations
    assert stopped.duals == full.duals[:n] and stopped.primals == full.primals[:n]
    assert stopped.assignment == full.assignment
    assert repr(stopped.primal_value) == repr(full.primal_value) == "0.5"
    assert repr(stopped.dual_value) == "0.5"
    assert repr(full.dual_value) == "0.5000000000000001"


@pytest.mark.parametrize(
    ("m", "best_k", "dual"), [(3, 26, "0.5000000000000001"), (8, 3, "0.5000000000000002")]
)
def test_dual_value_above_the_optimum_comes_from_prices_summing_above_one(m, best_k, dual):
    # g_best passes the chain's optimum 1/2 because the best iterate's float
    # prices sum to slightly more than 1, not because the dual sum rounds:
    # the exact dual value at those prices rounds to the float reported, and
    # at the prices scaled onto the simplex it is exactly the optimum
    inst = example1_instance(m)
    with recording(dual_solver, "project_simplex") as projected:
        report = run_daa(inst, max_iters=100)
    assert report.duals.index(report.dual_value) + 1 == best_k
    # the prices iteration best_k weighs with, projected after iteration best_k - 1
    prices = [Fraction(p) for p in projected[best_k - 2].tolist()]
    beta, ap = inst.beta.tolist(), inst.pairs.ap.tolist()
    exact = sum(
        min(Fraction(beta[q]) * prices[ap[q]] for q in row)
        for row in inst.pairs.table.tolist()
    )
    assert sum(prices) > 1
    assert exact > Fraction(1, 2) and repr(float(exact)) == repr(report.dual_value) == dual
    assert exact / sum(prices) == Fraction(1, 2) == Fraction(report.primal_value)


def test_convergence_bound_decreasing_in_k():
    inst = example1_instance(4)
    bounds = [convergence_bound(inst, 1.0, k) for k in (1, 2, 5, 10, 100, 1000)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("step", [math.inf, math.nan, -math.inf, 0.0, -1.0])
def test_convergence_bound_rejects_step_outside_positive_finite(step):
    with pytest.raises(ValueError, match="step_scale"):
        convergence_bound(example1_instance(2), step, 10)


@pytest.mark.parametrize("k", [2.5, 3.0, True, "3", None])
def test_convergence_bound_refuses_a_k_that_is_not_an_integer(k):
    # 2.5 gave the k=3 bound and True the k=1 bound
    with pytest.raises(ValueError, match="^k must be an integer, got "):
        convergence_bound(example1_instance(3), 1.0, k)


@pytest.mark.parametrize("step", [True, "1.0", None])
def test_convergence_bound_refuses_a_step_scale_that_is_not_a_real_number(step):
    with pytest.raises(ValueError, match="^step_scale must be a real number, got "):
        convergence_bound(example1_instance(3), step, 10)


def test_convergence_bound_takes_numpy_numbers():
    inst = example1_instance(3)
    expected = convergence_bound(inst, 1.0, 3)
    assert convergence_bound(inst, np.float64(1.0), np.int64(3)) == expected
    assert convergence_bound(inst, 1, 3) == expected


def test_convergence_bound_quadratic_in_utilizations():
    inst = instance_from_beta(2, 2, {(0, 0): 0.2, (1, 1): 0.3})
    doubled = instance_from_beta(2, 2, {(0, 0): 0.4, (1, 1): 0.6})
    k, a = 50, 1.3
    harmonic = sum(1.0 / l for l in range(1, k + 1))
    g_term = convergence_bound(inst, a, k) * a * harmonic - 1.0
    g_term_doubled = convergence_bound(doubled, a, k) * a * harmonic - 1.0
    assert g_term_doubled == pytest.approx(4.0 * g_term, rel=1e-9)


def test_convergence_bound_dominates_dual_suboptimality():
    rng = np.random.default_rng(37)
    for _ in range(4):
        inst = random_full_instance(rng)
        d_star = solve_lp_relaxation(inst).optimal_value
        report = run_daa(inst, max_iters=2000, step_scale=1.0)
        for k, _g, _t, g_best, _p in trace_rows(report):
            assert d_star - g_best <= convergence_bound(inst, 1.0, k) + 1e-9


def test_duality_gap_bound_examples():
    inst = instance_from_beta(2, 2, {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0})
    assert duality_gap_bound(inst) == pytest.approx(6.0, abs=1e-12)
    single = instance_from_beta(2, 1, {(0, 0): 0.4, (1, 0): 0.6})
    assert duality_gap_bound(single) >= 0.0


def test_duality_gap_bound_certifies_random_instances():
    rng = np.random.default_rng(41)
    for _ in range(15):
        inst = random_subset_instance(rng, m_lo=3, m_hi=8)
        p_star, _ = brute_force(inst)
        d_star = solve_lp_relaxation(inst).optimal_value
        gap = p_star - d_star
        assert -1e-9 <= gap <= duality_gap_bound(inst) + 1e-9


@settings(max_examples=200, deadline=None, derandomize=True)
@given(instances(), st.integers(1, 60))
@example(example1_instance(2), 5)
def test_trace_csv_lines_shape(inst, iters):
    # the trace and the report's values derive from the g_k and t_k series
    report = run_daa(inst, max_iters=iters)
    lines = trace_csv_lines(report)
    assert lines[0] == "k,g_lambda,t_k,g_best,p_best"
    assert len(lines) == iters + 1
    rows = trace_rows(report)
    assert [k for k, *_ in rows] == list(range(1, iters + 1))
    assert repr([g for _k, g, *_ in rows]) == repr(report.duals)
    assert repr([t_k for _k, _g, t_k, *_ in rows]) == repr(report.primals)
    for prev, cur in zip(rows, rows[1:]):
        assert cur[3] >= prev[3] and cur[4] <= prev[4]
    assert repr(rows[-1][3:]) == repr((report.dual_value, report.primal_value))
    assert report.iterations_run == iters and type(report.iterations_run) is int
    gap = max(0.0, report.primal_value - report.dual_value)
    assert repr(report.gap_certificate) == repr(gap)
