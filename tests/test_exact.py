import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from mmwassoc import sim
from mmwassoc.cli import parse_experiment_config
from mmwassoc.dual_solver import dual_value, run_daa
from mmwassoc.exact import (
    NodeBudgetExceeded,
    _greedy_incumbent,
    _pivot,
    branch_and_bound,
    enumerate_assignments,
    lp_cs_residual,
    solve_lp_relaxation,
    solve_milp_exact,
)
from mmwassoc.instance import (
    example1_instance,
    example2_instance,
    instance_from_beta,
    make_assignment,
)
from oracles import (
    beta_dict,
    brute_force,
    random_full_instance,
    random_subset_instance,
    ref_pivot,
    ref_solve_lp_relaxation,
)


def scipy_lp_value(inst):
    """Independent LP oracle via scipy's HiGHS backend."""
    beta = beta_dict(inst)
    pairs = sorted(beta, key=lambda p: (p[1], p[0]))
    n_pairs = len(pairs)
    c = np.zeros(1 + n_pairs)
    c[0] = 1.0
    a_ub = np.zeros((inst.n_aps, 1 + n_pairs))
    a_ub[:, 0] = -1.0
    a_eq = np.zeros((inst.n_clients, 1 + n_pairs))
    for idx, (i, j) in enumerate(pairs):
        a_ub[i, 1 + idx] = beta[(i, j)]
        a_eq[j, 1 + idx] = 1.0
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(inst.n_aps),
        A_eq=a_eq,
        b_eq=np.ones(inst.n_clients),
        bounds=[(0, None)] + [(0, 1)] * n_pairs,
        method="highs",
    )
    assert res.status == 0
    return res.fun


def test_enumeration_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        inst = random_subset_instance(rng, m_lo=3, m_hi=8)
        oracle_val, _ = brute_force(inst)
        result = enumerate_assignments(inst)
        assert result.optimal_value == pytest.approx(oracle_val, abs=1e-12)
        assert result.assignment.objective == pytest.approx(oracle_val, abs=1e-12)
        assert result.nodes_explored == int(inst.candidate_product())


@st.composite
def small_search_spaces(draw):
    """Instances with N in 1..5, M in 0..9 and at most 20,000 assignments.

    Utilizations come from a small set, so exact ties between assignments
    are common; 0.1 and 0.3 are not dyadic, so their sums round.  A client
    may be pinned to one AP."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 9))
    beta, product = {}, 1
    for j in range(m):
        widest = min(n, 20_000 // product)
        aps = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=widest, unique=True))
        product *= len(aps)
        for i in aps:
            beta[(i, j)] = draw(st.sampled_from([0.125, 0.25, 0.5, 0.75, 0.1, 0.3]))
    return instance_from_beta(n, m, beta)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_search_spaces())
def test_bounded_enumeration_matches_brute_force_bitwise(inst):
    oracle_val, oracle_map = brute_force(inst)
    result = enumerate_assignments(inst)
    assert repr(result.optimal_value) == repr(oracle_val)
    assert result.assignment.ap_of_client == oracle_map
    assert result.nodes_explored == int(inst.candidate_product())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_search_spaces(), st.data())
def test_enumeration_bounded_by_a_warm_start_matches_brute_force_bitwise(inst, data):
    # any map may warm-start, the first optimum itself (the tightest bound) too
    oracle_val, oracle_map = brute_force(inst)
    drawn = tuple(data.draw(st.sampled_from(c)) for c in inst.candidates_of_client)
    warm = make_assignment(inst, data.draw(st.sampled_from([oracle_map, drawn])))
    for result in (enumerate_assignments(inst, warm_start=warm), solve_milp_exact(inst, warm_start=warm)):
        assert repr(result.optimal_value) == repr(oracle_val)
        assert result.assignment.ap_of_client == oracle_map
        assert result.nodes_explored == int(inst.candidate_product())


def test_enumeration_returns_first_optimum_when_greedy_ties_later():
    # greedy places client 1 (the harder one) first: map (1, 0) at 0.5; the
    # lexicographically earlier (0, 1) reaches the same 0.5
    inst = instance_from_beta(
        2, 2, {(0, 0): 0.25, (1, 0): 0.25, (0, 1): 0.5, (1, 1): 0.5}
    )
    assert _greedy_incumbent(inst) == ([1, 0], 0.5)
    result = enumerate_assignments(inst)
    assert result.optimal_value == 0.5
    assert result.assignment.ap_of_client == (0, 1)


def test_zero_client_instance_has_empty_optimum():
    inst = instance_from_beta(3, 0, {})
    for result in (enumerate_assignments(inst), solve_milp_exact(inst)):
        assert result.optimal_value == 0.0
        assert result.assignment.ap_of_client == ()
        assert result.nodes_explored == 1


def test_enumeration_respects_limit():
    inst = random_full_instance(np.random.default_rng(5), n_lo=3, n_hi=3, m_lo=10, m_hi=10)
    with pytest.raises(ValueError, match="enumeration limit"):
        enumerate_assignments(inst, limit=100)


def test_branch_and_bound_equals_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(25):
        inst = random_subset_instance(rng, n_lo=2, n_hi=4, m_lo=4, m_hi=10)
        enum = enumerate_assignments(inst)
        bnb = branch_and_bound(inst)
        assert bnb.optimal_value == pytest.approx(enum.optimal_value, abs=1e-12)
        assert bnb.assignment.objective == pytest.approx(enum.optimal_value, abs=1e-12)


def test_branch_and_bound_accepts_warm_start():
    rng = np.random.default_rng(13)
    inst = random_full_instance(rng, n_lo=3, n_hi=3, m_lo=12, m_hi=12)
    enum = enumerate_assignments(inst)
    warm = run_daa(inst, 500).assignment
    bnb = branch_and_bound(inst, warm_start=warm)
    assert bnb.optimal_value == pytest.approx(enum.optimal_value, abs=1e-12)


def test_budget_exhaustion_carries_incumbent():
    rng = np.random.default_rng(17)
    inst = random_full_instance(rng, n_lo=4, n_hi=4, m_lo=12, m_hi=12)
    with pytest.raises(NodeBudgetExceeded) as err:
        branch_and_bound(inst, node_budget=10)
    incumbent = err.value.incumbent
    assert incumbent.assignment is not None
    assert incumbent.optimal_value >= brute_force(inst)[0] - 1e-12


def test_budget_exhaustion_survives_pickling():
    # a worker process sends its exception to the caller pickled
    rng = np.random.default_rng(17)
    inst = random_full_instance(rng, n_lo=4, n_hi=4, m_lo=12, m_hi=12)
    with pytest.raises(NodeBudgetExceeded) as err:
        branch_and_bound(inst, node_budget=10)
    copy = pickle.loads(pickle.dumps(err.value))
    assert type(copy) is NodeBudgetExceeded
    assert str(copy) == str(err.value)
    assert repr(copy.incumbent) == repr(err.value.incumbent)


def test_budget_exhaustion_counts_only_budgeted_nodes():
    # the node that would break the budget is never evaluated, so not counted
    rng = np.random.default_rng(17)
    inst = random_full_instance(rng, n_lo=3, n_hi=3, m_lo=30, m_hi=30)
    with pytest.raises(NodeBudgetExceeded, match=r"exhausted after 10 nodes;") as err:
        branch_and_bound(inst, node_budget=10)
    assert err.value.incumbent.nodes_explored == 10


def test_budget_equal_to_search_size_finishes_and_one_less_stops():
    rng = np.random.default_rng(23)
    inst = random_full_instance(rng, n_lo=3, n_hi=3, m_lo=9, m_hi=9)
    full = branch_and_bound(inst)
    assert repr(branch_and_bound(inst, node_budget=full.nodes_explored)) == repr(full)
    with pytest.raises(NodeBudgetExceeded) as err:
        branch_and_bound(inst, node_budget=full.nodes_explored - 1)
    assert err.value.incumbent.nodes_explored == full.nodes_explored - 1


def test_branch_and_bound_depth_is_not_bounded_by_recursion():
    # one branching level per client: far deeper than Python's recursion limit
    rng = np.random.default_rng(53)
    m = 1500
    beta = {(i, j): float(1.0 - rng.uniform()) for i in range(2) for j in range(m)}
    inst = instance_from_beta(2, m, beta)
    try:
        result = branch_and_bound(inst, node_budget=100_000)
    except NodeBudgetExceeded as err:
        result = err.incumbent
    assert result.assignment is not None
    assert result.optimal_value == result.assignment.objective


def test_solve_milp_routes_small_to_enumeration():
    inst = example1_instance(3, 0.5)
    result = solve_milp_exact(inst)
    assert result.optimal_value == pytest.approx(0.5, abs=1e-12)
    assert result.assignment.ap_of_client == (0, 1, 2)
    assert result.nodes_explored == 4  # 1*2*2 assignments enumerated


def test_solve_milp_routes_large_to_branch_and_bound():
    rng = np.random.default_rng(19)
    inst = random_full_instance(rng, n_lo=3, n_hi=3, m_lo=14, m_hi=14)
    result = solve_milp_exact(inst, enumeration_limit=1000)
    assert result.optimal_value == pytest.approx(brute_force(inst)[0], abs=1e-12)


def test_single_client_optimum_is_cheapest_link():
    inst = instance_from_beta(3, 1, {(0, 0): 0.5, (1, 0): 0.2, (2, 0): 0.9})
    result = solve_milp_exact(inst)
    assert result.optimal_value == pytest.approx(0.2, abs=1e-15)
    assert result.assignment.ap_of_client == (1,)


def test_lp_relaxation_on_strong_duality_fixtures():
    chain = example1_instance(3, 0.5)
    assert solve_lp_relaxation(chain).optimal_value == pytest.approx(0.5, abs=1e-9)
    two_tier = example2_instance(2, 0.3, 2, 0.1)
    # equal-split utilization: pinned load + m_per_ap * beta2 per AP
    assert solve_lp_relaxation(two_tier).optimal_value == pytest.approx(0.5, abs=1e-9)


def test_lp_matches_scipy_oracle():
    rng = np.random.default_rng(23)
    for _ in range(25):
        inst = random_subset_instance(rng)
        assert solve_lp_relaxation(inst).optimal_value == pytest.approx(
            scipy_lp_value(inst), abs=1e-8
        )


def test_lp_lower_bounds_milp():
    rng = np.random.default_rng(29)
    for _ in range(15):
        inst = random_subset_instance(rng, m_lo=4, m_hi=9)
        lp = solve_lp_relaxation(inst).optimal_value
        milp = solve_milp_exact(inst).optimal_value
        assert lp <= milp + 1e-9


def test_lp_solution_is_feasible_point():
    rng = np.random.default_rng(31)
    inst = random_subset_instance(rng)
    lp = solve_lp_relaxation(inst)
    for j, cands in enumerate(inst.candidates_of_client):
        total = sum(lp.fractional[(i, j)] for i in cands)
        assert total == pytest.approx(1.0, abs=1e-8)
    for value in lp.fractional.values():
        assert -1e-9 <= value <= 1.0 + 1e-9
    beta = beta_dict(inst)
    loads = np.zeros(inst.n_aps)
    for (i, j), x in lp.fractional.items():
        loads[i] += beta[(i, j)] * x
    assert loads.max() <= lp.optimal_value + 1e-8


def test_lp_complementary_slackness():
    rng = np.random.default_rng(37)
    for _ in range(15):
        inst = random_subset_instance(rng)
        lp = solve_lp_relaxation(inst)
        assert lp_cs_residual(inst, lp) <= 1e-8


def test_lp_dominates_every_dual_trace_point():
    rng = np.random.default_rng(41)
    inst = random_full_instance(rng)
    p_relax = solve_lp_relaxation(inst).optimal_value
    report = run_daa(inst, max_iters=400, trace=True)
    for _k, g, *_ in report.per_iteration_trace:
        assert g <= p_relax + 1e-8


def test_dual_long_run_reaches_lp_value():
    # relaxation equivalence: the dual solver's certificate approaches the
    # LP optimum on dense instances (a/k subgradient steps stall around
    # 1e-4..1e-3 relative at this budget, so that is the supported tolerance)
    rng = np.random.default_rng(43)
    for _ in range(8):
        inst = random_full_instance(rng, n_lo=2, n_hi=5, m_lo=6, m_hi=30)
        p_relax = solve_lp_relaxation(inst).optimal_value
        g_best = run_daa(inst, max_iters=10_000, step_scale=1.0).dual_value
        assert abs(p_relax - g_best) <= 1e-3 * max(1.0, p_relax)


def test_dual_value_anywhere_is_lp_lower_bound():
    rng = np.random.default_rng(47)
    inst = random_subset_instance(rng)
    p_relax = solve_lp_relaxation(inst).optimal_value
    for _ in range(50):
        prices = rng.dirichlet(np.ones(inst.n_aps))
        assert dual_value(inst, prices) <= p_relax + 1e-8


def assert_same_lp(inst):
    """`solve_lp_relaxation` equals the reference simplex bit for bit and
    certifies itself by complementary slackness."""
    new, ref = solve_lp_relaxation(inst), ref_solve_lp_relaxation(inst)
    assert repr(new.optimal_value) == repr(ref.optimal_value)
    assert repr(new.fractional) == repr(ref.fractional)
    assert new.duals.dtype == ref.duals.dtype and new.duals.tobytes() == ref.duals.tobytes()
    assert new.nodes_explored == ref.nodes_explored
    assert lp_cs_residual(inst, new) <= 1e-8


def test_pivot_matches_reference_bitwise_with_signed_zeros():
    # -0.0 entries in the pivot row are where skipping that row and zeroing
    # its factor part ways: 0.0 * -0.0 is -0.0, and -0.0 - -0.0 is +0.0
    rng = np.random.default_rng(59)
    for _ in range(200):
        tab = rng.uniform(-2.0, 2.0, size=(5, 8))
        tab[rng.uniform(size=tab.shape) < 0.3] = 0.0
        tab[rng.uniform(size=tab.shape) < 0.3] = -0.0
        row, col = int(rng.integers(5)), int(rng.integers(8))
        tab[row, col] = rng.choice([-1.5, 0.75, 1.0])
        new, ref = tab.copy(), tab.copy()
        _pivot(new, row, col)
        ref_pivot(ref, row, col)
        assert new.tobytes() == ref.tobytes()


@st.composite
def lp_instances(draw):
    """Instances with N in 1..8 and M in 0..30; a client may be pinned to one
    AP.  Half of them draw every utilization from {0.1, 0.2, 0.25, 0.5},
    whose ties make degenerate pivots and ratio-test ties common."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 30))
    if draw(st.booleans()):
        utilization = st.sampled_from([0.1, 0.2, 0.25, 0.5])
    else:
        utilization = st.floats(min_value=1e-3, max_value=1.0)
    beta = {}
    for j in range(m):
        aps = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        for i in aps:
            beta[(i, j)] = draw(utilization)
    return instance_from_beta(n, m, beta)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lp_instances())
def test_lp_matches_reference_simplex_bitwise(inst):
    assert_same_lp(inst)


# the mc_exact benchmark workload: N=3 co-located APs, M=12, oracles forced
MC_EXACT = {
    "n_aps": 3,
    "n_clients": 12,
    "slots": 4,
    "daa_iters": 200,
    "step_scale": 1.0,
    "seed": 0,
    "ap_spacing_factor": 0.01,
    "demand_max_bps": 400e6,
    "with_exact": True,
    "force_exact": True,
}


def test_lp_matches_reference_simplex_on_mc_exact_slots(monkeypatch):
    solved = []

    def recording_lp(inst):
        solved.append(inst)
        return solve_lp_relaxation(inst)

    monkeypatch.setattr(sim, "solve_lp_relaxation", recording_lp)
    cfg = parse_experiment_config(MC_EXACT)
    sim.run_experiment(replace(cfg, slots=40))
    assert len(solved) > 20
    for inst in solved:
        assert_same_lp(inst)
