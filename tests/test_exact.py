import pickle
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from mmwassoc import exact, sim
from mmwassoc.cli import parse_experiment_config
from mmwassoc.dual_solver import run_daa
from mmwassoc.exact import (
    NodeBudgetExceeded,
    _greedy_incumbent,
    _pivot,
    branch_and_bound,
    enumerate_assignments,
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
    candidates_of_client,
    lp_cs_residual,
    lp_solution,
    random_full_instance,
    random_subset_instance,
    ref_pivot,
    ref_solve_lp_relaxation,
    subproblems,
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


# table cells per enumeration step: chunks of one row, of a few rows (one to
# 48, by the candidate-set size and N), and of the default size
CHUNK_CELLS = (1, 48, exact._CHUNK_CELLS)


def chunked(solve, inst, **kwargs):
    """`solve(inst, **kwargs)` at each of CHUNK_CELLS."""
    results = []
    for cells in CHUNK_CELLS:
        with mock.patch.object(exact, "_CHUNK_CELLS", cells):
            results.append(solve(inst, **kwargs))
    return results


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_search_spaces())
def test_bounded_enumeration_matches_brute_force_bitwise(inst):
    oracle_val, oracle_map = brute_force(inst)
    for result in chunked(enumerate_assignments, inst):
        assert repr(result.optimal_value) == repr(oracle_val)
        assert result.assignment.ap_of_client == oracle_map
        assert result.nodes_explored == int(inst.candidate_product())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_search_spaces(), st.data())
def test_enumeration_bounded_by_a_warm_start_matches_brute_force_bitwise(inst, data):
    # any map may warm-start, the first optimum itself (the tightest bound) too
    oracle_val, oracle_map = brute_force(inst)
    drawn = tuple(data.draw(st.sampled_from(c)) for c in candidates_of_client(inst))
    warm = make_assignment(inst, data.draw(st.sampled_from([oracle_map, drawn])))
    results = chunked(enumerate_assignments, inst, warm_start=warm)
    results += chunked(solve_milp_exact, inst, warm_start=warm)
    for result in results:
        assert repr(result.optimal_value) == repr(oracle_val)
        assert result.assignment.ap_of_client == oracle_map
        assert result.nodes_explored == int(inst.candidate_product())


@pytest.mark.parametrize("oracle", [enumerate_assignments, branch_and_bound, solve_milp_exact])
def test_warm_start_with_non_integral_ap_ids_is_refused(oracle):
    inst = example1_instance(3, 0.5)
    warm = replace(make_assignment(inst, [0, 1, 2]), ap_of_client=(0.9, 1.2, 2.7))
    with pytest.raises(ValueError, match="client 0"):
        oracle(inst, warm_start=warm)


def test_enumeration_returns_first_optimum_when_greedy_ties_later():
    # greedy places client 1 (the harder one) first: map (1, 0) at 0.5; the
    # lexicographically earlier (0, 1) reaches the same 0.5
    inst = instance_from_beta(
        2, 2, {(0, 0): 0.25, (1, 0): 0.25, (0, 1): 0.5, (1, 1): 0.5}
    )
    greedy = _greedy_incumbent(inst)
    assert (greedy.ap_of_client, greedy.objective) == ((1, 0), 0.5)
    for result in chunked(enumerate_assignments, inst):
        assert result.optimal_value == 0.5
        assert result.assignment.ap_of_client == (0, 1)


def test_zero_client_instance_has_empty_optimum():
    inst = instance_from_beta(3, 0, {})
    for result in chunked(enumerate_assignments, inst) + chunked(solve_milp_exact, inst):
        assert result.optimal_value == 0.0
        assert result.assignment.ap_of_client == ()
        assert result.nodes_explored == 1


def test_enumeration_memory_stays_bounded_when_nothing_is_pruned():
    # client j reaches only APs 2j and 2j+1, so every assignment ties at 0.5
    # and the bound prunes none of the 2^16 rows (27 MB as one table)
    m = 16
    inst = instance_from_beta(
        2 * m, m, {(i, j): 0.5 for j in range(m) for i in (2 * j, 2 * j + 1)}
    )
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = enumerate_assignments(inst)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    oracle_val, oracle_map = brute_force(inst)
    assert repr(result.optimal_value) == repr(oracle_val)
    assert result.assignment.ap_of_client == oracle_map
    # per client level, one table of at most max(_CHUNK_CELLS, size * N)
    # float cells, plus its row indices and the step's temporaries: 16 bytes
    # a cell covers them
    assert peak <= 16 * (m + 1) * max(exact._CHUNK_CELLS, 2 * inst.n_aps)


def test_enumeration_respects_limit():
    inst = random_full_instance(np.random.default_rng(5), n_lo=3, n_hi=3, m_lo=10, m_hi=10)
    with mock.patch.object(exact, "ENUMERATION_LIMIT", 100):
        with pytest.raises(ValueError, match="enumeration limit 100"):
            enumerate_assignments(inst)


def test_branch_and_bound_equals_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(25):
        inst = random_subset_instance(rng, n_lo=2, n_hi=4, m_lo=4, m_hi=10)
        enum = enumerate_assignments(inst)
        bnb = branch_and_bound(inst)
        assert bnb.optimal_value == pytest.approx(enum.optimal_value, abs=1e-12)
        assert bnb.assignment.objective == pytest.approx(enum.optimal_value, abs=1e-12)


def test_branch_and_bound_loads_do_not_drift_when_it_backtracks():
    # a load restored as (a + b) - b can miss a by an ulp: 0.1 + 0.7 - 0.7
    # is 0.09999999999999987, which let this search price a leaf at
    # 0.8500000000000001 that the enumeration sums to 0.85
    beta = {
        (0, 0): 0.2, (1, 0): 1 / 3, (2, 0): 0.2, (2, 1): 0.05, (0, 2): 0.1,
        (1, 2): 0.2, (1, 3): 1 / 3, (0, 4): 0.6, (2, 5): 0.15, (1, 6): 0.3,
        (2, 6): 0.3, (0, 7): 1 / 3, (1, 7): 0.6, (2, 7): 0.3, (0, 8): 0.2,
        (2, 8): 0.15, (0, 9): 0.6, (1, 9): 0.15, (2, 9): 0.2,
    }
    inst = instance_from_beta(3, 10, beta)
    enum = enumerate_assignments(inst)
    bnb = branch_and_bound(inst)
    assert bnb.optimal_value == enum.optimal_value == 0.85
    assert bnb.assignment == enum.assignment


def test_branch_and_bound_keeps_a_leaf_only_if_it_is_lower():
    # the cut sums loads in branching order, the leaf is priced in client
    # order: a leaf that passes the cut can price 1 ulp above the incumbent,
    # and taking it unconditionally returned 0.45000000000000007
    beta = {
        (0, 0): 0.1, (1, 0): 0.1, (3, 0): 0.2, (0, 1): 0.3, (3, 1): 0.7,
        (0, 2): 0.05, (1, 2): 0.2, (3, 2): 0.05, (0, 3): 0.2, (1, 3): 0.2,
        (0, 4): 0.15, (1, 4): 1 / 3, (2, 4): 0.3, (3, 4): 0.2, (2, 5): 1 / 3,
        (1, 6): 0.15, (1, 7): 0.6, (2, 7): 0.6, (3, 7): 0.2,
    }
    inst = instance_from_beta(4, 8, beta)
    enum = enumerate_assignments(inst)
    bnb = branch_and_bound(inst)
    assert bnb.optimal_value == enum.optimal_value == 0.45
    assert bnb.assignment == enum.assignment
    assert bnb.nodes_explored == 29


def test_branch_and_bound_stops_at_a_leaf_that_meets_the_lower_bound():
    # the greedy incumbent is 0.8; the first leaf reaches the optimum 0.5,
    # which is the LP value, so a search given that bound stops there
    beta = {(0, 0): 0.25, (0, 1): 0.25, (1, 2): 0.1, (0, 3): 0.3, (1, 3): 0.3}
    inst = instance_from_beta(2, 4, beta)
    assert solve_lp_relaxation(inst).optimal_value == 0.5
    bounded = branch_and_bound(inst, lower_bound=0.5)
    unbounded = branch_and_bound(inst)
    assert bounded.optimal_value == unbounded.optimal_value == 0.5
    assert (bounded.nodes_explored, unbounded.nodes_explored) == (1, 2)


def test_branch_and_bound_accepts_warm_start():
    rng = np.random.default_rng(13)
    inst = random_full_instance(rng, n_lo=3, n_hi=3, m_lo=12, m_hi=12)
    enum = enumerate_assignments(inst)
    warm = run_daa(inst, 500).assignment
    bnb = branch_and_bound(inst, warm_start=warm)
    assert bnb.optimal_value == pytest.approx(enum.optimal_value, abs=1e-12)


@pytest.mark.parametrize("oracle", [enumerate_assignments, branch_and_bound])
def test_searches_validate_only_the_warm_start(oracle):
    # the greedy map and every leaf are built from pair indices the search
    # chose itself; only the caller's warm start goes through make_assignment
    rng = np.random.default_rng(13)
    inst = random_full_instance(rng, n_lo=3, n_hi=3, m_lo=10, m_hi=10)
    warm = run_daa(inst, 50).assignment
    with mock.patch.object(exact, "make_assignment", wraps=exact.make_assignment) as validate:
        greedy = _greedy_incumbent(inst)
        cold = oracle(inst)
        assert validate.call_count == 0
        warmed = oracle(inst, warm_start=warm)
    assert validate.call_args_list == [mock.call(inst, warm.ap_of_client)]
    assert cold.optimal_value == warmed.optimal_value == brute_force(inst)[0]
    # each is priced as its map would be, bit for bit
    for assignment in (greedy, cold.assignment, warmed.assignment):
        assert assignment == make_assignment(inst, assignment.ap_of_client)


def test_budget_exhaustion_carries_incumbent():
    rng = np.random.default_rng(17)
    inst = random_full_instance(rng, n_lo=4, n_hi=4, m_lo=12, m_hi=12)
    with mock.patch.object(exact, "DEFAULT_NODE_BUDGET", 10):
        with pytest.raises(NodeBudgetExceeded) as err:
            branch_and_bound(inst)
    incumbent = err.value.incumbent
    assert incumbent.assignment is not None
    assert incumbent.optimal_value >= brute_force(inst)[0] - 1e-12


def test_budget_exhaustion_survives_pickling():
    # a worker process sends its exception to the caller pickled
    rng = np.random.default_rng(17)
    inst = random_full_instance(rng, n_lo=4, n_hi=4, m_lo=12, m_hi=12)
    with mock.patch.object(exact, "DEFAULT_NODE_BUDGET", 10):
        with pytest.raises(NodeBudgetExceeded) as err:
            branch_and_bound(inst)
    copy = pickle.loads(pickle.dumps(err.value))
    assert type(copy) is NodeBudgetExceeded
    assert str(copy) == str(err.value)
    assert repr(copy.incumbent) == repr(err.value.incumbent)


def test_budget_exhaustion_counts_only_budgeted_nodes():
    # the node that would break the budget is never evaluated, so not counted
    rng = np.random.default_rng(17)
    inst = random_full_instance(rng, n_lo=3, n_hi=3, m_lo=30, m_hi=30)
    with mock.patch.object(exact, "DEFAULT_NODE_BUDGET", 10):
        with pytest.raises(NodeBudgetExceeded, match=r"exhausted after 10 nodes;") as err:
            branch_and_bound(inst)
    assert err.value.incumbent.nodes_explored == 10


def test_budget_equal_to_search_size_finishes_and_one_less_stops():
    rng = np.random.default_rng(23)
    inst = random_full_instance(rng, n_lo=3, n_hi=3, m_lo=9, m_hi=9)
    full = branch_and_bound(inst)
    with mock.patch.object(exact, "DEFAULT_NODE_BUDGET", full.nodes_explored):
        assert repr(branch_and_bound(inst)) == repr(full)
    with mock.patch.object(exact, "DEFAULT_NODE_BUDGET", full.nodes_explored - 1):
        with pytest.raises(NodeBudgetExceeded) as err:
            branch_and_bound(inst)
    assert err.value.incumbent.nodes_explored == full.nodes_explored - 1


def test_branch_and_bound_depth_is_not_bounded_by_recursion():
    # one branching level per client: far deeper than Python's recursion limit
    rng = np.random.default_rng(53)
    m = 1500
    beta = {(i, j): float(1.0 - rng.uniform()) for i in range(2) for j in range(m)}
    inst = instance_from_beta(2, m, beta)
    try:
        with mock.patch.object(exact, "DEFAULT_NODE_BUDGET", 100_000):
            result = branch_and_bound(inst)
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
    with mock.patch.object(exact, "DEFAULT_NODE_BUDGET", 1):  # it bounds B&B, not the route
        assert repr(solve_milp_exact(inst)) == repr(result)


def test_solve_milp_routes_large_to_branch_and_bound():
    rng = np.random.default_rng(19)
    inst = random_full_instance(rng, n_lo=3, n_hi=3, m_lo=14, m_hi=14)
    with mock.patch.object(exact, "ENUMERATION_LIMIT", 1000):
        result = solve_milp_exact(inst)
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
    lp = lp_solution(inst)
    assert repr(lp.value) == repr(solve_lp_relaxation(inst).optimal_value)
    assert lp.point.shape == inst.beta.shape
    beta = beta_dict(inst)  # keyed by (ap, client) in pair order
    fractional = dict(zip(beta, lp.point.tolist()))
    for j, cands in enumerate(candidates_of_client(inst)):
        total = sum(fractional[(i, j)] for i in cands)
        assert total == pytest.approx(1.0, abs=1e-8)
    for value in fractional.values():
        assert -1e-9 <= value <= 1.0 + 1e-9
    loads = np.zeros(inst.n_aps)
    for (i, j), x in fractional.items():
        loads[i] += beta[(i, j)] * x
    assert loads.max() <= lp.value + 1e-8


def test_lp_complementary_slackness():
    rng = np.random.default_rng(37)
    for _ in range(15):
        inst = random_subset_instance(rng)
        lp = lp_solution(inst)
        assert repr(lp.value) == repr(solve_lp_relaxation(inst).optimal_value)
        assert lp_cs_residual(inst, lp) <= 1e-8


def test_lp_dominates_every_dual_trace_point():
    rng = np.random.default_rng(41)
    inst = random_full_instance(rng)
    p_relax = solve_lp_relaxation(inst).optimal_value
    for g in run_daa(inst, max_iters=400).duals:
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
        assert subproblems(inst, prices)[1] <= p_relax + 1e-8


def assert_same_lp(inst):
    """The library's simplex equals the reference simplex bit for bit and
    certifies itself by complementary slackness, and `solve_lp_relaxation`
    reports that simplex's value and pivot count."""
    lp, new, ref = solve_lp_relaxation(inst), lp_solution(inst), ref_solve_lp_relaxation(inst)
    assert repr(lp.optimal_value) == repr(new.value) == repr(ref.value)
    assert lp.nodes_explored == new.pivots == ref.pivots
    assert new.point.dtype == ref.point.dtype and new.point.tobytes() == ref.point.tobytes()
    assert new.duals.dtype == ref.duals.dtype and new.duals.tobytes() == ref.duals.tobytes()
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


def test_enumeration_matches_brute_force_on_the_heaviest_mc_exact_slots(monkeypatch):
    # the largest tables found on the benchmark's mc_exact rounds: 62,610
    # rows (seed 157, slot 2) and 49,010 (seed 35, slot 1) stay within the
    # solver's warm-start bound
    calls = []

    def recording_milp(inst, warm_start=None, lower_bound=None):
        calls.append((inst, warm_start))
        return solve_milp_exact(inst, warm_start=warm_start, lower_bound=lower_bound)

    monkeypatch.setattr(sim, "solve_milp_exact", recording_milp)
    for seed, slot in ((157, 2), (35, 1)):
        cfg = replace(parse_experiment_config(MC_EXACT), seed=seed)
        sim.run_slot(cfg, sim.generate_topology(cfg), slot)
    assert len(calls) == 2
    for inst, warm in calls:
        oracle_val, oracle_map = brute_force(inst)
        result = enumerate_assignments(inst, warm_start=warm)
        assert repr(result.optimal_value) == repr(oracle_val)
        assert result.assignment.ap_of_client == oracle_map
