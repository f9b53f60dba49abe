"""The solver's padded-table loop and Python-float projection against the
segmented-numpy references in `oracles`, bit for bit."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from mmwassoc import dual_solver
from mmwassoc.dual_solver import project_simplex, run_daa, trace_csv_lines
from mmwassoc.instance import instance_from_beta
from oracles import (
    _ref_first_argmin,
    candidates_of_client,
    recording,
    ref_project_simplex,
    ref_run_daa,
    subproblems,
)

utilizations = st.one_of(
    st.sampled_from([0.125, 0.25, 0.5, 1.0]),  # exact ties and the boundary
    st.floats(min_value=1e-3, max_value=1.0),
)


@st.composite
def instances(draw):
    """Random instances with N in 1..8 and M in 0..12; a client may be pinned
    to one AP or see several, with tied utilizations."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 12))
    beta = {}
    for j in range(m):
        aps = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        for i in aps:
            beta[(i, j)] = draw(utilizations)
    return instance_from_beta(n, m, beta)


def assert_same_report(inst, iters, step=1.0):
    """Run the solver and the reference on the same input and compare them
    bit for bit: the g_k and t_k series, the prices each iteration projects,
    and the best assignment with its values.  Returns the solver's report."""
    with recording(dual_solver, "project_simplex") as prices:
        new = run_daa(inst, iters, step_scale=step)
    with recording(oracles, "ref_project_simplex") as ref_prices:
        ref = ref_run_daa(inst, iters, step_scale=step)
    for series in ("duals", "primals"):
        values, expected = getattr(new, series), getattr(ref, series)
        assert repr(values) == repr(expected)
        assert [type(x) for x in values] == [type(x) for x in expected]
    assert len(prices) == len(ref_prices) == iters
    for a, b in zip(prices, ref_prices):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert new.assignment == ref.assignment
    assert type(new.assignment.ap_of_client) is tuple
    assert all(type(i) is int for i in new.assignment.ap_of_client)
    for attr in ("iterations_run", "dual_value", "primal_value", "gap_certificate"):
        assert repr(getattr(new, attr)) == repr(getattr(ref, attr))
    return new


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    instances(),
    st.integers(1, 60),
    st.one_of(st.sampled_from([1.0, 0.5, 2.0]), st.floats(1e-3, 50.0)),
    st.data(),
)
def test_run_daa_matches_reference_bitwise(inst, iters, step, data):
    assert_same_report(inst, iters, step)

    price = st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0.0, 1.0)
    prices = np.array(data.draw(st.lists(price, min_size=inst.n_aps, max_size=inst.n_aps)))
    # per client, its candidates' beta*price values, AP-ascending
    flat = (inst.beta * prices[inst.pairs.ap]).tolist()
    bounds = [*inst.pairs.start.tolist(), len(flat)]
    weighted = [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    choices, dual = subproblems(inst, prices)
    assert repr(dual) == repr(float(np.sum([min(w) for w in weighted])))
    for choice, cands, values in zip(choices, candidates_of_client(inst), weighted, strict=True):
        assert choice == cands[values.index(min(values))]


def random_instance(seed, n, m, d, values=None):
    """N APs, M clients, each client seeing `d` distinct APs, utilizations
    drawn from `values` (exact ties) or uniform on (0, 1]."""
    rng = np.random.default_rng(seed)
    beta = {}
    for j in range(m):
        for i in rng.choice(n, size=d, replace=False).tolist():
            beta[(i, j)] = float(rng.choice(values) if values else 1.0 - rng.uniform())
    return instance_from_beta(n, m, beta)


def block_size(inst):
    """Iterations per block of the dual-value buffer."""
    return dual_solver._BLOCK_CELLS // inst.pairs.table.size


@pytest.mark.parametrize("seed", [0, 1])
def test_loop_spanning_several_blocks_matches_reference(seed):
    inst = random_instance(seed, n=5, m=300, d=3)
    assert 200 % block_size(inst) != 0  # the last block is partial
    assert_same_report(inst, 200)


def test_loop_with_exactly_full_blocks_matches_reference():
    inst = random_instance(2, n=5, m=300, d=3)
    block = block_size(inst)
    ends = block_ends(10 * block, dual_solver._BLOCK_CELLS, inst.pairs.table.size)
    # the second block end that closes a full block
    iters = [end for start, end in zip([0, *ends], ends) if end - start == block][1]
    assert_same_report(inst, iters)


@pytest.mark.parametrize("m", [1, 300])
def test_single_iteration_matches_reference(m):
    assert_same_report(random_instance(3, n=4, m=m, d=2), 1)


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_tied_instances_with_repeating_patterns_match_reference(seed):
    # few distinct utilizations: many exact ties, and choice patterns that
    # recur, some with equal t_k but different loads
    inst = random_instance(seed, n=3, m=40, d=2, values=[0.125, 0.25, 0.5])
    assert_same_report(inst, 150)
    assert_same_report(inst, 150, step=0.5)


def test_symmetric_instance_with_mirrored_patterns_matches_reference():
    # both clients see both APs at equal utilization, so they always pick the
    # same AP: the patterns (0, 0) and (1, 1) tie on t_k, with mirrored loads
    inst = instance_from_beta(2, 2, {(0, 0): 0.5, (1, 0): 0.5, (0, 1): 0.25, (1, 1): 0.25})
    assert_same_report(inst, 60)


@pytest.mark.parametrize("patterns", [0, 1, 3])
def test_full_memo_computes_new_patterns_each_time(monkeypatch, patterns):
    inst = random_instance(8, n=3, m=40, d=2, values=[0.125, 0.25, 0.5])
    monkeypatch.setattr(dual_solver, "_MEMO_CELLS", patterns * inst.n_clients)
    assert_same_report(inst, 150)


def test_zero_client_instance_over_several_iterations_matches_reference():
    assert_same_report(instance_from_beta(4, 0, {}), 70)


def test_more_clients_than_a_numpy_buffer_matches_reference():
    # 10,000 clients: above the 8,192 elements numpy reduces in one buffer
    assert_same_report(random_instance(7, n=5, m=10_000, d=3), 3)


entries = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0 / 3.0, -2.0]),  # exact ties
    st.floats(-1e17, 1e17),
    st.floats(-1.0, 1.0),
)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(
    st.lists(entries, max_size=200),
    st.none() | st.sampled_from([math.nan, math.inf, -math.inf]),  # half the lists finite
    st.integers(0, 200),
)
@example([1.0, -0.0], None, 0)  # theta 0.0 meets x = -0.0: the clamp gives +0.0
@example([], None, 0)
@example([0.0], math.inf, 0)  # no threshold either, but the infinity is the fault
@example([1.0, -1e308, -1e308], None, 0)  # finite entries, the sum overflows past rho
def test_project_simplex_matches_reference_bitwise(values, bad, at):
    # an empty list, or one with a NaN or infinite entry at `at`, must raise;
    # the reference refuses them all, as it does entries with no threshold,
    # and the solver names the same fault
    if bad is not None:
        values.insert(at % (len(values) + 1), bad)
    try:
        with np.errstate(over="ignore"):  # the overflowing example's running sum
            expected = ref_project_simplex(np.array(values))
    except IndexError:  # no threshold index
        with pytest.raises(ValueError, match="too large to project"):
            project_simplex(values)
        return
    except ValueError as refusal:  # empty, or a non-finite entry
        with pytest.raises(ValueError, match=re.escape(str(refusal))):
            project_simplex(values)
        return
    got = project_simplex(values)
    assert all(type(x) is float for x in got)
    assert np.array(got).tobytes() == expected.tobytes()


def test_project_simplex_rejects_entries_beyond_double_precision():
    with pytest.raises(ValueError, match="too large to project in double precision"):
        project_simplex([1e17, 0.0])
    with pytest.raises(IndexError):  # the reference's failure this replaces
        ref_project_simplex(np.array([1e17, 0.0]))


def test_zero_client_instance_keeps_float_trace_rows():
    inst = instance_from_beta(3, 0, {})
    report = assert_same_report(inst, 4)
    assert report.duals == report.primals == [0.0] * 4
    assert all(type(x) is float for x in report.duals + report.primals)
    assert trace_csv_lines(report)[1:] == [f"{k},0.0,0.0,0.0,0.0" for k in range(1, 5)]
    assert report.assignment.ap_of_client == ()


@pytest.mark.parametrize("step", [math.inf, math.nan, -math.inf])
def test_run_daa_rejects_non_finite_step_at_entry(step):
    inst = instance_from_beta(2, 2, {(0, 0): 0.5, (1, 1): 0.5})
    with pytest.raises(ValueError, match="step_scale"):
        run_daa(inst, 5, step_scale=step)


signed = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5]),  # exact ties, zeros of both signs
    st.floats(-1e3, 1e3),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instances(), st.data())
def test_padded_table_argmin_matches_reference(inst, data):
    # a padding cell repeats its row's first candidate to its right, so it
    # wins neither the argmin nor the minimum, whatever the values' signs
    values = np.array(data.draw(st.lists(signed, min_size=inst.beta.size, max_size=inst.beta.size)))
    if inst.n_clients:  # reduceat has no empty form
        expected = _ref_first_argmin(inst, values)
        assert inst.pairs.first_argmin(values).tolist() == expected.tolist()
        # the first maximum, as the RSSI policy ranks rates
        assert inst.pairs.first_argmin(-values).tolist() == _ref_first_argmin(inst, -values).tolist()
    prices = np.array(data.draw(st.lists(signed, min_size=inst.n_aps, max_size=inst.n_aps)))
    weighted = inst.beta * prices[inst.pairs.ap]
    winner = _ref_first_argmin(inst, weighted) if inst.n_clients else np.zeros(0, dtype=int)
    choices, dual = subproblems(inst, prices)
    assert repr(dual) == repr(float(np.sum(weighted[winner])))
    assert choices == inst.pairs.ap[winner].tolist()


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(entries, entries), min_size=1, max_size=12),
    st.sampled_from([1.0, 0.5, 1.0 / 3.0]) | st.floats(1e-6, 1e6),
)
@example([(1.0, 0.0), (-0.0, -0.0)], 1.0)  # theta 0.0 meets x = -0.0: the clamp gives +0.0
def test_loop_projection_matches_reference_bitwise(price_loads, step):
    # the loop steps as p + step * loads; the reference as p - step * u, u = -loads
    prices, loads = (list(column) for column in zip(*price_loads))
    stepped = [p + step * y for p, y in zip(prices, loads)]
    try:
        expected = ref_project_simplex(np.array(prices) - step * -np.array(loads))
    except IndexError:  # no threshold: project_simplex refuses too
        with pytest.raises(ValueError, match="too large to project"):
            project_simplex(stepped)
        return
    assert np.array(project_simplex(stepped)).tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(instances(), st.integers(1, 400), st.integers(1, 12), st.sampled_from([-1, 0, 1]))
def test_run_daa_matches_reference_around_block_ends(inst, cells, blocks, offset):
    # K = the end of block `blocks` + offset: a last block one short, exactly
    # full, or holding one iteration
    iters = max(1, block_ends(10_000, cells, inst.pairs.table.size)[blocks - 1] + offset)
    with mock.patch.object(dual_solver, "_BLOCK_CELLS", cells):
        assert_same_report(inst, iters)


def block_ends(iters, cells, table_size):
    """The iterations after which a run sums a block of dual values and a
    stopping run checks its gap: blocks of 1, 2, 4, ... iterations, capped
    at the buffer's block."""
    block = min(iters, max(1, cells // max(1, table_size)))
    ends, end, size = [], 0, 1
    while end < iters:
        end = min(end + size, iters)
        ends.append(end)
        size = min(2 * size, block)
    return ends


# one pinned client and one AP: g_1 = t_1, so the gap closes at k = 1
PINNED = instance_from_beta(1, 1, {(0, 0): 0.5})
# three co-located clients at equal utilization: the optimum puts two on one
# AP (1.0) while every dual value stays at most 0.75, so the gap never closes
CO_LOCATED = instance_from_beta(2, 3, {(i, j): 0.5 for i in range(2) for j in range(3)})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    instances(),
    st.integers(1, 80),
    st.sampled_from([1.0, 0.5, 2.0]) | st.floats(1e-3, 50.0),
    st.sampled_from([dual_solver._BLOCK_CELLS]) | st.integers(1, 200),
)
@example(PINNED, 40, 1.0, dual_solver._BLOCK_CELLS)
@example(CO_LOCATED, 60, 1.0, dual_solver._BLOCK_CELLS)
def test_stopped_run_is_a_prefix_of_the_full_run(inst, iters, step, cells):
    with mock.patch.object(dual_solver, "_BLOCK_CELLS", cells):
        stopped = run_daa(inst, iters, step_scale=step, stop_at_zero_gap=True)
    full = ref_run_daa(inst, iters, step_scale=step)
    n = stopped.iterations_run
    ends = block_ends(iters, cells, inst.pairs.table.size)
    assert n in ends
    for series in ("duals", "primals"):
        assert repr(getattr(stopped, series)) == repr(getattr(full, series)[:n])
    assert stopped.assignment == full.assignment
    for attr in ("primal_value", "gap_certificate"):
        assert repr(getattr(stopped, attr)) == repr(getattr(full, attr))
    # the stopped run keeps its prefix's best dual value, which later
    # iterations, at prices that sum above 1, may still raise (see
    # test_dual_solver's test_stopped_chain_run_keeps_an_earlier_dual_value)
    assert repr(stopped.dual_value) == repr(max(full.duals[:n]))
    assert stopped.dual_value <= full.dual_value
    # the run ends at the first block end where p_best - g_best <= 0
    for end in ends[: ends.index(n)]:
        assert min(stopped.primals[:end]) - max(stopped.duals[:end]) > 0.0
    if n < iters:
        assert stopped.primal_value - max(stopped.duals) <= 0.0


@pytest.mark.parametrize("inst, iters, ran", [(PINNED, 40, 1), (CO_LOCATED, 60, 60)])
def test_stop_examples_end_where_expected(inst, iters, ran):
    assert run_daa(inst, iters, stop_at_zero_gap=True).iterations_run == ran
