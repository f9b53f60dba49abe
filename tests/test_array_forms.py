"""The pair-array forms of the instance, its certificates and every
assignment's loads against the dict-and-loop references in `oracles`, on
random `instance_from_beta` inputs."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwassoc.dual_solver import convergence_bound, duality_gap_bound, run_daa
from mmwassoc.exact import branch_and_bound, enumerate_assignments
from mmwassoc.instance import (
    InfeasibleClientError,
    instance_from_beta,
    instance_from_json,
    instance_to_json,
    make_assignment,
)
from mmwassoc.policies import jain_index, random_policy, rssi_policy
from oracles import (
    beta_dict,
    candidates_of_client,
    clients_of_ap,
    ref_assemble,
    ref_client_subproblem,
    ref_convergence_bound,
    ref_duality_gap_bound,
    ref_jain_index,
    ref_per_ap_loads,
    same_instance,
    subproblems,
)

utilizations = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 1.25]),  # exact ties, the boundary, pruned
    st.floats(min_value=1e-3, max_value=1.5),
)


@st.composite
def raw_instances(draw):
    """(n_aps, n_clients, beta dict in shuffled insertion order).

    Clients may have no links, one link (pinned) or several; links with
    beta > 1 get pruned."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    pairs = [
        (i, j)
        for j in range(m)
        for i in draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    ]
    pairs = draw(st.permutations(pairs))
    beta = {pair: draw(utilizations) for pair in pairs}
    return n, m, beta


@settings(max_examples=300, deadline=None, derandomize=True)
@given(raw_instances(), st.data())
def test_array_forms_match_dict_references(raw, data):
    n, m, beta = raw
    rates = {pair: 1.0 / b for pair, b in beta.items()}
    try:
        ref = ref_assemble(n, [1.0] * m, rates, beta)
    except InfeasibleClientError as expected:
        with pytest.raises(InfeasibleClientError) as err:
            instance_from_beta(n, m, beta)
        assert (err.value.client, str(err.value)) == (expected.client, str(expected))
        return
    inst = instance_from_beta(n, m, beta)

    client_major = sorted(ref.beta, key=lambda pair: (pair[1], pair[0]))
    assert list(beta_dict(inst).items()) == [(pair, ref.beta[pair]) for pair in client_major]
    assert inst.rate.tolist() == [ref.rates[pair] for pair in client_major]
    assert candidates_of_client(inst) == ref.candidates_of_client
    assert clients_of_ap(inst) == ref.clients_of_ap

    choice = [data.draw(st.sampled_from(cands)) for cands in ref.candidates_of_client]
    loads = make_assignment(inst, choice).loads
    assert np.array(loads).tobytes() == ref_per_ap_loads(ref, choice).tobytes()
    prices = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    assert subproblems(inst, prices)[0] == [ref_client_subproblem(ref, prices, j) for j in range(m)]
    assert duality_gap_bound(inst) == ref_duality_gap_bound(ref)
    step, k = data.draw(st.floats(0.1, 5.0)), data.draw(st.integers(1, 500))
    # the reference sums per AP in insertion order, the array form client-major
    assert convergence_bound(inst, step, k) == pytest.approx(
        ref_convergence_bound(ref, step, k), rel=1e-12, abs=0.0
    )

    again = instance_from_json(json.loads(json.dumps(instance_to_json(inst))))
    assert same_instance(again, inst)


@st.composite
def priced_instances(draw):
    """(instance, its dict reference): N in 1..4, M in 0..6, every client
    with at least one candidate and no pair pruned."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 6))
    beta = {
        (i, j): draw(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(1e-3, 1.0))
        for j in range(m)
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    }
    ref = ref_assemble(n, [1.0] * m, {pair: 1.0 / b for pair, b in beta.items()}, beta)
    return instance_from_beta(n, m, beta), ref


def producers(inst, choice, seed, iters):
    """Every routine that hands out an assignment, on one instance;
    `make_assignment` prices `choice`."""
    return {
        "random_policy": random_policy(inst, np.random.default_rng(seed)),
        "rssi_policy": rssi_policy(inst),
        "run_daa": run_daa(inst, iters).assignment,
        "enumerate_assignments": enumerate_assignments(inst).assignment,
        "branch_and_bound": branch_and_bound(inst).assignment,
        "make_assignment": make_assignment(inst, choice),
    }


@settings(max_examples=150, deadline=None, derandomize=True)
@given(priced_instances(), st.data())
def test_every_assignment_carries_the_reference_loads(case, data):
    inst, ref = case
    choice = [data.draw(st.sampled_from(cands)) for cands in ref.candidates_of_client]
    seed, iters = data.draw(st.integers(0, 2**32 - 1)), data.draw(st.integers(1, 30))
    for name, a in producers(inst, choice, seed, iters).items():
        expected = ref_per_ap_loads(ref, a.ap_of_client)
        assert all(type(y) is float for y in a.loads), name
        assert np.array(a.loads).tobytes() == expected.tobytes(), name
        assert repr(a.objective) == repr(max(a.loads)), name
        assert repr(jain_index(a)) == repr(ref_jain_index(expected)), name


def test_zero_client_assignments_price_to_float_zero():
    inst = instance_from_beta(3, 0, {})
    for name, a in producers(inst, [], seed=0, iters=5).items():
        assert a.loads == (0.0, 0.0, 0.0), name
        assert all(type(y) is float for y in a.loads), name
        assert repr(a.objective) == "0.0", name
        assert repr(jain_index(a)) == "1.0", name
