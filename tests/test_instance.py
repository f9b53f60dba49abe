import json
import math
import pickle
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from mmwassoc import instance as instance_module
from mmwassoc.instance import (
    InfeasibleClientError,
    build_instance,
    example1_instance,
    example2_instance,
    instance_from_beta,
    instance_from_json,
    instance_to_json,
    make_assignment,
    topology_from_positions,
)
from oracles import (
    beta_dict,
    brute_force,
    brute_force_unpruned,
    candidates_of_client,
    clients_of_ap,
    pair_values,
    random_subset_instance,
    same_instance,
)


def two_ap_topology():
    # client 0 sees both APs, client 1 only AP 0, client 2 only AP 1
    return topology_from_positions(
        ap_positions=[(0.0, 0.0), (3.0, 0.0)],
        client_positions=[(1.5, 0.0), (-1.0, 0.0), (4.0, 0.0)],
        radius=2.0,
    )


def test_topology_candidate_sets_and_consistency():
    topo = two_ap_topology()
    assert candidates_of_client(topo) == ((0, 1), (0,), (1,))
    assert clients_of_ap(topo) == ((0, 1), (0, 2))
    for j, cands in enumerate(candidates_of_client(topo)):
        for i in cands:
            assert j in clients_of_ap(topo)[i]


def test_pair_sizes_are_cached_and_read_only():
    pairs = two_ap_topology().pairs
    sizes = pairs.sizes
    assert sizes.tolist() == [2, 1, 1]
    assert pairs.sizes is sizes
    with pytest.raises(ValueError, match="read-only"):
        sizes[0] = 3


def test_topology_rejects_isolated_client():
    with pytest.raises(InfeasibleClientError):
        topology_from_positions([(0.0, 0.0)], [(10.0, 0.0)], radius=2.0)


def test_build_keeps_unit_utilization_pair():
    topo = two_ap_topology()
    rates = pair_values(topo, {(0, 0): 2.0, (1, 0): 1.0, (0, 1): 5.0, (1, 2): 5.0})
    inst = build_instance(topo, demands=[1.0, 1.0, 1.0], link_rates=rates)
    assert beta_dict(inst)[(1, 0)] == 1.0  # boundary kept
    assert candidates_of_client(inst)[0] == (0, 1)


def test_build_prunes_overloaded_pair_both_directions():
    topo = two_ap_topology()
    rates = pair_values(topo, {(0, 0): 2.0, (1, 0): 0.5, (0, 1): 5.0, (1, 2): 5.0})
    inst = build_instance(topo, demands=[1.0, 1.0, 1.0], link_rates=rates)
    assert (1, 0) not in beta_dict(inst)
    assert candidates_of_client(inst)[0] == (0,)
    assert clients_of_ap(inst)[1] == (2,)


def test_build_raises_when_client_loses_every_candidate():
    topo = two_ap_topology()
    rates = pair_values(topo, {(0, 0): 0.4, (1, 0): 0.3, (0, 1): 5.0, (1, 2): 5.0})
    with pytest.raises(InfeasibleClientError) as err:
        build_instance(topo, demands=[1.0, 1.0, 1.0], link_rates=rates)
    assert "client 0" in str(err.value)


def test_infeasible_client_reason_tells_missing_from_pruned():
    with pytest.raises(InfeasibleClientError, match="no candidate links") as err:
        instance_from_beta(2, 2, {(0, 0): 0.5})
    assert err.value.client == 1
    assert "pruned" not in str(err.value)
    with pytest.raises(InfeasibleClientError, match="pruned") as err:
        instance_from_beta(2, 2, {(0, 0): 0.5, (1, 1): 1.5})
    assert err.value.client == 1


@pytest.mark.parametrize("reason", ["outside every AP disk", "no candidate links"])
def test_infeasible_client_error_survives_pickling(reason):
    # a worker process sends its exception to the caller pickled
    original = InfeasibleClientError(3, reason)
    copy = pickle.loads(pickle.dumps(original))
    assert type(copy) is InfeasibleClientError
    assert (copy.client, copy.reason, str(copy)) == (3, reason, str(original))


def test_build_requires_one_rate_per_pair():
    topo = two_ap_topology()
    rates = [2.0, 1.0, 5.0, 5.0]  # the four pairs, client-major
    rule = re.escape("link_rates must hold one rate per topology pair: expected 4, got")
    with pytest.raises(ValueError, match=rule + " 3"):
        build_instance(topo, demands=[1.0, 1.0, 1.0], link_rates=rates[:3])
    with pytest.raises(ValueError, match=rule + " 5"):
        build_instance(topo, demands=[1.0, 1.0, 1.0], link_rates=rates + [5.0])
    with pytest.raises(ValueError, match="one demand per client"):
        build_instance(topo, demands=[1.0, 1.0], link_rates=rates)


def test_build_validates_positivity():
    topo = two_ap_topology()
    rates = {(0, 0): 2.0, (1, 0): 1.0, (0, 1): 5.0, (1, 2): 5.0}
    with pytest.raises(ValueError, match="demand"):
        build_instance(topo, demands=[1.0, 0.0, 1.0], link_rates=pair_values(topo, rates))
    zero = pair_values(topo, {**rates, (0, 1): 0.0})
    with pytest.raises(ValueError, match="rate"):
        build_instance(topo, demands=[1.0, 1.0, 1.0], link_rates=zero)


def test_utilization_equals_demand_over_rate():
    topo = two_ap_topology()
    rates = {(0, 0): 3.0, (1, 0): 7.0, (0, 1): 11.0, (1, 2): 13.0}
    demands = [2.0, 5.0, 9.0]
    inst = build_instance(topo, demands, pair_values(topo, rates))
    for (i, j), b in beta_dict(inst).items():
        assert b == pytest.approx(demands[j] / rates[(i, j)], rel=1e-12)


def test_build_is_idempotent():
    rng = np.random.default_rng(5)
    inst = random_subset_instance(rng)
    again = instance_from_beta(inst.n_aps, inst.n_clients, beta_dict(inst))
    assert same_instance(again, inst)


def test_pruning_preserves_optimal_value():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(3, 7))
        raw = {}
        for j in range(m):
            size = int(rng.integers(1, n + 1))
            for i in rng.choice(n, size=size, replace=False):
                raw[(int(i), j)] = float(rng.uniform(0.05, 1.5))  # some exceed 1
        try:
            reference = brute_force_unpruned(n, raw, m)
        except ValueError:
            continue  # a client has no admissible link at all
        inst = instance_from_beta(n, m, raw)
        pruned_opt, _ = brute_force(inst)
        assert pruned_opt == pytest.approx(reference, abs=1e-12)


def test_example1_matches_brute_force():
    inst = example1_instance(3, 0.5)
    opt, argmin = brute_force(inst)
    assert opt == pytest.approx(0.5, abs=1e-12)
    assert argmin == (0, 1, 2)  # identity association

    single = example1_instance(1, 0.37)
    assert brute_force(single)[0] == pytest.approx(0.37, abs=1e-12)

    chain = {(0, 0): 0.7, (0, 1): 0.9, (1, 1): 0.7, (1, 2): 0.9, (2, 2): 0.7, (2, 3): 0.9}
    inst4 = instance_from_beta(4, 4, {**chain, (3, 3): 0.7})
    assert brute_force(inst4)[0] == pytest.approx(0.7, abs=1e-12)


def test_example1_validation():
    with pytest.raises(ValueError):
        example1_instance(0, 0.5)


def test_example2_matches_brute_force():
    inst = example2_instance(2, 0.3, 2, 0.1)
    assert inst.n_clients == 2 + 4
    assert brute_force(inst)[0] == pytest.approx(0.3 + 2 * 0.1, abs=1e-12)

    pinned_only = example2_instance(3, 0.4, 0, 0.1)
    assert brute_force(pinned_only)[0] == pytest.approx(0.4, abs=1e-12)

    roaming_only = example2_instance(3, 0.0, 1, 0.2)
    opt, argmin = brute_force(roaming_only)
    assert opt == pytest.approx(0.2, abs=1e-12)
    assert sorted(argmin) == [0, 1, 2]  # one roaming client per AP


def test_assignment_objective_recomputes():
    rng = np.random.default_rng(23)
    inst = random_subset_instance(rng)
    choice = [cands[0] for cands in candidates_of_client(inst)]
    a = make_assignment(inst, choice)
    loads = [0.0] * inst.n_aps
    for j, i in enumerate(choice):
        loads[i] += beta_dict(inst)[(i, j)]
    assert a.loads == tuple(loads)
    assert a.objective == max(loads)
    with pytest.raises(ValueError):
        make_assignment(inst, [inst.n_aps - 1] * inst.n_clients + [0])


def test_make_assignment_rejects_non_candidate():
    inst = example1_instance(3, 0.5)
    with pytest.raises(ValueError, match="not a candidate"):
        make_assignment(inst, [2, 1, 2])


@pytest.mark.parametrize(
    "ap", [0.9, 1.0, np.float64(1.0), True, np.True_, None, "1", 2**70, -1, 3]
)
def test_make_assignment_rejects_what_is_not_an_ap_id(ap):
    # client 1 of the chain reaches APs 0 and 1: no float, bool or string
    # may be read as one of them, and every bad id is a ValueError
    inst = example1_instance(3, 0.5)
    with pytest.raises(ValueError, match="client 1"):
        make_assignment(inst, [0, ap, 2])


def test_make_assignment_accepts_python_and_numpy_integers():
    inst = example1_instance(3, 0.5)
    a = make_assignment(inst, [np.int64(0), np.int32(1), 2])
    assert a.ap_of_client == (0, 1, 2)
    assert all(type(i) is int for i in a.ap_of_client)


def test_json_round_trip():
    rng = np.random.default_rng(31)
    inst = random_subset_instance(rng)
    doc = json.loads(json.dumps(instance_to_json(inst)))
    assert same_instance(instance_from_json(doc), inst)


def test_fixture_file_loads_to_known_optimum():
    path = Path(__file__).parent / "fixtures" / "chain_three_cells.json"
    inst = instance_from_json(json.loads(path.read_text()))
    assert same_instance(inst, example1_instance(3, 0.5))
    assert brute_force(inst)[0] == pytest.approx(0.5, abs=1e-12)


def test_json_rejects_malformed_documents():
    inst = example1_instance(2, 0.5)
    doc = instance_to_json(inst)
    broken = dict(doc)
    del broken["demands"]
    with pytest.raises(ValueError, match="demands"):
        instance_from_json(broken)
    broken = json.loads(json.dumps(doc))
    del broken["links"][0]["beta"]
    with pytest.raises(ValueError, match="beta"):
        instance_from_json(broken)
    broken = json.loads(json.dumps(doc))
    broken["links"].append(dict(broken["links"][0]))
    with pytest.raises(ValueError, match="duplicate"):
        instance_from_json(broken)


def test_candidate_sets_sorted_and_consistent_after_pruning():
    rng = np.random.default_rng(41)
    for _ in range(10):
        inst = random_subset_instance(rng)
        # the helpers sort: the pairs' own order must agree
        assert list(candidates_of_client(inst)) == [
            tuple(inst.pairs.ap[inst.pairs.client == j].tolist()) for j in range(inst.n_clients)
        ]
        for j, cands in enumerate(candidates_of_client(inst)):
            assert list(cands) == sorted(cands)
            for i in cands:
                assert j in clients_of_ap(inst)[i]
        for i, clients in enumerate(clients_of_ap(inst)):
            for j in clients:
                assert i in candidates_of_client(inst)[j]


def edited_chain_document(path, value):
    """The two-client chain document with the value at `path` (keys and list
    indices) replaced; the empty path replaces the whole document."""
    doc = instance_to_json(example1_instance(2, 0.5))
    if not path:
        return value
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


@pytest.mark.parametrize(
    "path, value, name",
    [
        (("links", 0, "beta"), "0.5", "links[0].beta"),
        (("links", 0, "i"), 0.5, "links[0].i"),
        (("n_aps",), True, "n_aps"),
        (("demands",), "11", "demands"),
        (("demands", 1), None, "demands[1]"),
        (("links",), {"i": 0, "j": 0, "beta": 0.5, "rate": 2.0}, "links"),
        ((), None, "instance document"),
        ((), [], "instance document"),
    ],
    ids=lambda param: param if isinstance(param, str) else None,
)
def test_json_rejects_wrong_value_types(path, value, name):
    with pytest.raises(ValueError, match=re.escape(name) + " must be"):
        instance_from_json(edited_chain_document(path, value))


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "10**400"]
)
def test_json_rejects_non_finite_numbers(value):
    with pytest.raises(ValueError, match=re.escape("links[1].rate") + " must be a finite"):
        instance_from_json(edited_chain_document(("links", 1, "rate"), value))


def test_json_rejects_ap_count_above_the_ceiling(monkeypatch):
    monkeypatch.setattr(instance_module, "MAX_APS", 4)
    for n_aps in (5, 1e20, 0, -1):
        with pytest.raises(ValueError, match="n_aps"):
            instance_from_json(edited_chain_document(("n_aps",), n_aps))
    assert instance_from_json(edited_chain_document(("n_aps",), 4)).n_aps == 4


def test_json_rejects_huge_link_index_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="out of range"):
            instance_from_json(edited_chain_document(("links", 0, "i"), 10**30))


def test_assemble_requires_finite_positive_values():
    topo = two_ap_topology()
    rates = {(0, 0): 2.0, (1, 0): 1.0, (0, 1): 5.0, (1, 2): 5.0}
    rule = re.escape("demand, rate and beta of pair (0, 0) must be finite and positive")
    infinite = pair_values(topo, {**rates, (0, 0): math.inf})
    huge = pair_values(topo, {**rates, (0, 0): 1e300, (1, 0): 1e300})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rule):
            build_instance(topo, [1.0, 1.0, 1.0], infinite)
        with pytest.raises(ValueError, match=rule):
            build_instance(topo, [math.nan, 1.0, 1.0], pair_values(topo, rates))
        with pytest.raises(ValueError, match=rule):
            build_instance(topo, [math.inf, 1.0, 1.0], pair_values(topo, rates))
        with pytest.raises(ValueError, match=rule):
            instance_from_beta(1, 1, {(0, 0): math.nan})
        # 1e-300 / 1e300 underflows to a zero utilization
        with pytest.raises(ValueError, match=rule):
            build_instance(topo, [1e-300, 1.0, 1.0], huge)


def test_build_prunes_zero_rate_pairs_like_overloaded_ones():
    topo = two_ap_topology()
    rates = {(0, 0): 2.0, (1, 0): 0.0, (0, 1): 5.0, (1, 2): 5.0}
    zero, negative = (pair_values(topo, {**rates, (0, 0): r}) for r in (0.0, -1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inst = build_instance(topo, demands=[1.0, 1.0, 1.0], link_rates=pair_values(topo, rates))
        assert (1, 0) not in beta_dict(inst)
        assert candidates_of_client(inst) == ((0,), (0,), (1,))
        with pytest.raises(InfeasibleClientError, match="pruned") as err:
            build_instance(topo, demands=[1.0, 1.0, 1.0], link_rates=zero)
        assert err.value.client == 0
        with pytest.raises(ValueError, match="must be finite and positive"):
            build_instance(topo, demands=[1.0, 1.0, 1.0], link_rates=negative)


def test_json_rejects_a_zero_rate():
    with pytest.raises(ValueError, match="must be finite and positive"):
        instance_from_json(edited_chain_document(("links", 1, "rate"), 0.0))
