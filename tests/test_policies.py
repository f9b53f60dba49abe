from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from mmwassoc import sim
from mmwassoc.channel import compute_gain, compute_rate, default_params
from mmwassoc.instance import (
    build_instance,
    instance_from_beta,
    make_assignment,
    topology_from_positions,
)
from mmwassoc.policies import jain_index, random_policy, rssi_policy
from mmwassoc.sim import ExperimentConfig, generate_topology, run_slot
from oracles import beta_dict, brute_force, random_subset_instance, recording
from oracles import ref_random_offsets, ref_rssi_choice


def rng(seed):
    return np.random.default_rng(seed)


def test_random_policy_deterministic_given_seed():
    inst = random_subset_instance(rng(3))
    assert random_policy(inst, rng(1234)) == random_policy(inst, rng(1234))


def test_random_policy_trivial_when_no_choice():
    inst = instance_from_beta(2, 2, {(0, 0): 0.3, (1, 1): 0.4})
    for seed in range(5):
        assert random_policy(inst, rng(seed)).ap_of_client == (0, 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=12), st.integers(0, 2**32 - 1))
def test_random_policy_draws_as_the_per_client_loop(sizes, seed):
    # client j's candidates are APs 0..sizes[j]-1, so its AP is its offset;
    # skipping the one-AP clients' integers(1) must leave the stream as it was
    beta = {(i, j): 0.5 for j, size in enumerate(sizes) for i in range(size)}
    inst = instance_from_beta(max(sizes), len(sizes), beta)
    ours, ref = rng(seed), rng(seed)
    assert list(random_policy(inst, ours).ap_of_client) == ref_random_offsets(sizes, ref)
    assert ours.bit_generator.state == ref.bit_generator.state


def test_random_policy_marginal_is_uniform_binomial():
    inst = instance_from_beta(2, 1, {(0, 0): 0.3, (1, 0): 0.4})
    picks = sum(
        random_policy(inst, rng(seed)).ap_of_client[0] == 0 for seed in range(100_000)
    )
    assert abs(picks / 100_000 - 0.5) <= 0.01


def test_random_policy_uniform_chi_square():
    inst = instance_from_beta(
        3, 2, {(0, 0): 0.2, (1, 0): 0.3, (2, 0): 0.4, (0, 1): 0.5, (1, 1): 0.6}
    )
    stream = rng(77)
    counts0 = np.zeros(3)
    counts1 = np.zeros(2)
    for _ in range(100_000):
        a = random_policy(inst, stream)
        counts0[a.ap_of_client[0]] += 1
        counts1[a.ap_of_client[1]] += 1
    assert chisquare(counts0).pvalue > 0.001
    assert chisquare(counts1).pvalue > 0.001


def rate_instance(ap_positions, client_positions, demand):
    """The instance of the default link budget at unit fading: rates fall
    with distance, as the received powers do."""
    p = default_params()
    topo = topology_from_positions(ap_positions, client_positions, radius=10.0)
    rates = [compute_rate(p, compute_gain(p, d, 1.0)) for d in topo.distance.tolist()]
    return build_instance(topo, [demand] * topo.n_clients, rates)


def test_rssi_tie_goes_to_smallest_index():
    inst = rate_instance([[-2.0, 0.0], [2.0, 0.0]], [[0.0, 0.0]], 1e8)
    assert inst.rate[0] == inst.rate[1]
    assert rssi_policy(inst).ap_of_client == (0,)


def test_rssi_prefers_nearer_ap_all_else_equal():
    # client at 4 m from AP 0 and 2 m from AP 1, identical fading and power
    inst = rate_instance([[0.0, 0.0], [6.0, 0.0]], [[4.0, 0.0]], 1e8)
    assert rssi_policy(inst).ap_of_client == (1,)


def test_rssi_is_load_blind_on_clustered_clients():
    # ten identical clients in the overlap of two APs, all nearer AP 0, each
    # taking a tenth of AP 0
    p = default_params()
    demand = 0.1 * compute_rate(p, compute_gain(p, 2.0, 1.0))
    inst = rate_instance([[0.0, 0.0], [6.0, 0.0]], [[2.0, 0.0]] * 10, demand)
    rssi = rssi_policy(inst)
    assert rssi.ap_of_client == (0,) * 10
    assert rssi.objective == pytest.approx(1.0, abs=1e-12)
    # six stay on AP 0; four move to AP 1 at about 0.144 each
    optimum, _ = brute_force(inst)
    assert optimum == pytest.approx(0.6, abs=1e-12)
    assert rssi.objective > optimum


# the README point, N=20 with M=400, M=300 at 150 Mb/s (heavy pruning), and
# mc_exact's co-located cells
RSSI_SHAPES = {
    "readme": dict(n_aps=5, n_clients=100),
    "n20_m400": dict(n_aps=20, n_clients=400),
    "m300_150mbps": dict(n_aps=5, n_clients=300, demand_max=150e6),
    "co_located": dict(n_aps=3, n_clients=12, ap_spacing_factor=0.01),
}


@pytest.mark.parametrize("shape", RSSI_SHAPES.values(), ids=list(RSSI_SHAPES))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_rssi_rate_ranking_is_the_received_power_ranking_on_slots(shape, seed):
    # the slot's own per-pair gains, ranked as received powers over the kept
    # pairs, choose the APs the rate ranking does on feasible slots
    cfg = ExperimentConfig(slots=1, daa_iters=1, seed=seed, **shape)
    topo = generate_topology(cfg)
    built = []

    def build(*args):
        built.append(build_instance(*args))
        return built[-1]

    compared = 0
    for slot in range(200):
        built.clear()
        with recording(sim, "compute_gain") as gains, mock.patch.object(sim, "build_instance", build):
            result = run_slot(cfg, topo, slot)
        if not result.feasible:
            continue
        (inst,) = built
        rssi = rssi_policy(inst)
        powers = cfg.channel.tx_power * np.array(gains)
        assert rssi.ap_of_client == ref_rssi_choice(topo, inst, powers)
        assert repr(result.p_rssi) == repr(rssi.objective)
        compared += 1
        if compared == 3:
            break
    assert compared == 3


def test_jain_perfect_fairness():
    inst = instance_from_beta(3, 3, {(0, 0): 0.4, (1, 1): 0.4, (2, 2): 0.4})
    assert jain_index(make_assignment(inst, [0, 1, 2])) == pytest.approx(1.0, abs=1e-12)


def test_jain_single_loaded_ap_is_one_over_n():
    beta = {(0, j): 0.1 for j in range(4)}
    inst = instance_from_beta(5, 4, beta)
    assert jain_index(make_assignment(inst, [0, 0, 0, 0])) == pytest.approx(0.2, abs=1e-12)


def test_jain_two_ap_arithmetic():
    inst = instance_from_beta(2, 2, {(0, 0): 0.4, (1, 1): 0.6})
    index = jain_index(make_assignment(inst, [0, 1]))
    expected = (0.4 + 0.6) ** 2 / (2 * (0.4**2 + 0.6**2))
    assert index == pytest.approx(expected, rel=1e-12)
    assert index == pytest.approx(0.9615384615384616, rel=1e-12)


def test_jain_degenerate_zero_clients():
    empty = instance_from_beta(3, 0, {})
    # all loads zero: no spread to measure, the index is pinned to 1
    index = jain_index(make_assignment(empty, []))
    assert type(index) is float and index == 1.0


def test_jain_invariant_under_ap_relabeling():
    stream = rng(19)
    inst = random_subset_instance(stream)
    a = random_policy(inst, rng(5))
    base = jain_index(a)
    perm = stream.permutation(inst.n_aps)
    relabeled_beta = {(int(perm[i]), j): b for (i, j), b in beta_dict(inst).items()}
    inst_p = instance_from_beta(inst.n_aps, inst.n_clients, relabeled_beta)
    a_p = make_assignment(inst_p, [int(perm[i]) for i in a.ap_of_client])
    assert jain_index(a_p) == pytest.approx(base, rel=1e-12)


def test_objective_value_examples():
    inst = instance_from_beta(2, 2, {(0, 0): 0.3, (0, 1): 0.2, (1, 1): 0.9})
    a = make_assignment(inst, [0, 0])
    assert a.objective == pytest.approx(0.5, abs=1e-12)  # AP 1 empty
    single_ap = instance_from_beta(1, 3, {(0, 0): 0.1, (0, 1): 0.2, (0, 2): 0.3})
    full = make_assignment(single_ap, [0, 0, 0])
    assert full.objective == pytest.approx(0.6, abs=1e-12)


def test_objective_matches_subgradient_sup_norm():
    inst = random_subset_instance(rng(23))
    a = random_policy(inst, rng(9))
    u = -np.array(make_assignment(inst, a.ap_of_client).loads)
    assert make_assignment(inst, a.ap_of_client).objective == pytest.approx(
        np.abs(u).max(), abs=1e-12
    )
