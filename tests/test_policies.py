import numpy as np
import pytest
from scipy.stats import chisquare

from mmwassoc.channel import compute_gain, default_params
from mmwassoc.instance import instance_from_beta, make_assignment, per_ap_loads
from mmwassoc.policies import jain_index, random_policy, rssi_policy
from oracles import beta_dict, brute_force, pair_values, random_subset_instance


def test_random_policy_deterministic_given_seed():
    rng = np.random.default_rng(3)
    inst = random_subset_instance(rng)
    assert random_policy(inst, 1234) == random_policy(inst, 1234)


def test_random_policy_trivial_when_no_choice():
    inst = instance_from_beta(2, 2, {(0, 0): 0.3, (1, 1): 0.4})
    for seed in range(5):
        assert random_policy(inst, seed).ap_of_client == (0, 1)


def test_random_policy_marginal_is_uniform_binomial():
    inst = instance_from_beta(2, 1, {(0, 0): 0.3, (1, 0): 0.4})
    picks = sum(
        random_policy(inst, seed).ap_of_client[0] == 0 for seed in range(100_000)
    )
    assert abs(picks / 100_000 - 0.5) <= 0.01


def test_random_policy_uniform_chi_square():
    inst = instance_from_beta(
        3, 2, {(0, 0): 0.2, (1, 0): 0.3, (2, 0): 0.4, (0, 1): 0.5, (1, 1): 0.6}
    )
    rng = np.random.default_rng(77)
    counts0 = np.zeros(3)
    counts1 = np.zeros(2)
    for _ in range(100_000):
        a = random_policy(inst, rng)
        counts0[a.ap_of_client[0]] += 1
        counts1[a.ap_of_client[1]] += 1
    assert chisquare(counts0).pvalue > 0.001
    assert chisquare(counts1).pvalue > 0.001


def test_rssi_tie_goes_to_smallest_index():
    inst = instance_from_beta(2, 1, {(0, 0): 0.3, (1, 0): 0.4})
    a = rssi_policy(inst, pair_values(inst, {(0, 0): 1e-6, (1, 0): 1e-6}))
    assert a.ap_of_client == (0,)


def test_rssi_prefers_nearer_ap_all_else_equal():
    p = default_params()
    inst = instance_from_beta(2, 1, {(0, 0): 0.3, (1, 0): 0.4})
    # client at 4 m from AP 0 and 2 m from AP 1, identical fading and power
    powers = {
        (0, 0): p.tx_power * compute_gain(p, 4.0, 1.0),
        (1, 0): p.tx_power * compute_gain(p, 2.0, 1.0),
    }
    assert rssi_policy(inst, pair_values(inst, powers)).ap_of_client == (1,)


def test_rssi_requires_one_power_per_pair():
    inst = instance_from_beta(2, 1, {(0, 0): 0.3, (1, 0): 0.4})
    for powers in ([1.0], [1.0, 2.0, 3.0]):
        rule = f"need 2 received powers, one per pair, got {len(powers)}"
        with pytest.raises(ValueError, match=rule):
            rssi_policy(inst, np.array(powers))


def test_rssi_is_load_blind_on_clustered_clients():
    # ten identical clients in the overlap of two APs, all nearer AP 0
    beta = {}
    powers = {}
    for j in range(10):
        beta[(0, j)] = 0.1
        beta[(1, j)] = 0.1
        powers[(0, j)] = 2.0
        powers[(1, j)] = 1.0
    inst = instance_from_beta(2, 10, beta)
    rssi = rssi_policy(inst, pair_values(inst, powers))
    assert rssi.ap_of_client == (0,) * 10
    assert rssi.objective == pytest.approx(1.0, abs=1e-12)
    optimum, _ = brute_force(inst)
    assert optimum == pytest.approx(0.5, abs=1e-12)
    assert rssi.objective > optimum


def test_jain_perfect_fairness():
    inst = instance_from_beta(3, 3, {(0, 0): 0.4, (1, 1): 0.4, (2, 2): 0.4})
    assert jain_index(inst, make_assignment(inst, [0, 1, 2])) == pytest.approx(1.0, abs=1e-12)


def test_jain_single_loaded_ap_is_one_over_n():
    beta = {(0, j): 0.1 for j in range(4)}
    inst = instance_from_beta(5, 4, beta)
    assert jain_index(inst, make_assignment(inst, [0, 0, 0, 0])) == pytest.approx(0.2, abs=1e-12)


def test_jain_two_ap_arithmetic():
    inst = instance_from_beta(2, 2, {(0, 0): 0.4, (1, 1): 0.6})
    index = jain_index(inst, make_assignment(inst, [0, 1]))
    expected = (0.4 + 0.6) ** 2 / (2 * (0.4**2 + 0.6**2))
    assert index == pytest.approx(expected, rel=1e-12)
    assert index == pytest.approx(0.9615384615384616, rel=1e-12)


def test_jain_degenerate_zero_clients():
    empty = instance_from_beta(3, 0, {})
    # all loads zero: no spread to measure, the index is pinned to 1
    index = jain_index(empty, make_assignment(empty, []))
    assert type(index) is float and index == 1.0


def test_jain_invariant_under_ap_relabeling():
    rng = np.random.default_rng(19)
    inst = random_subset_instance(rng)
    a = random_policy(inst, 5)
    base = jain_index(inst, a)
    perm = rng.permutation(inst.n_aps)
    relabeled_beta = {(int(perm[i]), j): b for (i, j), b in beta_dict(inst).items()}
    inst_p = instance_from_beta(inst.n_aps, inst.n_clients, relabeled_beta, inst.demands)
    a_p = make_assignment(inst_p, [int(perm[i]) for i in a.ap_of_client])
    assert jain_index(inst_p, a_p) == pytest.approx(base, rel=1e-12)


def test_objective_value_examples():
    inst = instance_from_beta(2, 2, {(0, 0): 0.3, (0, 1): 0.2, (1, 1): 0.9})
    a = make_assignment(inst, [0, 0])
    assert a.objective == pytest.approx(0.5, abs=1e-12)  # AP 1 empty
    single_ap = instance_from_beta(1, 3, {(0, 0): 0.1, (0, 1): 0.2, (0, 2): 0.3})
    full = make_assignment(single_ap, [0, 0, 0])
    assert full.objective == pytest.approx(0.6, abs=1e-12)


def test_objective_matches_subgradient_sup_norm():
    rng = np.random.default_rng(23)
    inst = random_subset_instance(rng)
    a = random_policy(inst, 9)
    u = -per_ap_loads(inst, a.ap_of_client)
    assert make_assignment(inst, a.ap_of_client).objective == pytest.approx(
        np.abs(u).max(), abs=1e-12
    )
