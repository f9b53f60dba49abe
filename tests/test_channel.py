import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from mmwassoc.channel import (
    ChannelParams,
    InfeasibleRadiusError,
    cell_radius,
    compute_gain,
    compute_rate,
    default_params,
    realize_link,
    snr_at_distance,
)
from mmwassoc.sim import ExperimentConfig


def test_gain_at_reference_distance_matches_direct_evaluation():
    p = default_params()
    # spreadsheet-style oracle: wavelength^2 / (16 pi^2) at d=d0, unit fading
    expected = 0.005**2 / (16.0 * math.pi**2)
    got = compute_gain(p, 1.0, 1.0)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(1.5831e-7, abs=1e-11)


def test_gain_linear_in_fading():
    p = default_params()
    assert compute_gain(p, 3.0, 2.0) == pytest.approx(2.0 * compute_gain(p, 3.0, 1.0), rel=1e-12)


def test_gain_inverse_square_law():
    p = default_params()
    assert compute_gain(p, 2.0, 1.0) == pytest.approx(compute_gain(p, 1.0, 1.0) / 4.0, rel=1e-12)


def test_gain_monotone_beyond_reference():
    p = default_params(path_loss_exp=3.0)
    dists = np.linspace(1.0, 30.0, 50)
    gains = [compute_gain(p, d, 1.0) for d in dists]
    assert all(a > b for a, b in zip(gains, gains[1:]))


def test_gain_rejects_nonpositive_inputs():
    p = default_params()
    with pytest.raises(ValueError):
        compute_gain(p, 0.0, 1.0)
    with pytest.raises(ValueError):
        compute_gain(p, 1.0, 0.0)
    with pytest.raises(ValueError):
        compute_gain(p, -1.0, 1.0)


def test_rate_is_bandwidth_at_unit_snr():
    p = default_params()
    gain = (p.noise_density + p.interference_density) * p.bandwidth / p.tx_power
    assert compute_rate(p, gain) == pytest.approx(p.bandwidth, rel=1e-12)


def test_rate_monotone_and_vanishing():
    p = default_params()
    gains = np.geomspace(1e-15, 1e-3, 40)
    rates = [compute_rate(p, g) for g in gains]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    assert rates[0] < 1e-2 * p.bandwidth


def test_default_operating_point_snr_and_rate():
    # unit-conversion oracle: -134 dBm/MHz -> 10**(-19.4) mW/Hz
    n0 = 10.0 ** (-134.0 / 10.0) / 1e6
    snr_expected = 0.1 * 0.005**2 / (16.0 * math.pi**2 * n0 * 1.2e9)
    p = default_params()
    snr = snr_at_distance(p, p.ref_distance)
    assert snr == pytest.approx(snr_expected, rel=1e-12)
    assert snr == pytest.approx(331.0, abs=0.5)
    assert 10.0 * math.log10(snr) == pytest.approx(25.2, abs=0.05)
    rate = compute_rate(p, compute_gain(p, p.ref_distance, 1.0))
    assert rate == pytest.approx(p.bandwidth * math.log2(1.0 + snr_expected), rel=1e-12)


def test_snr_constant_inside_reference_distance():
    p = default_params()
    assert snr_at_distance(p, 0.5) == snr_at_distance(p, 1.0)
    assert snr_at_distance(p, 1e-6) == snr_at_distance(p, 1.0)


def test_snr_decays_beyond_reference():
    p = default_params()
    assert snr_at_distance(p, 2.0) == pytest.approx(snr_at_distance(p, 1.0) / 4.0, rel=1e-12)


def test_cell_radius_inverse_square_case():
    p = default_params()
    snr0 = snr_at_distance(p, p.ref_distance)
    assert cell_radius(p, snr0 / 4.0) == pytest.approx(2.0 * p.ref_distance, rel=1e-12)


def test_cell_radius_rejects_plateau_target():
    p = default_params()
    with pytest.raises(InfeasibleRadiusError):
        cell_radius(p, snr_at_distance(p, p.ref_distance))
    with pytest.raises(InfeasibleRadiusError):
        cell_radius(p, 2.0 * snr_at_distance(p, p.ref_distance))


def test_cell_radius_ten_db_matches_root_find_oracle():
    p = default_params()
    target = 10.0  # 10 dB, linear
    r_oracle = brentq(lambda d: snr_at_distance(p, d) - target, 1.0001, 1000.0, xtol=1e-12)
    r = cell_radius(p, target)
    assert r == pytest.approx(r_oracle, rel=1e-9)
    assert r == pytest.approx(5.75, abs=0.02)


@pytest.mark.parametrize("eta", [2.0, 2.7, 4.0, 6.0])
def test_snr_radius_round_trip(eta):
    p = default_params(path_loss_exp=eta)
    snr0 = snr_at_distance(p, p.ref_distance)
    for frac in (0.9, 0.5, 0.01, 1e-6):
        target = snr0 * frac
        assert snr_at_distance(p, cell_radius(p, target)) == pytest.approx(target, rel=1e-9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    tx_gain=st.floats(0.1, 100.0),
    rx_gain=st.floats(0.1, 100.0),
    interference=st.one_of(st.just(0.0), st.floats(1e-22, 1e-17)),
    eta=st.floats(2.0, 6.0),
    frac=st.floats(1e-6, 0.9),
)
def test_unit_fading_sinr_at_the_radius_is_the_target(tx_gain, rx_gain, interference, eta, frac):
    # the radius uses the link budget compute_rate sees: antenna gains and N0 + I
    channel = replace(
        default_params(path_loss_exp=eta),
        tx_gain=tx_gain, rx_gain=rx_gain, interference_density=interference,
    )
    n0_w = (channel.noise_density + interference) * channel.bandwidth

    def sinr(d):
        return channel.tx_power * compute_gain(channel, d, 1.0) / n0_w

    target = frac * sinr(channel.ref_distance)  # below the plateau: a radius exists
    cfg = ExperimentConfig(
        n_aps=1, n_clients=1, slots=1, channel=channel, target_snr_db=10.0 * math.log10(target)
    )
    assert sinr(cfg.radius) == pytest.approx(target, rel=1e-9)


def test_mean_fading_gain_matches_unit_fading():
    p = default_params()
    rng = np.random.default_rng(123)
    draws = rng.exponential(1.0, size=100_000)
    base = compute_gain(p, 4.0, 1.0)
    sample_mean = np.mean([base * a for a in draws])  # gain is linear in fading
    assert sample_mean == pytest.approx(base, rel=0.02)


def test_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(wavelength=-5e-3, noise_density=1e-19, bandwidth=1e9)
    with pytest.raises(ValueError):
        ChannelParams(wavelength=5e-3, noise_density=1e-19, bandwidth=1e9, path_loss_exp=1.5)
    with pytest.raises(ValueError):
        ChannelParams(wavelength=5e-3, noise_density=1e-19, bandwidth=1e9, path_loss_exp=6.5)
    with pytest.raises(ValueError):
        ChannelParams(
            wavelength=5e-3, noise_density=1e-19, bandwidth=1e9, interference_density=-1e-22
        )


def test_realize_link_consistency():
    p = default_params()
    link = realize_link(p, 3.7, 0.42)
    assert link.gain == pytest.approx(compute_gain(p, 3.7, 0.42), rel=1e-12)
    assert link.rate == pytest.approx(compute_rate(p, link.gain), rel=1e-12)
    with pytest.raises(ValueError):
        realize_link(p, 3.7, 0.0)
