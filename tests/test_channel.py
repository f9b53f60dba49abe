import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from mmwassoc.channel import (
    ChannelParams,
    InfeasibleRadiusError,
    cell_radius,
    compute_gain,
    compute_rate,
    default_params,
)
from mmwassoc.sim import ExperimentConfig
from oracles import ref_cell_radius


def sinr(p, d):
    """The SINR compute_rate sees on a unit-fading link at distance d."""
    noise = (p.noise_density + p.interference_density) * p.bandwidth
    return p.tx_power * compute_gain(p, d, 1.0) / noise


def db(linear):
    return 10.0 * math.log10(linear)


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
    p = replace(default_params(), path_loss_exp=3.0)
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
    snr = sinr(p, p.ref_distance)
    assert snr == pytest.approx(snr_expected, rel=1e-12)
    assert snr == pytest.approx(331.0, abs=0.5)
    assert db(snr) == pytest.approx(25.2, abs=0.05)
    rate = compute_rate(p, compute_gain(p, p.ref_distance, 1.0))
    assert rate == pytest.approx(p.bandwidth * math.log2(1.0 + snr_expected), rel=1e-12)


def test_snr_decays_beyond_reference():
    p = default_params()
    assert sinr(p, 2.0) == pytest.approx(sinr(p, 1.0) / 4.0, rel=1e-12)


def test_sinr_keeps_rising_inside_the_reference_distance():
    # compute_gain has no near-field clamp: at 0.5 m the SINR is 4x the one at 1 m
    p = default_params()
    assert sinr(p, 0.5) == pytest.approx(4.0 * sinr(p, 1.0), rel=1e-12)
    assert sinr(p, 0.5) == pytest.approx(1325.6, abs=0.05)


def test_cell_radius_inverse_square_case():
    p = default_params()
    snr0 = sinr(p, p.ref_distance)
    assert cell_radius(p, db(snr0 / 4.0)) == pytest.approx(2.0 * p.ref_distance, rel=1e-12)


def test_cell_radius_rejects_a_target_at_or_above_the_sinr_at_the_reference():
    p = default_params()
    snr0 = sinr(p, p.ref_distance)
    # the smallest dB target whose linear value reaches snr0
    edge = db(snr0)
    while 10.0 ** (edge / 10.0) >= snr0:
        edge = math.nextafter(edge, -math.inf)
    while 10.0 ** (edge / 10.0) < snr0:
        edge = math.nextafter(edge, math.inf)
    for target_snr_db in (edge, db(2.0 * snr0)):
        with pytest.raises(InfeasibleRadiusError, match=r"^target_snr_db=.* is out of reach"):
            cell_radius(p, target_snr_db)
    assert cell_radius(p, math.nextafter(edge, -math.inf)) >= p.ref_distance


def test_cell_radius_ten_db_matches_root_find_oracle():
    p = default_params()
    r_oracle = brentq(lambda d: sinr(p, d) - 10.0, 1.0001, 1000.0, xtol=1e-12)
    r = cell_radius(p, 10.0)  # 10 dB, 10 linear
    assert r == pytest.approx(r_oracle, rel=1e-9)
    assert r == pytest.approx(5.75, abs=0.02)


@pytest.mark.parametrize("eta", [2.0, 2.7, 4.0, 6.0])
def test_snr_radius_round_trip(eta):
    p = replace(default_params(), path_loss_exp=eta)
    snr0 = sinr(p, p.ref_distance)
    for frac in (0.9, 0.5, 0.01, 1e-6):
        target = snr0 * frac
        assert sinr(p, cell_radius(p, db(target))) == pytest.approx(target, rel=1e-9)


@pytest.mark.parametrize(
    "field, value, target_snr_db, refusal",
    [
        (None, None, 200.0, r"^target_snr_db=200\.0 is out of reach: "),
        (None, None, 1e300, r"^the cell at target_snr_db=1e\+300 overflows: "),
        ("wavelength", 1e300, 10.0, r"^the cell at target_snr_db=10\.0 overflows: "),
        ("tx_power", 1e308, 10.0, r"^the cell at target_snr_db=10\.0 overflows: "),
        (None, None, -400.0, r"^a link at the cell radius .*=-400\.0 has a rate of 0$"),
        ("wavelength", 1e150, 10.0, r"^a link at the cell radius .* has a rate of 0$"),
    ],
)
def test_cell_radius_refusals_name_the_target(field, value, target_snr_db, refusal):
    p = default_params() if field is None else replace(default_params(), **{field: value})
    with pytest.raises(InfeasibleRadiusError, match=refusal):
        cell_radius(p, target_snr_db)


def magnitudes(lo, hi):
    """Floats spread log-uniformly over [10**lo, 10**hi]."""
    return st.floats(lo, hi).map(lambda exponent: 10.0**exponent)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    tx_gain=magnitudes(-3, 3),
    rx_gain=magnitudes(-3, 3),
    interference=st.one_of(st.just(0.0), magnitudes(-30, -10)),
    wavelength=st.one_of(st.just(5e-3), magnitudes(-300, 300)),
    tx_power=st.one_of(st.just(0.1), magnitudes(-10, 308)),
    eta=st.floats(2.0, 6.0),
    target_snr_db=st.one_of(
        st.sampled_from([10.0, -400.0, 1e300, -1e300, 200.0, -3200.0]),
        st.floats(-500.0, 500.0),
        st.floats(allow_nan=False),
    ),
)
@example(1.0, 1.0, 0.0, 5e-3, 0.1, 2.0, 10.0)  # the default cell
@example(1.0, 1.0, 0.0, 5e-3, 0.1, 2.0, -3200.0)  # a subnormal target: an infinite radius
@example(1.0, 1.0, 0.0, 1e300, 0.1, 2.0, 10.0)  # wavelength^2 overflows
@example(1.0, 1.0, 0.0, 1e150, 0.1, 2.0, 10.0)  # the edge rate rounds to 0
@example(1.0, 1.0, 0.0, 5e-3, 0.1, 6.0, -1800.0)  # (r/d0)^eta overflows
def test_cell_radius_matches_the_reference_radius(
    tx_gain, rx_gain, interference, wavelength, tx_power, eta, target_snr_db
):
    p = replace(
        default_params(),
        tx_gain=tx_gain, rx_gain=rx_gain, interference_density=interference,
        wavelength=wavelength, tx_power=tx_power, path_loss_exp=eta,
    )
    expected = ref_cell_radius(p, target_snr_db)
    if expected is None:
        with pytest.raises(InfeasibleRadiusError, match="target_snr_db="):
            cell_radius(p, target_snr_db)
    else:
        assert cell_radius(p, target_snr_db).hex() == expected.hex()


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
        default_params(),
        path_loss_exp=eta, tx_gain=tx_gain, rx_gain=rx_gain, interference_density=interference,
    )
    target = frac * sinr(channel, channel.ref_distance)  # below it a radius exists
    cfg = ExperimentConfig(
        n_aps=1, n_clients=1, slots=1, channel=channel, target_snr_db=db(target)
    )
    assert sinr(channel, cfg.radius) == pytest.approx(target, rel=1e-9)


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


@pytest.mark.parametrize(
    "field, value",
    [
        ("wavelength", "x"),
        ("wavelength", True),
        ("path_loss_exp", "2"),
        ("noise_density", None),
        ("tx_gain", np.bool_(True)),
        ("interference_density", "0"),
    ],
)
def test_params_refuse_a_field_that_is_not_a_real_number(field, value):
    # a Python caller meets the rule ExperimentConfig applies to its floats,
    # not a TypeError from a comparison or a bool taken as 1
    with pytest.raises(ValueError, match=f"^{field} must be a real number, got "):
        replace(default_params(), **{field: value})


@pytest.mark.parametrize("field", [f.name for f in fields(ChannelParams)])
def test_params_refuse_nan_in_every_field(field):
    with pytest.raises(ValueError, match=f"^{field} must "):
        replace(default_params(), **{field: math.nan})


def test_params_take_integers_and_numpy_numbers():
    p = default_params()
    same = replace(p, bandwidth=np.float64(p.bandwidth), path_loss_exp=2, tx_gain=np.int64(1))
    assert same == p
    assert cell_radius(same, 10.0) == cell_radius(p, 10.0)


def test_link_gain_and_rate_consistency():
    # one faded link draw, as run_slot evaluates it: gain, then rate
    p = default_params()
    gain = compute_gain(p, 3.7, 0.42)
    assert gain == pytest.approx(0.42 * compute_gain(p, 3.7, 1.0), rel=1e-12)
    snr = p.tx_power * gain / (p.noise_density * p.bandwidth)
    assert compute_rate(p, gain) == pytest.approx(p.bandwidth * math.log2(1.0 + snr), rel=1e-12)
    with pytest.raises(ValueError):
        compute_gain(p, 3.7, 0.0)
