"""The CLI's config document and the Python API build the same config.

`parse_experiment_config(doc)` must equal the `ExperimentConfig` a Python
caller builds from the same values: absent keys take the Python defaults,
and a document the Python side rejects is rejected by the CLI too.
"""

import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwassoc import instance as instance_module
from mmwassoc.channel import default_params
from mmwassoc.cli import parse_experiment_config
from mmwassoc.sim import ExperimentConfig, generate_topology, run_experiment

WORKLOADS = sorted((Path(__file__).parent.parent / "bench" / "workloads").glob("*.json"))
README_DOC = {
    "n_aps": 5,
    "n_clients": 100,
    "slots": 1000,
    "daa_iters": 1000,
    "step_scale": 1.0,
    "seed": 0,
    "target_snr_db": 10.0,
    "ap_spacing_factor": 1.1,
    "demand_max_bps": 400e6,
    "wavelength_m": 5e-3,
    "noise_dbm_per_mhz": -134.0,
    "bandwidth_hz": 1.2e9,
    "ref_distance_m": 1.0,
    "path_loss_exp": 2.0,
    "tx_power_mw": 0.1,
    "tx_gain": 1.0,
    "rx_gain": 1.0,
    "with_exact": False,
}
# a second valid value for every optional key
OTHER_VALUES = {
    "daa_iters": 50,
    "step_scale": 0.5,
    "seed": 9,
    "target_snr_db": 5.0,
    "ap_spacing_factor": 0.8,
    "demand_max_bps": 1e8,
    "wavelength_m": 4e-3,
    "noise_dbm_per_mhz": -120,
    "interference_dbm_per_mhz": -150.0,
    "bandwidth_hz": 2e9,
    "ref_distance_m": 2.0,
    "path_loss_exp": 2.5,
    "tx_power_mw": 1.0,
    "tx_gain": 2.0,
    "rx_gain": 3.0,
    "with_exact": True,
    "force_exact": True,
    "exact_limit": 1e3,
}
CHANNEL_FIELDS = {
    "wavelength_m": "wavelength",
    "bandwidth_hz": "bandwidth",
    "ref_distance_m": "ref_distance",
    "path_loss_exp": "path_loss_exp",
    "tx_power_mw": "tx_power",
    "tx_gain": "tx_gain",
    "rx_gain": "rx_gain",
}


def mw_per_hz(dbm_per_mhz: float) -> float:
    return 10.0 ** (dbm_per_mhz / 10.0) / 1e6


def python_config(doc: dict) -> ExperimentConfig:
    """The config a Python caller builds from the document's values."""
    channel, kwargs = {}, {}
    for key, value in doc.items():
        if key in CHANNEL_FIELDS:
            channel[CHANNEL_FIELDS[key]] = float(value)
        elif key == "noise_dbm_per_mhz":
            channel["noise_density"] = mw_per_hz(value)
        elif key == "interference_dbm_per_mhz":
            channel["interference_density"] = mw_per_hz(value)
        elif key == "demand_max_bps":
            kwargs["demand_max"] = float(value)
        else:
            kwargs[key] = value
    return ExperimentConfig(channel=replace(default_params(), **channel), **kwargs)


def assert_same_config(doc: dict) -> None:
    try:
        expected = python_config(doc)
    except ValueError:
        with pytest.raises(ValueError):
            parse_experiment_config(doc)
        return
    assert parse_experiment_config(doc) == expected


@pytest.mark.parametrize(
    "doc",
    [README_DOC] + [json.loads(path.read_text()) for path in WORKLOADS],
    ids=["readme"] + [path.stem for path in WORKLOADS],
)
def test_cli_and_python_build_the_same_config(doc):
    assert_same_config(doc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_cli_and_python_agree_on_any_key_subset(data):
    doc = {"n_aps": 3, "n_clients": 12, "slots": 2}
    for key in sorted(set(README_DOC) | set(OTHER_VALUES)):
        if key in doc:
            continue
        choices = [README_DOC.get(key), OTHER_VALUES.get(key)]
        value = data.draw(st.sampled_from([None] + [v for v in choices if v is not None]))
        if value is not None:
            doc[key] = value
    assert_same_config(doc)


def test_default_config_takes_the_documented_noise_density():
    cfg = ExperimentConfig(n_aps=5, n_clients=100, slots=20, daa_iters=200)
    assert cfg.channel.noise_density == 10.0 ** (-134.0 / 10.0) / 1e6
    assert cfg == parse_experiment_config(
        {"n_aps": 5, "n_clients": 100, "slots": 20, "daa_iters": 200}
    )


def test_topology_takes_the_config_radius():
    cfg = ExperimentConfig(n_aps=3, n_clients=12, slots=1, seed=4)
    topo = generate_topology(cfg)
    diff = topo.client_positions[:, None, :] - topo.ap_positions[None, :, :]
    distance = np.hypot(diff[..., 0], diff[..., 1])  # (M, N)

    def pairs_within(radius):
        client, ap = np.nonzero(distance <= radius)
        return set(zip(ap.tolist(), client.tolist()))

    assert set(zip(topo.pairs.ap.tolist(), topo.pairs.client.tolist())) == pairs_within(cfg.radius)
    # the draw has links on both sides of the edge, so another radius shows
    assert pairs_within(0.95 * cfg.radius) != pairs_within(cfg.radius)
    assert pairs_within(1.05 * cfg.radius) != pairs_within(cfg.radius)


# the deployment cases of test_cli::test_config_values_out_of_physical_range_exit_2
@pytest.mark.parametrize(
    "field, value",
    [
        ("target_snr_db", 1e300),
        ("wavelength", 1e300),
        ("tx_power", 1e308),
        ("target_snr_db", -400),
        ("target_snr_db", -1e300),
        ("target_snr_db", 200),
        ("wavelength", 1e150),
    ],
)
def test_python_config_applies_the_deployment_rules(field, value):
    if field == "target_snr_db":
        kwargs = {"target_snr_db": value}
    else:
        kwargs = {"channel": replace(default_params(), **{field: value})}
    with pytest.raises(ValueError):
        ExperimentConfig(n_aps=2, n_clients=6, slots=1, daa_iters=20, **kwargs)


@pytest.mark.parametrize("n_aps", [2**40, 3_000_000, 65_537])
def test_config_takes_the_instance_ap_ceiling(n_aps):
    # rejected before generate_topology allocates per AP (8 TiB at 2**40)
    message = re.escape(f"n_aps must lie in [1, 65536], got {n_aps}")
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(n_aps=n_aps, n_clients=6, slots=1)
    with pytest.raises(ValueError, match=message):
        parse_experiment_config({"n_aps": n_aps, "n_clients": 6, "slots": 1})


def test_config_ap_ceiling_follows_max_aps(monkeypatch):
    monkeypatch.setattr(instance_module, "MAX_APS", 4)
    doc = {"n_aps": 5, "n_clients": 6, "slots": 1, "daa_iters": 20}
    with pytest.raises(ValueError, match=re.escape("n_aps must lie in [1, 4], got 5")):
        parse_experiment_config(doc)
    assert_same_config(doc)
    assert_same_config({**doc, "n_aps": 4})
    assert parse_experiment_config({**doc, "n_aps": 4}).n_aps == 4


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_aps", 2.5),
        ("n_aps", True),
        ("n_clients", 10.5),
        ("n_clients", np.float64(10.0)),
        ("slots", 2.5),
        ("daa_iters", 5.5),
        ("daa_iters", math.inf),
        ("seed", 1.5),
    ],
)
def test_python_config_refuses_counts_that_are_not_integers(field, value):
    # the CLI's readers refuse these before a config exists; a Python caller
    # meets the same rule, not a TypeError inside numpy or an endless solve
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        ExperimentConfig(**{"n_aps": 2, "n_clients": 10, "slots": 1, field: value})


def test_python_config_takes_numpy_integer_counts():
    counts = {"n_aps": 2, "n_clients": 6, "slots": 2, "daa_iters": 20, "seed": 3}
    numpy_counts = {key: np.int64(value) for key, value in counts.items()}
    expected = run_experiment(ExperimentConfig(**counts)).aggregates
    assert run_experiment(ExperimentConfig(**numpy_counts)).aggregates == expected


@pytest.mark.parametrize(
    "field, value, rule",
    [("demand_max", math.inf, "finite"), ("exact_limit", math.nan, "a number")],
)
def test_python_config_refuses_an_infinite_demand_or_a_nan_exact_limit(field, value, rule):
    # an infinite demand bound overflows the first slot's draw, and a NaN
    # limit would keep the exact oracle from ever running, silently
    with pytest.raises(ValueError, match=f"^{field} must be {rule}, got "):
        ExperimentConfig(n_aps=2, n_clients=6, slots=1, with_exact=True, **{field: value})


def test_python_config_takes_an_unlimited_exact_search():
    cfg = ExperimentConfig(n_aps=2, n_clients=6, slots=1, with_exact=True, exact_limit=math.inf)
    assert run_experiment(cfg).aggregates["slots_with_exact"] == 1


@pytest.mark.parametrize(
    "field, value, rule",
    [
        ("with_exact", "no", "a bool"),
        ("with_exact", 1, "a bool"),
        ("force_exact", None, "a bool"),
        ("force_exact", np.bool_(True), "a bool"),
        ("target_snr_db", "10", "a real number"),
        ("target_snr_db", True, "a real number"),
        ("ap_spacing_factor", True, "a real number"),
        ("demand_max", "4e8", "a real number"),
        ("step_scale", True, "a real number"),
        ("exact_limit", True, "a real number"),
        ("exact_limit", "1e6", "a real number"),
    ],
)
def test_python_config_refuses_mistyped_flags_and_numbers(field, value, rule):
    # the CLI's readers refuse these before a config exists; a Python caller
    # meets the same rule, not a truthy "no", a limit of True = 1 or a TypeError
    with pytest.raises(ValueError, match=f"^{field} must be {rule}, got "):
        ExperimentConfig(n_aps=2, n_clients=6, slots=1, **{field: value})


@pytest.mark.parametrize("channel", [None, {"wavelength": 5e-3}, "default"])
def test_python_config_refuses_a_channel_that_is_not_channel_params(channel):
    # not an AttributeError from the cell radius
    with pytest.raises(ValueError, match="^channel must be a ChannelParams, got "):
        ExperimentConfig(n_aps=2, n_clients=6, slots=1, channel=channel)


def test_python_config_takes_numpy_and_integer_numbers():
    base = dict(n_aps=2, n_clients=6, slots=2, daa_iters=20, with_exact=True, exact_limit=1e3)
    values = dict(target_snr_db=8, ap_spacing_factor=1.2, demand_max=3e8, step_scale=0.5)
    expected = run_experiment(ExperimentConfig(**base, **values)).aggregates
    numpy_values = {key: np.float64(value) for key, value in values.items()}
    assert run_experiment(ExperimentConfig(**base, **numpy_values)).aggregates == expected
    integers = ExperimentConfig(**{**base, "exact_limit": 1000}, demand_max=np.int64(10**8))
    assert (integers.exact_limit, integers.demand_max) == (1000, 10**8)
