"""One sha256 per pipeline layer over the seed-0 slots of both benchmark
workloads, in pipeline order: topology distances, fading and demand draws,
instances, dual-solver series, exact oracles.  When a workload digest in
`test_bench_digests` moves (say after a numpy upgrade, or on another CPU),
the first layer here that fails names the stage that moved; the layers
before it did not.  `test_platform_canary` pins the platform operations
these layers rest on.  Reads the configs from `bench/workloads/`."""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from mmwassoc import sim
from mmwassoc.cli import parse_experiment_config
from mmwassoc.dual_solver import run_daa
from mmwassoc.instance import InfeasibleClientError

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"
NAMES = ("mc_default", "mc_exact")  # mc_exact is the one that runs the exact oracles


def float_bytes(values) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


@pytest.fixture(scope="module")
def workloads() -> dict:
    """Every layer's output per workload, computed once: the config, the
    topology, and per slot its draws, its instance (None if infeasible) and
    the solver's report (None if infeasible)."""
    runs = {}
    for name in NAMES:
        cfg = parse_experiment_config(json.loads((WORKLOADS / f"{name}.json").read_text()))
        assert cfg.seed == 0
        topo = sim.generate_topology(cfg)
        slots = []
        for t in range(cfg.slots):
            fading = sim._stream(cfg.seed, sim._PURPOSE_FADING, t).exponential(
                1.0, size=topo.distance.size
            )
            demands = sim._stream(cfg.seed, sim._PURPOSE_DEMANDS, t).uniform(
                0.0, cfg.demand_max, size=topo.n_clients
            )
            try:
                inst = sim.draw_instance(cfg, topo, t)
            except InfeasibleClientError:
                inst = report = None
            else:
                report = run_daa(inst, cfg.daa_iters, cfg.step_scale, stop_at_zero_gap=True)
            slots.append((fading, demands, inst, report))
        runs[name] = (cfg, topo, slots)
    return runs


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def test_topology_distances(workloads):
    chunks = (float_bytes(workloads[name][1].distance) for name in NAMES)
    assert digest(chunks) == "6ac5de721d25d6f64feb0d2c0b46a9cbc4736df55ef7df66daeabbb37a71928b"


def test_fading_and_demand_draws(workloads):
    chunks = (
        float_bytes(draws)
        for name in NAMES
        for fading, demands, _, _ in workloads[name][2]
        for draws in (fading, demands)
    )
    assert digest(chunks) == "f4751a38d440367756b5763e9dfed9125ad5b7bf71a189e8539b15a4fe269ae1"


def test_instances(workloads):
    def chunks():
        for name in NAMES:
            for t, (_, _, inst, _) in enumerate(workloads[name][2]):
                if inst is None:
                    yield b"infeasible %d" % t
                    continue
                yield inst.pairs.client.astype("<i8").tobytes()
                yield inst.pairs.ap.astype("<i8").tobytes()
                yield float_bytes(inst.rate)
                yield float_bytes(inst.beta)

    assert digest(chunks()) == "c40ae37c11a8c482d0a81c34fb3a0a681a47bee332f84b9966bbe339f0b95447"


def test_dual_solver_series(workloads):
    chunks = (
        float_bytes(series)
        for name in NAMES
        for _, _, _, report in workloads[name][2]
        if report is not None
        for series in (report.duals, report.primals)
    )
    assert digest(chunks) == "f7501d213be2db1536f4e39d34e65f0b8775d88a839517cdf4c4b5b3afa71be2"


def test_exact_oracles(workloads):
    cfg, _, slots = workloads["mc_exact"]
    values = []
    for t, (_, _, inst, report) in enumerate(slots):
        result = sim.score_slot(cfg, inst, report, t)
        values += [result.p_relax, result.p_exact]
    assert None not in values  # the workload forces the oracles on every slot
    packed = struct.pack("<%dd" % len(values), *values)
    assert digest([packed]) == "3d2460464ce681d6d0261829d71baef805c1309712300d92b814fd1713c44bea"
