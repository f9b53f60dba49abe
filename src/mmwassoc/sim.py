"""Monte Carlo harness: linear-cell topology, per-slot draws, policy averages.

Randomness is derived from one master seed through counter-based substreams:
stream (seed, purpose, slot) = default_rng(SeedSequence([seed, purpose, slot]))
with purposes 0=topology (no slot), 1=fading, 2=demands, 3=random policy.
Every slot is therefore a pure function of (config, slot index), slots can be
evaluated in parallel, and results are bitwise identical for any worker count.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .channel import ChannelParams, InfeasibleRadiusError, cell_radius, compute_gain, compute_rate
from .channel import default_params
from .dual_solver import duality_gap_bound, run_daa
from .exact import solve_lp_relaxation, solve_milp_exact
from .instance import InfeasibleClientError, Topology, build_instance, topology_from_positions
from .policies import jain_index, random_policy, rssi_policy

if TYPE_CHECKING:  # imported at run time by the first Pipe(), never on the jobs=1 path
    from multiprocessing.connection import Connection

__all__ = [
    "GeometryError",
    "WorkerError",
    "ExperimentConfig",
    "SlotResult",
    "ExperimentResult",
    "generate_topology",
    "run_slot",
    "run_experiment",
    "sweep",
    "SWEEPABLE",
]

_MAX_PLACEMENT_ATTEMPTS = 1_000_000
_PURPOSE_TOPOLOGY = 0
_PURPOSE_FADING = 1
_PURPOSE_DEMANDS = 2
_PURPOSE_RANDOM_POLICY = 3

SWEEPABLE = ("n_clients", "n_aps", "daa_iters")


class GeometryError(RuntimeError):
    """Client placement could not be completed (degenerate geometry)."""


class WorkerError(RuntimeError):
    """A worker process ended without reporting its share of the slots."""


def _stream(seed: int, purpose: int, slot: int | None = None) -> np.random.Generator:
    words = [seed, purpose] if slot is None else [seed, purpose, slot]
    return np.random.default_rng(np.random.SeedSequence(words))


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment (all rates in bit/s, distances in meters).

    A cell it cannot deploy raises InfeasibleRadiusError, a ValueError."""

    n_aps: int
    n_clients: int
    slots: int
    channel: ChannelParams = field(default_factory=default_params)
    target_snr_db: float = 10.0  # cell-edge SNR defining the radius
    ap_spacing_factor: float = 1.1  # consecutive AP distance, in cell radii
    demand_max: float = 400e6  # demands drawn uniformly from (0, demand_max)
    daa_iters: int = 1000
    step_scale: float = 1.0
    seed: int = 0
    with_exact: bool = False
    exact_limit: float = 1e6  # skip the exact oracle above this search-space size
    force_exact: bool = False

    def __post_init__(self) -> None:
        if self.n_aps < 1 or self.n_clients < 1 or self.slots < 1:
            raise ValueError("n_aps, n_clients and slots must be positive")
        if self.daa_iters < 1:
            raise ValueError("daa_iters must be positive")
        if not 0.0 < self.step_scale < math.inf:
            raise ValueError("step_scale must be positive and finite")
        if not self.demand_max > 0.0:
            raise ValueError("demand_max must be strictly positive")
        if not self.ap_spacing_factor > 0.0:
            raise ValueError("ap_spacing_factor must be strictly positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        db = self.target_snr_db
        try:
            radius = self.radius
        except InfeasibleRadiusError as exc:
            raise InfeasibleRadiusError(f"target_snr_db={db!r} is out of reach: {exc}") from exc
        except OverflowError:  # the linear target or the plateau SNR
            radius = math.inf
        # the width of the box generate_topology draws clients from
        if not (self.n_aps - 1) * (self.ap_spacing_factor * radius) + radius + radius < math.inf:
            raise InfeasibleRadiusError(
                f"the deployment of {self.n_aps} cells of radius {radius!r} m at "
                f"target_snr_db={db!r} and ap_spacing_factor={self.ap_spacing_factor!r} overflows"
            )
        # no link is longer than the radius, so a finite path loss there keeps
        # every gain positive; a faded link whose rate rounds to 0 is pruned
        try:
            gain = compute_gain(self.channel, radius, 1.0)
        except OverflowError:  # (r/d0)^eta
            gain = 0.0
        if not (gain > 0.0 and compute_rate(self.channel, gain) > 0.0):
            raise InfeasibleRadiusError(
                f"a link at the cell radius {radius!r} m and target_snr_db={db!r} has a rate of 0"
            )

    @property
    def radius(self) -> float:
        """Cell radius in meters: where the SNR falls to the cell-edge target."""
        return cell_radius(self.channel, 10.0 ** (self.target_snr_db / 10.0))


@dataclass(frozen=True)
class SlotResult:
    """Per-slot objective and fairness metrics of every policy."""

    slot: int
    feasible: bool
    p_daa: float = math.nan  # best feasible objective from the dual solver
    d_star: float = math.nan  # best dual value from the dual solver
    p_rand: float = math.nan
    p_rssi: float = math.nan
    jain_daa: float = math.nan
    jain_rand: float = math.nan
    jain_rssi: float = math.nan
    gap_bound: float = math.nan  # (N+1)(rho + max_j rho_j) for the slot instance
    p_exact: float | None = None
    p_relax: float | None = None
    jain_exact: float | None = None
    relative_gap: float | None = None  # (p_exact - d_star)/p_exact


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    topology: Topology
    slots: list[SlotResult]
    aggregates: dict[str, float | int | None]
    infeasible_slots: int
    exact_skipped: int


def generate_topology(cfg: ExperimentConfig, seed: int | None = None) -> Topology:
    """Linear cell deployment with clients uniform over the union of disks.

    The radius is the config's; APs sit on a line with spacing
    ap_spacing_factor * radius; clients are rejection-sampled from the
    bounding box until they land inside some disk.
    """
    radius = cfg.radius
    spacing = cfg.ap_spacing_factor * radius
    ap_positions = np.column_stack(
        [np.arange(cfg.n_aps) * spacing, np.zeros(cfg.n_aps)]
    )
    rng = _stream(cfg.seed if seed is None else seed, _PURPOSE_TOPOLOGY)
    lo = np.array([-radius, -radius])
    hi = np.array([(cfg.n_aps - 1) * spacing + radius, radius])
    accepted: list[np.ndarray] = []
    attempts = 0
    while len(accepted) < cfg.n_clients:
        if attempts >= _MAX_PLACEMENT_ATTEMPTS:
            raise GeometryError(
                f"placed {len(accepted)}/{cfg.n_clients} clients after "
                f"{attempts} attempts"
            )
        batch = rng.uniform(lo, hi, size=(1024, 2))
        attempts += batch.shape[0]
        diff = batch[:, None, :] - ap_positions[None, :, :]
        inside = (np.hypot(diff[..., 0], diff[..., 1]) <= radius).any(axis=1)
        accepted.extend(batch[inside])
    client_positions = np.array(accepted[: cfg.n_clients])
    return topology_from_positions(ap_positions, client_positions, radius)


def run_slot(cfg: ExperimentConfig, topo: Topology, slot: int) -> SlotResult:
    """Evaluate one time slot: fresh fading and demands, every policy."""
    fading = _stream(cfg.seed, _PURPOSE_FADING, slot).exponential(1.0, size=topo.distance.size)
    demands = _stream(cfg.seed, _PURPOSE_DEMANDS, slot).uniform(
        0.0, cfg.demand_max, size=topo.n_clients
    )
    # one scalar channel call per pair, on Python floats: vectorized numpy
    # power and log2 round differently in the last bit on some pairs
    pair_draws = zip(topo.distance.tolist(), fading.tolist())
    gains = [compute_gain(cfg.channel, d, a) for d, a in pair_draws]
    rates = [compute_rate(cfg.channel, g) for g in gains]
    try:
        inst = build_instance(topo, demands, rates)
    except InfeasibleClientError:
        return SlotResult(slot=slot, feasible=False)

    report = run_daa(inst, max_iters=cfg.daa_iters, step_scale=cfg.step_scale)
    rand_assignment = random_policy(inst, _stream(cfg.seed, _PURPOSE_RANDOM_POLICY, slot))
    n = topo.n_aps  # (client, ap) -> client * n + ap orders the pairs
    kept = np.isin(topo.pairs.client * n + topo.pairs.ap, inst.pairs.client * n + inst.pairs.ap)
    rssi_assignment = rssi_policy(inst, cfg.channel.tx_power * np.array(gains)[kept])

    p_exact = p_relax = jain_exact = relative_gap = None
    exact_wanted = cfg.with_exact and (
        cfg.force_exact or inst.candidate_product() <= cfg.exact_limit
    )
    if exact_wanted:
        lp = solve_lp_relaxation(inst)
        milp = solve_milp_exact(
            inst, warm_start=report.assignment, lower_bound=lp.optimal_value
        )
        p_exact = milp.optimal_value
        p_relax = lp.optimal_value
        jain_exact = jain_index(inst, milp.assignment).index
        relative_gap = (
            (p_exact - report.dual_value) / p_exact if p_exact > 0.0 else 0.0
        )

    return SlotResult(
        slot=slot,
        feasible=True,
        p_daa=report.primal_value,
        d_star=report.dual_value,
        p_rand=rand_assignment.objective,
        p_rssi=rssi_assignment.objective,
        jain_daa=jain_index(inst, report.assignment).index,
        jain_rand=jain_index(inst, rand_assignment).index,
        jain_rssi=jain_index(inst, rssi_assignment).index,
        gap_bound=duality_gap_bound(inst),
        p_exact=p_exact,
        p_relax=p_relax,
        jain_exact=jain_exact,
        relative_gap=relative_gap,
    )


def _run_share(cfg: ExperimentConfig, topo: Topology, share: range) -> list[SlotResult]:
    # run_slot is looked up at call time, so a wrapper set on the module applies
    return [run_slot(cfg, topo, t) for t in share]


_workers: list[tuple[multiprocessing.Process, Connection]] = []  # kept, in share order


def _worker_loop(conn: Connection, caller_end: Connection) -> None:
    """Kept worker body: answer each (cfg, topo, share) with the share's
    results or its exception, until the caller's end of the pipe closes."""
    caller_end.close()  # else a caller that dies without clean-up never reads as EOF
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to handle
    while True:
        try:
            cfg, topo, share = conn.recv()
        except EOFError:
            return
        try:
            payload = _run_share(cfg, topo, share)
        except Exception as exc:  # noqa: BLE001 - the caller re-raises it
            payload = exc
        conn.send(payload)


def _close_workers() -> None:
    """Terminate and join every kept worker; the next call forks new ones."""
    while _workers:
        proc, conn = _workers.pop()
        proc.terminate()
        proc.join()
        conn.close()


def _run_shares(cfg: ExperimentConfig, topo: Topology, shares: list[range]) -> list[SlotResult]:
    """Results of every share in slot order: the caller runs the first share,
    one kept worker per other share sends its list back over its pipe.  Any
    error closes every worker, so no late reply reaches a later experiment."""
    try:
        while len(_workers) < len(shares) - 1:
            conn, worker_end = multiprocessing.Pipe()
            proc = multiprocessing.Process(target=_worker_loop, args=(worker_end, conn), daemon=True)
            proc.start()
            worker_end.close()  # the worker holds the only copy: its death reads as EOFError
            _workers.append((proc, conn))
        busy = list(zip(shares[1:], _workers))
        for share, (_, conn) in busy:
            conn.send((cfg, topo, share))
        results = _run_share(cfg, topo, shares[0])
        for share, (proc, conn) in busy:
            try:
                payload = conn.recv()
            except EOFError:
                proc.join()
                raise WorkerError(
                    f"the worker for slots {share.start}..{share.stop - 1} exited with "
                    f"code {proc.exitcode} before sending its results"
                ) from None
            if isinstance(payload, Exception):
                raise payload
            results.extend(payload)
    except BaseException:
        _close_workers()
        raise
    return results


def _mean(values: Sequence[float]) -> float | None:
    return float(np.mean(values)) if values else None


def aggregate(cfg: ExperimentConfig, results: Sequence[SlotResult]) -> dict:
    """Arithmetic means over the feasible slots (exact metrics over the slots
    where the oracle actually ran)."""
    feasible = [r for r in results if r.feasible]
    with_exact = [r for r in feasible if r.p_exact is not None]
    agg: dict[str, float | int | None] = {
        "slots_total": len(results),
        "slots_feasible": len(feasible),
        "slots_infeasible": len(results) - len(feasible),
        "slots_with_exact": len(with_exact),
        "p_daa": _mean([r.p_daa for r in feasible]),
        "d_star": _mean([r.d_star for r in feasible]),
        "p_rand": _mean([r.p_rand for r in feasible]),
        "p_rssi": _mean([r.p_rssi for r in feasible]),
        "jain_daa": _mean([r.jain_daa for r in feasible]),
        "jain_rand": _mean([r.jain_rand for r in feasible]),
        "jain_rssi": _mean([r.jain_rssi for r in feasible]),
        "gap_bound": _mean([r.gap_bound for r in feasible]),
        "p_exact": _mean([r.p_exact for r in with_exact]),
        "p_relax": _mean([r.p_relax for r in with_exact]),
        "jain_exact": _mean([r.jain_exact for r in with_exact]),
        "ave_rdg": _mean([r.relative_gap for r in with_exact]),
    }
    if with_exact:
        # gap aggregates in the best-achieved variants use the solver's own
        # primal/dual values against the oracle optimum
        agg["ave_dg"] = agg["p_exact"] - _mean([r.d_star for r in with_exact])
        agg["ave_rdg_best"] = _mean(
            [(r.p_daa - r.d_star) / r.p_daa for r in with_exact if r.p_daa > 0]
        )
        agg["ave_dg_best"] = (
            _mean([r.p_daa for r in with_exact]) - _mean([r.d_star for r in with_exact])
        )
    else:
        agg["ave_dg"] = agg["ave_rdg_best"] = agg["ave_dg_best"] = None
    return agg


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Run every slot and average.  Worker count never changes the numbers:
    slots use counter-derived substreams and results merge in slot order.

    `jobs` splits the slots into min(jobs, slots, CPUs) contiguous shares; the
    calling process runs the first, one kept worker process each runs the
    others; workers start on first need and serve later calls.  A share's
    exception is re-raised here as with jobs=1; a worker that dies without
    reporting raises WorkerError."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    topo = generate_topology(cfg)
    # contiguous shares, no more than there are slots or CPUs
    workers = min(jobs, cfg.slots, os.cpu_count() or 1)
    bounds = [cfg.slots * k // workers for k in range(workers + 1)]
    results = _run_shares(cfg, topo, [range(a, b) for a, b in zip(bounds, bounds[1:])])
    agg = aggregate(cfg, results)
    exact_skipped = (
        agg["slots_feasible"] - agg["slots_with_exact"] if cfg.with_exact else 0
    )
    return ExperimentResult(
        config=cfg,
        topology=topo,
        slots=results,
        aggregates=agg,
        infeasible_slots=agg["slots_infeasible"],
        exact_skipped=exact_skipped,
    )


def sweep(
    cfg_base: ExperimentConfig, vary: str, values: Sequence, jobs: int = 1
) -> list[dict]:
    """One experiment per value of the varied parameter, common master seed.

    Per-cell failures are recorded in the row and do not stop the sweep.
    """
    if vary not in SWEEPABLE:
        raise ValueError(f"can only sweep one of {SWEEPABLE}, got {vary!r}")
    rows: list[dict] = []
    for value in values:
        row: dict = {"parameter": vary, "value": value}
        try:
            result = run_experiment(replace(cfg_base, **{vary: value}), jobs=jobs)
            row.update(result.aggregates)
            row["error"] = None
        except Exception as exc:  # noqa: BLE001 - sweep must keep going
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows
