"""Monte Carlo harness: linear-cell topology, per-slot draws, policy averages.

Randomness is derived from one master seed through counter-based substreams:
stream (seed, purpose, slot) = default_rng(SeedSequence([seed, purpose, slot]))
with purposes 0=topology (no slot), 1=fading, 2=demands, 3=random policy.
Every slot is therefore a pure function of (config, slot index), so any
process may run any slot: with several processes each pulls the next
unclaimed slot from a shared counter, and results are bitwise identical for
any worker count.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .channel import ChannelParams, InfeasibleRadiusError, cell_radius, compute_gain, compute_rate
from .channel import default_params
from .dual_solver import SolveReport, duality_gap_bound, run_daa
from .exact import solve_lp_relaxation, solve_milp_exact
from .instance import InfeasibleClientError, Instance, Topology, build_instance, check_ap_count
from .instance import checked, is_int, is_real, topology_from_positions
from .policies import jain_index, random_policy, rssi_policy

if TYPE_CHECKING:  # imported at run time by the first Pipe() and Value(), never on jobs=1
    from multiprocessing.connection import Connection
    from multiprocessing.sharedctypes import Synchronized

__all__ = [
    "GeometryError",
    "WorkerError",
    "ExperimentConfig",
    "SlotResult",
    "ExperimentResult",
    "generate_topology",
    "draw_instance",
    "score_slot",
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
    """A worker process ended without reporting the slots it pulled."""


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
        for name in (f.name for f in fields(self) if f.type == "int"):
            checked(is_int(getattr(self, name)), getattr(self, name), name, "an integer")
        for name in (f.name for f in fields(self) if f.type == "float"):
            checked(is_real(getattr(self, name)), getattr(self, name), name, "a real number")
        for name in (f.name for f in fields(self) if f.type == "bool"):
            checked(isinstance(getattr(self, name), bool), getattr(self, name), name, "a bool")
        checked(isinstance(self.channel, ChannelParams), self.channel, "channel", "a ChannelParams")
        if self.n_aps < 1 or self.n_clients < 1 or self.slots < 1:
            raise ValueError("n_aps, n_clients and slots must be positive")
        check_ap_count(self.n_aps)  # generate_topology allocates per AP
        if self.daa_iters < 1:
            raise ValueError("daa_iters must be positive")
        if not 0.0 < self.step_scale < math.inf:
            raise ValueError("step_scale must be positive and finite")
        if not self.demand_max > 0.0:
            raise ValueError("demand_max must be strictly positive")
        checked(self.demand_max < math.inf, self.demand_max, "demand_max", "finite")
        checked(not math.isnan(self.exact_limit), self.exact_limit, "exact_limit", "a number")
        checked(self.exact_limit >= 0, self.exact_limit, "exact_limit", "non-negative")
        if not self.ap_spacing_factor > 0.0:
            raise ValueError("ap_spacing_factor must be strictly positive")
        checked(self.seed >= 0, self.seed, "seed", "non-negative")
        radius = self.radius
        # the width of the box generate_topology draws clients from
        width = (self.n_aps - 1) * (self.ap_spacing_factor * radius) + radius + radius
        if not width < math.inf:
            raise InfeasibleRadiusError(
                f"the deployment of {self.n_aps} cells of radius {radius!r} m at target_snr_db="
                f"{self.target_snr_db!r} and ap_spacing_factor={self.ap_spacing_factor!r} overflows"
            )
        # n_aps disk areas over the box area (width x 2 radius) bound the
        # share of draws that land in a disk from above
        placed = self.n_aps * math.pi / 2 * (radius / width) * _MAX_PLACEMENT_ATTEMPTS
        if placed < self.n_clients:
            raise ValueError(
                f"ap_spacing_factor={self.ap_spacing_factor!r} spreads the {self.n_aps} disks so "
                f"thin that {_MAX_PLACEMENT_ATTEMPTS} client draws expect at most {placed:.3g} "
                f"inside them, fewer than n_clients={self.n_clients}"
            )

    @property
    def radius(self) -> float:
        """Cell radius in meters: where the SINR falls to the cell-edge target."""
        return cell_radius(self.channel, self.target_snr_db)


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
    slots: list[SlotResult]
    aggregates: dict[str, float | int | None]


def generate_topology(cfg: ExperimentConfig) -> Topology:
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
    rng = _stream(cfg.seed, _PURPOSE_TOPOLOGY)
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


def draw_instance(cfg: ExperimentConfig, topo: Topology, slot: int) -> Instance:
    """The slot's instance: fresh fading and demands on the topology's pairs.
    An infeasible draw raises InfeasibleClientError naming the client."""
    fading = _stream(cfg.seed, _PURPOSE_FADING, slot).exponential(1.0, size=topo.distance.size)
    demands = _stream(cfg.seed, _PURPOSE_DEMANDS, slot).uniform(
        0.0, cfg.demand_max, size=topo.n_clients
    )
    # one scalar channel call per pair, on Python floats: vectorized numpy
    # power and log2 round differently in the last bit on some pairs
    pair_draws = zip(topo.distance.tolist(), fading.tolist())
    rates = [compute_rate(cfg.channel, compute_gain(cfg.channel, d, a)) for d, a in pair_draws]
    return build_instance(topo, demands, rates)


def score_slot(cfg: ExperimentConfig, inst: Instance, report: SolveReport, slot: int) -> SlotResult:
    """The feasible slot's result: the solver's `report` against the random
    and RSSI policies and, when wanted, the exact oracles."""
    rand_assignment = random_policy(inst, _stream(cfg.seed, _PURPOSE_RANDOM_POLICY, slot))
    rssi_assignment = rssi_policy(inst)

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
        jain_exact = jain_index(milp.assignment)
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
        jain_daa=jain_index(report.assignment),
        jain_rand=jain_index(rand_assignment),
        jain_rssi=jain_index(rssi_assignment),
        gap_bound=duality_gap_bound(inst),
        p_exact=p_exact,
        p_relax=p_relax,
        jain_exact=jain_exact,
        relative_gap=relative_gap,
    )


def run_slot(cfg: ExperimentConfig, topo: Topology, slot: int) -> SlotResult:
    """Evaluate one time slot: draw its instance, solve it once, score it."""
    try:
        inst = draw_instance(cfg, topo, slot)
    except InfeasibleClientError:
        return SlotResult(slot=slot, feasible=False)
    # a zero gap p_best - g_best certifies the recovered assignment optimal,
    # so the slot stops there
    report = run_daa(inst, cfg.daa_iters, cfg.step_scale, stop_at_zero_gap=True)
    return score_slot(cfg, inst, report, slot)


def _claim(counter: Synchronized) -> int:
    with counter.get_lock():
        slot = counter.value
        counter.value = slot + 1
    return slot


def _pull(
    cfg: ExperimentConfig, topo: Topology, counter: Synchronized, slot: int
) -> tuple[list[SlotResult], tuple[int, Exception] | None]:
    """Run `slot`, then each slot claimed after it, until none is left; a
    failing slot ends every process's claims and comes back as (slot, exc)."""
    results = []
    while slot < cfg.slots:
        try:
            # run_slot is looked up at call time, so a wrapper set on the module applies
            results.append(run_slot(cfg, topo, slot))
        except Exception as exc:  # noqa: BLE001 - the caller re-raises it
            counter.value = cfg.slots  # no process claims another slot
            return results, (slot, exc)
        slot = _claim(counter)
    return results, None


_workers: list[tuple[multiprocessing.Process, Connection]] = []  # kept, in start order
_counter: Synchronized | None = None  # the next unclaimed slot, shared with _workers


def _worker_loop(conn: Connection, caller_end: Connection, counter: Synchronized) -> None:
    """Kept worker body: answer each (cfg, topo) with the slots it pulled,
    until the caller's end of the pipe closes."""
    caller_end.close()  # else a caller that dies without clean-up never reads as EOF
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to handle
    while True:
        try:
            cfg, topo = conn.recv()
        except EOFError:
            return
        conn.send(_pull(cfg, topo, counter, _claim(counter)))


def _close_workers() -> None:
    """Terminate and join every kept worker and drop their counter, whose
    lock a terminated worker may hold; the next call forks new ones."""
    global _counter
    while _workers:
        proc, conn = _workers.pop()
        proc.terminate()
        proc.join()
        conn.close()
    _counter = None


def _run_shares(cfg: ExperimentConfig, topo: Topology, processes: int) -> list[SlotResult]:
    """Every slot's result in slot order, from `processes` processes.  The
    caller takes slot 0, each process then claims the next unclaimed slot
    from the shared counter until none is left; any error closes every
    worker, so no late reply reaches a later experiment."""
    if processes == 1:
        return [run_slot(cfg, topo, t) for t in range(cfg.slots)]
    global _counter
    try:
        if not _workers:
            _counter = multiprocessing.Value("q", 0)
        while len(_workers) < processes - 1:
            conn, worker_end = multiprocessing.Pipe()
            args = (worker_end, conn, _counter)
            proc = multiprocessing.Process(target=_worker_loop, args=args, daemon=True)
            proc.start()
            worker_end.close()  # the worker holds the only copy: its death reads as EOFError
            _workers.append((proc, conn))
        busy = _workers[: processes - 1]
        _counter.value = 1  # slot 0 is the caller's
        for proc, conn in busy:
            try:
                conn.send((cfg, topo))
            except BrokenPipeError:  # it died after the last experiment
                proc.join()
                raise WorkerError(f"a worker exited with code {proc.exitcode}") from None
        results, failure = _pull(cfg, topo, _counter, 0)
        if failure and failure[0] == len(results):
            # the caller ran every slot below the failing one: no worker can fail lower
            raise failure[1]
        failures, dead = [failure] if failure else [], None
        for proc, conn in busy:
            try:
                done, failed = conn.recv()
            except EOFError:
                dead = proc
                continue
            results += done
            failures += [failed] if failed else []
        # claims rise, so the smallest failing slot is where jobs=1 fails
        first = min(failures, key=lambda f: f[0], default=(cfg.slots, None))
        if dead is not None:
            reported = {r.slot for r in results}
            lost = [t for t in range(first[0]) if t not in reported]  # the dead worker's
            if lost or not failures:
                dead.join()
                raise WorkerError(
                    f"a worker exited with code {dead.exitcode} before reporting slots {lost}"
                )
        if failures:
            raise first[1]
    except BaseException:
        _close_workers()
        raise
    return sorted(results, key=lambda r: r.slot)


def _mean(values: Sequence[float]) -> float | None:
    return float(np.mean(values)) if values else None


def aggregate(results: Sequence[SlotResult]) -> dict:
    """The slot counters, then the mean of each SlotResult metric in field
    order: over the feasible slots if it defaults to NaN, over the slots
    where the oracle ran if it defaults to None (None if there are none);
    `relative_gap` keeps its published key `ave_rdg`.  The gap keys that
    follow use the oracle slots too, `_best` with p_daa in place of p_exact."""
    feasible = [r for r in results if r.feasible]
    with_exact = [r for r in feasible if r.p_exact is not None]
    agg: dict[str, float | int | None] = {
        "slots_total": len(results),
        "slots_feasible": len(feasible),
        "slots_infeasible": len(results) - len(feasible),
        "slots_with_exact": len(with_exact),
    }
    for metric in fields(SlotResult)[2:]:  # after slot and feasible
        over = with_exact if metric.default is None else feasible
        key = "ave_rdg" if metric.name == "relative_gap" else metric.name
        agg[key] = _mean([getattr(r, metric.name) for r in over])
    d_star = _mean([r.d_star for r in with_exact])  # None when no oracle ran
    agg["ave_dg"] = None if d_star is None else agg["p_exact"] - d_star
    agg["ave_rdg_best"] = _mean([(r.p_daa - r.d_star) / r.p_daa for r in with_exact if r.p_daa > 0])
    agg["ave_dg_best"] = None if d_star is None else _mean([r.p_daa for r in with_exact]) - d_star
    return agg


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Run every slot and average.  Worker count never changes the numbers:
    slots use counter-derived substreams and results merge in slot order.

    `jobs` runs the slots in min(jobs, slots, CPUs) processes: the calling
    process takes slot 0, then each process claims the next unclaimed slot
    until none is left.  Kept worker processes start on first need and serve
    later calls.  A failure stops every claim, and the error of the smallest
    failing slot is re-raised here, as with jobs=1; a worker that dies
    without reporting raises WorkerError naming its exit code."""
    checked(is_int(jobs), jobs, "jobs", "an integer")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    topo = generate_topology(cfg)
    results = _run_shares(cfg, topo, min(jobs, cfg.slots, os.cpu_count() or 1))
    return ExperimentResult(slots=results, aggregates=aggregate(results))


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
