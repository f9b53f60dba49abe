"""Independent test oracles.

These deliberately avoid the library's solver code paths: brute force
enumerates assignment tuples directly from the candidate sets, and the
geometry/projection checks are closed-form or first-principles.  The
`ref_*` functions are the plain dict-and-loop forms of the instance
pruning, per-AP loads, client subproblem and certificates, kept as
references for the library's pair-array forms, plus the segmented-numpy
form of the dual iteration and the numpy simplex projection, kept as
bitwise references for the solver's padded-table loop, the received-power
ranking the RSSI policy once used (`ref_rssi_choice`), kept as the
reference for its ranking by rate, and the masked outer-product tableau
simplex, kept as the bitwise reference for the LP relaxation's pivots.
The library's LP returns only its value and pivot count; `lp_solution`
runs a simplex on the same standard form to give the tests the pair point
and the basis duals as well, and `lp_cs_residual` checks that solution by
complementary slackness.  `candidates_of_client`,
`clients_of_ap` and `pair_values` convert between the pair arrays and the
per-client, per-AP and dict forms the tests state their expectations in.
`recording` captures the price vectors a dual loop projects, which its
report does not keep, `subproblems` gives every client's choice and the
dual value at any prices, and `trace_rows` reads a report's trace CSV back
as numbers.  `ref_cell_radius` is the cell radius in the arithmetic the
config used when the channel took a linear target, kept as the bitwise
reference for `channel.cell_radius`.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from unittest import mock

import numpy as np

from mmwassoc.channel import ChannelParams
from mmwassoc.dual_solver import SolveReport, trace_csv_lines
from mmwassoc.exact import _lp_matrix, _two_phase_simplex
from mmwassoc.instance import Assignment, InfeasibleClientError, Instance, Topology
from mmwassoc.instance import instance_from_beta

_REL_TOL = 1e-12


_CHUNK_ROWS = 1 << 16  # assignments per numpy block in brute_force


def _client_options(inst: Instance) -> list[list[tuple[int, float]]]:
    """Per client, its (ap, beta) candidates, AP-ascending."""
    options: list[list[tuple[int, float]]] = [[] for _ in range(inst.n_clients)]
    for i, j, b in zip(inst.pairs.ap.tolist(), inst.pairs.client.tolist(), inst.beta.tolist()):
        options[j].append((i, b))
    return options


def brute_force(inst: Instance) -> tuple[float, tuple[int, ...]]:
    """Exhaustive min-max objective over every assignment tuple.

    Walks the assignments in `itertools.product` order (last client fastest)
    and returns the first optimum.  Every assignment's per-AP loads add the
    clients' utilizations one by one, left to right, exactly as the plain
    loop `loads[i] += beta` would.  The clients are split into a prefix,
    iterated in Python, and a suffix whose at most _CHUNK_ROWS assignments
    form one numpy table per prefix, so memory stays bounded.
    """
    options = _client_options(inst)
    n = inst.n_aps
    split = len(options)
    rows = 1
    while split > 0 and rows * len(options[split - 1]) <= _CHUNK_ROWS:
        split -= 1
        rows *= len(options[split])
    # suffix client s adds, per choice, its utilization on one AP (+0.0 elsewhere)
    contribs = []
    for opts in options[split:]:
        contrib = np.zeros((len(opts), n))
        for pos, (i, b) in enumerate(opts):
            contrib[pos, i] = b
        contribs.append(contrib)
    best_val, best_map = math.inf, None
    for prefix in itertools.product(*options[:split]):
        loads = [0.0] * n
        for i, b in prefix:
            loads[i] += b
        table = np.array([loads])
        for contrib in contribs:
            table = (table[:, None, :] + contrib[None, :, :]).reshape(-1, n)
        values = table.max(axis=1, initial=0.0)
        row = int(np.argmin(values))
        if values[row] < best_val:
            best_val = float(values[row])
            suffix = []
            for opts in reversed(options[split:]):
                suffix.append(opts[row % len(opts)][0])
                row //= len(opts)
            best_map = tuple(i for i, _ in prefix) + tuple(reversed(suffix))
    return best_val, best_map


def brute_force_unpruned(
    n_aps: int, beta: dict[tuple[int, int], float], n_clients: int
) -> float:
    """Exhaustive optimum on raw (possibly beta > 1) data with the demand
    constraint enforced directly: clients may only use links with beta <= 1."""
    cands = []
    for j in range(n_clients):
        nj = [i for i in range(n_aps) if (i, j) in beta and beta[(i, j)] <= 1.0]
        if not nj:
            raise ValueError(f"client {j} infeasible")
        cands.append(nj)
    best = math.inf
    for choice in itertools.product(*cands):
        loads = [0.0] * n_aps
        for j, i in enumerate(choice):
            loads[i] += beta[(i, j)]
        best = min(best, max(loads))
    return best


def lens_over_union(radius: float, spacing: float) -> float:
    """Area fraction of the two-circle intersection inside the union."""
    lens = 2 * radius**2 * math.acos(spacing / (2 * radius)) - (spacing / 2) * math.sqrt(
        4 * radius**2 - spacing**2
    )
    union = 2 * math.pi * radius**2 - lens
    return lens / union


def ref_cell_radius(p: ChannelParams, target_snr_db: float) -> float | None:
    """The radius where a unit-fading link's SINR falls to the dB target, or
    None where no cell exists: the target or the SINR at d0 overflows, the
    target is not in (0, SINR at d0), the radius is infinite, or a
    unit-fading link at the radius has a gain or a rate of 0.  Written out
    as the SINR-at-distance, radius and config checks once computed it,
    with compute_gain and compute_rate inlined at unit fading."""
    try:
        target = 10.0 ** (target_snr_db / 10.0)
        snr0 = (
            p.tx_power * p.tx_gain * p.rx_gain * p.wavelength**2
            / (16.0 * math.pi**2 * (p.noise_density + p.interference_density) * p.bandwidth)
        )
    except OverflowError:
        return None
    if not 0.0 < target < snr0:
        return None
    radius = p.ref_distance * (snr0 / target) ** (1.0 / p.path_loss_exp)
    if radius == math.inf:
        return None
    try:
        path_loss = 16.0 * math.pi**2 * (radius / p.ref_distance) ** p.path_loss_exp
    except OverflowError:
        return None
    gain = p.tx_gain * p.rx_gain * p.wavelength**2 * 1.0 / path_loss
    if not gain > 0.0:
        return None
    snr = p.tx_power * gain / ((p.noise_density + p.interference_density) * p.bandwidth)
    if not p.bandwidth * math.log2(1.0 + snr) > 0.0:
        return None
    return radius


def projection_kkt_violation(
    v: np.ndarray, proj: np.ndarray, rng: np.random.Generator, samples: int = 64
) -> float:
    """Worst violation of the Euclidean-projection optimality condition
    <v - proj, y - proj> <= 0 over random simplex points y."""
    worst = 0.0
    for _ in range(samples):
        y = rng.dirichlet(np.ones(v.size))
        worst = max(worst, float(np.dot(v - proj, y - proj)))
    return worst


def random_subset_instance(
    rng: np.random.Generator,
    n_lo: int = 2,
    n_hi: int = 4,
    m_lo: int = 6,
    m_hi: int = 15,
) -> Instance:
    """Random instance with per-client candidate subsets (may pin clients)."""
    n = int(rng.integers(n_lo, n_hi + 1))
    m = int(rng.integers(m_lo, m_hi + 1))
    beta = {}
    for j in range(m):
        size = int(rng.integers(1, n + 1))
        for i in rng.choice(n, size=size, replace=False):
            beta[(int(i), j)] = float(1.0 - rng.uniform())
    return instance_from_beta(n, m, beta)


def random_full_instance(
    rng: np.random.Generator,
    n_lo: int = 2,
    n_hi: int = 4,
    m_lo: int = 6,
    m_hi: int = 15,
) -> Instance:
    """Random instance with full candidate sets, beta ~ Uniform(0, 1]."""
    n = int(rng.integers(n_lo, n_hi + 1))
    m = int(rng.integers(m_lo, m_hi + 1))
    beta = {
        (i, j): float(1.0 - rng.uniform()) for i in range(n) for j in range(m)
    }
    return instance_from_beta(n, m, beta)


def candidates_of_client(x) -> tuple[tuple[int, ...], ...]:
    """N_j of every client of a topology or instance, AP-ascending."""
    cands: list[list[int]] = [[] for _ in range(x.n_clients)]
    for i, j in zip(x.pairs.ap.tolist(), x.pairs.client.tolist()):
        cands[j].append(i)
    return tuple(tuple(sorted(c)) for c in cands)


def clients_of_ap(x) -> tuple[tuple[int, ...], ...]:
    """M_i of every AP of a topology or instance, client-ascending."""
    clients: list[list[int]] = [[] for _ in range(x.n_aps)]
    for i, j in zip(x.pairs.ap.tolist(), x.pairs.client.tolist()):
        clients[i].append(j)
    return tuple(tuple(sorted(c)) for c in clients)


def pair_values(x, mapping: dict[tuple[int, int], float]) -> np.ndarray:
    """The values of a dict keyed by (ap, client), as an array aligned with
    the pairs of a topology or instance (KeyError for a pair it lacks)."""
    keys = zip(x.pairs.ap.tolist(), x.pairs.client.tolist())
    return np.array([mapping[key] for key in keys], dtype=float)


def beta_dict(inst: Instance) -> dict[tuple[int, int], float]:
    """The instance's utilizations keyed by (ap, client), client-major."""
    keys = zip(inst.pairs.ap.tolist(), inst.pairs.client.tolist())
    return dict(zip(keys, inst.beta.tolist()))


def same_instance(a: Instance, b: Instance) -> bool:
    """Bitwise equality of everything two instances store."""
    def arrays(inst: Instance) -> tuple[np.ndarray, ...]:
        return (inst.pairs.client, inst.pairs.ap, inst.pairs.start, inst.beta, inst.rate)

    return (a.n_aps, a.n_clients, a.demands) == (b.n_aps, b.n_clients, b.demands) and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(arrays(a), arrays(b))
    )


@dataclass(frozen=True)
class DictInstance:
    """Pruned problem data in dict form: beta and rates keyed by (ap, client)."""

    n_aps: int
    n_clients: int
    beta: dict[tuple[int, int], float]
    rates: dict[tuple[int, int], float]
    candidates_of_client: tuple[tuple[int, ...], ...]
    clients_of_ap: tuple[tuple[int, ...], ...]


def ref_assemble(
    n_aps: int,
    demands: list[float],
    rates: dict[tuple[int, int], float],
    beta: dict[tuple[int, int], float],
) -> DictInstance:
    """Validate, prune beta > 1 pairs, and rebuild candidate sets by rescanning."""
    n_clients = len(demands)
    for j, q in enumerate(demands):
        if not q > 0.0:
            raise ValueError(f"demand of client {j} must be strictly positive, got {q!r}")
    kept_beta: dict[tuple[int, int], float] = {}
    kept_rates: dict[tuple[int, int], float] = {}
    for (i, j), b in beta.items():
        if not (0 <= i < n_aps and 0 <= j < n_clients):
            raise ValueError(f"pair ({i}, {j}) out of range")
        r = rates[(i, j)]
        if not r > 0.0:
            raise ValueError(f"rate of pair ({i}, {j}) must be strictly positive")
        if not b > 0.0:
            raise ValueError(f"beta of pair ({i}, {j}) must be strictly positive")
        if abs(b - demands[j] / r) > _REL_TOL * abs(b):
            raise ValueError(f"beta of pair ({i}, {j}) inconsistent with demand/rate")
        if b > 1.0:
            continue  # demand exceeds the link rate: drop the pair
        kept_beta[(i, j)] = float(b)
        kept_rates[(i, j)] = float(r)
    cands: list[tuple[int, ...]] = []
    for j in range(n_clients):
        nj = tuple(sorted(i for (i, jj) in kept_beta if jj == j))
        if not nj:
            if any(jj == j for (_, jj) in beta):
                raise InfeasibleClientError(j, "all candidate links pruned (utilization > 1)")
            raise InfeasibleClientError(j, "no candidate links")
        cands.append(nj)
    clients: list[list[int]] = [[] for _ in range(n_aps)]
    for j, nj in enumerate(cands):
        for i in nj:
            clients[i].append(j)
    return DictInstance(
        n_aps=n_aps,
        n_clients=n_clients,
        beta=kept_beta,
        rates=kept_rates,
        candidates_of_client=tuple(cands),
        clients_of_ap=tuple(tuple(sorted(c)) for c in clients),
    )


def ref_per_ap_loads(inst: DictInstance, ap_of_client) -> np.ndarray:
    loads = np.zeros(inst.n_aps)
    for j, i in enumerate(ap_of_client):
        loads[i] += inst.beta[(i, j)]
    return loads


def ref_jain_index(loads: np.ndarray) -> float:
    """Jain's index over an array of per-AP loads, 1.0 when all are zero."""
    denom = loads.size * float((loads**2).sum())
    return 1.0 if denom == 0.0 else float(loads.sum()) ** 2 / denom


def ref_client_subproblem(inst: DictInstance, prices: np.ndarray, j: int) -> int:
    best_ap = -1
    best_val = math.inf
    for i in inst.candidates_of_client[j]:
        val = inst.beta[(i, j)] * prices[i]
        if val < best_val:
            best_ap, best_val = i, val
    return best_ap


def ref_convergence_bound(inst: DictInstance, step_scale: float, k: int) -> float:
    per_ap = np.zeros(inst.n_aps)
    for (i, _), b in inst.beta.items():
        per_ap[i] += b
    g_sq = float(np.sum(per_ap**2))
    harmonic = float(np.sum(1.0 / np.arange(1, k + 1)))
    numerator = 1.0 + step_scale**2 * g_sq * math.pi**2 / 12.0
    return numerator / (step_scale * harmonic)


def ref_duality_gap_bound(inst: DictInstance) -> float:
    if not inst.beta:
        return 0.0
    overall_max = max(inst.beta.values())
    worst_client_min = max(
        min(inst.beta[(i, j)] for i in cands)
        for j, cands in enumerate(inst.candidates_of_client)
    )
    return (inst.n_aps + 1) * (overall_max + worst_client_min)


def ref_project_simplex(v: np.ndarray) -> np.ndarray:
    """Sort-and-threshold simplex projection on numpy arrays.

    Raises IndexError when no threshold index qualifies (entries above
    ~2**53, where x > x - 1.0 is false)."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("entries must be finite")
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho_candidates = np.nonzero(u * np.arange(1, v.size + 1) > css - 1.0)[0]
    rho = int(rho_candidates[-1]) + 1
    theta = (css[rho - 1] - 1.0) / rho
    return np.maximum(v - theta, 0.0)


def _ref_first_argmin(inst: Instance, values: np.ndarray) -> np.ndarray:
    """Per client, the index of the first pair minimizing `values`, by
    segment reductions over the flat pair arrays."""
    pairs = inst.pairs
    seg_min = np.minimum.reduceat(values, pairs.start)
    at_min = values <= seg_min[pairs.client]
    pair_idx = np.where(at_min, np.arange(values.size), values.size)
    return np.minimum.reduceat(pair_idx, pairs.start)


def ref_rssi_choice(topo: Topology, inst: Instance, powers: np.ndarray) -> tuple[int, ...]:
    """Per client, the AP of its strongest kept link by received power, ties
    to the smallest AP.  `powers` holds one received power per topology
    pair; a pair is kept when its key client * N + ap is one of the
    instance's."""
    n = topo.n_aps
    kept = np.isin(topo.pairs.client * n + topo.pairs.ap, inst.pairs.client * n + inst.pairs.ap)
    return tuple(inst.pairs.ap[_ref_first_argmin(inst, -powers[kept])].tolist())


def ref_random_offsets(sizes, rng: np.random.Generator) -> list[int]:
    """The random policy's offsets by one scalar `integers(size)` per client,
    in client order, one-AP clients included."""
    return [int(rng.integers(size)) for size in sizes]


def subproblems(inst: Instance, prices) -> tuple[list[int], float]:
    """Every client's AP choice at `prices`, and the dual value there, through
    the padded-table argmin the solver's loop relies on: each client picks
    the candidate minimizing beta*price, ties to the smallest AP."""
    weighted = inst.beta * np.asarray(prices, dtype=float)[inst.pairs.ap]
    winner = inst.pairs.first_argmin(weighted)
    return inst.pairs.ap[winner].tolist(), float(np.add.reduce(weighted[winner]))


def _ref_iterate_subproblems(
    inst: Instance, prices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """All client subproblems: (chosen AP per client, per-AP loads, dual
    objective, subgradient)."""
    weighted = inst.beta * prices[inst.pairs.ap]
    winner = _ref_first_argmin(inst, weighted)
    chosen_ap = inst.pairs.ap[winner]
    g = float(np.sum(weighted[winner]))
    loads = np.bincount(chosen_ap, weights=inst.beta[winner], minlength=inst.n_aps)
    return chosen_ap, loads, g, -loads


def ref_run_daa(inst: Instance, max_iters: int, step_scale: float = 1.0) -> SolveReport:
    """The dual loop on flat pair arrays, one numpy projection per iteration."""
    prices = np.full(inst.n_aps, 1.0 / inst.n_aps)
    best_dual, best_primal = -math.inf, math.inf
    best_assignment: tuple[int, ...] = ()
    best_loads: tuple[float, ...] = ()
    duals: list[float] = []
    primals: list[float] = []
    for k in range(1, max_iters + 1):
        chosen_ap, loads, g, u = _ref_iterate_subproblems(inst, prices)
        t_k = float(loads.max(initial=0.0))
        if t_k < best_primal:
            best_primal = t_k
            best_assignment = tuple(int(i) for i in chosen_ap)
            best_loads = tuple(float(y) for y in loads)  # bincount of no clients is integer
        if g > best_dual:
            best_dual = g
        duals.append(g)
        primals.append(t_k)
        prices = ref_project_simplex(prices - (step_scale / k) * u)
    assignment = Assignment(ap_of_client=best_assignment, loads=best_loads)
    return SolveReport(duals, primals, assignment, best_dual)


def trace_rows(report: SolveReport) -> list[tuple[int, float, float, float, float]]:
    """The rows of `trace_csv_lines(report)` parsed: (k, g_k, t_k, g_best, p_best)."""
    rows = (line.split(",") for line in trace_csv_lines(report)[1:])
    return [(int(k), *map(float, values)) for k, *values in rows]


@contextmanager
def recording(module, name: str):
    """Patch `module.name`, a function the solvers look up at call time, with
    a wrapper that appends each result, as an array, to the list yielded."""
    results: list[np.ndarray] = []
    real = getattr(module, name)

    def record(*args):
        out = real(*args)
        results.append(np.array(out))
        return out

    with mock.patch.object(module, name, record):
        yield results


_REF_RC_TOL = 1e-9  # reduced-cost tolerance
_REF_PIV_TOL = 1e-10


def ref_pivot(tab: np.ndarray, row: int, col: int) -> None:
    tab[row, :] /= tab[row, col]
    other = np.arange(tab.shape[0]) != row
    tab[other, :] -= np.outer(tab[other, col], tab[row, :])


def _ref_simplex_core(tab: np.ndarray, basis: list[int], cost: np.ndarray) -> int:
    n_cols = tab.shape[1] - 1
    pivots = 0
    while True:
        reduced = cost[:n_cols] - cost[basis] @ tab[:, :n_cols]
        violating = np.flatnonzero(reduced < -_REF_RC_TOL)
        if violating.size == 0:
            return pivots
        entering = int(violating[0])  # Bland: smallest violating index
        column = tab[:, entering]
        ratios = [
            (tab[r, -1] / column[r], basis[r], r)
            for r in range(tab.shape[0])
            if column[r] > _REF_PIV_TOL
        ]
        if not ratios:
            raise RuntimeError("LP unbounded")
        _, _, leave_row = min(ratios)
        ref_pivot(tab, leave_row, entering)
        basis[leave_row] = entering
        pivots += 1


def ref_two_phase_simplex(
    a_mat: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, float, list[int], int]:
    """min c@x s.t. a_mat@x = b (b >= 0), x >= 0: two-phase tableau simplex
    with Bland's rule, a masked outer-product row update and a ratio test on
    numpy scalars.  Returns (x, objective, basis column per row, pivots)."""
    m, n = a_mat.shape
    tab = np.hstack([a_mat.astype(float), np.eye(m), b.reshape(-1, 1).astype(float)])
    basis = list(range(n, n + m))
    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    pivots = _ref_simplex_core(tab, basis, cost1)
    if cost1[basis] @ tab[:, -1] > 1e-7:
        raise RuntimeError("LP infeasible (artificials remain positive)")
    for row, col in enumerate(basis):
        if col >= n:
            pivot_col = next(
                (jj for jj in range(n) if abs(tab[row, jj]) > _REF_PIV_TOL), None
            )
            if pivot_col is None:
                raise RuntimeError("redundant row left an artificial in the basis")
            ref_pivot(tab, row, pivot_col)
            basis[row] = pivot_col
    tab = np.hstack([tab[:, :n], tab[:, -1:]])
    cost2 = np.asarray(c, dtype=float)
    pivots += _ref_simplex_core(tab, basis, cost2)
    x = np.zeros(n)
    for row, col in enumerate(basis):
        x[col] = tab[row, -1]
    return x, float(cost2 @ x), basis, pivots


@dataclass(frozen=True)
class LPSolution:
    """An LP relaxation solved in full: what `solve_lp_relaxation` returns,
    plus the point and the row duals of the final basis."""

    value: float
    pivots: int
    point: np.ndarray  # x of every pair, aligned with inst.pairs
    duals: np.ndarray  # row duals: N AP rows, then M client rows


def lp_solution(inst: Instance, simplex=_two_phase_simplex) -> LPSolution:
    """Solve the library's standard form of the relaxation with `simplex`
    (the library's by default) and solve the final basis for its duals."""
    a_mat, b, c = _lp_matrix(inst)
    x, obj, basis, pivots = simplex(a_mat, b, c)
    duals = np.linalg.solve(a_mat[:, basis].T, c[basis])
    return LPSolution(value=obj, pivots=pivots, point=x[1 : 1 + inst.beta.size], duals=duals)


def ref_solve_lp_relaxation(inst: Instance) -> LPSolution:
    """The LP relaxation by `ref_two_phase_simplex`, solved in full."""
    return lp_solution(inst, ref_two_phase_simplex)


def lp_cs_residual(inst: Instance, sol: LPSolution) -> float:
    """Largest primal/dual/complementary-slackness violation of an LP solution."""
    a_mat, b, c = _lp_matrix(inst)
    p = inst.beta.size
    x = np.zeros(1 + p + inst.n_aps)
    x[0] = sol.value
    x[1 : 1 + p] = sol.point
    # recover the slack values from the AP rows
    x[1 + p :] = b[: inst.n_aps] - a_mat[: inst.n_aps, : 1 + p] @ x[: 1 + p]
    residual = float(np.max(np.abs(a_mat @ x - b), initial=0.0))
    residual = max(residual, float(np.max(-x, initial=0.0)))  # x >= 0
    reduced = c - sol.duals @ a_mat
    residual = max(residual, float(np.max(-reduced, initial=0.0)))  # dual feasibility
    residual = max(residual, float(np.max(np.abs(reduced * x), initial=0.0)))
    return residual
