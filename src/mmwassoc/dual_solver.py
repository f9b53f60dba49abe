"""Dual decomposition solver for the min-max AP-utilization association problem.

The epigraph MILP is dualized on the per-AP capacity constraints; the dual
prices live on the unit simplex.  Each iteration solves every client's
closed-form subproblem (pick the AP minimizing beta*price), accumulates the
per-AP subgradient, and re-projects the prices after a diminishing a/k step.
Every iterate is primal feasible, so the loop also tracks the best integral
assignment seen so far.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .instance import Assignment, Instance, checked, chosen_assignment, chosen_loads
from .instance import is_int, is_real

__all__ = [
    "SolveReport",
    "project_simplex",
    "run_daa",
    "convergence_bound",
    "duality_gap_bound",
    "trace_csv_lines",
]

TRACE_COLUMNS = ("k", "g_lambda", "t_k", "g_best", "p_best")

# cells of the buffer of weighted tables whose dual values are summed at once
# (128 KiB): a larger buffer buys no speed at the default point and raises
# the peak RSS
_BLOCK_CELLS = 16_384
# key cells (one per client per stored choice pattern) the loads memo may
# hold: 512 KiB of keys, whatever the iteration count.  Where patterns do not
# repeat, storing more only adds allocations.
_MEMO_CELLS = 1 << 16


@dataclass
class SolveReport:
    """Outcome of a solver run: each iteration's dual value g_k and feasible
    objective t_k, and the best assignment seen."""

    duals: list[float]
    primals: list[float]
    assignment: Assignment
    dual_value: float  # max(duals), the best dual objective seen

    @property
    def iterations_run(self) -> int:
        return len(self.duals)

    @property
    def primal_value(self) -> float:
        """The best feasible max-utilization seen, min(primals)."""
        return self.assignment.objective

    @property
    def gap_certificate(self) -> float:
        # float prices summing a few ulps above 1 can lift the dual past an
        # exactly optimal primal; the certificate is still a width, never negative
        return max(0.0, self.primal_value - self.dual_value)


def project_simplex(v: Sequence[float]) -> list[float]:
    """Euclidean projection onto the unit simplex (Duchi et al., ICML 2008).

    Sort-and-threshold rule: with the entries sorted descending, find the
    largest rho whose running mean excess stays below the entry, subtract
    that threshold everywhere, and clamp at zero.  O(N log N), on Python
    floats: at a few APs that beats numpy calls, and the operations and
    their order are numpy's (descending sort, sequential running sum), so
    the result is the same to the bit.  Empty, NaN or infinite input raises.
    """
    css = top = 0.0
    rho = 0
    for r, x in enumerate(sorted(v, reverse=True), 1):
        css += x
        if x * r > css - 1.0:
            rho, top = r, css
    if not (rho and math.isfinite(css)):  # the fault is named only here, off the fast path
        if not len(v):
            raise ValueError("expected a nonempty 1-D vector")
        if not all(map(math.isfinite, v)):
            raise ValueError("entries must be finite")
        if not rho:  # x > x - 1.0 fails for every entry beyond ~2**53
            raise ValueError("entries too large to project in double precision")
        # else the entries are finite and only their sum overflowed, after rho
    theta = (top - 1.0) / rho
    # x - theta rounds to the exact difference's sign, and to +0.0 at x ==
    # theta: the clamp of np.maximum(x - theta, 0.0), which returns +0.0
    return [x - theta if x > theta else 0.0 for x in v]


def run_daa(
    inst: Instance, max_iters: int, step_scale: float = 1.0, *, stop_at_zero_gap: bool = False
) -> SolveReport:
    """Projected-subgradient dual ascent with primal recovery.

    Prices start uniform; iteration k solves all client subproblems, records
    the feasible assignment's objective t_k and the dual value, and steps
    with size step_scale/k before re-projecting.  Runs `max_iters`
    iterations, or with `stop_at_zero_gap` stops earlier once the best
    primal value is at most the best dual value: the certificate
    g_best <= p* <= p_best then proves the recovered assignment optimal, up
    to a few ulps: g_k scales with the prices' sum, and the float prices
    can sum a few ulps above the 1 that weak duality assumes.  The gap is
    checked where a block of dual values is summed, after iterations 1, 3,
    7, 15, ..., so a stopped run's series is a prefix of the full run's.
    A later g_k may still pass g_best that way, so the full run's dual
    value can be larger by an ulp or so.
    """
    checked(is_int(max_iters), max_iters, "max_iters", "an integer")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    checked(is_real(step_scale), step_scale, "step_scale", "a real number")
    if not 0.0 < step_scale < math.inf:
        raise ValueError("step_scale must be positive and finite")
    if inst.n_aps < 1:
        raise ValueError("instance has no APs")
    # (M, D) client x candidate tables, D the largest candidate-set size: row
    # j holds client j's candidates AP-ascending, so its first minimum is the
    # smallest-index tie-break, and never the padding: column c is pair start[j] + c
    start, table = inst.pairs.start, inst.pairs.table
    ap, beta = inst.pairs.ap.take(table), inst.beta.take(table)
    n_aps = inst.n_aps
    n_clients, width = table.shape
    block = min(max_iters, max(1, _BLOCK_CELLS // max(1, table.size)))
    tables = np.empty((block, n_clients, width))
    cols = np.empty((block, n_clients), dtype=np.intp)
    row_starts = np.arange(0, tables.size, width).reshape(block, n_clients)
    views = list(zip(tables, cols))  # one (weighted table, chosen columns) per iteration
    prices = [1.0 / n_aps] * n_aps
    # The next prices need only the loads of the clients' choices.  The dual
    # value g_k is a certificate the recursion never reads, so the loop keeps
    # each iteration's weighted table and chosen columns, and sums a whole
    # block of per-client minima at once.  The loads are a pure function of
    # the choice pattern, so each distinct pattern's loads and t_k are
    # computed once per run (patterns seen after the memo is full are
    # computed each time).
    memo: dict[bytes, tuple[list[float], float]] = {}
    duals: list[float] = []
    primals: list[float] = []
    best_primal, best_key = math.inf, b""
    best_dual = -math.inf
    # blocks of 1, 2, 4, ... iterations up to the buffer's, so that a gap that
    # closes early is seen early; reducing a (rows, M) block row by row gives
    # the same floats for any number of rows
    first, size = 1, 1

    while first <= max_iters:
        last = min(first + size, max_iters + 1)
        for k, (w, c) in zip(range(first, last), views):
            np.multiply(beta, np.array(prices).take(ap), out=w)
            key = w.argmin(axis=1, out=c).tobytes()
            entry = memo.get(key)
            if entry is None:
                loads = chosen_loads(inst, start + c).tolist()
                entry = (loads, float(max(loads)))  # float even with no clients
                if len(memo) * n_clients < _MEMO_CELLS:
                    memo[key] = entry
            loads, t_k = entry
            primals.append(t_k)
            if t_k < best_primal:
                best_primal, best_key = t_k, key
            # step along the subgradient u = -loads with size step_scale/k
            step = step_scale / k
            prices = project_simplex([p + step * y for p, y in zip(prices, loads)])
        done = last - first
        chosen = row_starts[:done] + cols[:done]
        block_duals = np.add.reduce(tables.take(chosen), axis=1).tolist()
        duals += block_duals
        best_dual = max(best_dual, max(block_duals))
        if stop_at_zero_gap and best_primal - best_dual <= 0.0:
            break
        first, size = last, min(2 * size, block)

    assignment = chosen_assignment(inst, start + np.frombuffer(best_key, dtype=np.intp))
    # weak duality puts every g_k at or below every t_k up to the prices'
    # excess over a unit sum: max(duals) may pass best_primal by an ulp or so
    return SolveReport(duals, primals, assignment, best_dual)


def convergence_bound(inst: Instance, step_scale: float, k: int) -> float:
    """A-priori ceiling on the dual suboptimality after k iterations.

    (R^2/2 + a^2 G^2 pi^2/12) / sum_{l<=k} a/l, with R = sqrt(2) the simplex
    diameter and G the subgradient norm bound sqrt(sum_i (sum_j beta_ij)^2).
    The pi^2/12 factor is a^2/2 times the Basel sum of the squared steps.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 < step_scale < math.inf:
        raise ValueError("step_scale must be positive and finite")
    per_ap = np.bincount(inst.pairs.ap, weights=inst.beta, minlength=inst.n_aps)
    g_sq = float(np.sum(per_ap**2))
    harmonic = float(np.sum(1.0 / np.arange(1, k + 1)))
    numerator = 1.0 + step_scale**2 * g_sq * math.pi**2 / 12.0
    return numerator / (step_scale * harmonic)


def duality_gap_bound(inst: Instance) -> float:
    """Integrality-gap certificate (N+1)*(max beta + max_j min_i beta_ij).

    Independent of the number of clients, hence the relative gap vanishes as
    the network fills up.
    """
    if inst.beta.size == 0:
        return 0.0
    overall_max = float(inst.beta.max())
    worst_client_min = float(np.minimum.reduceat(inst.beta, inst.pairs.start).max())
    return (inst.n_aps + 1) * (overall_max + worst_client_min)


def trace_csv_lines(report: SolveReport) -> list[str]:
    """Per-iteration trace as CSV lines (header + one row per iteration),
    each row with the running best dual and primal values."""
    lines = [",".join(TRACE_COLUMNS)]
    g_best, p_best = -math.inf, math.inf
    for k, (g, t_k) in enumerate(zip(report.duals, report.primals), 1):
        g_best, p_best = max(g_best, g), min(p_best, t_k)
        lines.append(f"{k},{g!r},{t_k!r},{g_best!r},{p_best!r}")
    return lines
