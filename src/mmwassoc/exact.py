"""Ground-truth oracles: exact min-max assignment and the LP relaxation.

`solve_milp_exact` minimizes the maximum AP utilization over all integral
assignments, by direct enumeration when the search space is small and by
depth-first branch-and-bound otherwise.  `solve_lp_relaxation` solves the
continuous relaxation with a two-phase dense tableau simplex (Bland's rule,
no external solver, bit-reproducible).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import Assignment, Instance, make_assignment, per_ap_loads

__all__ = [
    "ExactResult",
    "NodeBudgetExceeded",
    "enumerate_assignments",
    "branch_and_bound",
    "solve_milp_exact",
    "solve_lp_relaxation",
    "lp_cs_residual",
]

ENUMERATION_LIMIT = 1_000_000  # assignments; beyond this the search branches
DEFAULT_NODE_BUDGET = 20_000_000

_RC_TOL = 1e-9  # reduced-cost tolerance
_PIV_TOL = 1e-10


@dataclass
class ExactResult:
    """Certified optimum: integral assignment (MILP) or fractional point (LP)."""

    optimal_value: float
    assignment: Assignment | None = None
    fractional: dict[tuple[int, int], float] | None = None
    nodes_explored: int = 0
    duals: np.ndarray | None = None  # LP row duals (N AP rows, then M client rows)


class NodeBudgetExceeded(RuntimeError):
    """Search budget ran out; carries the best incumbent found so far."""

    def __init__(self, incumbent: ExactResult) -> None:
        self.incumbent = incumbent
        super().__init__(
            f"node budget exhausted after {incumbent.nodes_explored} nodes; "
            f"incumbent objective {incumbent.optimal_value}"
        )

    def __reduce__(self):  # rebuild from the incumbent, not from the message
        return type(self), (self.incumbent,)


def enumerate_assignments(
    inst: Instance, limit: int = ENUMERATION_LIMIT, warm_start: Assignment | None = None
) -> ExactResult:
    """Exhaustive minimum over every one-AP-per-client assignment.

    Grows a (rows, n_aps) load table client by client, adding each choice's
    utilization to the one column it changes, so every load is the same
    client-order sum as in the full table.  Clients added later vary
    fastest, so the rows stay in lexicographic candidate-set order and the
    reported argmin is the first optimum in that order.

    The table is bounded by U, the objective of the greedy incumbent or of
    `warm_start` if smaller: a child row is kept only if its changed column
    is <= U.  Utilizations are positive, so loads never fall as clients are
    added: a dropped row ends above U >= optimum (`per_ap_loads` adds in
    client order, so U is its map's own row value), and every optimal row
    survives.  The result is thus bitwise that of the full table, and
    `nodes_explored` still counts the whole assignment space, which the
    result certifies.
    """
    product = inst.candidate_product()
    if product > limit:
        raise ValueError(
            f"search space {product:.3g} exceeds the enumeration limit {limit}"
        )
    _, bound = _greedy_incumbent(inst, warm_start)
    pairs = inst.pairs
    sizes = pairs.sizes.tolist()
    loads = np.zeros((1, inst.n_aps))
    index = np.zeros(1, dtype=np.int64)  # each row's mixed-radix assignment index
    for lo, size in zip(pairs.start.tolist(), sizes):
        aps = pairs.ap[lo : lo + size]
        changed = loads[:, aps] + inst.beta[lo : lo + size]  # (rows, size) block
        row, choice = np.nonzero(changed <= bound)  # row-major: order is kept
        loads = loads[row]
        loads[np.arange(row.size), aps[choice]] = changed[row, choice]
        index = index[row] * size + choice
    objectives = loads.max(axis=1, initial=0.0)
    best = int(np.argmin(objectives))
    # the index is mixed-radix in the candidate-set sizes, last client fastest
    digits = np.asarray(np.unravel_index(int(index[best]), sizes), dtype=np.int64)
    choice = pairs.ap[pairs.start + digits].tolist()
    return ExactResult(
        optimal_value=float(objectives[best]),
        assignment=make_assignment(inst, choice),
        nodes_explored=max(int(round(product)), 1),
    )


def _client_options(inst: Instance) -> tuple[list[float], list[list[tuple[float, int]]]]:
    """Per client, its cheapest utilization and its (beta, ap) candidates,
    AP-ascending."""
    pairs = inst.pairs
    cheapest = np.minimum.reduceat(inst.beta, pairs.start).tolist()
    options = [
        list(zip(betas, aps))
        for betas, aps in zip(pairs.per_client(inst.beta), pairs.per_client(pairs.ap))
    ]
    return cheapest, options


def _greedy_incumbent(
    inst: Instance, warm_start: Assignment | None = None
) -> tuple[list[int], float]:
    """Longest-processing-time style incumbent: hardest clients (largest
    cheapest utilization) first, each to its least-loaded candidate AP.
    Returns the client->AP map and its objective, or those of `warm_start`
    when its objective is smaller."""
    cheapest, options = _client_options(inst)
    loads = [0.0] * inst.n_aps
    ap_of_client = [-1] * inst.n_clients
    for j in sorted(range(inst.n_clients), key=lambda j: -cheapest[j]):
        best_i, best_load = -1, math.inf
        for b, i in options[j]:
            new = loads[i] + b
            if new < best_load:
                best_i, best_load = i, new
        ap_of_client[j] = best_i
        loads[best_i] = best_load
    greedy = make_assignment(inst, ap_of_client)
    warm = greedy if warm_start is None else make_assignment(inst, warm_start.ap_of_client)
    best = warm if warm.objective < greedy.objective else greedy
    return list(best.ap_of_client), best.objective


def branch_and_bound(
    inst: Instance,
    node_budget: int = DEFAULT_NODE_BUDGET,
    warm_start: Assignment | None = None,
    lower_bound: float | None = None,
) -> ExactResult:
    """Depth-first branch-and-bound on the client choices.

    Single-candidate clients are forced up front; branching runs over the
    remaining clients in descending order of their cheapest utilization,
    children ordered by resulting load.  A node is cut when neither of its
    lower bounds (current partial maximum; load-averaging bound on the
    forced remaining utilization, i.e. the uniform-price dual value of the
    subtree) can beat the incumbent.  `lower_bound`, when given, must be a
    certified bound on the optimum (e.g. the relaxation value): the search
    stops as soon as the incumbent is within 1e-12 of it.  The search runs
    on an explicit stack, so its depth is not bounded by Python's recursion
    limit.
    """
    n = inst.n_aps
    cheapest, client_options = _client_options(inst)
    loads = [0.0] * n
    partial_map = [-1] * inst.n_clients
    branchable = []
    for j, opts in enumerate(client_options):
        if len(opts) == 1:
            b, i = opts[0]
            partial_map[j] = i
            loads[i] += b
        else:
            branchable.append(j)
    order = sorted(branchable, key=lambda j: -cheapest[j])
    options = [client_options[j] for j in order]
    depth_count = len(order)
    # forced utilization of the not-yet-branched suffix, and its largest term
    suffix_sum = [0.0] * (depth_count + 1)
    suffix_max = [0.0] * (depth_count + 1)
    for d in range(depth_count - 1, -1, -1):
        rho = cheapest[order[d]]
        suffix_sum[d] = suffix_sum[d + 1] + rho
        suffix_max[d] = max(suffix_max[d + 1], rho)

    incumbent_map, incumbent_val = _greedy_incumbent(inst, warm_start)

    nodes = 0
    done_at = -math.inf if lower_bound is None else lower_bound + 1e-12

    def result() -> ExactResult:
        return ExactResult(
            optimal_value=incumbent_val,
            assignment=make_assignment(inst, incumbent_map),
            nodes_explored=nodes,
        )

    # with no client to branch on, the greedy map is the forced map: no leaf beats it
    if depth_count == 0 or incumbent_val <= done_at:
        return result()
    # the current node lives in locals; the stack holds its ancestors, each
    # with its remaining children and the load its open child restores
    stack = []
    depth, partial_max, partial_total = 0, max(loads, default=0.0), float(sum(loads))
    children = iter(sorted([(loads[i] + b, b, i) for b, i in options[0]]))
    while True:
        j, rest_sum, rest_max = order[depth], suffix_sum[depth + 1], suffix_max[depth + 1]
        for new_load, b, i in children:
            if nodes == node_budget:  # this node would break the budget: not evaluated
                raise NodeBudgetExceeded(result())
            nodes += 1
            child_max = new_load if new_load > partial_max else partial_max
            child_total = partial_total + b
            bound = (child_total + rest_sum) / n
            if child_max > bound:
                bound = child_max
            if rest_max > bound:
                bound = rest_max
            if bound >= incumbent_val:
                continue
            loads[i] = new_load
            partial_map[j] = i
            if depth + 1 < depth_count:
                stack.append((depth, partial_max, partial_total, children, i, new_load - b))
                depth, partial_max, partial_total = depth + 1, child_max, child_total
                children = iter(sorted([(loads[i] + b, b, i) for b, i in options[depth]]))
                break
            # every client placed, below the incumbent (bound >= child_max)
            incumbent_map = list(partial_map)
            incumbent_val = float(per_ap_loads(inst, incumbent_map).max(initial=0.0))
            if incumbent_val <= done_at:
                return result()
            loads[i] = new_load - b
            partial_map[j] = -1
        else:
            if not stack:
                return result()
            depth, partial_max, partial_total, children, i, restored = stack.pop()
            loads[i] = restored
            partial_map[order[depth]] = -1


def solve_milp_exact(
    inst: Instance,
    budget: int = DEFAULT_NODE_BUDGET,
    enumeration_limit: int = ENUMERATION_LIMIT,
    warm_start: Assignment | None = None,
    lower_bound: float | None = None,
) -> ExactResult:
    """Exact minimum of the max AP utilization over integral assignments.

    Enumerates when the assignment space fits `enumeration_limit`, otherwise
    branch-and-bound within `budget` nodes (NodeBudgetExceeded carries the
    incumbent when the budget runs out).
    """
    if inst.candidate_product() <= min(enumeration_limit, budget):
        return enumerate_assignments(inst, limit=enumeration_limit, warm_start=warm_start)
    return branch_and_bound(
        inst, node_budget=budget, warm_start=warm_start, lower_bound=lower_bound
    )


def _two_phase_simplex(
    a_mat: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, float, np.ndarray, int]:
    """min c@x s.t. a_mat@x = b (b >= 0), x >= 0, by the tableau method.

    Bland's rule on both the entering and leaving choice precludes cycling.
    Returns (x, objective, basis column per row, pivot count).
    """
    m, n = a_mat.shape
    # phase 1: artificial identity basis, minimize the artificial sum
    tab = np.hstack([a_mat.astype(float), np.eye(m), b.reshape(-1, 1).astype(float)])
    basis = np.arange(n, n + m)
    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    pivots = _simplex_core(tab, basis, cost1)
    if cost1[basis] @ tab[:, -1] > 1e-7:
        raise RuntimeError("LP infeasible (artificials remain positive)")
    # drive any zero-level artificials out of the basis
    for row, col in enumerate(basis):
        if col >= n:
            pivot_col = next(
                (jj for jj in range(n) if abs(tab[row, jj]) > _PIV_TOL), None
            )
            if pivot_col is None:
                raise RuntimeError("redundant row left an artificial in the basis")
            _pivot(tab, row, pivot_col)
            basis[row] = pivot_col
    tab = np.hstack([tab[:, :n], tab[:, -1:]])
    cost2 = np.asarray(c, dtype=float)
    pivots += _simplex_core(tab, basis, cost2)
    x = np.zeros(n)
    x[basis] = tab[:, -1]
    return x, float(cost2 @ x), basis, pivots


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    """Scale the pivot row to a unit pivot, then eliminate `col` elsewhere.

    One rank-1 update covers the whole tableau, and the scaled pivot row is
    written back over what the update left in its row.  Every other entry
    becomes `tab[r, k] - tab[r, col] * kept[k]`, the same two roundings as
    an outer product over the other rows.  (Zeroing the pivot row's factor
    instead would not keep the bits: -0.0 - (0.0 * -0.0) is +0.0.)
    """
    kept = tab[row] / tab[row, col]
    tab -= tab[:, col, None] * kept
    tab[row] = kept


def _simplex_core(tab: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> int:
    """Iterate pivots until no reduced cost is below -tol.  Returns pivot count.

    The reduced costs are recomputed from the basis each pivot, with one
    matrix-vector product whose summation order fixes their last bits.  The
    ratio test runs on Python floats (IEEE double division, as in numpy) and
    keeps the lexicographic minimum of (ratio, basis column): the smallest
    ratio, ties to the smaller basis column (Bland).  Basis columns are
    distinct, so the row never decides.
    """
    n_cols = tab.shape[1] - 1
    cost_n = cost[:n_cols]
    pivots = 0
    while True:
        violating = cost_n - cost[basis] @ tab[:, :n_cols] < -_RC_TOL
        entering = int(violating.argmax())  # Bland: smallest violating index
        if not violating[entering]:
            return pivots
        rhs, column = tab[:, -1].tolist(), tab[:, entering].tolist()
        leave_row, min_ratio, min_col = -1, math.inf, -1
        for r, col in enumerate(basis.tolist()):
            a = column[r]
            if a > _PIV_TOL:
                ratio = rhs[r] / a
                if leave_row < 0 or ratio < min_ratio or (ratio == min_ratio and col < min_col):
                    leave_row, min_ratio, min_col = r, ratio, col
        if leave_row < 0:
            raise RuntimeError("LP unbounded")  # cannot happen for this model
        _pivot(tab, leave_row, entering)
        basis[leave_row] = entering
        pivots += 1


def _lp_matrix(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard form of the relaxation.

    Columns: t, one per stored pair (client-major order), one slack per AP.
    Rows: per-AP capacity equalities (load - t + slack = 0), then per-client
    convexity equalities (choices sum to 1).  The x <= 1 box constraints are
    implied by the convexity rows, so no explicit upper-bound rows.
    """
    pairs = inst.pairs
    n, m, p = inst.n_aps, inst.n_clients, inst.beta.size
    a_mat = np.zeros((n + m, 1 + p + n))
    a_mat[:n, 0] = -1.0
    a_mat[pairs.ap, 1 + np.arange(p)] = inst.beta
    a_mat[n + pairs.client, 1 + np.arange(p)] = 1.0
    a_mat[:n, 1 + p : 1 + p + n] = np.eye(n)
    b = np.concatenate([np.zeros(n), np.ones(m)])
    c = np.zeros(1 + p + n)
    c[0] = 1.0
    return a_mat, b, c


def solve_lp_relaxation(inst: Instance) -> ExactResult:
    """Optimal value of the continuous relaxation (equals the dual optimum)."""
    a_mat, b, c = _lp_matrix(inst)
    x, obj, basis, pivots = _two_phase_simplex(a_mat, b, c)
    keys = zip(inst.pairs.ap.tolist(), inst.pairs.client.tolist())
    fractional = dict(zip(keys, x[1 : 1 + inst.beta.size].tolist()))
    basis_cols = a_mat[:, basis]
    duals = np.linalg.solve(basis_cols.T, c[basis])
    return ExactResult(
        optimal_value=obj,
        fractional=fractional,
        nodes_explored=pivots,
        duals=duals,
    )


def lp_cs_residual(inst: Instance, result: ExactResult) -> float:
    """Largest primal/dual/complementary-slackness violation of an LP solution."""
    if result.fractional is None or result.duals is None:
        raise ValueError("result does not carry an LP solution with duals")
    a_mat, b, c = _lp_matrix(inst)
    p = inst.beta.size
    x = np.zeros(1 + p + inst.n_aps)
    x[0] = result.optimal_value
    keys = zip(inst.pairs.ap.tolist(), inst.pairs.client.tolist())
    x[1 : 1 + p] = [result.fractional[key] for key in keys]
    # recover the slack values from the AP rows
    x[1 + p :] = b[: inst.n_aps] - a_mat[: inst.n_aps, : 1 + p] @ x[: 1 + p]
    residual = float(np.max(np.abs(a_mat @ x - b), initial=0.0))
    residual = max(residual, float(np.max(-x, initial=0.0)))  # x >= 0
    reduced = c - result.duals @ a_mat
    residual = max(residual, float(np.max(-reduced, initial=0.0)))  # dual feasibility
    residual = max(residual, float(np.max(np.abs(reduced * x), initial=0.0)))
    return residual
