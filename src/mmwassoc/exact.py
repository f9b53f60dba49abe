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

from .instance import Assignment, Instance, chosen_assignment, make_assignment

__all__ = [
    "ExactResult",
    "NodeBudgetExceeded",
    "enumerate_assignments",
    "branch_and_bound",
    "solve_milp_exact",
    "solve_lp_relaxation",
]

ENUMERATION_LIMIT = 1_000_000  # assignments; beyond this the search branches
DEFAULT_NODE_BUDGET = 20_000_000  # branch-and-bound nodes per search
# load-table cells one enumeration step may build; bounds the live table per client level
_CHUNK_CELLS = 16_384

_RC_TOL = 1e-9  # reduced-cost tolerance
_PIV_TOL = 1e-10


@dataclass
class ExactResult:
    """Certified optimum: the MILP's with its integral assignment, or the LP
    relaxation's value alone.  `nodes_explored` counts the search's nodes,
    or the LP's simplex pivots."""

    optimal_value: float
    assignment: Assignment | None = None
    nodes_explored: int = 0


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


def enumerate_assignments(inst: Instance, warm_start: Assignment | None = None) -> ExactResult:
    """Exhaustive minimum over every one-AP-per-client assignment; a space
    above ENUMERATION_LIMIT assignments is refused with a ValueError.

    Grows a (rows, n_aps) load table client by client, adding each choice's
    utilization to the one column it changes, so every load is the same
    client-order sum as in the full table.  Clients added later vary
    fastest, so the rows stay in lexicographic candidate-set order and the
    reported argmin is the first optimum in that order.

    The table is bounded by U, the objective of the greedy incumbent or of
    `warm_start` if smaller: a child row is kept only if its changed column
    is <= U.  Utilizations are positive, so loads never fall as clients are
    added: a dropped row ends above U >= optimum (`Assignment.loads` add in
    client order, so U is its map's own row value), and every optimal row
    survives.  The result is thus bitwise that of the full table, and
    `nodes_explored` still counts the whole assignment space, which the
    result certifies.

    The table is walked depth-first in row chunks: before client j is added,
    a table whose children could exceed _CHUNK_CELLS cells is cut, in row
    order, into chunks of max(1, _CHUNK_CELLS // (size_j * n_aps)) rows, and
    each chunk goes through the remaining clients before the next one
    starts.  Chunks end in row order and the running best is replaced only
    on a strict `<`, so the first optimum still wins; once a leaf is found,
    U drops to its objective, which only drops rows that cannot beat it.
    Every table built thus holds at most max(_CHUNK_CELLS, size * n_aps)
    cells (size the largest candidate set), and at most one table per
    client level is live, whatever the number of surviving rows.
    """
    product = inst.candidate_product()
    if product > ENUMERATION_LIMIT:
        raise ValueError(
            f"search space {product:.3g} exceeds the enumeration limit {ENUMERATION_LIMIT}"
        )
    bound = _greedy_incumbent(inst, warm_start).objective
    pairs = inst.pairs
    n_clients, n_aps = inst.n_clients, inst.n_aps
    starts, sizes = pairs.start.tolist(), pairs.sizes.tolist()
    best_value, best_index = math.inf, -1
    # (client to add next, loads, each row's mixed-radix assignment index);
    # the top of the stack is the earliest chunk in row order
    stack = [(0, np.zeros((1, n_aps)), np.zeros(1, dtype=np.int64))]
    while stack:
        j, loads, index = stack.pop()
        if j == n_clients:
            objectives = loads.max(axis=1, initial=0.0)
            row = int(np.argmin(objectives))
            if objectives[row] < best_value:
                best_value, best_index = float(objectives[row]), int(index[row])
                bound = min(bound, best_value)
            continue
        lo, size = starts[j], sizes[j]
        chunk = max(1, _CHUNK_CELLS // (size * n_aps))  # rows whose children fit
        if loads.shape[0] > chunk:
            for k in reversed(range(0, loads.shape[0], chunk)):
                stack.append((j, loads[k : k + chunk], index[k : k + chunk]))
            continue
        aps = pairs.ap[lo : lo + size]
        changed = loads[:, aps] + inst.beta[lo : lo + size]  # (rows, size) block
        row, choice = np.nonzero(changed <= bound)  # row-major: order is kept
        if row.size:
            children = loads[row]
            children[np.arange(row.size), aps[choice]] = changed[row, choice]
            stack.append((j + 1, children, index[row] * size + choice))
    # the index is mixed-radix in the candidate-set sizes, last client fastest
    digits = np.asarray(np.unravel_index(best_index, sizes), dtype=np.int64)
    return ExactResult(
        optimal_value=best_value,
        assignment=chosen_assignment(inst, pairs.start + digits),
        nodes_explored=max(int(round(product)), 1),
    )


def _client_options(inst: Instance) -> tuple[list[float], list[list[tuple[float, int, int]]]]:
    """Per client, its cheapest utilization and its (beta, ap, pair index)
    candidates, AP-ascending."""
    pairs = inst.pairs
    cheapest = np.minimum.reduceat(inst.beta, pairs.start).tolist()
    options = list(zip(inst.beta.tolist(), pairs.ap.tolist(), range(inst.beta.size)))
    bounds = [*pairs.start.tolist(), len(options)]
    return cheapest, [options[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _greedy_incumbent(inst: Instance, warm_start: Assignment | None = None) -> Assignment:
    """Longest-processing-time style incumbent: hardest clients (largest
    cheapest utilization) first, each to its least-loaded candidate AP.
    Returns that assignment, or `warm_start` repriced when its objective is
    smaller; only `warm_start` is validated."""
    cheapest, options = _client_options(inst)
    loads = [0.0] * inst.n_aps
    chosen = [-1] * inst.n_clients  # pair index per client
    for j in sorted(range(inst.n_clients), key=lambda j: -cheapest[j]):
        best_i, best_load = -1, math.inf
        for b, i, p in options[j]:
            new = loads[i] + b
            if new < best_load:
                best_i, best_load, chosen[j] = i, new, p
        loads[best_i] = best_load
    greedy = chosen_assignment(inst, chosen)
    warm = greedy if warm_start is None else make_assignment(inst, warm_start.ap_of_client)
    return warm if warm.objective < greedy.objective else greedy


def branch_and_bound(
    inst: Instance, warm_start: Assignment | None = None, lower_bound: float | None = None
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
    limit.  After DEFAULT_NODE_BUDGET nodes it raises NodeBudgetExceeded,
    which carries the incumbent.
    """
    n = inst.n_aps
    cheapest, client_options = _client_options(inst)
    loads = [0.0] * n
    chosen = [-1] * inst.n_clients  # pair index per client; a leaf has set every one
    branchable = []
    for j, opts in enumerate(client_options):
        if len(opts) == 1:
            b, i, chosen[j] = opts[0]
            loads[i] += b
        else:
            branchable.append(j)
    order = sorted(branchable, key=lambda j: -cheapest[j])
    options = [client_options[j] for j in order]
    depth_count = len(order)
    # forced utilization of the not-yet-branched suffix
    suffix_sum = [0.0] * (depth_count + 1)
    for d in range(depth_count - 1, -1, -1):
        suffix_sum[d] = suffix_sum[d + 1] + cheapest[order[d]]

    incumbent = _greedy_incumbent(inst, warm_start)
    incumbent_val = incumbent.objective

    nodes, node_budget = 0, DEFAULT_NODE_BUDGET  # a local: the node loop looks up no global
    done_at = -math.inf if lower_bound is None else lower_bound + 1e-12

    def result() -> ExactResult:
        return ExactResult(
            optimal_value=incumbent_val, assignment=incumbent, nodes_explored=nodes
        )

    # with no client to branch on, the greedy map is the forced map: no leaf beats it
    if depth_count == 0 or incumbent_val <= done_at:
        return result()
    # the current node lives in locals; the stack holds its ancestors, each
    # with its remaining children and the load its open child restores
    stack = []
    depth, partial_max, partial_total = 0, max(loads, default=0.0), float(sum(loads))
    children = iter(sorted([(loads[i] + b, b, i, p) for b, i, p in options[0]]))
    while True:
        j, rest_sum = order[depth], suffix_sum[depth + 1]
        for new_load, b, i, p in children:
            if nodes == node_budget:  # this node would break the budget: not evaluated
                raise NodeBudgetExceeded(result())
            nodes += 1
            child_max = new_load if new_load > partial_max else partial_max
            child_total = partial_total + b
            bound = (child_total + rest_sum) / n
            if child_max > bound:
                bound = child_max
            if bound >= incumbent_val:
                continue
            before, loads[i] = loads[i], new_load
            chosen[j] = p
            if depth + 1 < depth_count:
                stack.append((depth, partial_max, partial_total, children, i, before))
                depth, partial_max, partial_total = depth + 1, child_max, child_total
                children = iter(sorted([(loads[i] + b, b, i, p) for b, i, p in options[depth]]))
                break
            # every client placed; the cut summed loads in branching order,
            # so the leaf priced in client order can tie or pass the incumbent
            leaf = chosen_assignment(inst, chosen)
            if leaf.objective < incumbent_val:
                incumbent, incumbent_val = leaf, leaf.objective
                if incumbent_val <= done_at:
                    return result()
            loads[i] = before
        else:
            if not stack:
                return result()
            depth, partial_max, partial_total, children, i, restored = stack.pop()
            loads[i] = restored


def solve_milp_exact(
    inst: Instance, warm_start: Assignment | None = None, lower_bound: float | None = None
) -> ExactResult:
    """Exact minimum of the max AP utilization over integral assignments.

    Enumerates when the assignment space fits ENUMERATION_LIMIT, otherwise
    branches and bounds (NodeBudgetExceeded carries the incumbent when
    DEFAULT_NODE_BUDGET nodes run out).
    """
    if inst.candidate_product() <= ENUMERATION_LIMIT:
        return enumerate_assignments(inst, warm_start=warm_start)
    return branch_and_bound(inst, warm_start=warm_start, lower_bound=lower_bound)


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
    """Optimal value of the continuous relaxation (equals the dual optimum),
    with the simplex pivot count as `nodes_explored`."""
    _x, obj, _basis, pivots = _two_phase_simplex(*_lp_matrix(inst))
    return ExactResult(optimal_value=obj, nodes_explored=pivots)
