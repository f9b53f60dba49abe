"""Association problem data: candidate pairs, utilizations, pruning, fixtures.

The optimization data is sparse by construction: an (ap, client) pair exists
only when the client sits in the AP's candidate set.  Pairs are stored once,
as flat client-major arrays (clients ascending, APs ascending within a
client); utilizations and rates are per-pair arrays aligned with them.
The one dict keyed by (ap, client) is the input of `instance_from_beta`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "InfeasibleClientError",
    "Pairs",
    "Topology",
    "Instance",
    "Assignment",
    "topology_from_positions",
    "build_instance",
    "instance_from_beta",
    "example1_instance",
    "example2_instance",
    "chosen_loads",
    "chosen_assignment",
    "make_assignment",
    "instance_to_json",
    "instance_from_json",
    "check_ap_count",
    "checked",
    "is_int",
    "is_real",
    "json_int",
    "json_number",
    "json_bool",
    "json_list",
    "json_object",
]

_REL_TOL = 1e-12
MAX_APS = 1 << 16  # n_aps ceiling of a JSON document or an experiment config


class InfeasibleClientError(ValueError):
    """A client ended up with an empty candidate set."""

    def __init__(self, client: int, reason: str) -> None:
        self.client = client
        self.reason = reason
        super().__init__(f"client {client} has no admissible AP ({reason})")

    def __reduce__(self):  # rebuild from the fields, not from the message
        return type(self), (self.client, self.reason)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Pairs:
    """(ap, client) pairs sorted by (client, ap), as read-only int64 arrays.

    `start[j]` is the index of client j's first pair.  Every client owns a
    nonempty contiguous AP-ascending segment, so the first minimum in a
    segment is the smallest-index tie-break.
    """

    client: np.ndarray  # (P,)
    ap: np.ndarray  # (P,)
    start: np.ndarray  # (M,)

    @classmethod
    def from_sorted(cls, client: np.ndarray, ap: np.ndarray, n_clients: int) -> Pairs:
        start = np.searchsorted(client, np.arange(n_clients))
        return cls(_frozen(client.astype(np.int64)), _frozen(ap.astype(np.int64)), _frozen(start))

    @cached_property
    def sizes(self) -> np.ndarray:
        """Candidate-set size of every client."""
        return _frozen(np.diff(self.start, append=self.client.size))

    @cached_property
    def table(self) -> np.ndarray:
        """Pair indices as an (M, width) client table, width the largest
        candidate-set size (at least 1): row j holds client j's pairs
        AP-ascending, then copies of its first pair.

        A copy has its first pair's value and sits right of it, so with any
        values laid out by the table (`values.take(table)`), a row's minimum
        and the column of its first minimum are those of the client's pairs.
        """
        offset = np.arange(self.sizes.max(initial=1))
        inside = offset < self.sizes[:, None]
        return _frozen(self.start[:, None] + np.where(inside, offset, 0))

    def first_argmin(self, values: np.ndarray) -> np.ndarray:
        """Per client, the index of the first pair minimizing `values`."""
        return self.start + np.asarray(values).take(self.table).argmin(axis=1)


@dataclass(frozen=True, eq=False)
class Topology:
    """AP and client planar positions plus the geometric candidate pairs."""

    ap_positions: np.ndarray  # (N, 2) meters
    client_positions: np.ndarray  # (M, 2) meters
    pairs: Pairs  # within-radius (ap, client) pairs
    distance: np.ndarray  # (P,) AP-client distance of every pair, meters

    @property
    def n_aps(self) -> int:
        return self.ap_positions.shape[0]

    @property
    def n_clients(self) -> int:
        return self.client_positions.shape[0]


def topology_from_positions(
    ap_positions: np.ndarray, client_positions: np.ndarray, radius: float
) -> Topology:
    """Build a topology whose candidate sets are the within-radius disks."""
    ap_positions = np.asarray(ap_positions, dtype=float).reshape(-1, 2)
    client_positions = np.asarray(client_positions, dtype=float).reshape(-1, 2)
    if not radius > 0.0:
        raise ValueError("radius must be strictly positive")
    # (M, N) distance table; small networks, dense is fine
    diff = client_positions[:, None, :] - ap_positions[None, :, :]
    inside = np.hypot(diff[..., 0], diff[..., 1]) <= radius
    isolated = np.flatnonzero(~inside.any(axis=1))
    if isolated.size:
        raise InfeasibleClientError(int(isolated[0]), "outside every AP disk")
    client, ap = np.nonzero(inside)  # row-major: client-major, APs ascending
    # math.hypot per pair, not np.hypot: the two differ in the last bit on
    # some pairs, and every channel draw is computed from these distances
    distance = np.array([math.hypot(dx, dy) for dx, dy in diff[client, ap].tolist()])
    return Topology(
        ap_positions=ap_positions,
        client_positions=client_positions,
        pairs=Pairs.from_sorted(client, ap, client_positions.shape[0]),
        distance=_frozen(distance),
    )


@dataclass(frozen=True, eq=False)
class Instance:
    """Pruned optimization problem data.

    Every stored pair satisfies 0 < beta <= 1 and beta == demand/rate to
    relative 1e-12; `beta` and `rate` are read-only arrays aligned with
    `pairs`.  Immutable after construction.
    """

    n_aps: int
    n_clients: int
    demands: tuple[float, ...]
    pairs: Pairs
    beta: np.ndarray  # (P,) utilization demand/rate of every pair
    rate: np.ndarray  # (P,) link rate of every pair, bit/s

    def candidate_product(self) -> float:
        """Product of candidate-set sizes, capped at 1e18 (search-space size)."""
        prod = 1.0
        for size in self.pairs.sizes.tolist():
            prod *= size
            if prod > 1e18:
                return 1e18
        return prod


@dataclass(frozen=True)
class Assignment:
    """One AP per client, with the per-AP utilization sums it produces."""

    ap_of_client: tuple[int, ...]
    loads: tuple[float, ...]  # each AP's sum accumulated in client order

    @property
    def objective(self) -> float:  # the max-utilization objective
        return max(self.loads, default=0.0)


def _assemble(
    n_aps: int,
    demands: Sequence[float],
    ap: np.ndarray,
    client: np.ndarray,
    beta: np.ndarray | None = None,
    rate: np.ndarray | None = None,
) -> Instance:
    """Validate offered pairs (any order), prune beta > 1, sort client-major.

    Either `beta` or `rate` may be None; it is then synthesized as demand
    over the other, so the stored triple stays self-consistent.  Every
    pair's demand, rate and beta must be finite and positive, but a rate of
    0 given without a beta is pruned like a beta > 1.
    """
    q = np.asarray(demands, dtype=float)
    n_clients = q.size

    def reject(bad: np.ndarray, message: str) -> None:
        if bad.any():
            k = int(np.argmax(bad))  # first offending pair
            raise ValueError(message.format(i=ap[k], j=client[k]))

    in_range = (ap >= 0) & (ap < n_aps) & (client >= 0) & (client < n_clients)
    reject(~in_range, "pair ({i}, {j}) out of range")
    demand = q[client]
    zero_rate = np.zeros(client.size, dtype=bool)
    with np.errstate(all="ignore"):  # a bad input, or what it yields here, fails a check below
        if beta is None:
            zero_rate = rate == 0.0
            beta = demand / rate
        if rate is None:
            rate = demand / beta
        values = np.stack([demand, rate, beta])
        ok = (values > 0.0) & (values < np.inf)
        reject(
            ~(ok[0] & ((ok[1] & ok[2]) | zero_rate)),
            "demand, rate and beta of pair ({i}, {j}) must be finite and positive",
        )
        inconsistent = np.abs(beta - demand / rate) > _REL_TOL * np.abs(beta)
    reject(inconsistent, "beta of pair ({i}, {j}) inconsistent with demand/rate")
    keep = (beta <= 1.0) & ~zero_rate  # beta > 1 or rate 0: the link cannot carry the demand
    empty = np.flatnonzero(np.bincount(client[keep], minlength=n_clients) == 0)
    if empty.size:
        j = int(empty[0])
        if not np.any(client == j):
            raise InfeasibleClientError(j, "no candidate links")
        why = "rate 0 or utilization > 1" if zero_rate[client == j].any() else "utilization > 1"
        raise InfeasibleClientError(j, f"all candidate links pruned ({why})")
    kept = np.flatnonzero(keep)
    kept = kept[np.lexsort((ap[kept], client[kept]))]
    return Instance(
        n_aps=n_aps,
        n_clients=n_clients,
        demands=tuple(q.tolist()),
        pairs=Pairs.from_sorted(client[kept], ap[kept], n_clients),
        beta=_frozen(beta[kept]),
        rate=_frozen(rate[kept]),
    )


def build_instance(
    topo: Topology, demands: Sequence[float], link_rates: Sequence[float]
) -> Instance:
    """Compute utilizations beta = demand/rate on the topology's pairs and prune.

    `link_rates` holds one rate per topology pair, aligned with `topo.pairs`.
    Pairs with beta > 1 or a rate of 0 are removed; a client whose whole
    candidate set is pruned raises InfeasibleClientError.
    """
    pairs = topo.pairs
    rate = np.asarray(link_rates, dtype=float)
    if rate.shape != pairs.ap.shape:
        raise ValueError(
            f"link_rates must hold one rate per topology pair: expected "
            f"{pairs.ap.size}, got {rate.size}"
        )
    if len(demands) != topo.n_clients:
        raise ValueError("one demand per client required")
    return _assemble(topo.n_aps, demands, pairs.ap, pairs.client, rate=rate)


def instance_from_beta(
    n_aps: int, n_clients: int, beta: Mapping[tuple[int, int], float]
) -> Instance:
    """An instance built from utilization values: every demand is 1, every rate 1/beta."""
    ap = np.array([i for i, _ in beta], dtype=np.int64)
    client = np.array([j for _, j in beta], dtype=np.int64)
    values = np.array(list(beta.values()), dtype=float)
    return _assemble(n_aps, [1.0] * n_clients, ap, client, beta=values)


def example1_instance(m: int) -> Instance:
    """Chain network with m clients and m APs.

    Client 0 reaches only AP 0; client j >= 1 reaches APs j-1 and j.  Every
    link's utilization is 0.5, so the optimum is 0.5.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    beta = {(0, 0): 0.5}
    for j in range(1, m):
        beta[(j - 1, j)] = 0.5
        beta[(j, j)] = 0.5
    return instance_from_beta(m, m, beta)


def example2_instance() -> Instance:
    """Two-tier network with 2 APs and optimum 0.5: each AP serves one pinned
    client at utilization 0.3, and four roaming clients reach both at 0.1."""
    roaming = {(i, j): 0.1 for j in range(2, 6) for i in (0, 1)}
    return instance_from_beta(2, 6, {(0, 0): 0.3, (1, 1): 0.3, **roaming})


def chosen_loads(inst: Instance, idx: np.ndarray) -> np.ndarray:
    """Per-AP utilization sums over the chosen pairs `idx`, one pair per
    client in client order, so each AP's sum accumulates in client order."""
    loads = np.bincount(inst.pairs.ap.take(idx), weights=inst.beta.take(idx), minlength=inst.n_aps)
    return loads.astype(float, copy=False)  # bincount of no clients is integer


def chosen_assignment(inst: Instance, idx: np.ndarray) -> Assignment:
    """The assignment of the chosen pairs `idx` (as in `chosen_loads`), unvalidated."""
    ap_of_client = tuple(inst.pairs.ap.take(idx).tolist())
    return Assignment(ap_of_client, tuple(chosen_loads(inst, idx).tolist()))


def make_assignment(inst: Instance, ap_of_client: Sequence[int]) -> Assignment:
    """Validate a client->AP map, one candidate AP per client, each an int
    (never a bool), and price it."""
    if len(ap_of_client) != inst.n_clients:
        raise ValueError("one AP per client required")
    for j, i in enumerate(ap_of_client):
        if not is_int(i) or not 0 <= i < inst.n_aps:
            raise ValueError(f"AP {i!r:.60} of client {j} is not an AP index")
    pairs = inst.pairs
    idx = np.flatnonzero(pairs.ap == np.asarray(ap_of_client, dtype=np.int64)[pairs.client])
    if idx.size < inst.n_clients:  # APs are unique per client: one match each
        j = int(np.argmin(np.bincount(pairs.client[idx], minlength=inst.n_clients)))
        raise ValueError(f"AP {ap_of_client[j]} is not a candidate of client {j}")
    return chosen_assignment(inst, idx)


def instance_to_json(inst: Instance) -> dict:
    """JSON document mirroring the instance, pairs as client-major
    {i, j, beta, rate} records."""
    columns = (inst.pairs.ap, inst.pairs.client, inst.beta, inst.rate)
    records = zip(*(column.tolist() for column in columns))
    links = [dict(zip(("i", "j", "beta", "rate"), rec)) for rec in records]
    return {
        "n_aps": inst.n_aps,
        "n_clients": inst.n_clients,
        "demands": list(inst.demands),
        "links": links,
    }


def check_ap_count(n_aps: int) -> int:
    """`n_aps` if it lies in [1, MAX_APS], else ValueError; checked before
    any per-AP array exists."""
    if not 1 <= n_aps <= MAX_APS:
        raise ValueError(f"n_aps must lie in [1, {MAX_APS}], got {n_aps}")
    return n_aps


def is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    return is_int(value) or isinstance(value, (float, np.floating))


def checked(ok: bool, value, name: str, what: str):
    if not ok:
        raise ValueError(f"{name} must be {what}, got {value!r:.60}")
    return value


def json_int(value, name: str) -> int:
    """A JSON integer: an int or an integral float, never a bool."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return checked(is_int(value), value, name, "an integer")


def json_number(value, name: str) -> float:
    """A finite JSON number (int or float, never a bool), as a float."""
    ok = is_real(value) and abs(value) <= sys.float_info.max
    return float(checked(ok, value, name, "a finite number"))


def json_bool(value, name: str) -> bool:
    return checked(isinstance(value, bool), value, name, "true or false")


def json_list(value, name: str) -> list:
    return checked(isinstance(value, list), value, name, "a JSON array")


def json_object(value, name: str, *required: str) -> dict:
    """A JSON object holding every `required` key."""
    checked(isinstance(value, dict), value, name, "a JSON object")
    for key in required:
        if key not in value:
            raise ValueError(f"{name} missing field {key!r}")
    return value


def instance_from_json(doc) -> Instance:
    """Rebuild an instance from its JSON document, revalidating everything.

    Every malformed value is a ValueError naming its key.  Link records may
    come in any order.
    """
    doc = json_object(doc, "instance document", "n_aps", "n_clients", "demands", "links")
    n_aps = check_ap_count(json_int(doc["n_aps"], "n_aps"))
    demands = [
        json_number(q, f"demands[{j}]") for j, q in enumerate(json_list(doc["demands"], "demands"))
    ]
    if json_int(doc["n_clients"], "n_clients") != len(demands):
        raise ValueError("n_clients does not match the demand list")
    seen: set[tuple[int, int]] = set()
    records = []
    for k, rec in enumerate(json_list(doc["links"], "links")):
        name = f"links[{k}]"
        rec = json_object(rec, name, "i", "j", "beta", "rate")
        i, j = (json_int(rec[key], f"{name}.{key}") for key in ("i", "j"))
        if not (0 <= i < n_aps and 0 <= j < len(demands)):
            raise ValueError(f"pair ({i}, {j}) out of range")
        if (i, j) in seen:
            raise ValueError(f"duplicate link record for pair {(i, j)}")
        seen.add((i, j))
        beta, rate = (json_number(rec[key], f"{name}.{key}") for key in ("beta", "rate"))
        records.append((i, j, beta, rate))
    ap, client, beta, rate = np.array(records, dtype=float).reshape(-1, 4).T
    return _assemble(n_aps, demands, ap.astype(np.int64), client.astype(np.int64), beta, rate)
