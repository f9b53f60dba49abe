"""Benchmark association policies and evaluation metrics."""

from __future__ import annotations

import numpy as np

from .instance import Assignment, Instance, chosen_assignment

__all__ = [
    "random_policy",
    "rssi_policy",
    "jain_index",
]


def random_policy(inst: Instance, rng: np.random.Generator) -> Assignment:
    """Assign every client uniformly at random over its candidate set."""
    # one scalar draw per client with more than one AP (integers(1) draws
    # nothing): an array-valued draw would change every random-policy result
    offsets = [rng.integers(size) if size > 1 else 0 for size in inst.pairs.sizes.tolist()]
    return chosen_assignment(inst, inst.pairs.start + np.array(offsets, dtype=np.int64))


def rssi_policy(inst: Instance) -> Assignment:
    """Assign every client to its strongest link, ties to the smallest AP
    index.  Every link shares one budget, so its Shannon rate rises with its
    received power, and the rates rank a client's links as the powers do."""
    return chosen_assignment(inst, inst.pairs.first_argmin(-inst.rate))


def jain_index(a: Assignment) -> float:
    """(sum Y)^2 / (N * sum Y^2) over the per-AP loads Y of the assignment,
    in [1/N, 1] whenever some load is positive.

    The all-zero-load case has no meaningful spread; it reports 1 so the
    metric stays total.
    """
    loads = np.array(a.loads)
    denom = loads.size * float((loads**2).sum())
    if denom == 0.0:
        return 1.0
    return float(loads.sum()) ** 2 / denom
