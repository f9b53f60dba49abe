"""The platform operations every digest rests on, pinned as bits.  Python's
`+`, `*` and `/` are correctly rounded everywhere; these are not: libm's
`log2`, `pow` and `hypot`, numpy's `hypot`, summation orders and random
streams.  If this test fails, the digests in `test_layer_digests` and
`test_bench_digests` can move with no change to the package: the platform
rounds differently, and the failing assertion names how."""

import math

import numpy as np


def hexes(values) -> list[str]:
    return [float(x).hex() for x in values]


def test_libm_log2_pow_and_hypot():
    # compute_rate's log2(1 + snr), compute_gain's (d/d0)**eta, the topology's hypots
    snrs = [0.7318237461, 23.915403, 4817.36251]
    assert hexes(math.log2(1.0 + snr) for snr in snrs) == [
        "0x1.95a74fb4a240dp-1",
        "0x1.28e4d1aaefc3fp+2",
        "0x1.877f9bce41f4bp+3",
    ]
    powers = [(0.8731, 2.0), (13.7264, 2.0), (7.31956, 2.37)]
    assert hexes(ratio**exp for ratio, exp in powers) == [
        "0x1.864ca8a5253e0p-1",
        "0x1.78d3ff461bc33p+7",
        "0x1.bf996aa087b49p+6",
    ]
    assert math.hypot(3.1187, 11.4529).hex() == "0x1.7bd674c7a9549p+3"
    assert hexes(np.hypot([3.1187], [11.4529])) == ["0x1.7bd674c7a9549p+3"]  # disk membership


def test_numpy_pairwise_row_sum():
    # run_daa sums each (block, M) table of dual terms along its rows
    row = [math.sqrt(k + 0.5) for k in range(100)]
    (total,) = np.add.reduce(np.array([row]), axis=1).tolist()
    assert total.hex() == "0x1.4d5cdc42930a1p+9"
    sequential = 0.0
    for x in row:
        sequential += x
    assert total != sequential  # so the pin tells numpy's order from a loop's


def test_numpy_bincount_sums_in_input_order():
    # chosen_loads sums each AP's utilizations with a weighted bincount
    loads = np.bincount([0, 1, 0, 1, 0], weights=[0.1, 0.5, 0.2, 0.25, 0.3]).tolist()
    assert hexes(loads) == ["0x1.3333333333334p-1", "0x1.8000000000000p-1"]
    assert loads[0] != 0.3 + 0.2 + 0.1  # so the pin tells input order from reverse


def test_numpy_exponential_stream():
    # the fading stream of seed 0, slot 0 (sim._stream(0, _PURPOSE_FADING, 0))
    rng = np.random.default_rng(np.random.SeedSequence([0, 1, 0]))
    assert hexes(rng.exponential(1.0, 3)) == [
        "0x1.3c521523dcaf3p+1",
        "0x1.c3e5dd58faaf6p-1",
        "0x1.5dea56ec9c86ep-1",
    ]
