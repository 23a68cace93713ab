"""The fault sampler as a dense scatter, kept as a reference for the
tests: one zero-filled uint64 accumulator per column of the whole
sample, and every hit XORed into its trial's slot by ``np.bitwise_xor.at``.
``sim.FaultTable.sample_hits`` draws the same stream but XOR-reduces the
sorted hits of each trial over packed words, and touches only the trials
a fault hit."""

from __future__ import annotations

import math

import numpy as np

from cutcat.sim import _MAX_CHUNK, FaultTable


def sample_ref(table: FaultTable, rng: np.random.Generator, size: int,
               p: float) -> list[np.ndarray]:
    """One XOR accumulator per column of ``table`` for ``size`` trials,
    in the draw order of ``FaultTable.sample``."""
    accs = [np.zeros(size, dtype=np.uint64) for _ in table.columns]
    n_ops = len(table.n_codes)
    cells = size * n_ops
    if p == 0.0 or cells == 0:
        return accs
    # chunks of the mean hit count plus 5 sigma, capped, until they
    # pass the last cell; clipping keeps the sum of the huge gaps of a
    # tiny p from overflowing
    mean = cells * p
    chunk = min(cells, _MAX_CHUNK, int(mean + 5.0 * math.sqrt(mean) + 10.0))
    flat = [col.ravel() for col in table.columns]
    last = -1
    while last < cells - 1:
        hit = last + np.minimum(rng.geometric(p, chunk), cells + 1).cumsum()
        last = int(hit[-1])
        hit = hit[:np.searchsorted(hit, cells)]
        trial, op = np.divmod(hit, n_ops)
        entry = op * table.width + rng.integers(0, table.width, size=hit.size)
        # one trial may take several hits, in one chunk or across two
        for acc, col in zip(accs, flat):
            np.bitwise_xor.at(acc, trial, col[entry])
    return accs
