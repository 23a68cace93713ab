"""Exact counts of small fixed-seed Monte-Carlo runs.

A ``cutcat-manifest-v5`` manifest promises a byte-identical CSV on replay,
so the random stream behind it is frozen.  Each ``FaultTable`` sample
draws one stream over its (trial, op) cells in trial-major order: chunks
of geometric gaps between hit cells (the mean hit count plus 5 sigma
each, at most ``sim._MAX_CHUNK``), until they pass the last cell, each
chunk followed by one code per hit it places, uniform below the lcm of
the ops' code counts.  A gadget batch samples its base-round table over
every trial, then, for an adaptive decoder, four re-measurement samples
over the trials that reach the decoder.  A block batch samples data noise
over every trial, then each round one sample of the round table (every
generator's gadget ops, X generators first) over the trials still active,
in trial order.  These counts were recorded with that stream and must
never change under the v5 format; a sampler that draws differently needs
a new manifest format and newly recorded counts.

The v3 stream drew the gaps and codes of each operation on its own; every
row was re-recorded for v4 at the same seed, caps and batch sizes.  The v4
stream drew one sample per generator extraction; the block rows were
re-recorded for v5 at the same seed, caps and batch sizes, and the gadget
rows held.
"""

import pytest

from cutcat.block import run_block_mc
from cutcat.decoders import RuleDecoderD3D5, RuleDecoderD7
from cutcat.experiments import run_gadget_mc
from cutcat.gadgets import GadgetSpec, build_cut_cat

SEED = 11
UNCAPPED = 10**9


@pytest.mark.parametrize(
    "gamma, distance, p, min_failures, trial_cap, batch_size, expected",
    [
        (6, 3, 1e-2, 100, 200_000, 20_000, (40_000, 104)),
        (10, 5, 1e-2, UNCAPPED, 400_000, 100_000, (400_000, 183)),
        (10, 5, 3e-3, UNCAPPED, 1_000_000, 500_000, (1_000_000, 14)),
        (14, 7, 3e-2, UNCAPPED, 20_000, 10_000, (20_000, 94)),
    ],
)
def test_gadget_counts(gamma, distance, p, min_failures, trial_cap, batch_size,
                       expected):
    spec = GadgetSpec(gamma=gamma, distance=distance)
    g = build_cut_cat(spec)
    decoder = RuleDecoderD7(g) if distance == 7 else RuleDecoderD3D5(g, spec.t)
    stats = run_gadget_mc(spec, decoder, p, min_failures=min_failures, seed=SEED,
                          trial_cap=trial_cap, batch_size=batch_size)
    assert (stats.trials, stats.failures) == expected


@pytest.mark.parametrize(
    "code_name, p, min_failures, trial_cap, batch_size, expected",
    [
        ("steane", 1e-2, UNCAPPED, 60_000, 20_000, (60_000, 180)),
        ("steane", 3e-2, 200, 200_000, 10_000, (10_000, 222)),
        ("rm15", 1e-2, UNCAPPED, 20_000, 10_000, (20_000, 360)),
    ],
)
def test_block_counts(request, code_name, p, min_failures, trial_cap, batch_size,
                      expected):
    code = request.getfixturevalue(code_name)
    stats = run_block_mc(code, p, ratio=20, min_failures=min_failures, seed=SEED,
                         trial_cap=trial_cap, batch_size=batch_size)
    assert (stats.trials, stats.failures) == expected
