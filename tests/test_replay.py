"""Exact counts of small fixed-seed Monte-Carlo runs.

A ``cutcat-manifest-v3`` manifest promises a byte-identical CSV on replay,
so the random stream behind it is frozen.  Each ``FaultTable`` sample
draws, per noisy operation, geometric gaps between the trials it hits
(in chunks until they pass the last trial), then one uniform code per
hit.  A gadget batch samples its base-round table over every trial, then,
for an adaptive decoder, four re-measurement samples over the trials that
reach the decoder.  A block batch samples data noise over every trial,
then each round one sample per generator extraction over the trials still
active, in trial order.  These counts were recorded with that stream and
must never change under the v3 format; a sampler that draws differently
needs a new manifest format and newly recorded counts.

The v2 stream drew one float32 uniform per (operation, trial) and sampled
every block extraction over the whole batch; every row was re-recorded
for v3.
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
        (6, 3, 1e-2, 100, 200_000, 20_000, (40_000, 111)),
        (10, 5, 1e-2, UNCAPPED, 400_000, 100_000, (400_000, 179)),
        (10, 5, 3e-3, UNCAPPED, 1_000_000, 500_000, (1_000_000, 17)),
        (14, 7, 3e-2, UNCAPPED, 20_000, 10_000, (20_000, 73)),
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
        ("steane", 1e-2, UNCAPPED, 60_000, 20_000, (60_000, 160)),
        ("steane", 3e-2, 200, 200_000, 10_000, (10_000, 201)),
        ("rm15", 1e-2, UNCAPPED, 20_000, 10_000, (20_000, 346)),
    ],
)
def test_block_counts(request, code_name, p, min_failures, trial_cap, batch_size,
                      expected):
    code = request.getfixturevalue(code_name)
    stats = run_block_mc(code, p, ratio=20, min_failures=min_failures, seed=SEED,
                         trial_cap=trial_cap, batch_size=batch_size)
    assert (stats.trials, stats.failures) == expected
