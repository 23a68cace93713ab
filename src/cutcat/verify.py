"""Exhaustive fault-enumeration verification and the analytic failure bound.

The verifier is the arbiter for every decoder in this package: it
enumerates all X-fault combinations up to the budget, propagates them,
decodes, and demands that the corrected residual stays within the fault
count under the coset metric.  Adaptive decoders additionally face every
possible pattern of re-measurement faults within the remaining budget.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Iterator, Sequence

from .circuit import FaultLocation, GadgetCircuit, enumerate_fault_locations
from .pauli import residual_weight_mod_generator
from .sim import CatSyndrome, Effect, location_effects


def _effect_classes(
    g: GadgetCircuit, locations: Sequence[FaultLocation], dedupe: bool,
    with_persist: bool,
) -> tuple[list[Effect], list[int]]:
    """Single X-fault effects of ``locations`` with their location ids;
    with ``dedupe``, only the first location of each class of equal
    ``data_x`` and ``slot_flips``, and ``persist_x`` if ``with_persist``.

    Sound for verification and table construction: any fault multiset
    over the full list XOR-reduces to a strictly smaller distinct set
    with the same propagation result, so it can only face a looser
    budget than a set already enumerated.
    """
    effects = location_effects(g, locations, "X")
    ids = [loc.id for loc in locations]
    if not dedupe:
        return effects, ids
    first: dict[tuple, tuple[Effect, int]] = {}
    for eff, rid in zip(effects, ids):
        sig = (eff.data_x, eff.slot_flips, eff.persist_x if with_persist else 0)
        first.setdefault(sig, (eff, rid))
    return [e for e, _ in first.values()], [r for _, r in first.values()]


def _combos(
    effects: Sequence[Effect], max_weight: int, first_range: range,
    min_weight: int = 1,
) -> Iterator[tuple[tuple[int, ...], int, int, int]]:
    """Every combination of min_weight..max_weight effect indices whose
    first index lies in ``first_range``, as (combo, data, key, persist)
    XORs.

    Weight-major, then by first index, then lexicographic.  Within a
    weight, each prefix's XOR is formed once and shared by every
    combination that extends it.
    """
    n = len(effects)
    rows = [(e.data_x, e.slot_flips, e.persist_x) for e in effects]

    def extend(combo, data, key, persist, indices, left):
        for i in indices:
            d, k, p = rows[i]
            if left == 1:
                yield combo + (i,), data ^ d, key ^ k, persist ^ p
            else:
                yield from extend(combo + (i,), data ^ d, key ^ k, persist ^ p,
                                  range(i + 1, n), left - 1)

    for w in range(min_weight, max_weight + 1):
        yield from extend((), 0, 0, 0, first_range, w)


def oracle_residuals(
    g: GadgetCircuit,
    max_weight: int,
    locations: Sequence[FaultLocation] | None = None,
    dedupe: bool = False,
) -> Iterator[tuple[int, int, int]]:
    """Every reachable (syndrome key, data residual, weight) triple.

    X faults only; weights ascend and combinations run lexicographically
    over location ids, so the stream is deterministic.
    """
    if locations is None:
        locations = enumerate_fault_locations(g)
    effects, _ = _effect_classes(g, locations, dedupe, False)
    yield (0, 0, 0)
    for combo, data, key, _ in _combos(effects, max_weight, range(len(effects))):
        yield (key, data, len(combo))


@dataclass(frozen=True)
class Counterexample:
    fault_ids: tuple[int, ...]
    round2_flips: tuple[int, ...]
    n_faults: int
    syndrome_key: int
    residual: int
    correction: int
    coset_weight: int

    def describe(self) -> str:
        flips = f" round2_flips={self.round2_flips}" if self.round2_flips else ""
        return (
            f"faults={self.fault_ids}{flips} n={self.n_faults} "
            f"syndrome={self.syndrome_key:#x} residual={self.residual:#x} "
            f"correction={self.correction:#x} coset_weight={self.coset_weight}"
        )


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    faults_checked: int
    counterexample: Counterexample | None
    n_locations: int

    def __post_init__(self) -> None:
        assert self.passed == (self.counterexample is None)


def _persist_outcome(persist: int, stab: int, m: int) -> int:
    return ((persist >> stab) ^ (persist >> ((stab + 1) % m))) & 1


# re-measurement budget of an adaptive decoder per gadget run
MAX_REREADS = 4


def reread_table(decoder, syn: CatSyndrome) -> list[tuple[tuple[int, ...], int]]:
    """An adaptive decoder compiled for one base-round syndrome.

    Row v holds the stabilizers the decoder re-reads, in request order,
    and its correction when the i-th re-read returns bit i of v.  The
    request at step i depends only on the bits before it, so a run is
    followed by reading step i from the row of the outcomes so far.
    """
    m = syn.cat_count
    rows = []
    for v in range(1 << MAX_REREADS):
        reads: list[int] = []

        def measure(indices):
            out = {}
            for i in indices:
                if len(reads) == MAX_REREADS:
                    raise ValueError(
                        f"decoder asked for more than {MAX_REREADS} re-reads")
                out[i] = (v >> len(reads)) & 1
                reads.append(i % m)
            return out

        corr = decoder.decode(syn, measure)
        rows.append((tuple(reads), corr))
    return rows


def _follow(rows: Sequence[tuple], bits: int) -> int:
    """Row index a decoder's run ends in when re-reading stabilizer s
    returns bit s of ``bits``."""
    v = 0
    for i in range(MAX_REREADS):
        reads = rows[v][0]
        if i == len(reads):
            break
        v |= ((bits >> reads[i]) & 1) << i
    return v


def _check_combos(
    g: GadgetCircuit,
    decoder,
    t: int,
    effects: Sequence[Effect],
    rep_ids: Sequence[int],
    decoded: dict,
    weight: int,
    first_range: range,
) -> tuple[int, Counterexample | None]:
    """Verify all combos of ``weight`` locations whose first index lies
    in ``first_range``.  ``decoded`` caches the decoder's answer per
    syndrome key (a correction, or an adaptive decoder's table); a serial
    walk shares it across weights."""
    m = g.cat_count
    gamma = g.gamma
    checked = 0
    walk = _combos(effects, weight, first_range, min_weight=weight)

    if not getattr(decoder, "needs_round2", False):
        # static decoders read only the syndrome key
        for combo, data, key, _ in walk:
            checked += 1
            if key not in decoded:
                syn = CatSyndrome.from_key(m, key, g.base_rounds)
                decoded[key] = decoder.decode(syn)
            corr = decoded[key]
            cw = residual_weight_mod_generator(data ^ corr, gamma)
            if cw > weight:
                return checked, Counterexample(
                    tuple(rep_ids[i] for i in combo), (), weight,
                    key, data, corr, cw,
                )
        return checked, None

    # Re-measurement faults cost one each and come in two flavors: a
    # transient flip of a single re-measured slot, and an X landing on a
    # cat qubit before the re-reads, which flips every re-measured slot
    # touching that cat.  Together these cover all timings of
    # adaptive-round faults, including base-round control faults whose
    # only consequence is to persist into the re-measurements.  Each
    # event is the mask of stabilizers it flips.
    events = [("slot", s, 1 << s) for s in range(m)]
    events += [("cat", c, (1 << c) | (1 << ((c - 1) % m))) for c in range(m)]
    # per syndrome key: the decoder's table, each row with its read mask
    for combo, data, key, persist in walk:
        rows = decoded.get(key)
        if rows is None:
            syn = CatSyndrome.from_key(m, key, g.base_rounds)
            rows = decoded[key] = [
                (reads, sum(1 << s for s in set(reads)), corr)
                for reads, corr in reread_table(decoder, syn)
            ]
        base = 0
        for s in range(m):
            base |= _persist_outcome(persist, s, m) << s
        for fsize in range(t - weight + 1):
            for chosen in combinations(events, fsize):
                flips = 0
                for _, _, mask in chosen:
                    flips ^= mask
                _, read, corr = rows[_follow(rows, base ^ flips)]
                if not all(mask & read for _, _, mask in chosen):
                    # identical trace to a smaller event set
                    continue
                checked += 1
                budget = weight + fsize
                cw = residual_weight_mod_generator(data ^ corr, gamma)
                if cw > budget:
                    return checked, Counterexample(
                        tuple(rep_ids[i] for i in combo),
                        tuple(i for kind, i, _ in chosen if kind == "slot")
                        + tuple(("cat", i) for kind, i, _ in chosen if kind == "cat"),
                        budget, key, data, corr, cw,
                    )
    return checked, None


def verify_gadget(
    g: GadgetCircuit,
    decoder,
    t: int,
    locations: Sequence[FaultLocation] | None = None,
    dedupe: bool = True,
    jobs: int = 1,
) -> VerificationReport:
    """Exhaustively certify that ``decoder`` keeps the gadget t-FT.

    Every combination of 1..t X faults over the relevant locations is
    propagated and decoded; for adaptive decoders every admissible
    pattern of re-measurement flips is layered on top, with the flip
    count charged to the fault budget.  The first counterexample in
    enumeration order is reported.  With ``dedupe`` the combinations run
    over effect classes, split by the fields the decoder reads:
    ``persist_x`` only for adaptive decoders.

    With ``jobs > 1`` each weight is split into ranges of first index,
    checked in parallel; a failing range stops the walk, and only the
    ranges up to it count, so the report does not depend on ``jobs``.
    """
    if locations is None:
        locations = enumerate_fault_locations(g)
    adaptive = bool(getattr(decoder, "needs_round2", False))
    effects, rep_ids = _effect_classes(g, locations, dedupe, adaptive)
    n = len(effects)
    chunk = max(1, math.ceil(n / max(jobs, 1)))
    ranges = [range(i, min(i + chunk, n)) for i in range(0, n, chunk)]

    decoded: dict = {}
    checked = 0
    cx = None
    with (ProcessPoolExecutor(max_workers=jobs) if len(ranges) > 1
          else nullcontext()) as pool:
        run = map if pool is None else pool.map
        for w in range(1, t + 1):
            check = partial(_check_combos, g, decoder, t, effects, rep_ids,
                            decoded, w)
            for part_checked, cx in run(check, ranges):
                checked += part_checked
                if cx is not None:
                    break
            if cx is not None:
                break
    return VerificationReport(
        passed=cx is None,
        faults_checked=checked,
        counterexample=cx,
        n_locations=len(locations),
    )


def eval_upper_bound(gamma: int, t: int, p_ft: float) -> float:
    """Probability that more than t faults hit the 4*gamma relevant sites.

    Evaluated as the upper binomial tail directly, which avoids the
    catastrophic cancellation of 1 - CDF at small rates; a depolarizing
    fault is counted with probability 2p/3 since one Pauli in three
    neither reaches the data nor flips a ring outcome.
    """
    if not 0.0 <= p_ft <= 1.0:
        raise ValueError("p_ft must be a probability")
    n_fl = 4 * gamma
    q = 2.0 * p_ft / 3.0
    if q == 0.0:
        return 0.0
    terms = [
        math.comb(n_fl, s) * q**s * (1.0 - q) ** (n_fl - s)
        for s in range(t + 1, n_fl + 1)
    ]
    return min(1.0, math.fsum(terms))
