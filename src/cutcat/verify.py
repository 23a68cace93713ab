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
from dataclasses import dataclass
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
) -> Iterator[tuple[tuple[int, ...], int, int, int]]:
    """Every combination of 1..max_weight effect indices whose first
    index lies in ``first_range``, as (combo, data, key, persist) XORs.

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

    for w in range(1, max_weight + 1):
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


def _check_combos(
    g: GadgetCircuit,
    decoder,
    t: int,
    effects: Sequence[Effect],
    rep_ids: Sequence[int],
    first_range: range,
) -> tuple[int, Counterexample | None]:
    """Verify all combos whose first location index lies in ``first_range``."""
    m = g.cat_count
    gamma = g.gamma
    checked = 0
    walk = _combos(effects, t, first_range)

    if not getattr(decoder, "needs_round2", False):
        # static decoders read only the syndrome key
        corrections: dict[int, int] = {}
        for combo, data, key, _ in walk:
            checked += 1
            if key not in corrections:
                syn = CatSyndrome.from_key(m, key, g.base_rounds)
                corrections[key] = decoder.decode(syn)
            corr = corrections[key]
            cw = residual_weight_mod_generator(data ^ corr, gamma)
            if cw > len(combo):
                return checked, Counterexample(
                    tuple(rep_ids[i] for i in combo), (), len(combo),
                    key, data, corr, cw,
                )
        return checked, None

    # Re-measurement faults cost one each and come in two flavors: a
    # transient flip of a single re-measured slot, and an X landing on a
    # cat qubit before the re-reads, which flips every re-measured slot
    # touching that cat.  Together these cover all timings of
    # adaptive-round faults, including base-round control faults whose
    # only consequence is to persist into the re-measurements.
    events = [("slot", s) for s in range(m)] + [("cat", c) for c in range(m)]
    for combo, data, key, persist in walk:
        w = len(combo)
        syn = CatSyndrome.from_key(m, key, g.base_rounds)
        for fsize in range(t - w + 1):
            for chosen in combinations(events, fsize):
                flip_slots = {i for kind, i in chosen if kind == "slot"}
                flip_cats = {i for kind, i in chosen if kind == "cat"}
                seen: list[int] = []

                def measure(indices):
                    out = {}
                    for i in indices:
                        i %= m
                        bit = _persist_outcome(persist, i, m)
                        if i in flip_slots:
                            bit ^= 1
                        if i in flip_cats:
                            bit ^= 1
                        if (i + 1) % m in flip_cats:
                            bit ^= 1
                        out[i] = bit
                        seen.append(i)
                    return out

                corr = decoder.decode(syn, measure)
                read = set(seen)
                relevant = all(s in read for s in flip_slots) and all(
                    read & {(c - 1) % m, c} for c in flip_cats
                )
                if not relevant:
                    # identical trace to a smaller event set
                    continue
                checked += 1
                budget = w + fsize
                cw = residual_weight_mod_generator(data ^ corr, gamma)
                if cw > budget:
                    return checked, Counterexample(
                        tuple(rep_ids[i] for i in combo),
                        tuple(sorted(flip_slots))
                        + tuple(("cat", c) for c in sorted(flip_cats)),
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
    """
    if locations is None:
        locations = enumerate_fault_locations(g)
    adaptive = bool(getattr(decoder, "needs_round2", False))
    effects, rep_ids = _effect_classes(g, locations, dedupe, adaptive)
    n = len(effects)

    if jobs <= 1 or n == 0:
        results = [_check_combos(g, decoder, t, effects, rep_ids, range(n))]
    else:
        chunk = math.ceil(n / jobs)
        ranges = [range(i, min(i + chunk, n)) for i in range(0, n, chunk)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_check_combos, g, decoder, t, effects, rep_ids, r)
                for r in ranges
            ]
            results = [f.result() for f in futures]
    # ranges are ordered, first hit wins
    cx = next((part for _, part in results if part is not None), None)
    return VerificationReport(
        passed=cx is None,
        faults_checked=sum(checked for checked, _ in results),
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
