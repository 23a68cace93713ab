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

import numpy as np

from .circuit import FaultLocation, GadgetCircuit, enumerate_fault_locations
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
    for name, bits in (("gamma", g.gamma), ("ring slots", g.base_rounds * g.cat_count)):
        if bits > 64:  # the width of combo_walk's rows
            raise ValueError(f"{name}={bits} exceeds the 64-bit limit of packed masks")
    effects = location_effects(g, locations, "X")
    ids = [loc.id for loc in locations]
    if not dedupe:
        return effects, ids
    first: dict[tuple, tuple[Effect, int]] = {}
    for eff, rid in zip(effects, ids):
        sig = (eff.data_x, eff.slot_flips, eff.persist_x if with_persist else 0)
        first.setdefault(sig, (eff, rid))
    return [e for e, _ in first.values()], [r for _, r in first.values()]


def coset_weights(err_on_support: np.ndarray, gamma: int) -> np.ndarray:
    """``residual_weight_mod_generator`` of each entry of a uint64 array."""
    w = np.bitwise_count(err_on_support & np.uint64((1 << gamma) - 1))
    return np.minimum(w, gamma - w)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """range(s, s + c) for each pair, concatenated."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


@dataclass(frozen=True)
class ComboSlice:
    """Rows of one weight of ``combo_walk``.  ``chain`` holds (parent,
    last) int32 arrays per weight 1..weight: row r of weight v extends row
    parent[r] of weight v-1 by effect index last[r].  ``data``, ``key``
    and ``persist`` (None unless asked for) XOR the rows' effects."""

    weight: int
    chain: tuple[tuple[np.ndarray, np.ndarray], ...]
    data: np.ndarray
    key: np.ndarray
    persist: np.ndarray | None

    def combo(self, r: int) -> tuple[int, ...]:
        out = []
        for parent, last in reversed(self.chain):
            out.append(int(last[r]))
            r = int(parent[r])
        return tuple(out[::-1])


def combo_walk(
    effects: Sequence[Effect], max_weight: int, first_range: range | None = None,
    min_weight: int = 1, with_persist: bool = False,
) -> Iterator[ComboSlice]:
    """Every combination of min_weight..max_weight effect indices whose
    first index lies in ``first_range`` (default: all), as array slices:
    weight-major, then lexicographic, weight 0 being the empty one.  Each
    weight is one gather and one XOR of the weight below against the
    effect rows.  Lower weights come whole; ``max_weight`` comes one first
    index at a time, in slices of at most C(n-1, max_weight-1) rows."""
    n = len(effects)
    first_range = range(n) if first_range is None else first_range
    fields = ("data_x", "slot_flips", "persist_x")[:3 if with_persist else 2]
    rows = [np.array([getattr(e, f) for e in effects], dtype=np.uint64) for f in fields]
    zero = np.zeros(1, np.uint64)
    level = ComboSlice(0, (), zero, zero, zero if with_persist else None)
    if min_weight == 0:
        yield level
    for w in range(1, max_weight + 1):
        # each row of weight w-1 (at w=1 the empty one, up to the end of
        # first_range) extends by every index after its last
        last = level.chain[-1][1] if w > 1 else np.array([first_range.start - 1])
        counts = n - 1 - last if w > 1 else np.array([len(first_range)])
        bounds = [0, len(last)] if w < max_weight or w == 1 else np.cumsum(
            [0] + [math.comb(n - 1 - i, w - 2) for i in first_range])
        chain, prev = level.chain, (level.data, level.key, level.persist)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            parent = np.repeat(np.arange(lo, hi, dtype=np.int32), counts[lo:hi])
            idx = _ranges(last[lo:hi] + 1, counts[lo:hi]).astype(np.int32)
            xors = [x[parent] ^ r[idx] for x, r in zip(prev, rows)] + [None]
            level = ComboSlice(w, chain + ((parent, idx),), xors[0], xors[1], xors[2])
            if w >= min_weight:
                yield level


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


# re-measurement budget of an adaptive decoder per gadget run
MAX_REREADS = 4


def reread_table(decoder, syn: CatSyndrome) -> list[tuple[tuple[int, ...], int]]:
    """An adaptive decoder compiled for one base-round syndrome.

    Row v holds the stabilizers the decoder re-reads, in request order,
    and its correction when the i-th re-read returns bit i of v.  The
    request at step i depends only on the bits before it, so a run is
    followed by reading step i from the row of the outcomes so far, and
    one run fills every row that agrees with it on the bits it read.
    """
    m = syn.cat_count
    rows: list = [None] * (1 << MAX_REREADS)
    for v in range(len(rows)):
        if rows[v] is not None:
            continue
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
        for u in range(v, len(rows), 1 << len(reads)):
            rows[u] = (tuple(reads), corr)
    return rows


def compile_rereads(decoder, keys: np.ndarray, cat_count: int,
                    rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """``reread_table`` of each syndrome key as arrays, indexed by (key,
    outcome vector): the stabilizer re-read at each step (int8, -1 past
    the last) and the correction (uint64)."""
    rows = [row for key in keys.tolist()
            for row in reread_table(decoder, CatSyndrome.from_key(cat_count, key, rounds))]
    shape = (len(keys), 1 << MAX_REREADS)
    reads = np.array([s + (-1,) * (MAX_REREADS - len(s)) for s, _ in rows], np.int8)
    corr = np.array([c for _, c in rows], np.uint64)
    return reads.reshape(shape + (MAX_REREADS,)), corr.reshape(shape)


def find_sorted(table: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each of ``keys`` in the sorted array ``table``, and
    whether it is there."""
    pos = np.searchsorted(table, keys)
    found = pos < len(table)
    found[found] = table[pos[found]] == keys[found]
    return pos, found


class KeyCache:
    """Decoder answers per syndrome key, kept as arrays sorted by key."""

    def __init__(self) -> None:
        self.keys = np.zeros(0, np.uint64)
        self.values: tuple[np.ndarray, ...] = ()

    def get(self, keys: np.ndarray, compute) -> tuple[np.ndarray, ...]:
        """The answers for the sorted distinct ``keys``, one row per key.
        ``compute`` maps the keys not seen before to a tuple of arrays;
        it runs also on none, to give the answers' shape to an empty
        cache."""
        pos, found = find_sorted(self.keys, keys)
        if not found.all() or not self.values:
            new = compute(keys[~found])
            at = pos[~found]
            self.values = tuple(np.insert(old, at, v, axis=0)
                                for old, v in zip(self.values, new)) or new
            self.keys = np.insert(self.keys, at, keys[~found])
            pos = np.searchsorted(self.keys, keys)
        return tuple(v[pos] for v in self.values)


def _event_sets(m: int, max_size: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Sets of up to ``max_size`` re-measurement events, in size-major
    then lexicographic order: the stabilizers each set flips, the mask
    of each of its events (0 past the set's size), and the sets.

    Re-measurement faults cost one each and come in two flavors: a
    transient flip of a single re-measured slot (events 0..m-1), and an
    X landing on a cat qubit before the re-reads, which flips every
    re-measured slot touching that cat (events m..2m-1).  Together these
    cover all timings of adaptive-round faults, including base-round
    control faults whose only consequence is to persist into the
    re-measurements.  Each event is the mask of stabilizers it flips.
    """
    events = [1 << s for s in range(m)] + [(1 << c) | (1 << ((c - 1) % m)) for c in range(m)]
    sets = [c for f in range(max_size + 1) for c in combinations(range(2 * m), f)]
    masks = np.zeros((len(sets), max_size), np.uint64)
    for j, chosen in enumerate(sets):
        masks[j, :len(chosen)] = [events[e] for e in chosen]
    return np.bitwise_xor.reduce(masks, axis=1), masks, sets


def _check_combos(
    g: GadgetCircuit,
    decoder,
    t: int,
    effects: Sequence[Effect],
    rep_ids: Sequence[int],
    cache: KeyCache,
    weight: int,
    first_range: range,
) -> tuple[int, Counterexample | None]:
    """Verify all combos of ``weight`` locations whose first index lies
    in ``first_range``.  ``cache`` holds the decoder's answer per
    syndrome key (a correction, or an adaptive decoder's compiled
    table); a serial walk shares it across weights."""
    m, rounds, gamma = g.cat_count, g.base_rounds, g.gamma
    checked = 0
    adaptive = getattr(decoder, "needs_round2", False)
    walk = combo_walk(effects, weight, first_range, weight, with_persist=adaptive)

    if not adaptive:
        # static decoders read only the syndrome key: per slice, one
        # ``decode_keys`` call for the distinct keys not decoded before
        for sl in walk:
            keys, inverse = np.unique(sl.key, return_inverse=True)
            corr = cache.get(keys, lambda new: (decoder.decode_keys(new, m, rounds),))[0][inverse]
            cw = coset_weights(sl.data ^ corr, gamma)
            bad = np.flatnonzero(cw > weight)
            if len(bad):
                r = int(bad[0])
                return checked + r + 1, Counterexample(
                    tuple(rep_ids[i] for i in sl.combo(r)), (), weight,
                    int(sl.key[r]), int(sl.data[r]), int(corr[r]), int(cw[r]))
            checked += len(sl.data)
        return checked, None

    # Each row of a slice meets every set of re-measurement events within
    # the remaining budget: a (row, event set) grid, followed through the
    # decoder's compiled tables one re-read step at a time for all cells.
    flips, masks, sets = _event_sets(m, t - weight)
    sizes = np.array([len(s) for s in sets])
    budget = weight + sizes
    full = np.uint64((1 << m) - 1)
    for sl in walk:
        keys, inverse = np.unique(sl.key, return_inverse=True)
        reads, corrections = cache.get(
            keys, lambda new: compile_rereads(decoder, new, m, rounds))
        # re-read s sees the persisting cat X errors on cats s and s+1
        p = sl.persist & full
        base = p ^ (p >> np.uint64(1)) ^ ((p & np.uint64(1)) << np.uint64(m - 1))
        bits = base[:, None] ^ flips
        k = inverse[:, None]
        v = np.zeros(bits.shape, np.intp)
        seen = np.zeros(bits.shape, np.uint64)  # the stabilizers re-read
        for i in range(MAX_REREADS):
            stab = reads[k, v, i]
            live = stab >= 0
            s = np.maximum(stab, 0).astype(np.uint64)
            v |= (((bits >> s) & np.uint64(1)).astype(np.intp) & live) << i
            seen |= live.astype(np.uint64) << s
        corr = corrections[k, v]
        # an event that touches no re-read stabilizer leaves the trace of
        # a smaller set: only cells whose every event is seen are admitted
        admitted = np.count_nonzero(masks & seen[..., None], axis=-1) == sizes
        cw = coset_weights(sl.data[:, None] ^ corr, gamma)
        bad = admitted & (cw > budget)
        if bad.any():
            # the first failing cell in row-major order
            cell = int(np.argmax(bad))
            r, j = divmod(cell, len(sets))
            slots = tuple(e for e in sets[j] if e < m)
            cats = tuple(("cat", e - m) for e in sets[j] if e >= m)
            return checked + int(np.count_nonzero(admitted.ravel()[:cell])) + 1, Counterexample(
                tuple(rep_ids[i] for i in sl.combo(r)), slots + cats, int(budget[j]),
                int(sl.key[r]), int(sl.data[r]), int(corr[r, j]), int(cw[r, j]))
        checked += int(np.count_nonzero(admitted))
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

    A static decoder (no true ``needs_round2``) must provide
    ``decode_keys(keys, cat_count, rounds)``, the corrections for a
    uint64 array of syndrome keys; ``decoders.StaticDecoder`` derives
    one from ``decode``.

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

    cache = KeyCache()
    checked = 0
    cx = None
    with (ProcessPoolExecutor(max_workers=jobs) if len(ranges) > 1
          else nullcontext()) as pool:
        run = map if pool is None else pool.map
        for w in range(1, t + 1):
            check = partial(_check_combos, g, decoder, t, effects, rep_ids,
                            cache, w)
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
