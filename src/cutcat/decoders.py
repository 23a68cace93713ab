"""Correction selection for ring-checked extraction gadgets.

Three decoder families: the rule decoder for distances 3/5 (one ring
round, arc pairing), the adaptive distance-7 decoder that buys extra
certainty with at most four re-measurements, and lookup tables, both for
the distance-9 gadget ring and for whole codes in block simulation.

Corrections are chosen in cat-index space (a selected cat index means
"flip the last data qubit this cat touches") and mapped to data-qubit
masks through the gadget's pair map.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .circuit import GadgetCircuit
from .gadgets import GadgetSpec, build_cut_cat
from .pauli import (
    CssCode,
    _format_binary_rows,
    _parse_binary_row,
    mask_of,
    parity,
    residual_weight_mod_generator,
)
from .sim import CatSyndrome, FaultTable
from . import verify as _verify


def arc_sets(triggers: Sequence[int], ring_size: int) -> tuple[set[int], set[int]]:
    """Split the ring into the two arc-pairing hypotheses.

    Consecutive trigger pairs (a0,a1), (a2,a3), ... bound arcs of cat
    indices strictly after the first trigger up to and including the
    second; the complement holds the alternate pairing.  A triggered
    adjacent pair {r-1, r} selects exactly the shared cat qubit r.
    """
    if len(triggers) % 2:
        raise ValueError("arc pairing undefined for an odd trigger count")
    selected: set[int] = set()
    for i in range(0, len(triggers), 2):
        j = triggers[i]
        while j != triggers[i + 1]:
            j = (j + 1) % ring_size
            selected.add(j)
    return selected, set(range(ring_size)) - selected


def decode_d3d5(round0_bits: int, t: int, ring_size: int) -> frozenset[int]:
    """Single-round rule decoder for distance-3/5 gadgets.

    Odd trigger counts are left uncorrected: they always stem from a
    measurement fault, and the residual is already within budget.  For
    even counts the smaller arc side is corrected when it fits the fault
    budget, or unconditionally once the trigger count exceeds 2t.
    """
    triggers = [i for i in range(ring_size) if (round0_bits >> i) & 1]
    na = len(triggers)
    if na == 0 or na % 2:
        return frozenset()
    selected, complement = arc_sets(triggers, ring_size)
    chosen = selected if len(selected) < len(complement) else complement
    if (len(chosen) <= t and na <= 2 * t) or na > 2 * t:
        return frozenset(chosen)
    return frozenset()


# Re-measurement comparison sets for the distance-7 decoder, as offset
# tuples from an anchor stabilizer; keyed by (trigger count, variant).
_RECHECK_OFFSETS: dict[tuple[int, int], tuple[int, ...]] = {
    (1, 0): (1, 2),
    (1, 1): (-3, -2),
    (2, 0): (2, 3, 4),
    (2, 1): (-1, 0, 1),
    (2, 2): (2, 3),
    (2, 3): (-2, -1),
    (2, 4): (-1, 1),
    (3, 0): (3, 4),
    (3, 1): (2, 3),
    (3, 2): (-1, 0),
    (4, 0): (2, 3),
    (4, 1): (-1, 0),
    (4, 2): (-1, 0),
    (4, 3): (3, 4),
    (5, 0): (3, 4),
}


def j_list(n_triggered: int, variant: int, anchor: int, ring_size: int) -> tuple[int, ...]:
    """Stabilizer indices compared across rounds, reduced mod the ring size."""
    try:
        offsets = _RECHECK_OFFSETS[(n_triggered, variant)]
    except KeyError:
        raise ValueError(f"no recheck set for ({n_triggered}, {variant})") from None
    return tuple((anchor + o) % ring_size for o in offsets)


MeasureFn = Callable[[tuple[int, ...]], Mapping[int, int]]


class _Round2:
    """Lazily fetched re-measurement outcomes, compared against round one."""

    def __init__(self, round0_bits: int, ring_size: int, measure: MeasureFn):
        self.round0 = round0_bits
        self.m = ring_size
        self._measure = measure
        self.values: dict[int, int] = {}
        self.requested: list[int] = []

    def _fetch(self, indices: Iterable[int]) -> None:
        need = []
        for i in indices:
            i %= self.m
            if i not in self.values and i not in need:
                need.append(i)
        if need:
            got = self._measure(tuple(need))
            for i in need:
                self.values[i] = int(got[i]) & 1
                self.requested.append(i)

    def changed(self, indices: Iterable[int]) -> bool:
        """True if any listed stabilizer reads differently than round one."""
        idx = [i % self.m for i in indices]
        self._fetch(idx)
        return any(self.values[i] != ((self.round0 >> i) & 1) for i in idx)


def decode_d7(
    round0_bits: int, ring_size: int, measure: MeasureFn,
) -> tuple[frozenset[int], tuple[int, ...]]:
    """Adaptive distance-7 decoder.

    Dispatches on the trigger count, re-measuring at most four ring
    stabilizers through ``measure`` to separate persistent cat errors
    from transient measurement faults.  Returns the selected cat indices
    and the stabilizers actually re-measured.
    """
    m = ring_size
    triggers = [i for i in range(m) if (round0_bits >> i) & 1]
    na = len(triggers)
    r2 = _Round2(round0_bits, m, measure)
    corr: set[int] = set()

    def on(j: int) -> int:
        return (round0_bits >> (j % m)) & 1

    def find_rotation(offsets: tuple[int, ...]):
        target = set(triggers)
        for j in triggers:
            if {(j + o) % m for o in offsets} == target:
                return j
        return None

    def arc_fallback(limit: int = 3) -> None:
        selected, complement = arc_sets(triggers, m)
        if len(selected) <= limit:
            corr.update(selected)
        elif len(complement) <= limit:
            corr.update(complement)

    if na == 1:
        a0 = triggers[0]
        if r2.changed(j_list(1, 0, a0, m)):
            corr.add((a0 + 1) % m)
        elif r2.changed(j_list(1, 1, a0, m)):
            corr.add(a0)

    elif na == 2:
        a, b = triggers
        gap_ab = (b - a) % m
        gap_ba = (a - b) % m
        handled = False
        if gap_ab == 3 or gap_ba == 3:
            j = a if gap_ab == 3 else b
            if r2.changed(j_list(2, 0, j, m)):
                handled = True
        elif gap_ab == 2 or gap_ba == 2:
            j = a if gap_ab == 2 else b
            if r2.changed((j,)):
                if r2.changed(j_list(2, 2, j, m)):
                    handled = True
            elif r2.changed(((j + 2) % m,)):
                if r2.changed(j_list(2, 3, j, m)):
                    handled = True
            elif r2.changed(j_list(2, 4, j, m)):
                corr.add((j + 1) % m)
                handled = True
        if not handled:
            arc_fallback()

    elif na == 3:
        handled = True
        j = find_rotation((0, 2, 4))
        if j is not None:
            # unchanged outcomes at {j+3, j+4} mean the persistent pair
            # sits between stabilizers j+2 and j+4
            if not r2.changed(j_list(3, 0, j, m)):
                corr.add((j + 4) % m)
            else:
                corr.add((j + 1) % m)
        elif (j := find_rotation((0, 1, 2))) is not None:
            if r2.changed(((j + 1) % m,)):
                corr.add((j + 1) % m)
            elif r2.changed(((j - 1) % m,)):
                corr.add((j + 2) % m)
            elif not r2.changed((j,)):
                if r2.changed(((j - 2) % m,)):
                    corr.add((j + 2) % m)
                else:
                    corr.add((j + 1) % m)
            else:
                corr.add((j + 2) % m)
        elif (j := find_rotation((0, 2, 3))) is not None:
            if r2.changed(j_list(3, 1, j, m)):
                corr.add((j + 1) % m)
            else:
                handled = False
        elif (j := find_rotation((0, 1, 3))) is not None:
            if r2.changed(j_list(3, 2, j, m)):
                corr.add((j + 2) % m)
            else:
                handled = False
        else:
            handled = False
        if not handled:
            for g in range(m):
                if on(g) and on(g + 1):
                    corr.add((g + 1) % m)
                    handled = True
        if not handled:
            for g in range(m):
                if on(g) and on(g + 2):
                    corr.add((g + 1) % m)

    elif na == 4:
        handled = False
        j = find_rotation((0, 1, 2, 3))
        if j is not None:
            if r2.changed(j_list(4, 0, j, m)) and r2.changed(j_list(4, 1, j, m)):
                handled = True
        elif (j := find_rotation((0, 1, 2, 4))) is not None:
            if r2.changed(j_list(4, 2, j, m)):
                handled = True
        elif (j := find_rotation((0, 2, 3, 4))) is not None:
            if r2.changed(j_list(4, 3, j, m)):
                handled = True
        if not handled:
            arc_fallback()

    elif na == 5:
        j = find_rotation((0, 1, 2, 3, 4))
        if j is not None:
            if not r2.changed(j_list(5, 0, j, m)):
                corr.add((j + 4) % m)
            else:
                corr.add((j + 3) % m)
        else:
            for g in range(m):
                if on(g) and on(g + 1):
                    if not (on(g - 1) and on(g + 2)) or (on(g + 2) and on(g + 3)):
                        corr.add((g + 1) % m)

    elif na >= 6 and na % 2 == 0:
        selected, complement = arc_sets(triggers, m)
        chosen = selected if len(selected) < len(complement) else complement
        if (len(chosen) <= 3 and na == 6) or na > 6:
            corr.update(chosen)

    # odd trigger counts above five are unreachable within the fault
    # budget; leave them uncorrected

    if len(r2.requested) > 4:
        raise AssertionError(
            f"re-measured {len(r2.requested)} stabilizers, budget is 4"
        )
    return frozenset(corr), tuple(r2.requested)


def cats_to_mask(g: GadgetCircuit, cats: Iterable[int]) -> int:
    """Map selected cat indices to a data-qubit correction mask."""
    out = 0
    for c in cats:
        out ^= 1 << g.correction_qubit(c)
    return out


class StaticDecoder:
    """A decoder that reads the base-round syndrome only.  The verifier
    decodes the distinct syndrome keys it meets through one
    ``decode_keys`` call; subclasses define ``decode`` and inherit a
    ``decode_keys`` that calls it once per key."""

    needs_round2 = False

    def decode_keys(self, keys: np.ndarray, cat_count: int, rounds: int) -> np.ndarray:
        """Corrections (uint64) for an array of syndrome keys of
        ``rounds`` rounds of ``cat_count`` outcomes."""
        return np.array([self.decode(CatSyndrome.from_key(cat_count, key, rounds))
                         for key in keys.tolist()], np.uint64)


class RuleDecoderD3D5(StaticDecoder):
    """Arc-pairing decoder bound to a distance-3 or -5 gadget."""

    def __init__(self, g: GadgetCircuit, t: int):
        if t not in (1, 2):
            raise ValueError("rule decoder covers t in {1, 2}")
        self.g = g
        self.t = t

    def decode(self, syn: CatSyndrome) -> int:
        cats = decode_d3d5(syn.rounds[0], self.t, self.g.cat_count)
        return cats_to_mask(self.g, cats)


class RuleDecoderD7:
    """Adaptive decoder bound to a distance-7 gadget."""

    needs_round2 = True

    def __init__(self, g: GadgetCircuit):
        self.g = g

    def decode(self, syn: CatSyndrome, measure: MeasureFn) -> int:
        cats, _ = decode_d7(syn.rounds[0], self.g.cat_count, measure)
        return cats_to_mask(self.g, cats)


class IdentityDecoder(StaticDecoder):
    """Applies no correction; useful as a verification counterexample."""

    def decode(self, syn: CatSyndrome) -> int:
        return 0


class LutBuildError(RuntimeError):
    """No correction vector satisfies the accumulated constraints: the
    requested rounds/gamma combination is not t-FT decodable."""


@dataclass(frozen=True)
class CutCatLUT:
    """Ring-syndrome lookup table for a fixed gadget geometry.

    Keys concatenate all full-round outcome bits (round 0 lowest);
    values are data-qubit correction masks.  Unreachable syndromes are
    decoded as zero correction.
    """

    gamma: int
    t: int
    rounds: int
    cat_count: int
    table: dict[int, int]

    def lookup(self, key: int) -> int:
        return self.table.get(key, 0)

    def to_json(self) -> str:
        """The table as ``json.dumps(..., indent=1)`` writes it, with the
        entries sorted by key, written line by line."""
        head = {"format": "cutcat-lut-v1", "gamma": self.gamma, "t": self.t,
                "rounds": self.rounds, "cat_count": self.cat_count}
        items = sorted(self.table.items())
        rows = zip(_format_binary_rows([k for k, _ in items], self.rounds * self.cat_count),
                   _format_binary_rows([c for _, c in items], self.gamma))
        entries = ",\n".join(f'  {{\n   "syndrome": "{s}",\n   "correction": "{c}"\n  }}'
                             for s, c in rows)
        return "{\n" + "".join(f' "{k}": {json.dumps(v)},\n' for k, v in head.items()) + (
            f' "entries": [\n{entries}\n ]\n}}' if entries else ' "entries": []\n}')

    @classmethod
    def from_json(cls, text: str) -> "CutCatLUT":
        doc = json.loads(text)
        if doc.get("format") != "cutcat-lut-v1":
            raise ValueError("unknown LUT format")
        n_bits = doc["rounds"] * doc["cat_count"]
        table = {}
        for i, e in enumerate(doc["entries"]):
            key = _parse_binary_row(e["syndrome"], n_bits, f"LUT entry {i} syndrome")
            table[key] = _parse_binary_row(e["correction"], doc["gamma"],
                                           f"LUT entry {i} correction")
        return cls(doc["gamma"], doc["t"], doc["rounds"], doc["cat_count"], table)


class LutDecoder(StaticDecoder):
    """Table-backed decoder over the concatenated full-round syndrome.
    ``decode_keys`` reads a ``verify.KeyCache`` prefilled with the table,
    where a key the table lacks joins with the zero correction."""

    def __init__(self, lut: CutCatLUT):
        self.lut = lut
        n = len(lut.table)
        self._cache = _verify.KeyCache(
            lut.rounds * lut.cat_count, np.fromiter(lut.table, np.uint64, n),
            (np.fromiter(lut.table.values(), np.uint64, n),))

    def _check_shape(self, cat_count: int, rounds: int) -> None:
        if cat_count != self.lut.cat_count or rounds != self.lut.rounds:
            raise ValueError("syndrome shape does not match the table")

    def decode(self, syn: CatSyndrome) -> int:
        self._check_shape(syn.cat_count, len(syn.rounds))
        return self.lut.lookup(syn.key())

    def decode_keys(self, keys: np.ndarray, cat_count: int, rounds: int) -> np.ndarray:
        self._check_shape(cat_count, rounds)
        return self._cache.get(keys, lambda new: (np.zeros(len(new), np.uint64),))[0]


def _solve_constraints(
    keys: np.ndarray, group: np.ndarray, residual: np.ndarray, weight: np.ndarray,
    gamma: int, t: int,
) -> dict[int, int]:
    """Correction per syndrome key from (group, residual, weight) rows of
    ascending weight, so a repeated residual adds no constraint and no
    candidate; a row's key is ``keys[group]``, and groups lie below 2^32.
    Per key, zero, the key's residuals in row order, then offsets are
    tried, until one keeps every residual within its weight."""
    if not len(group):
        return {}
    # one sort of (group << 32 | row) words puts each key's rows together,
    # in row order
    word = group.astype(np.uint64)
    word <<= np.uint64(32)
    word |= np.arange(len(word), dtype=np.uint64)
    word.sort()
    order = (word & np.uint64(0xFFFFFFFF)).astype(np.intp)
    residual, weight = residual[order], weight[order]
    word >>= np.uint64(32)
    starts = np.flatnonzero(np.r_[True, word[1:] != word[:-1]])
    key = keys[word[starts]]
    sizes = np.diff(np.r_[starts, len(word)])
    corr = np.zeros(len(starts), np.uint64)
    # the zero vector, against every row at once, then candidate j of every
    # open key against all its rows
    todo = ~np.logical_and.reduceat(_verify.coset_weights(residual, gamma) <= weight, starts)
    j = 0
    while len(active := np.flatnonzero(todo & (sizes > j))):
        gs, gn = starts[active], sizes[active]
        rows = _verify._ranges(gs, gn)
        cand = residual[gs + j]
        cw = _verify.coset_weights(np.repeat(cand, gn) ^ residual[rows], gamma)
        ok = np.logical_and.reduceat(cw <= weight[rows], np.cumsum(gn) - gn)
        corr[active[ok]] = cand[ok]
        todo[active[ok]], j = False, j + 1
    # The rest, in first-row order: plain-weight offsets of up to the first
    # weight from the first residual.  Complements are equivalent under the
    # coset metric, so these reach every class within that distance.
    for i in sorted(np.flatnonzero(todo).tolist(), key=lambda i: order[starts[i]]):
        rows = slice(starts[i], starts[i] + sizes[i])
        res, w = residual[rows].tolist(), weight[rows].tolist()
        offsets = (res[0] ^ mask_of(q) for v in range(w[0] + 1)
                   for q in combinations(range(gamma), v))
        found = next((c for c in offsets if all(
            residual_weight_mod_generator(e ^ c, gamma) <= v for e, v in zip(res, w))), None)
        if found is None:
            raise LutBuildError(
                f"syndrome {int(key[i]):#x} admits no correction within weight {t}")
        corr[i] = found
    return dict(zip(key.tolist(), corr.tolist()))


def build_cut_cat_lut(spec: GadgetSpec, gadget: GadgetCircuit | None = None) -> CutCatLUT:
    """Exhaustive-search construction of the ring-syndrome table.

    Inserts every combination of up to t of the verifier's effect
    classes (the distinct rows of the fault table MC samples),
    accumulates the (residual, weight) constraints per syndrome, and
    searches a correction consistent with all of them under the coset
    metric.  Syndromes are kept in a ``verify.KeyCache``: the keys the
    zero correction fails are flagged there, and their rows are picked
    and grouped by their cache row.
    Deterministic: enumeration is weight-ascending lexicographic and the
    zero vector, stored residuals, then bounded offsets are tried in
    that order.
    """
    if spec.is_adaptive:
        raise ValueError("LUT construction requires a non-adaptive gadget")
    g = gadget if gadget is not None else build_cut_cat(spec)
    t = spec.t
    effects, _ = _verify._effect_classes(FaultTable.for_decoder(g, False))
    # Keys whose residuals all lie within their weights take the zero
    # correction: the first walk flags the others "hard" in a cache of
    # every key, and a second walk collects the hard keys' rows, grouped
    # by cache row.
    cache = _verify.KeyCache(g.cat_count * g.base_rounds)
    for s in _verify.combo_walk(effects, t, min_weight=0):
        ids = cache.index(s.key, lambda new: (np.zeros(len(new), bool),))
        cache.values[0][ids[_verify.coset_weights(s.data, spec.gamma) > s.weight]] = True
    hard, rows = cache.values[0], []
    for s in _verify.combo_walk(effects, t, min_weight=0):
        ids = cache.find(s.key)
        m = hard[ids]
        rows.append((ids[m], s.data[m], np.full(m.sum(), s.weight, np.uint8)))
    # Each step frees what it no longer needs before the next allocates:
    # the slices' parts before the solve sorts the rows, and the rows
    # before the dict of every key, the largest object of the build.
    group, residual, weight = map(np.concatenate, zip(*rows))
    del rows
    solved = _solve_constraints(cache.keys, group, residual, weight, spec.gamma, t)
    del group, residual, weight
    table = dict.fromkeys(cache.keys.tolist(), 0)
    table.update(solved)
    assert table.get(0, 0) == 0, "zero syndrome must map to zero correction"
    return CutCatLUT(
        gamma=spec.gamma,
        t=t,
        rounds=spec.rounds,
        cat_count=spec.cat_count,
        table=table,
    )


@dataclass(frozen=True)
class CodeLUT:
    """Minimum-weight-representative tables for whole-code decoding.

    ``x_table`` corrects X errors and is keyed by the Z-generator
    syndrome; ``z_table`` mirrors it.  First-assigned (lowest-weight,
    lexicographically first) representative wins per syndrome.
    """

    n: int
    x_table: dict[int, int]
    z_table: dict[int, int]


def _rows_syndrome(rows: Sequence[int], err: int) -> int:
    out = 0
    for i, row in enumerate(rows):
        out |= parity(row & err) << i
    return out


def build_code_lut(code: CssCode, max_patterns: int = 5_000_000) -> CodeLUT:
    """Enumerate error patterns of weight up to ``code.t`` in ascending
    weight, assigning each fresh syndrome its first (minimum-weight)
    representative."""
    from math import comb

    total = sum(comb(code.n, w) for w in range(code.t + 1))
    if total > max_patterns:
        raise ValueError(
            f"enumeration of {total} patterns exceeds cap {max_patterns}"
        )

    def fill(rows: Sequence[int]) -> dict[int, int]:
        table: dict[int, int] = {0: 0}
        for w in range(1, code.t + 1):
            for qubits in combinations(range(code.n), w):
                err = mask_of(qubits)
                table.setdefault(_rows_syndrome(rows, err), err)
        return table

    return CodeLUT(
        n=code.n,
        x_table=fill(code.hz),
        z_table=fill(code.hx),
    )
