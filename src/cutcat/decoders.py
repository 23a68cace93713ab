"""Correction selection for ring-checked extraction gadgets.

Three decoder families: the rule decoder for distances 3/5 (one ring
round, arc pairing), the adaptive distance-7 decoder that buys extra
certainty with at most four re-measurements, and lookup tables, both for
the distance-9 gadget ring and for whole codes in block simulation.

Every decoder answers ``tables(keys, cat_count, rounds)`` for a uint64
array of n syndrome keys (``rounds`` rounds of ``cat_count`` outcomes,
round 0 lowest) with int8 ``reads`` (n, 2^s, s) and uint64
``corrections`` (n, 2^s), s being its number of re-reads (0 gives (n, 1,
0) and (n, 1)).  Row v of a key holds the stabilizers re-read in order,
-1 past the last, and the correction, when the i-th re-read returns bit
i of v; the request at step i depends only on the bits before it.

The rule decoders select cats (cat c: "flip the last data qubit cat c
touches") and map them to data-qubit masks through the gadget's pair map.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import partial
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .circuit import MAX_REREADS, GadgetCircuit
from .gadgets import GadgetSpec, build_cut_cat
from .pauli import (
    CssCode,
    MaskMap,
    _format_binary_rows,
    _parse_binary_row,
    mask_of,
    residual_weight_mod_generator,
    syndrome_images,
)
from .sim import FaultTable, _check_width
from . import verify as _verify
from .verify import rotate


def _arcs(key: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The two arc-pairing hypotheses of each key (int64 masks of triggers
    on a ring of m cats), as cat masks.  Consecutive triggers pair up in
    ascending order, (a0, a1), (a2, a3), ..., and each pair bounds an arc
    of the cats strictly after its first trigger up to and including its
    second, so a cat is selected when an odd number of triggers lie below
    it; the complement holds the alternate pairing.  A triggered adjacent
    pair {r-1, r} selects exactly the shared cat r."""
    full = (1 << m) - 1
    below, shift = key.copy(), 1
    while shift < m:
        below ^= below << shift
        shift *= 2
    selected = (below << 1) & full
    return selected, full & ~selected


def _arc_rule(key: np.ndarray, m: int, t: int) -> np.ndarray:
    """The single-round rule of the distance-3/5 decoder, as cat masks:
    for an even, nonzero trigger count, the smaller arc side when it holds
    at most t cats within 2t triggers, and unconditionally above 2t
    triggers.  Odd counts always stem from a measurement fault, whose
    residual is already within budget: they select nothing."""
    selected, complement = _arcs(key, m)
    n_sel, n_comp = np.bitwise_count(selected), np.bitwise_count(complement)
    na = np.bitwise_count(key)
    take = (na % 2 == 0) & (((np.minimum(n_sel, n_comp) <= t) & (na <= 2 * t)) | (na > 2 * t))
    return np.where(take, np.where(n_sel < n_comp, selected, complement), 0)


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


def j_list(n_triggered: int, variant: int, anchor, ring_size: int) -> tuple:
    """Stabilizer indices compared across rounds, reduced mod the ring size;
    an int array of anchors gives one array of indices per offset."""
    try:
        offsets = _RECHECK_OFFSETS[(n_triggered, variant)]
    except KeyError:
        raise ValueError(f"no recheck set for ({n_triggered}, {variant})") from None
    return tuple((anchor + o) % ring_size for o in offsets)


class _Rows:
    """The distance-7 rule's rows for the syndromes of one trigger count:
    one per (syndrome, outcome vector v), syndrome-major, where the i-th
    re-read returns bit i of v.  Per row: ``key``, the round-one bits,
    and as masks the stabilizers fetched, those read differently than
    round one and the selected cats, with the re-reads in order."""

    def __init__(self, round0: np.ndarray, ring_size: int):
        n = 1 << MAX_REREADS
        self.m = ring_size
        self.key = np.repeat(round0, n)
        self.unread = np.tile(np.arange(n), len(round0))  # v >> re-reads
        self.count = np.zeros(len(self.key), np.int64)
        self.fetched = np.zeros(len(self.key), np.int64)
        self.diff = np.zeros(len(self.key), np.int64)
        self.seq = np.zeros(len(self.key), np.int64)  # stabilizer + 1 per re-read, a byte each
        self.cats = np.zeros(len(self.key), np.int64)

    def changed(self, act, indices: Iterable[np.ndarray]) -> np.ndarray:
        """The rule's re-read test on the rows ``act``: fetch the listed
        stabilizers not fetched yet, in order, each reading the next bit
        of v; True where any listed one reads differently than round one."""
        listed = 0
        for s in indices:
            s = s % self.m
            bit = 1 << s
            new = (act & ((self.fetched & bit) == 0)).astype(np.int64)
            self.diff |= ((self.unread ^ (self.key >> s)) & new) << s
            self.fetched |= bit * new
            self.seq |= ((s + 1) << (self.count << 3)) * new
            self.count += new
            self.unread >>= new
            listed = listed | bit
        return act & ((self.diff & listed) != 0)

    def add(self, act, cats) -> None:
        """Select the cats of the mask ``cats`` on the rows ``act``."""
        self.cats |= np.where(act, cats, 0)

    def cat(self, j: np.ndarray) -> np.ndarray:
        """The mask of cat j (mod the ring size)."""
        return 1 << (j % self.m)

    def find_rotation(self, offsets: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The syndromes whose triggers are ``offsets`` rotated by some j,
        and the lowest such j (the first trigger that anchors them)."""
        pattern = sum(1 << o for o in offsets)
        match = self.key[:, None] == [rotate(pattern, j, self.m) for j in range(self.m)]
        return match.any(1), match.argmax(1)

    def arc_fallback(self, act) -> None:
        """On the rows ``act``, select the arc side of at most three cats,
        the selected one first."""
        selected, complement = _arcs(self.key, self.m)
        small = np.bitwise_count(selected) <= 3
        self.add(act & small, selected)
        self.add(act & ~small & (np.bitwise_count(complement) <= 3), complement)

    def reads(self) -> np.ndarray:
        """The re-reads of each syndrome's rows in order, -1 past the last."""
        out = (self.seq[:, None] >> (8 * np.arange(MAX_REREADS))) & 0xFF
        return (out - 1).astype(np.int8).reshape(-1, 1 << MAX_REREADS, MAX_REREADS)


def _lowest(x: np.ndarray) -> np.ndarray:
    """The index of the lowest set bit of each of ``x``."""
    return np.bitwise_count((x & -x) - 1).astype(np.int64)


def _d7_one(r: _Rows) -> None:
    a0 = _lowest(r.key)
    c = r.changed(True, j_list(1, 0, a0, r.m))
    r.add(c, r.cat(a0 + 1))
    r.add(r.changed(~c, j_list(1, 1, a0, r.m)), r.cat(a0))


def _d7_two(r: _Rows) -> None:
    m = r.m
    a, b = _lowest(r.key), _lowest(r.key & (r.key - 1))
    gap_ab, gap_ba = (b - a) % m, (a - b) % m
    three_apart = (gap_ab == 3) | (gap_ba == 3)
    j = np.where(gap_ab == 3, a, b)
    handled = r.changed(three_apart, j_list(2, 0, j, m))
    two_apart = ~three_apart & ((gap_ab == 2) | (gap_ba == 2))
    j = np.where(gap_ab == 2, a, b)
    c0 = r.changed(two_apart, (j,))
    handled |= r.changed(c0, j_list(2, 2, j, m))
    c2 = r.changed(two_apart & ~c0, (j + 2,))
    handled |= r.changed(c2, j_list(2, 3, j, m))
    c4 = r.changed(two_apart & ~c0 & ~c2, j_list(2, 4, j, m))
    r.add(c4, r.cat(j + 1))
    r.arc_fallback(~(handled | c4))


def _d7_three(r: _Rows) -> None:
    m = r.m
    found, j = r.find_rotation((0, 2, 4))
    # unchanged outcomes at {j+3, j+4} mean the persistent pair
    # sits between stabilizers j+2 and j+4
    c = r.changed(found, j_list(3, 0, j, m))
    r.add(found & ~c, r.cat(j + 4))
    r.add(c, r.cat(j + 1))
    rest = ~found
    found, j = r.find_rotation((0, 1, 2))
    found &= rest
    c1 = r.changed(found, (j + 1,))
    r.add(c1, r.cat(j + 1))
    c2 = r.changed(found & ~c1, (j - 1,))
    r.add(c2, r.cat(j + 2))
    left = found & ~c1 & ~c2
    c0 = r.changed(left, (j,))
    c3 = r.changed(left & ~c0, (j - 2,))
    r.add(c0 | c3, r.cat(j + 2))
    r.add(left & ~c0 & ~c3, r.cat(j + 1))
    rest &= ~found
    found, j = r.find_rotation((0, 2, 3))
    found &= rest
    c = r.changed(found, j_list(3, 1, j, m))
    r.add(c, r.cat(j + 1))
    unhandled = found & ~c
    rest &= ~found
    found, j = r.find_rotation((0, 1, 3))
    found &= rest
    c = r.changed(found, j_list(3, 2, j, m))
    r.add(c, r.cat(j + 2))
    unhandled |= (found & ~c) | (rest & ~found)
    # cat g + 1 for each triggered pair (g, g + 1), else for each (g, g + 2)
    key = r.key
    pairs = key & rotate(key, -1, m)
    r.add(unhandled, rotate(np.where(pairs != 0, pairs, key & rotate(key, -2, m)), 1, m))


def _d7_four(r: _Rows) -> None:
    m = r.m
    found, j = r.find_rotation((0, 1, 2, 3))
    handled = r.changed(r.changed(found, j_list(4, 0, j, m)), j_list(4, 1, j, m))
    rest = ~found
    found, j = r.find_rotation((0, 1, 2, 4))
    found &= rest
    handled |= r.changed(found, j_list(4, 2, j, m))
    rest &= ~found
    found, j = r.find_rotation((0, 2, 3, 4))
    found &= rest
    handled |= r.changed(found, j_list(4, 3, j, m))
    r.arc_fallback(~handled)


def _d7_five(r: _Rows) -> None:
    found, j = r.find_rotation((0, 1, 2, 3, 4))
    c = r.changed(found, j_list(5, 0, j, r.m))
    r.add(found & ~c, r.cat(j + 4))
    r.add(c, r.cat(j + 3))
    # cat g + 1 for each triggered pair (g, g + 1) unless g - 1 and g + 2
    # trigger too, and g + 3 does not
    key, m = r.key, r.m
    pairs = key & rotate(key, -1, m)
    outer = rotate(key, 1, m) & rotate(key, -2, m)
    next_pair = rotate(key, -2, m) & rotate(key, -3, m)
    r.add(~found, rotate(pairs & (~outer | next_pair), 1, m))


def _d7_even(r: _Rows) -> None:
    """Six or more triggers, an even count: the arc rule at t=3."""
    r.add(True, _arc_rule(r.key, r.m, 3))


def _rule_d7(round0: np.ndarray, ring_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The adaptive distance-7 rule for every outcome vector of each of
    the base-round syndromes ``round0`` (int64 masks of ``ring_size``
    bits): per (syndrome, v), the stabilizers re-read in order (int8,
    -1 past the last) and the selected cats (an int64 mask), when the
    i-th re-read returns bit i of v.

    The rule dispatches on the trigger count and re-reads at most four
    ring stabilizers to separate persistent cat errors from transient
    measurement faults.  Each count is one function over the rows of its
    syndromes, in which each test of the rule is a row mask, taken in
    the rule's order.  Odd counts above five are unreachable within the
    fault budget and left uncorrected.
    """
    n = 1 << MAX_REREADS
    reads = np.full((len(round0), n, MAX_REREADS), -1, np.int8)
    cats = np.zeros((len(round0), n), np.int64)
    na = np.bitwise_count(round0)
    for rule, picked in ((_d7_one, na == 1), (_d7_two, na == 2), (_d7_three, na == 3),
                         (_d7_four, na == 4), (_d7_five, na == 5),
                         (_d7_even, (na >= 6) & (na % 2 == 0))):
        at = np.flatnonzero(picked)
        if len(at):
            r = _Rows(round0[at], ring_size)
            rule(r)
            reads[at], cats[at] = r.reads(), r.cats.reshape(len(at), n)
    return reads, cats


def _no_rereads(corrections: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tables of a decoder that re-reads nothing, from its corrections."""
    return np.zeros((len(corrections), 1, 0), np.int8), corrections[:, None]


class _RuleDecoder:
    """The rule decoders' gadget and cat-to-data map ``to_data``: a
    selected cat c flips data qubit ``g.correction_qubit(c)``."""

    def __init__(self, g: GadgetCircuit):
        _check_width("data_x", g.gamma)
        self.g = g
        self.to_data = MaskMap([1 << g.correction_qubit(c) for c in range(g.cat_count)])

    def round0(self, keys: np.ndarray, cat_count: int) -> np.ndarray:
        """Round 0 of each key as int64 cat masks, for keys of the gadget's ring."""
        if cat_count != self.g.cat_count:
            raise ValueError(f"syndrome of {cat_count} cats does not match "
                             f"the gadget's ring of {self.g.cat_count}")
        return keys.astype(np.int64) & ((1 << cat_count) - 1)


class RuleDecoderD3D5(_RuleDecoder):
    """Arc-pairing decoder bound to a distance-3 or -5 gadget: the arc
    rule at its t on the base round (round 0) of each key; no re-reads."""

    def __init__(self, g: GadgetCircuit, t: int):
        if t not in (1, 2):
            raise ValueError("rule decoder covers t in {1, 2}")
        super().__init__(g)
        self.t = t

    def tables(self, keys: np.ndarray, cat_count: int,
               rounds: int) -> tuple[np.ndarray, np.ndarray]:
        return _no_rereads(self.to_data(_arc_rule(self.round0(keys, cat_count),
                                                  cat_count, self.t)))


class RuleDecoderD7(_RuleDecoder):
    """Adaptive decoder bound to a distance-7 gadget: the rule
    (``_rule_d7``) on arrays, for all keys and outcome vectors at once,
    with its cats mapped to data qubits."""

    def __init__(self, g: GadgetCircuit):
        if g.max_adaptive < MAX_REREADS:
            raise ValueError(
                f"RuleDecoderD7 re-reads up to {MAX_REREADS} stabilizers; the "
                f"distance {g.distance} gadget allows {g.max_adaptive}")
        super().__init__(g)

    def tables(self, keys: np.ndarray, cat_count: int,
               rounds: int) -> tuple[np.ndarray, np.ndarray]:
        reads, cats = _rule_d7(self.round0(keys, cat_count), cat_count)
        return reads, self.to_data(cats)


class IdentityDecoder:
    """Applies no correction; useful as a verification counterexample."""

    def tables(self, keys: np.ndarray, cat_count: int,
               rounds: int) -> tuple[np.ndarray, np.ndarray]:
        return _no_rereads(np.zeros(len(keys), np.uint64))


class LutBuildError(RuntimeError):
    """No correction vector satisfies the accumulated constraints: the
    requested rounds/gamma combination is not t-FT decodable."""


class _Tables:
    """Base of the LUT dataclasses: each ``*table`` field is a uint64
    (entries, 2) array of (syndrome, correction) rows with strictly
    increasing syndromes, the form a table is searched in; two LUTs are
    equal when their fields are, the tables by value."""

    def __post_init__(self) -> None:
        for f in fields(self):
            t = getattr(self, f.name)
            if f.name.endswith("table") and not (
                    isinstance(t, np.ndarray) and t.dtype == np.uint64 and t.shape[1:] == (2,)
                    and (t[1:, 0] > t[:-1, 0]).all()):
                raise ValueError(f"{f.name} is not a uint64 (entries, 2) array of "
                                 "distinct syndromes in increasing order")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True, eq=False)
class CutCatLUT(_Tables):
    """Ring-syndrome lookup table for a fixed gadget geometry.

    ``table`` is a uint64 array of (syndrome key, correction) rows sorted
    by key.  Keys concatenate all full-round outcome bits (round 0
    lowest); corrections are data-qubit masks.  Unreachable syndromes
    are decoded as zero correction.
    """

    gamma: int
    t: int
    rounds: int
    cat_count: int
    table: np.ndarray

    def to_json(self) -> str:
        """The table as ``json.dumps(..., indent=1)`` writes it, with the
        entries in key order, written line by line."""
        head = {"format": "cutcat-lut-v1", "gamma": self.gamma, "t": self.t,
                "rounds": self.rounds, "cat_count": self.cat_count}
        rows = zip(_format_binary_rows(self.table[:, 0].tolist(), self.rounds * self.cat_count),
                   _format_binary_rows(self.table[:, 1].tolist(), self.gamma))
        entries = ",\n".join(f'  {{\n   "syndrome": "{s}",\n   "correction": "{c}"\n  }}'
                             for s, c in rows)
        return "{\n" + "".join(f' "{k}": {json.dumps(v)},\n' for k, v in head.items()) + (
            f' "entries": [\n{entries}\n ]\n}}' if entries else ' "entries": []\n}')

    @classmethod
    def from_json(cls, text: str) -> "CutCatLUT":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("LUT is not a JSON object")
        if doc.get("format") != "cutcat-lut-v1":
            raise ValueError("unknown LUT format")
        bad = [k for k in ("gamma", "t", "rounds", "cat_count") if type(doc.get(k)) is not int]
        if bad:
            raise ValueError(f"LUT {', '.join(bad)} missing or not an integer")
        # the least each field of a gadget's table can be
        low = [f"{k}={doc[k]} must be at least {least}" for k, least in
               (("gamma", 2), ("t", 0), ("rounds", 1), ("cat_count", 1)) if doc[k] < least]
        if low:
            raise ValueError(f"LUT {', '.join(low)}")
        if not isinstance(doc.get("entries"), list):
            raise ValueError("LUT entries missing or not a list")
        for i, e in enumerate(doc["entries"]):
            if not (isinstance(e, dict) and {"syndrome", "correction"} <= e.keys()):
                raise ValueError(f"LUT entry {i} lacks a syndrome or a correction")
        gamma, n_bits = doc["gamma"], doc["rounds"] * doc["cat_count"]
        _check_width("data_x", gamma)
        _check_width("slot_flips", n_bits)
        table = np.array([
            (_parse_binary_row(e["syndrome"], n_bits, f"LUT entry {i} syndrome"),
             _parse_binary_row(e["correction"], gamma, f"LUT entry {i} correction"))
            for i, e in enumerate(doc["entries"])], np.uint64).reshape(-1, 2)
        return cls(gamma, doc["t"], doc["rounds"], doc["cat_count"],
                   table[np.argsort(table[:, 0])])


def table_lookup(table: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The correction of each of ``keys`` in a ``_Tables`` array, zero for
    a key it lacks, and whether it has the key: one binary search."""
    at = _verify.sorted_find(table[:, 0], keys)
    found = at >= 0
    corrections = np.zeros(len(keys), np.uint64)
    corrections[found] = table[at[found], 1]
    return corrections, found


class LutDecoder:
    """Table-backed decoder over the concatenated full-round syndrome:
    one binary search of the table's sorted keys, where a key the table
    lacks takes the zero correction; no re-reads."""

    def __init__(self, lut: CutCatLUT):
        self.lut = lut

    def tables(self, keys: np.ndarray, cat_count: int,
               rounds: int) -> tuple[np.ndarray, np.ndarray]:
        if cat_count != self.lut.cat_count or rounds != self.lut.rounds:
            raise ValueError("syndrome shape does not match the table")
        return _no_rereads(table_lookup(self.lut.table, keys)[0])


def _solve_constraints(
    keys: np.ndarray, group: np.ndarray, residual: np.ndarray, weight: np.ndarray,
    gamma: int, t: int,
) -> np.ndarray:
    """The correction of each of ``keys`` from (group, residual, weight)
    rows of ascending weight, so a repeated residual adds no constraint
    and no candidate; a row's key is ``keys[group]``, groups lie below
    2^32, and residuals below 2^gamma.  Per key, zero, the key's residuals
    in row order, then offsets are tried, until one keeps every residual
    within its weight (tested on the rows of open keys only, compacted as
    keys close); a key with no rows takes zero."""
    corr = np.zeros(len(keys), np.uint64)
    if not len(group):
        return corr
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
    group = word[starts].astype(np.intp)
    sizes = np.diff(np.r_[starts, len(word)])
    # open keys (indices into starts), their rows and counts; candidate j,
    # zero first.  Coset weight <= w is popcount <= w or >= gamma - w
    at, res, w, n = np.arange(len(starts)), residual, weight, sizes
    spent, j = np.zeros(len(starts), bool), -1
    while len(at):
        first = np.cumsum(n) - n
        cand = res[first + j] if j >= 0 else np.zeros(len(at), np.uint64)
        x = np.bitwise_count(res ^ np.repeat(cand, n))
        ok = np.logical_and.reduceat((x <= w) | (x >= gamma - w), first)
        corr[group[at[ok]]] = cand[ok]
        j += 1
        spent[at[~ok & (n == j)]] = True
        if not (live := ~ok & (n > j)).all():
            rows = np.repeat(live, n)
            res, w, n, at = res[rows], w[rows], n[live], at[live]
    # The rest, in first-row order: plain-weight offsets of up to the first
    # weight from the first residual.  Complements are equivalent under the
    # coset metric, so these reach every class within that distance.
    for i in sorted(np.flatnonzero(spent).tolist(), key=lambda i: order[starts[i]]):
        rows = slice(starts[i], starts[i] + sizes[i])
        res, w = residual[rows].tolist(), weight[rows].tolist()
        offsets = (res[0] ^ mask_of(q) for v in range(w[0] + 1)
                   for q in combinations(range(gamma), v))
        found = next((c for c in offsets if all(
            residual_weight_mod_generator(e ^ c, gamma) <= v for e, v in zip(res, w))), None)
        if found is None:
            raise LutBuildError(
                f"syndrome {int(keys[group[i]]):#x} admits no correction within weight {t}")
        corr[group[i]] = found
    return corr


def build_cut_cat_lut(spec: GadgetSpec, gadget: GadgetCircuit | None = None) -> CutCatLUT:
    """Exhaustive-search construction of the ring-syndrome table.

    Inserts every combination of up to t of the verifier's effect
    classes (the distinct rows of the fault table MC samples),
    accumulates the (residual, weight) constraints per syndrome, and
    searches a correction consistent with all of them under the coset
    metric.  Walk 1 marks the keys seen and those zero fails ("hard"),
    walk 2 picks the hard keys' rows, labelled by the key's rank among
    those seen (its table row).  Keys of up to ``verify.DENSE_BITS`` bits
    index two bool marks, ranked by a cumulative sum; wider keys go
    through a ``verify.KeyCache``, ranked by one sort.
    Deterministic: enumeration is weight-ascending lexicographic and the
    zero vector, stored residuals, then bounded offsets are tried in
    that order.  A given ``gadget`` must be ``build_cut_cat(spec)``, as
    the header, budget and coset metric come from ``spec``.
    """
    if spec.is_adaptive:
        raise ValueError("LUT construction requires a non-adaptive gadget")
    g = build_cut_cat(spec)
    if gadget is not None and gadget != g:
        raise ValueError("gadget is not the circuit build_cut_cat(spec) builds")
    t, bits = spec.t, g.cat_count * g.base_rounds
    classes, _ = _verify._effect_classes(FaultTable.for_decoder(g, False))
    walk = partial(_verify.combo_walk, classes, t, min_weight=0)
    if bits <= _verify.DENSE_BITS:  # a key is its own index, read as int64 (see KeyCache.find)
        seen, hard = np.zeros((2, 1 << bits), bool)
        for s in walk():
            data, key = s.cols
            at = key.view(np.int64)
            seen[at] = True
            hard[at[_verify.coset_weights(data, spec.gamma) > s.weight]] = True
        keys, find = np.flatnonzero(seen).astype(np.uint64), lambda key: key.view(np.int64)
        rank = np.where(hard, np.cumsum(seen, dtype=np.int32) - 1, -1)
        del seen, hard
    else:
        cache = _verify.KeyCache(bits, lambda new: (np.zeros(len(new), bool),))
        for s in walk():
            data, key = s.cols
            ids = cache.index(key)
            cache.values[0][ids[_verify.coset_weights(data, spec.gamma) > s.weight]] = True
        (hard,), order, find = cache.values, np.argsort(cache.keys), cache.find
        keys, rank = cache.keys[order], np.empty(len(order), np.int32)
        rank[order] = np.where(hard[order], np.arange(len(order)), -1)
        del cache, order, hard
    # each step frees what it no longer needs before the next allocates
    rows = []
    for s in walk():
        data, key = s.cols
        ids = rank[find(key)]
        m = ids >= 0
        rows.append((ids[m], data[m], np.full(np.count_nonzero(m), s.weight, np.uint8)))
    del rank, find
    group, residual, weight = map(np.concatenate, zip(*rows))
    del rows
    corrections = _solve_constraints(keys, group, residual, weight, spec.gamma, t)
    del group, residual, weight
    table = np.stack([keys, corrections], axis=1)
    assert not table[0].any(), "zero syndrome must map to zero correction"
    return CutCatLUT(gamma=spec.gamma, t=t, rounds=spec.rounds, cat_count=spec.cat_count,
                     table=table)


@dataclass(frozen=True, eq=False)
class CodeLUT(_Tables):
    """Minimum-weight-representative tables for whole-code decoding, as
    uint64 arrays of (syndrome, correction) rows sorted by syndrome.

    ``x_table`` corrects X errors and is keyed by the Z-generator
    syndrome; ``z_table`` mirrors it.  First-assigned (lowest-weight,
    lexicographically first) representative wins per syndrome.
    """

    n: int
    x_table: np.ndarray
    z_table: np.ndarray


def build_code_lut(code: CssCode, max_patterns: int = 5_000_000) -> CodeLUT:
    """Enumerate error patterns of weight up to ``code.t`` in ascending
    weight, then lexicographically (``verify.combo_walk`` over the
    single-qubit errors, rows of (qubit mask, syndrome)), and keep each
    syndrome's first (minimum-weight) representative."""
    from math import comb

    _check_width("x", code.n)
    total = sum(comb(code.n, w) for w in range(code.t + 1))
    if total > max_patterns:
        raise ValueError(f"enumeration of {total} patterns exceeds cap {max_patterns}")

    def fill(rows: Sequence[int]) -> np.ndarray:
        singles = np.array([(1 << q, image) for q, image
                            in enumerate(syndrome_images(rows, code.n))], np.uint64)
        errors, syndromes = map(np.concatenate, zip(*(
            s.cols for s in _verify.combo_walk(singles, code.t, min_weight=0))))
        syndromes, first = np.unique(syndromes, return_index=True)
        return np.stack([syndromes, errors[first]], axis=1)

    return CodeLUT(n=code.n, x_table=fill(code.hz), z_table=fill(code.hx))
