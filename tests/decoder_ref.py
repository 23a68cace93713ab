"""Scalar references for the array decoders: the distance-3/5 arc rule
per syndrome (``decode_d3d5``), and the distance-7 adaptive rule
(``decode_d7``) run once per syndrome and outcome sequence with a live
``measure`` callback, bound to a gadget as ``RefD7``, whose ``tables``
come from the tree walk ``reread_table`` (``TreeWalk``)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from cutcat.circuit import GadgetCircuit
from cutcat.decoders import j_list
from cutcat.verify import MAX_REREADS

MeasureFn = Callable[[tuple[int, ...]], Mapping[int, int]]


@dataclass(frozen=True)
class CatSyndrome:
    """Ring-measurement outcomes of one gadget run, as the scalar
    decoders read them: ``rounds[i]`` packs round i's m outcome bits."""

    cat_count: int
    rounds: tuple[int, ...]

    @classmethod
    def from_key(cls, cat_count: int, key: int, n_rounds: int) -> "CatSyndrome":
        """Inverse of ``key()``: split ``n_rounds`` full rounds off the key."""
        mask = (1 << cat_count) - 1
        return cls(cat_count, tuple((key >> (i * cat_count)) & mask
                                    for i in range(n_rounds)))

    def key(self) -> int:
        """All full-round bits concatenated, round 0 lowest."""
        out = 0
        for i, bits in enumerate(self.rounds):
            out |= bits << (i * self.cat_count)
        return out


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


def cats_to_mask(g: GadgetCircuit, cats: Iterable[int]) -> int:
    """Map selected cat indices to a data-qubit correction mask."""
    out = 0
    for c in cats:
        out ^= 1 << g.correction_qubit(c)
    return out


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


def reread_table(decoder, syn: CatSyndrome, prune: bool = True) -> list[tuple[tuple, int]]:
    """A decoder compiled for one base-round syndrome from its
    ``decode(syn, measure)``.

    Row v holds the stabilizers the decoder re-reads, in request order,
    and its correction when the i-th re-read returns bit i of v.  The
    request at step i depends only on the bits before it, so a run is
    followed by reading step i from the row of the outcomes so far, and
    one run fills every row that agrees with it on the bits it read
    (without ``prune``, one run per row).
    """
    m = syn.cat_count
    rows: list = [None] * (1 << MAX_REREADS)
    for v in range(len(rows)):
        if prune and rows[v] is not None:
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
        for u in range(v, len(rows), 1 << len(reads)) if prune else (v,):
            rows[u] = (tuple(reads), corr)
    return rows


class TreeWalk:
    """A decoder known by ``decode(syn, measure)``, answering ``tables``
    with one ``reread_table`` per key (s = ``MAX_REREADS``)."""

    def tables(self, keys: np.ndarray, cat_count: int, rounds: int) -> tuple:
        rows = [row for key in keys.tolist() for row in reread_table(
            self, CatSyndrome.from_key(cat_count, key, rounds))]
        shape = (len(keys), 1 << MAX_REREADS)
        reads = np.array([s + (-1,) * (MAX_REREADS - len(s)) for s, _ in rows], np.int8)
        corr = np.array([c for _, c in rows], np.uint64)
        return reads.reshape(shape + (MAX_REREADS,)), corr.reshape(shape)


class RefD7(TreeWalk):
    """The scalar rule ``decode_d7`` bound to a gadget."""

    def __init__(self, g: GadgetCircuit):
        self.g = g

    def decode(self, syn: CatSyndrome, measure: MeasureFn) -> int:
        cats, _ = decode_d7(syn.rounds[0], self.g.cat_count, measure)
        return cats_to_mask(self.g, cats)
