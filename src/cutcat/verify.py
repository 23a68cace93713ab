"""Exhaustive fault-enumeration verification and the analytic failure bound.

The verifier is the arbiter for every decoder in this package: it
enumerates all combinations, up to the budget, of the faults MC samples
(the distinct rows of the gadget's ``FaultTable``), decodes them, and
demands that the corrected residual stays within the fault count under
the coset metric.  Adaptive decoders additionally face every set of the
re-measurement faults that MC samples within the remaining budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .circuit import MAX_REREADS, GadgetCircuit
from .sim import FaultTable

_GRID_CELLS = 65_536  # (row x event set) cells of a verifier slice


def sort_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array, by sort and mask: numpy 2.4 sends a
    plain ``np.unique`` down a hash path, some 20x slower on uint64 keys."""
    a = np.sort(a)
    keep = np.ones(len(a), bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def sorted_find(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The position of each of ``keys`` in the sorted array ``table``,
    -1 for a key it lacks; unsorted keys are searched in sorted order."""
    if (keys[1:] < keys[:-1]).any():
        order, out = np.argsort(keys), np.empty(len(keys), np.intp)
        out[order] = sorted_find(table, keys[order])
        return out
    pos = np.searchsorted(table, keys)
    found = pos < len(table)
    found[found] = table[pos[found]] == keys[found]
    return np.where(found, pos, -1)


def _first_distinct(rows: np.ndarray) -> np.ndarray:
    """The index of the first of each distinct row of a 2-D array, ascending."""
    order = np.lexsort(rows.T[::-1])  # stable: equal rows keep index order
    new = np.ones(len(order), bool)
    new[1:] = (rows[order[1:]] != rows[order[:-1]]).any(axis=1)
    return np.sort(order[new])


def _distinct_rows(table: FaultTable) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """The distinct rows of ``table``, a uint64 (rows, columns) array in
    order of their first (op, code), and those (op, code) pairs."""
    op, code = np.nonzero(np.arange(table.width) < np.array(table.n_codes)[:, None])
    rows = np.stack([c[op, code] for c in table.columns], axis=1)
    first = _first_distinct(rows)
    return rows[first], list(zip(op[first].tolist(), code[first].tolist()))


def _effect_classes(table: FaultTable) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """The faults the combination walk runs over: the distinct rows of
    ``table`` (``FaultTable.for_decoder``), each named by its first (op,
    code), in that order, without two kinds of row:

    - a bare X on one data qubit, with no syndrome and no cat X: the
      decoder sees the same run without it, and it moves the residual by
      one qubit while it adds one to the budget, so by the triangle
      inequality of the coset weight a set with it fails only if the set
      without it does;
    - a row with no data X and no syndrome: nothing to a static decoder;
      to an adaptive one, only X on cats after their last base-round
      read, which gives the same run as the ``reread_events`` event
      "outcome flip plus that cat's X" at the first re-read touching its
      cat, or as no event if no re-read does: a set that comes no later
      in the walk and costs no more.

    Equal rows are equal effects, and any fault multiset XOR-reduces to a
    set of distinct rows with the same effect and a looser budget, so
    walking sets of distinct rows is enough.
    """
    rows, names = _distinct_rows(table)
    data, slots = rows[:, 0], rows[:, 1]
    bare = (np.bitwise_count(data) == 1) & ~rows[:, 2:].any(axis=1)
    keep = (slots != 0) | ((data != 0) & ~bare)
    return rows[keep], [n for n, k in zip(names, keep.tolist()) if k]


def coset_weights(err_on_support: np.ndarray, gamma: int) -> np.ndarray:
    """``residual_weight_mod_generator`` of each entry of a uint64 array."""
    w = np.bitwise_count(err_on_support & np.uint64((1 << gamma) - 1))
    return np.minimum(w, gamma - w)


@dataclass(frozen=True)
class ComboSlice:
    """Rows of one weight of ``combo_walk`` over n classes: row r is the
    combination of rank ``start + r`` among the ``weight``-subsets of
    range(n) in lexicographic order.  ``cols`` holds, per column of the
    walked rows, the XOR of each combination's classes."""

    weight: int
    n: int
    start: int
    cols: tuple[np.ndarray, ...]

    def combo(self, r: int) -> tuple[int, ...]:
        # unrank in the combinatorial number system: comb(n - 1 - i, k - 1)
        # of the k-subsets of range(i, n) start at i
        rank, out, i = self.start + r, [], 0
        for k in range(self.weight, 0, -1):
            while rank >= (size := math.comb(self.n - 1 - i, k - 1)):
                rank, i = rank - size, i + 1
            out, i = out + [i], i + 1
        return tuple(out)


def _runs(sizes: list[int], cap: int) -> list[int]:
    """Starts of runs of ``sizes`` summing to at most ``cap`` (or of one), then the end."""
    cuts, run = [0], 0
    for i, s in enumerate(sizes):
        if run and run + s > cap:
            cuts, run = cuts + [i], 0
        run += s
    return cuts + [len(sizes)]


def combo_walk(rows: np.ndarray, max_weight: int, min_weight: int = 1,
               max_rows: int = _GRID_CELLS) -> Iterator[ComboSlice]:
    """Every combination of min_weight..max_weight classes, the rows of
    the uint64 (classes, columns) array ``rows``, as array slices:
    weight-major, then lexicographic, weight 0 being the empty one.  The
    combinations of weight w-1 whose indices all exceed i are the last
    comb(n-1-i, w-1) of that weight, so those of weight w with first
    index i are one contiguous XOR of class row i into that tail, per
    column.  Weights 1..max_weight-1 come whole; ``max_weight`` (above 1)
    in runs of whole consecutive first indices of at most ``max_rows``
    rows, or of one."""
    n, columns = len(rows), rows.T.copy()
    prev = np.zeros((len(columns), 1), np.uint64)
    if min_weight == 0:
        yield ComboSlice(0, n, 0, tuple(prev))
    for w in range(1, max_weight + 1):
        sizes = [math.comb(n - 1 - i, w - 1) for i in range(n)]
        cuts = _runs(sizes, max_rows) if 1 < w == max_weight else [0, n]
        starts = list(accumulate(sizes, initial=0))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            out = np.empty((len(columns), starts[hi] - starts[lo]), np.uint64)
            for i in range(lo, min(hi, n - w + 1)):  # a later i starts no combination
                a = starts[i] - starts[lo]
                np.bitwise_xor(columns[:, i, None], prev[:, -sizes[i]:], out=out[:, a:a + sizes[i]])
            if w >= min_weight:
                yield ComboSlice(w, n, starts[lo], tuple(out))
        prev = out


@dataclass(frozen=True)
class Counterexample:
    """The first failing combination.  Each fault is named by its first
    table row: ``fault_ids`` are op indices into ``noisy_operations(g)``
    and ``fault_codes`` the codes of those ops; ``round2_flips`` names
    the re-measurement events (step, op, code) of ``reread_events``."""

    fault_ids: tuple[int, ...]
    fault_codes: tuple[int, ...]
    round2_flips: tuple[tuple[int, int, int], ...]
    n_faults: int
    syndrome_key: int
    residual: int
    correction: int
    coset_weight: int

    def describe(self) -> str:
        flips = f" round2_flips={self.round2_flips}" if self.round2_flips else ""
        return (
            f"faults(op, code)={tuple(zip(self.fault_ids, self.fault_codes))}{flips} "
            f"n={self.n_faults} "
            f"syndrome={self.syndrome_key:#x} residual={self.residual:#x} "
            f"correction={self.correction:#x} coset_weight={self.coset_weight}"
        )


@dataclass(frozen=True)
class VerificationReport:
    """``checked_per_weight[w - 1]`` counts the combinations of w effect
    classes checked (with each set of re-measurement events a run
    reaches, for an adaptive decoder), up to the counterexample if any."""

    passed: bool
    counterexample: Counterexample | None
    n_classes: int
    checked_per_weight: tuple[int, ...]

    def __post_init__(self) -> None:
        assert self.passed == (self.counterexample is None)

    @property
    def faults_checked(self) -> int:
        return sum(self.checked_per_weight)


# widest key a ``KeyCache`` indexes through a dense table (2^20 int32
# slots, 4 MB); wider keys take binary search in a sorted copy
DENSE_BITS = 20


class KeyCache:
    """Answers of ``compute``, which maps sorted distinct syndrome keys of
    at most ``bits`` bits to a tuple of arrays, a row per key, and is asked
    for no key when the cache is made, to give ``values`` their shape.
    Row i of ``values`` answers ``keys[i]``, in the order keys were first
    seen.  Keys of up to ``DENSE_BITS`` bits find their row in a dense
    int32 table of 2^bits slots, wider ones by binary search in a sorted
    copy."""

    def __init__(self, bits: int, compute) -> None:
        self.bits, self.compute, self.keys = bits, compute, np.zeros(0, np.uint64)
        self.values = compute(self.keys)
        # dense: row + 1 per key, 0 if unseen; sorted: (sorted keys, their rows)
        self._index = (np.zeros(1 << bits, np.int32) if bits <= DENSE_BITS
                       else (self.keys, np.zeros(0, np.int64)))

    def find(self, keys: np.ndarray) -> np.ndarray:
        """The row of each of ``keys``, -1 for a key not seen."""
        if self.bits <= DENSE_BITS:
            # keys below 2^DENSE_BITS read the same as int64, which numpy
            # indexes without the cast it makes of uint64 on every call
            return self._index[keys.view(np.int64)] - 1
        table, rows = self._index
        at = sorted_find(table, keys)
        at[at >= 0] = rows[at[at >= 0]]
        return at

    def index(self, keys: np.ndarray) -> np.ndarray:
        """The row of ``values`` of each of ``keys``, which may repeat;
        one ``compute`` call for the distinct keys not seen before."""
        rows = self.find(keys)
        miss = rows < 0
        if miss.any():
            fresh = sort_unique(keys[miss])
            self.values = tuple(np.concatenate([old, v])
                                for old, v in zip(self.values, self.compute(fresh)))
            added = np.arange(len(self.keys), len(self.keys) + len(fresh))
            self.keys = np.concatenate([self.keys, fresh])
            if self.bits <= DENSE_BITS:
                self._index[fresh] = added + 1
            else:
                table, old = self._index
                at = np.searchsorted(table, fresh)
                self._index = np.insert(table, at, fresh), np.insert(old, at, added)
            rows[miss] = self.find(keys[miss])
        return rows

    def get(self, keys: np.ndarray) -> tuple[np.ndarray, ...]:
        """The answers for ``keys``, one row per key (see ``index``)."""
        rows = self.index(keys)
        return tuple(v[rows] for v in self.values)


def decoder_cache(g: GadgetCircuit, decoder) -> tuple[KeyCache, int]:
    """A ``KeyCache`` of ``decoder``'s tables for the keys of ``g``, which
    rejects a correction off its gamma data qubits, and their re-read count
    s (at most ``g.max_adaptive``), from the answer for no key."""
    def tables(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        reads, corr = decoder.tables(keys, g.cat_count, g.base_rounds)
        if len(off := np.flatnonzero((corr >> np.uint64(g.gamma)).any(axis=1))):
            raise ValueError(f"the decoder corrects syndrome {int(keys[off[0]]):#x} on a "
                             f"qubit outside the gamma={g.gamma} data qubits")
        return reads, corr
    cache = KeyCache(g.n_slots, tables)
    if (steps := cache.values[0].shape[-1]) > g.max_adaptive:
        raise ValueError(f"the decoder re-reads up to {steps} stabilizers; the "
                         f"distance {g.distance} gadget allows {g.max_adaptive}")
    return cache, steps


def reread_events(g: GadgetCircuit, steps: int) -> tuple[list[tuple[int, int, int]], np.ndarray]:
    """The re-measurement faults MC samples: at each of ``steps`` re-read
    steps, each distinct nonzero row of ``FaultTable.for_reread``, named
    (step, op, code) by its first table row.  Their rows, step-major, are
    one uint64 array of masks, per step up to ``MAX_REREADS`` the outcome
    flip and the cat X relative to the stabilizer read."""
    if not steps:
        return [], np.zeros((0, 2 * MAX_REREADS), np.uint64)
    rows, names = _distinct_rows(FaultTable.for_reread(g))
    live = rows.any(axis=1)
    names = [(step, op, code) for step in range(steps)
             for (op, code), on in zip(names, live.tolist()) if on]
    # step s's rows in columns 2s and 2s+1, by a block-diagonal Kronecker product
    return names, np.kron(np.eye(steps, MAX_REREADS, dtype=np.uint64), rows[live])


@dataclass(frozen=True)
class EventSets:
    """The sets of up to ``max_size`` of the events ``names`` with rows
    ``rows`` (of ``reread_events``), size-major, then lexicographic,
    without any set whose XOR of rows an earlier one has: it gives the
    same run with a looser budget.  Per set: its names, its size, the
    re-reads a run must reach to meet all its events and its XOR of rows."""

    names: tuple[tuple[tuple[int, int, int], ...], ...]
    size: np.ndarray
    need: np.ndarray
    masks: np.ndarray

    @classmethod
    def build(cls, names: Sequence[tuple[int, int, int]], rows: np.ndarray,
              max_size: int) -> "EventSets":
        """Walk the sets by ``combo_walk``, each one's members unranked by its slice."""
        sets, masks = [], []
        for sl in combo_walk(rows, min(max_size, len(rows)), min_weight=0):
            sets += [sl.combo(r) for r in range(len(sl.cols[0]))]
            masks.append(np.stack(sl.cols, axis=1))
        masks = np.concatenate(masks)
        first = _first_distinct(masks)
        sets = [sets[i] for i in first.tolist()]
        # events are step-major, so a set's last member has its last step
        return cls(tuple(tuple(names[e] for e in c) for c in sets),
                   np.array([len(c) for c in sets]),
                   np.array([names[c[-1]][0] + 1 if c else 0 for c in sets]), masks[first])


def rotate(x, s, m: int):
    """The masks ``x`` on a ring of m bits rotated up by s (an int or an
    array broadcast against ``x``, of the same signedness): bit c moves
    to (c + s) mod m."""
    s = s % m
    return ((x << s) | (x >> (m - s))) & ((1 << m) - 1)


def follow_rereads(reads: np.ndarray, corrections: np.ndarray, inv: np.ndarray,
                   frame: np.ndarray, noise, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Follow a decoder's tables (``reads``, ``corrections``, one row per
    key, as ``decoders`` describes them): each run's correction and number
    of re-reads.  Run j reads table ``inv[j]`` under the X errors
    ``frame[j]`` on the m cats (updated in place, so of the full shape):
    re-reading stabilizer s gives the parity of cats s and s+1 (mod m).
    ``noise`` yields one (anc, cats) pair of ``FaultTable.for_reread``
    columns per step, of the s steps ``reads.shape[-1]``: ``anc`` flips
    the step's outcome, and ``cats``, relative to s (bit 0 is cat s, bit 1
    cat s+1), lands on the frame after the read.  Arrays broadcast.

    A run whose table re-reads nothing takes ``corrections[inv, 0]`` in
    0 steps, as all do at once for tables with no read column.  The
    verifier follows its whole grid.  Gadget MC follows the runs a
    re-read fault hits with their own noise, and of the others only those
    that re-read, once per distinct (table, frame) pair with none: at
    most 11·m·2^m pairs for ``RuleDecoderD7`` (``GadgetMonteCarlo``)."""
    shape = np.broadcast_shapes(inv.shape, frame.shape)
    if not reads.shape[-1]:
        return np.broadcast_to(corrections[inv, 0], shape), np.zeros(shape, np.uint8)
    v = np.zeros(shape, np.uint8)
    steps = np.zeros(v.shape, np.uint8)
    for i, (anc, cats) in zip(range(reads.shape[-1]), noise):
        stab = reads[inv, v, i]
        live = stab >= 0
        s = np.maximum(stab, 0).astype(np.uint8)
        bit = (frame >> s) ^ (frame >> ((s + 1) % m)) ^ anc
        v |= ((bit & 1).astype(np.uint8) & live) << i
        steps += live
        frame ^= rotate(cats, s, m)
    return corrections[inv, v], steps


def _check_combos(
    g: GadgetCircuit,
    t: int,
    classes: np.ndarray,
    names: Sequence[tuple[int, int]],
    events: EventSets,
    cache: KeyCache,
    weight: int,
) -> tuple[int, Counterexample | None]:
    """Verify all combos of ``weight`` of the effect classes ``classes``
    (rows of data X, key and, for a decoder that re-reads, cat X) against
    each set of ``events`` within the budget t - weight (a decoder that
    re-reads nothing meets the empty set only): a (row, set) grid per
    slice, run by ``follow_rereads``.  A cell counts only if its run
    reaches the step of each of its events.  ``cache`` holds the
    decoder's tables, bound to this gadget, per key; each slice's keys
    index it directly, and a serial walk shares it across weights."""
    m, gamma = g.cat_count, g.gamma
    k = int(np.searchsorted(events.size, t - weight, "right"))
    checked, masks, budget = 0, events.masks[:k], weight + events.size[:k]
    noise = list(zip(masks[:, 0::2].T, masks[:, 1::2].T))
    for sl in combo_walk(classes, weight, weight, max_rows=max(1, _GRID_CELLS // k)):
        data, key, *persist = sl.cols
        # one ``tables`` call for the distinct keys not seen before
        rows = cache.index(key)
        frame = np.repeat(persist[0][:, None], k, 1) if persist else np.zeros((1, k), np.uint64)
        corr, reached = follow_rereads(*cache.values, rows[:, None], frame, noise, m)
        admitted = reached >= events.need[:k]
        cw = coset_weights(data[:, None] ^ corr, gamma)
        bad = admitted & (cw > budget)
        if bad.any():
            # the first failing cell in row-major order
            cell = int(np.argmax(bad))
            r, j = divmod(cell, k)
            ops, codes = zip(*(names[i] for i in sl.combo(r)))
            return checked + int(np.count_nonzero(admitted.ravel()[:cell])) + 1, Counterexample(
                ops, codes, events.names[j], int(budget[j]),
                int(key[r]), int(data[r]), int(corr[r, j]), int(cw[r, j]))
        checked += int(np.count_nonzero(admitted))
    return checked, None


def verify_gadget(g: GadgetCircuit, decoder, t: int, *, jobs: int = 1) -> VerificationReport:
    """Exhaustively certify that ``decoder`` keeps the gadget t-FT.

    Every combination of 1..t effect classes (``_effect_classes``: the
    distinct rows of the fault table MC samples for this decoder) is
    decoded, and the residual must stay within the number of faults.  A
    decoder that re-reads (s > 0 in its ``tables``) also meets every set
    of the re-measurement faults MC samples at each of its s re-reads
    (``reread_events``) within the remaining budget, each costing one,
    re-read by ``follow_rereads`` as in MC.  The first counterexample in
    order is reported, its faults named (op, code) and its events (step,
    op, code).

    The decoder must answer ``tables(keys, cat_count, rounds)`` as
    ``decoders`` describes it.  The walk runs in one process, weight by
    weight, with one cache of tables shared across weights, and stops at
    the first counterexample.  ``jobs`` accepts only 1: a compatibility
    shim for the ``jobs=1`` of ``perfbench/worker.py``, to go once that
    call drops the keyword.
    """
    if jobs != 1:
        raise ValueError(f"jobs={jobs}: the verifier runs in one process, jobs must be 1")
    if t < 0:
        raise ValueError("t must be at least 0")
    cache, steps = decoder_cache(g, decoder)
    classes, names = _effect_classes(FaultTable.for_decoder(g, steps > 0))
    events = EventSets.build(*reread_events(g, steps), max(t - 1, 0))
    per_weight: list[int] = []
    cx = None
    for w in range(1, t + 1):
        checked, cx = _check_combos(g, t, classes, names, events, cache, w)
        per_weight.append(checked)
        if cx is not None:
            break
    return VerificationReport(cx is None, cx, len(classes), tuple(per_weight))


def eval_upper_bound(gamma: int, t: int, p_ft: float) -> float:
    """Probability that more than t faults hit the 4*gamma relevant sites.

    Evaluated as the upper binomial tail directly, which avoids the
    catastrophic cancellation of 1 - CDF at small rates; a depolarizing
    fault is counted with probability 2p/3 since one Pauli in three
    neither reaches the data nor flips a ring outcome.
    """
    if not 0.0 <= p_ft <= 1.0:
        raise ValueError("p_ft must be a probability")
    if gamma < 2:
        raise ValueError("gamma must be at least 2")
    if t < 0:
        raise ValueError("t must be at least 0")
    n_fl = 4 * gamma
    q = 2.0 * p_ft / 3.0
    if q == 0.0:
        return 0.0
    terms = [
        math.comb(n_fl, s) * q**s * (1.0 - q) ** (n_fl - s)
        for s in range(t + 1, n_fl + 1)
    ]
    return min(1.0, math.fsum(terms))
