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
from itertools import combinations, product
from typing import Iterator, Sequence

import numpy as np

from .circuit import GadgetCircuit
from .sim import CatSyndrome, Effect, FaultTable

_GRID_CELLS = 65_536  # (row x event set) cells of a verifier slice


def sort_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array, by sort and mask: numpy 2.4 sends a
    plain ``np.unique`` down a hash path, some 20x slower on uint64 keys."""
    a = np.sort(a)
    keep = np.ones(len(a), bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _first_rows(table: FaultTable) -> dict[tuple[int, ...], tuple[int, int]]:
    """The first (op, code) of each distinct row of ``table``."""
    first: dict[tuple[int, ...], tuple[int, int]] = {}
    for op, (n, *rows) in enumerate(zip(table.n_codes, *table.columns)):
        for code, row in enumerate(zip(*(r[:n].tolist() for r in rows))):
            first.setdefault(row, (op, code))
    return first


def _effect_classes(table: FaultTable) -> tuple[list[Effect], list[tuple[int, int]]]:
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
    effects, names = [], []
    for row, name in _first_rows(table).items():
        data, slots, *persist = row
        if slots == 0 and (data == 0 or (data.bit_count() == 1 and not any(persist))):
            continue
        effects.append(Effect(*row))
        names.append(name)
    return effects, names


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


def _runs(sizes: list[int], cap: int) -> list[int]:
    """Starts of runs of ``sizes`` summing to at most ``cap`` (or of one), then the end."""
    cuts, run = [0], 0
    for i, s in enumerate(sizes):
        if run and run + s > cap:
            cuts, run = cuts + [i], 0
        run += s
    return cuts + [len(sizes)]


def combo_walk(
    effects: Sequence[Effect], max_weight: int, min_weight: int = 1,
    with_persist: bool = False, max_rows: int = _GRID_CELLS,
) -> Iterator[ComboSlice]:
    """Every combination of min_weight..max_weight effect indices, as array
    slices: weight-major, then lexicographic, weight 0 being the empty one.
    Each weight is one gather and one XOR of the weight below against the
    effect rows.  Lower weights come whole; ``max_weight`` in runs of whole
    consecutive first indices of at most ``max_rows`` rows, or of one."""
    n = len(effects)
    fields = ("data_x", "slot_flips", "persist_x")[:3 if with_persist else 2]
    rows = [np.array([getattr(e, f) for e in effects], dtype=np.uint64) for f in fields]
    zero = np.zeros(1, np.uint64)
    level = ComboSlice(0, (), zero, zero, zero if with_persist else None)
    if min_weight == 0:
        yield level
    for w in range(1, max_weight + 1):
        # each row of weight w-1 (at w=1 the empty one) extends by every
        # index after its last
        last = level.chain[-1][1] if w > 1 else np.array([-1])
        counts = n - 1 - last
        bounds = [0, len(last)] if w < max_weight or w == 1 else np.cumsum(
            [0] + [math.comb(n - 1 - i, w - 2) for i in range(n)])[
            _runs([math.comb(n - 1 - i, w - 1) for i in range(n)], max_rows)]
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


# re-measurement budget of an adaptive decoder per gadget run
MAX_REREADS = 4


def reread_table(decoder, syn: CatSyndrome) -> list[tuple[tuple[int, ...], int]]:
    """An adaptive decoder compiled for one base-round syndrome from its
    ``decode``: the tree walk behind ``decoders.AdaptiveDecoder``'s
    default ``reread_tables``.

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
    """An adaptive decoder's tables of an array of syndrome keys, indexed
    by (key, outcome vector) as in ``reread_table``: the stabilizer
    re-read at each step (int8, -1 past the last) and the correction
    (uint64).  They come from the decoder's ``reread_tables``, as a
    static decoder's corrections come from ``decode_keys``:
    ``decoders.RuleDecoderD7`` runs its rule on arrays, and
    ``decoders.AdaptiveDecoder`` derives one from ``decode``."""
    return decoder.reread_tables(keys, cat_count, rounds)


# widest key a ``KeyCache`` indexes through a dense table (2^20 int32
# slots, 4 MB); wider keys take binary search in a sorted copy
DENSE_BITS = 20


class KeyCache:
    """Decoder answers per syndrome key of at most ``bits`` bits: row i
    of ``values`` answers ``keys[i]``, rows in the order the keys were
    first seen.  Keys of up to ``DENSE_BITS`` bits find their row in a
    dense int32 table of 2^bits slots, wider ones by binary search in a
    sorted copy; either index is built on first use, so an unused cache
    pickles small."""

    def __init__(self, bits: int, keys: np.ndarray = np.zeros(0, np.uint64),
                 values: tuple[np.ndarray, ...] = ()) -> None:
        self.bits, self.keys, self.values = bits, keys, values
        # dense: row + 1 per key, 0 if unseen; sorted: (sorted keys, their rows)
        self._index = None

    def find(self, keys: np.ndarray) -> np.ndarray:
        """The row of each of ``keys``, -1 for a key not seen."""
        if self._index is None:
            rows = np.arange(len(self.keys))
            if self.bits <= DENSE_BITS:
                self._index = np.zeros(1 << self.bits, np.int32)
                self._index[self.keys] = rows + 1
            else:
                order = np.argsort(self.keys)
                self._index = self.keys[order], rows[order]
        if self.bits <= DENSE_BITS:
            # keys below 2^DENSE_BITS read the same as int64, which numpy
            # indexes without the cast it makes of uint64 on every call
            return self._index[keys.view(np.int64)] - 1
        table, rows = self._index
        pos = np.searchsorted(table, keys)
        found = pos < len(table)
        found[found] = table[pos[found]] == keys[found]
        out = np.full(len(keys), -1, np.intp)
        out[found] = rows[pos[found]]
        return out

    def index(self, keys: np.ndarray, compute) -> np.ndarray:
        """The row of ``values`` of each of ``keys``, which may repeat.
        ``compute`` maps the distinct keys not seen before, sorted, to a
        tuple of arrays; it runs also on none, to give the answers' shape
        to an empty cache."""
        rows = self.find(keys)
        miss = rows < 0
        if miss.any() or not self.values:
            fresh = sort_unique(keys[miss])
            new = compute(fresh)
            self.values = tuple(np.concatenate([old, v])
                                for old, v in zip(self.values, new)) or new
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

    def get(self, keys: np.ndarray, compute) -> tuple[np.ndarray, ...]:
        """The answers for ``keys``, one row per key (see ``index``)."""
        rows = self.index(keys, compute)
        return tuple(v[rows] for v in self.values)


def reread_events(g: GadgetCircuit) -> tuple[list[tuple[int, int, int]], list[list[int]]]:
    """The re-measurement faults MC samples: at each re-read step, each
    distinct nonzero row of ``FaultTable.for_reread``, named (step, op,
    code) by its first table row.  Each is a row of masks, per step the
    outcome flip and the cat X relative to the stabilizer read."""
    k, names, rows = MAX_REREADS, [], []
    reread = _first_rows(FaultTable.for_reread(g)).items()
    for step, ((anc, cats), (op, code)) in product(range(k), reread):
        if anc or cats:
            names.append((step, op, code))
            rows.append([0] * (2 * step) + [anc, cats] + [0] * (2 * (k - 1 - step)))
    return names, rows


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
    def build(cls, names: Sequence[tuple[int, int, int]], rows: Sequence[Sequence[int]],
              max_size: int) -> "EventSets":
        rows = np.array(rows, np.uint64).reshape(len(rows), 2 * MAX_REREADS)
        first: dict[bytes, tuple[tuple[int, ...], np.ndarray]] = {}
        for size in range(max_size + 1):
            combos = np.array(list(combinations(range(len(rows)), size)), np.intp)
            combos = combos.reshape(math.comb(len(rows), size), size)
            for c, xor in zip(combos.tolist(), np.bitwise_xor.reduce(rows[combos], axis=1)):
                first.setdefault(xor.tobytes(), (c, xor))
        sets, masks = zip(*first.values())
        return cls(tuple(tuple(names[e] for e in c) for c in sets),
                   np.array([len(c) for c in sets]),
                   np.array([max((names[e][0] + 1 for e in c), default=0)
                             for c in sets]), np.array(masks))


def follow_rereads(reads: np.ndarray, corrections: np.ndarray, inv: np.ndarray,
                   frame: np.ndarray, noise, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Follow the tables of ``compile_rereads``: each run's correction
    and number of re-reads.  Run j reads table ``inv[j]`` under the X
    errors ``frame[j]`` on the m cats (updated in place, so of the full
    shape): re-reading stabilizer s gives the parity of cats s and s+1
    (mod m).  ``noise`` yields one (anc, cats) pair of
    ``FaultTable.for_reread`` columns per step: ``anc`` flips the step's
    outcome, and ``cats``, relative to s (bit 0 is cat s, bit 1 cat
    s+1), lands on the frame after the read.  Arrays broadcast.

    A run whose table re-reads nothing takes ``corrections[inv, 0]`` in
    0 steps.  The verifier follows its whole grid.  Gadget MC follows the
    runs a re-read fault hits with their own noise, and of the others only
    those that re-read, once per distinct (table, frame) pair with none:
    at most 11·m·2^m pairs for ``RuleDecoderD7`` (``GadgetMonteCarlo``)."""
    full = (1 << m) - 1
    v = np.zeros(np.broadcast_shapes(inv.shape, frame.shape), np.uint8)
    steps = np.zeros(v.shape, np.uint8)
    for i, (anc, cats) in zip(range(MAX_REREADS), noise):
        stab = reads[inv, v, i]
        live = stab >= 0
        s = np.maximum(stab, 0).astype(np.uint8)
        bit = (frame >> s) ^ (frame >> ((s + 1) % m)) ^ anc
        v |= ((bit & 1).astype(np.uint8) & live) << i
        steps += live
        cats = cats << s
        frame ^= (cats & full) ^ (cats >> m)
    return corrections[inv, v], steps


def _check_combos(
    g: GadgetCircuit,
    decoder,
    t: int,
    effects: Sequence[Effect],
    names: Sequence[tuple[int, int]],
    events: EventSets,
    cache: KeyCache,
    weight: int,
) -> tuple[int, Counterexample | None]:
    """Verify all combos of ``weight`` effects against each set of
    ``events`` within the budget t - weight (a static decoder meets the
    empty set only): a (row, set) grid per slice.  A cell counts only if
    its run reaches the step of each of its events.  ``cache`` holds the
    decoder's answer per key (a correction, or an adaptive decoder's
    compiled table); each slice's keys index it directly, and a serial
    walk shares it across weights."""
    m, rounds, gamma = g.cat_count, g.base_rounds, g.gamma
    adaptive = getattr(decoder, "needs_round2", False)
    k = int(np.searchsorted(events.size, t - weight, "right"))
    checked, masks, budget = 0, events.masks[:k], weight + events.size[:k]
    for sl in combo_walk(effects, weight, weight, with_persist=adaptive,
                         max_rows=max(1, _GRID_CELLS // k)):
        if adaptive:
            rows = cache.index(sl.key, lambda new: compile_rereads(decoder, new, m, rounds))
            corr, steps = follow_rereads(
                *cache.values, rows[:, None], np.repeat(sl.persist[:, None], k, 1),
                zip(masks[:, 0::2].T, masks[:, 1::2].T), m)
            admitted = steps >= events.need[:k]
        else:
            # one ``decode_keys`` call for the distinct keys not decoded before
            rows = cache.index(sl.key, lambda new: (decoder.decode_keys(new, m, rounds),))
            corr = cache.values[0][rows, None]
            admitted = np.ones(corr.shape, bool)
        cw = coset_weights(sl.data[:, None] ^ corr, gamma)
        bad = admitted & (cw > budget)
        if bad.any():
            # the first failing cell in row-major order
            cell = int(np.argmax(bad))
            r, j = divmod(cell, k)
            ops, codes = zip(*(names[i] for i in sl.combo(r)))
            return checked + int(np.count_nonzero(admitted.ravel()[:cell])) + 1, Counterexample(
                ops, codes, events.names[j], int(budget[j]),
                int(sl.key[r]), int(sl.data[r]), int(corr[r, j]), int(cw[r, j]))
        checked += int(np.count_nonzero(admitted))
    return checked, None


def verify_gadget(g: GadgetCircuit, decoder, t: int, *, jobs: int = 1) -> VerificationReport:
    """Exhaustively certify that ``decoder`` keeps the gadget t-FT.

    Every combination of 1..t effect classes (``_effect_classes``: the
    distinct rows of the fault table MC samples for this decoder) is
    decoded, and the residual must stay within the number of faults.  An
    adaptive decoder also meets every set of the re-measurement faults
    MC samples at each re-read (``reread_events``) within the
    remaining budget, each costing one, re-read by ``follow_rereads`` as
    in MC.  The first counterexample in order is reported, its faults
    named (op, code) and its events (step, op, code).

    A static decoder (no true ``needs_round2``) must provide
    ``decode_keys(keys, cat_count, rounds)``, the corrections for a
    uint64 array of syndrome keys; ``decoders.StaticDecoder`` derives
    one from ``decode``.  An adaptive one must provide
    ``reread_tables(keys, cat_count, rounds)`` (``compile_rereads``);
    ``decoders.AdaptiveDecoder`` derives one from ``decode``.

    The walk runs in one process, weight by weight, with one decode
    cache shared across weights, and stops at the first counterexample.
    ``jobs`` accepts only 1: a compatibility shim for the ``jobs=1`` of
    ``perfbench/worker.py``, to go once that call drops the keyword.
    """
    if jobs != 1:
        raise ValueError(f"jobs={jobs}: the verifier runs in one process, jobs must be 1")
    adaptive = bool(getattr(decoder, "needs_round2", False))
    effects, names = _effect_classes(FaultTable.for_decoder(g, adaptive))
    events = EventSets.build(*(reread_events(g) if adaptive else ([], [])), max(t - 1, 0))
    cache = KeyCache(g.cat_count * g.base_rounds)
    per_weight: list[int] = []
    cx = None
    for w in range(1, t + 1):
        checked, cx = _check_combos(g, decoder, t, effects, names, events, cache, w)
        per_weight.append(checked)
        if cx is not None:
            break
    return VerificationReport(cx is None, cx, len(effects), tuple(per_weight))


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
