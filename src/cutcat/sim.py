"""Deterministic Pauli-frame propagation with fault injection.

Everything runs in the error-frame picture: the walker tracks which X/Z
errors sit on each qubit, CNOTs move components per the Clifford rules,
and a measurement outcome records its flip relative to the noiseless
run.  Ring outcomes are therefore 0 in a fault-free pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Sequence

import numpy as np

from .circuit import GadgetCircuit, Gate
from .pauli import parity

# uniform two-qubit depolarizing support, code i -> (P_control, P_target)
PAULI_PAIRS: tuple[tuple[str, str], ...] = tuple(
    (a, b) for a in "IXYZ" for b in "IXYZ"
)[1:]
PAULI_SINGLES: tuple[str, ...] = ("X", "Y", "Z")
_SINGLE_CODES = tuple((p,) for p in PAULI_SINGLES)


@dataclass(frozen=True)
class Effect:
    """Frame-level consequence of a fault, XOR-linear in its Paulis.

    slot_flips has bit s set when outcome slot s flips; persist_x marks
    cat qubits still carrying an X at the end of the walk (what any
    re-measurement would see).
    """

    data_x: int = 0
    slot_flips: int = 0
    persist_x: int = 0
    gen_flip: int = 0


class _Walker:
    """Mutable frame state for one run; internal."""

    def __init__(self, g: GadgetCircuit, x: int = 0, z: int = 0):
        self.g = g
        self.x = x
        self.z = z
        self.outcome_flips: dict[int, int] = {}

    def inject(self, faults: Iterable[tuple[int, str]]) -> None:
        for qubit, pauli in faults:
            if pauli not in ("X", "Y", "Z"):
                raise ValueError(f"unknown Pauli {pauli!r}")
            if pauli != "Z":
                self.x ^= 1 << qubit
            if pauli != "X":
                self.z ^= 1 << qubit

    def run(self, gates: Sequence[Gate], inj: dict[int, list]) -> "_Walker":
        """Execute gates; ``inj[i]`` lists the (qubit, Pauli) faults
        applied right after gate i, ``inj[-1]`` those before the first."""
        self.inject(inj.get(-1, ()))
        for i, gate in enumerate(gates):
            if gate.kind == "CNOT":
                c, t = gate.q0, gate.q1
                if (self.x >> c) & 1:
                    self.x ^= 1 << t
                if (self.z >> t) & 1:
                    self.z ^= 1 << c
            elif gate.kind == "MZ":
                self.outcome_flips[gate.slot] = (self.x >> gate.q0) & 1
            elif gate.kind == "RESET":
                keep = ~(1 << gate.q0)
                self.x &= keep
                self.z &= keep
            faults = inj.get(i)
            if faults:
                self.inject(faults)
        return self

    def effect(self, extra_gen_flip: int = 0) -> Effect:
        """The frame so far as an ``Effect``; ``extra_gen_flip`` adds the
        generator-bit flips of faults on the final readout itself."""
        g = self.g
        cat_mask = (1 << g.cat_count) - 1
        # the generator bit comes from the final transversal X-basis
        # readout of the cat qubits, which Z components flip
        return Effect(
            data_x=self.x & ((1 << g.gamma) - 1),
            slot_flips=sum(bit << slot for slot, bit in self.outcome_flips.items()),
            persist_x=(self.x >> g.gamma) & cat_mask,
            gen_flip=parity((self.z >> g.gamma) & cat_mask) ^ extra_gen_flip,
        )


@dataclass(frozen=True)
class NoisyOp:
    """A depolarizing channel on ``qubits`` right after gate ``after``
    (-1: before the first).  ``final`` marks the transversal cat readout,
    whose noise lands after the Hadamard: X and Y flip the generator bit."""

    after: int
    qubits: tuple[int, ...]
    final: bool = False

    @property
    def codes(self) -> tuple[tuple[str, ...], ...]:
        """The Pauli on each qubit, per non-identity code."""
        return PAULI_PAIRS if len(self.qubits) == 2 else _SINGLE_CODES

    @property
    def n_codes(self) -> int:
        return 4 ** len(self.qubits) - 1


def gate_operations(gates: Sequence[Gate]) -> list[NoisyOp]:
    """Noise of a gate list: a two-qubit depolarizing after every CNOT
    and a one-qubit depolarizing before every measurement."""
    ops = []
    for i, gate in enumerate(gates):
        if gate.kind == "CNOT":
            ops.append(NoisyOp(i, (gate.q0, gate.q1)))
        elif gate.kind == "MZ":
            ops.append(NoisyOp(i - 1, (gate.q0,)))
    return ops


def noisy_operations(g: GadgetCircuit) -> list[NoisyOp]:
    """Noisy operation sites of one gadget run, in program order.

    Circuit-level depolarizing noise at one rate for every channel: a
    one-qubit depolarizing on each freshly prepared cat qubit, the noise
    of the gates, and a one-qubit depolarizing before the final
    transversal readout of each cat qubit.
    """
    cats = [g.cat_qubit(r) for r in range(g.cat_count)]
    return ([NoisyOp(-1, (q,)) for q in cats] + gate_operations(g.gates)
            + [NoisyOp(len(g.gates) - 1, (q,), final=True) for q in cats])


def propagate_op_faults(
    g: GadgetCircuit, entries: Iterable[tuple[int, int]],
) -> Effect:
    """Scalar reference for sampled noise: the effect of one run of the
    gadget with the given (op index into ``noisy_operations(g)``, code)
    faults, the final readout's X and Y flips folded into ``gen_flip``.

    Codes index PAULI_SINGLES for one-qubit channels and PAULI_PAIRS for
    CNOTs.  The vectorized samplers XOR precomputed per-code effects
    instead; tests compare the two.
    """
    ops = noisy_operations(g)
    inj: dict[int, list] = {}
    extra_gen_flip = 0
    for op_idx, code in entries:
        op = ops[op_idx]
        for qubit, pauli in zip(op.qubits, op.codes[code]):
            if op.final:
                extra_gen_flip ^= pauli in ("X", "Y")
            elif pauli != "I":
                inj.setdefault(op.after, []).append((qubit, pauli))
    return _Walker(g).run(g.gates, inj).effect(extra_gen_flip)


def op_code_effects(g: GadgetCircuit, ops: Sequence[NoisyOp], fields: Sequence[str],
                    gates: Sequence[Gate] | None = None) -> dict[str, np.ndarray]:
    """The named ``Effect`` fields of every (op, code) of ``ops``, noisy
    ops of ``gates`` (by default the gadget's), as ``FaultTable`` holds
    them: one uint64 array per field, a row per op, tiled to the lcm of
    the ``n_codes``.

    One backward sweep over the gates keeps, per qubit, the effect of an
    X placed at that point (its final X frame and slot flips) and of a Z
    (its final Z frame), and records an op's qubits as it passes the op.
    The X and Z frames never mix and a code is the XOR of the effects of
    its Paulis, which is exact in the frame picture; the sweep XORs slot
    flips, so no slot may be measured twice.
    """
    gates = g.gates if gates is None else gates
    n = 1 + max([q for gate in gates for q in (gate.q0, gate.q1)]
                + [q for op in ops for q in op.qubits], default=-1)
    sx, sz, slots = [1 << q for q in range(n)], [1 << q for q in range(n)], [0] * n
    by_after: dict[int, list[int]] = {}
    for k, op in enumerate(ops):
        if not op.final:
            by_after.setdefault(op.after, []).append(k)
    # the X frame, Z frame and slot flips of each op's qubit j at entry
    # 2 * op + j; zero for a missing second qubit and the final readout
    xs, zs, ss = [0] * (2 * len(ops)), [0] * (2 * len(ops)), [0] * (2 * len(ops))
    measured = set()
    for i in range(len(gates) - 1, -2, -1):
        for k in by_after.get(i, ()):
            for e, q in enumerate(ops[k].qubits, 2 * k):
                xs[e], zs[e], ss[e] = sx[q], sz[q], slots[q]
        if i < 0:
            break
        gate = gates[i]
        if gate.kind == "CNOT":
            c, t = gate.q0, gate.q1
            sx[c] ^= sx[t]
            slots[c] ^= slots[t]
            sz[t] ^= sz[c]
        elif gate.kind == "MZ":
            if gate.slot in measured:
                raise ValueError(f"slot {gate.slot} is measured twice")
            measured.add(gate.slot)
            slots[gate.q0] ^= 1 << gate.slot
        elif gate.kind == "RESET":
            sx[gate.q0] = sz[gate.q0] = slots[gate.q0] = 0

    gamma, cat_mask = g.gamma, (1 << g.cat_count) - 1
    # [I, X, Y, Z] index of each qubit's Pauli per (op, entry): PAULI_PAIRS
    # code c is the pair 4a + b - 1, PAULI_SINGLES code c the Pauli c + 1
    n_codes = np.array([op.n_codes for op in ops])[:, None]
    code = 1 + np.arange(math.lcm(*n_codes.ravel().tolist())) % n_codes
    pair = n_codes == len(PAULI_PAIRS)
    first, second = np.where(pair, code >> 2, code), np.where(pair, code & 3, 0)
    rows = np.arange(len(ops))[:, None]
    out = {}
    for name in fields:
        # the X and the Z part of the field per entry; the final readout
        # follows the Hadamard, so its X and Y flip the generator bit
        z = [0] * len(xs)
        if name == "data_x":
            x = [v & ((1 << gamma) - 1) for v in xs]
        elif name == "slot_flips":
            x = ss
        elif name == "persist_x":
            x = [(v >> gamma) & cat_mask for v in xs]
        elif name == "gen_flip":
            x = [v for op in ops for v in (int(op.final), 0)]
            z = [parity((v >> gamma) & cat_mask) for v in zs]
        else:
            raise ValueError(f"unknown effect field {name!r}")
        _check_width(name, reduce(or_, x, 0).bit_length())
        x, z = (np.array(v, np.uint64).reshape(len(ops), 2) for v in (x, z))
        table = np.stack([np.zeros_like(x), x, x ^ z, z], axis=-1)
        out[name] = table[rows, 0, first] ^ table[rows, 1, second]
    return out


# what bounds the bit width of each column checked by name
_COLUMN_WIDTH = {"data_x": "gamma", "slot_flips": "ring slots", "x": "n"}


def _check_width(name: str, bits: int) -> None:
    """Rejects a column whose masks need ``bits`` > 64 bits, named by its limit."""
    if bits > 64:
        raise ValueError(f"{_COLUMN_WIDTH.get(name, name)}={bits} "
                         "exceeds the 64-bit limit of packed masks")


def pack_fields(widths: Sequence[int]) -> list[tuple[int, int]]:
    """(word, offset) of fields of the given bit widths packed in order
    into uint64 words from bit 0 of word 0, each right after the one
    before; a field that would cross bit 64 opens a new word."""
    word, at, out = 0, 0, []
    for w in widths:
        if at + w > 64:
            word, at = word + 1, 0
        out.append((word, at))
        at += w
    return out


# the most gaps per chunk of ``FaultTable.sample_words``: it orders the
# draws, so the manifest format fixes it
_MAX_CHUNK = 1 << 16


class FaultTable:
    """Per-operation depolarizing effects, sampled over a batch.

    ``n_codes[i]`` is the number of non-identity Paulis of noisy op i
    (15 for a CNOT, 3 for a one-qubit channel); each column, given in
    order, holds one uint64 effect mask per (op, entry), tiled to
    ``width``, the lcm of the ``n_codes`` (entry j is code j mod
    ``n_codes[i]``), as ``op_code_effects`` returns it.  Effects are
    XOR-linear, so a trial's combined effect is the XOR of its faults'
    rows.  The table keeps the columns only packed by ``pack_fields``
    into as few uint64 words as their bit widths allow, so a hit costs
    one gather per word, not per column.
    """

    def __init__(self, n_codes: Sequence[int], columns: Iterable[np.ndarray]):
        self.n_codes = list(n_codes)
        self.width = math.lcm(*self.n_codes)
        cols = [col.reshape(len(self.n_codes), self.width) for col in columns]
        widths = [int(np.bitwise_or.reduce(col, axis=None)).bit_length() for col in cols]
        # (word, offset, mask) of each column, and the words, flat by entry
        self._fields = [(word, np.uint64(at), np.uint64((1 << w) - 1))
                        for (word, at), w in zip(pack_fields(widths), widths)]
        self._words = [np.zeros(len(self.n_codes) * self.width, np.uint64)
                       for _ in range(1 + max((word for word, _, _ in self._fields),
                                              default=-1))]
        for col, (word, at, _) in zip(cols, self._fields):
            self._words[word] |= col.ravel() << at

    @property
    def columns(self) -> list[np.ndarray]:
        """Each column as an (op, entry) array, unpacked from the words."""
        return [col.reshape(-1, self.width) for col in self.unpack(self._words)]

    @classmethod
    def from_gadget(cls, g: GadgetCircuit, fields: Sequence[str]) -> "FaultTable":
        """Columns of the named ``Effect`` fields over the gadget's noisy ops."""
        ops = noisy_operations(g)
        return cls([op.n_codes for op in ops], op_code_effects(g, ops, fields).values())

    @classmethod
    def for_decoder(cls, g: GadgetCircuit, adaptive: bool) -> "FaultTable":
        """The gadget's table on the fields its decoder reads: data X and
        ring outcomes, and for an adaptive decoder the cat X its re-reads
        see.  Gadget MC samples it and the verifier walks its rows."""
        return cls.from_gadget(
            g, ("data_x", "slot_flips") + (("persist_x",) if adaptive else ()))

    @classmethod
    def for_reread(cls, g: GadgetCircuit) -> "FaultTable":
        """The three noisy ops of one adaptive re-measurement, its two
        CNOTs (neighbor cat first) and the measurement, walked for
        stabilizer 0.  Columns: ``anc``, the outcome flip, and ``cats``,
        the cat X mask relative to the re-read stabilizer s (bit 0 is
        cat s, bit 1 cat s+1).  The outcome goes to slot 0, so its flip is
        the ``anc`` bit."""
        gates = g.ring_measurement_gates(0, 0)
        ops = gate_operations(gates)
        return cls([op.n_codes for op in ops],
                   op_code_effects(g, ops, ("slot_flips", "persist_x"), gates).values())

    def unpack(self, words: Sequence[np.ndarray]) -> list[np.ndarray]:
        """The columns of entries packed as ``sample_words`` returns them."""
        return [(words[word] >> at) & mask for word, at, mask in self._fields]

    def any_nonzero(self, words: Sequence[np.ndarray], n: int) -> np.ndarray:
        """Whether any of the first ``n`` columns of each packed entry is
        nonzero, read on the words without unpacking them."""
        lead = [np.uint64(0)] * len(words)
        for word, at, mask in self._fields[:n]:
            lead[word] |= mask << at
        return np.any([(w & m) != 0 for w, m in zip(words, lead)], axis=0)

    def sample_words(self, rng: np.random.Generator, size: int,
                     p: float) -> tuple[np.ndarray, list[np.ndarray]]:
        """The trials of ``size`` that some fault hit, ascending, and the
        table's packed words of their XORed effects (see ``unpack``).

        Each (trial, op) cell faults independently with probability p,
        then draws its code uniformly.  The draw order is part of the
        manifest format: one stream over the cells in trial-major order
        (cell = trial * n_ops + op), in chunks of geometric gaps between
        hit cells, each chunk followed by one code in [0, width) per hit
        it places; nothing at all when p or size is 0.
        """
        n_ops = len(self.n_codes)
        cells = size * n_ops
        # per chunk: its hit trials, each once, and their XORed words
        runs = [(np.zeros(0, np.int64), [np.zeros(0, np.uint64) for _ in self._words])]
        if p != 0.0 and cells != 0:
            # chunks of the mean hit count plus 5 sigma, capped, until they
            # pass the last cell; clipping keeps the sum of the huge gaps
            # of a tiny p from overflowing
            mean = cells * p
            chunk = min(cells, _MAX_CHUNK, int(mean + 5.0 * math.sqrt(mean) + 10.0))
            last = prev = -1
            while last < cells - 1:
                hit = last + np.minimum(rng.geometric(p, chunk), cells + 1).cumsum()
                last = int(hit[-1])
                hit = hit[:np.searchsorted(hit, cells)]
                trial = hit // n_ops
                entry = (hit - trial * n_ops) * self.width + rng.integers(
                    0, self.width, size=hit.size)
                if not hit.size:
                    break
                # one prefix XOR per word, read at the end of each trial's
                # run and at the end of the run before it
                end = np.flatnonzero(np.concatenate((trial[1:] != trial[:-1], [True])))
                vals = []
                for word in self._words:
                    acc = np.bitwise_xor.accumulate(word[entry])
                    run = acc[end]
                    run[1:] ^= acc[end[:-1]]
                    vals.append(run)
                trial = trial[end]
                if trial[0] == prev:
                    # the trial the chunk before ended on: fold its run in
                    for acc, v in zip(runs[-1][1], vals):
                        acc[-1] ^= v[0]
                    trial, vals = trial[1:], [v[1:] for v in vals]
                if trial.size:
                    runs.append((trial, vals))
                    prev = trial[-1]
        return (np.concatenate([t for t, _ in runs]),
                [np.concatenate(w) for w in zip(*(v for _, v in runs))])
