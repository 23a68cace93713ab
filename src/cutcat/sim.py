"""Deterministic Pauli-frame propagation with fault injection.

Everything runs in the error-frame picture: the walker tracks which X/Z
errors sit on each qubit, CNOTs move components per the Clifford rules,
and a measurement outcome records its flip relative to the noiseless
run.  Ring outcomes are therefore 0 in a fault-free pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from operator import xor
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
class CatSyndrome:
    """Ring-measurement outcomes of one gadget run: ``rounds[i]`` packs
    round i's m outcome bits."""

    cat_count: int
    rounds: tuple[int, ...]

    @classmethod
    def from_key(cls, cat_count: int, key: int, n_rounds: int) -> "CatSyndrome":
        """Inverse of ``key()``: split ``n_rounds`` full rounds off the key."""
        mask = (1 << cat_count) - 1
        return cls(cat_count, tuple((key >> (i * cat_count)) & mask
                                    for i in range(n_rounds)))

    def round_bit(self, rnd: int, stab: int) -> int:
        return (self.rounds[rnd] >> (stab % self.cat_count)) & 1

    def key(self) -> int:
        """All full-round bits concatenated, round 0 lowest."""
        out = 0
        for i, bits in enumerate(self.rounds):
            out |= bits << (i * self.cat_count)
        return out


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

    def __xor__(self, other: "Effect") -> "Effect":
        return Effect(
            self.data_x ^ other.data_x,
            self.slot_flips ^ other.slot_flips,
            self.persist_x ^ other.persist_x,
            self.gen_flip ^ other.gen_flip,
        )


@dataclass(frozen=True)
class PropagationResult:
    data_x: int
    syndrome: CatSyndrome
    generator_bit_flipped: bool
    cat_x_final: int            # X errors remaining on cat qubits (local bit r)


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

    def effect(self) -> Effect:
        g = self.g
        cat_mask = (1 << g.cat_count) - 1
        # the generator bit comes from the final transversal X-basis
        # readout of the cat qubits, which Z components flip
        return Effect(
            data_x=self.x & ((1 << g.gamma) - 1),
            slot_flips=sum(bit << slot for slot, bit in self.outcome_flips.items()),
            persist_x=(self.x >> g.gamma) & cat_mask,
            gen_flip=parity((self.z >> g.gamma) & cat_mask),
        )

    def result(self, extra_gen_flip: int = 0) -> PropagationResult:
        g = self.g
        eff = self.effect()
        return PropagationResult(
            data_x=eff.data_x,
            syndrome=CatSyndrome.from_key(g.cat_count, eff.slot_flips, g.base_rounds),
            generator_bit_flipped=bool((eff.gen_flip ^ extra_gen_flip) & 1),
            cat_x_final=eff.persist_x,
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
        return len(self.codes)


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
) -> PropagationResult:
    """Scalar reference for sampled noise: run the gadget once with the
    given (op index into ``noisy_operations(g)``, code) faults.

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
    return _Walker(g).run(g.gates, inj).result(extra_gen_flip)


def op_code_effects(g: GadgetCircuit, op: NoisyOp,
                    gates: Sequence[Gate] | None = None) -> list[Effect]:
    """Effect per depolarizing code of ``op``, a noisy op of ``gates``
    (by default the gadget's).

    Each qubit is walked once with a Y, from the op on (the frame is
    empty before it): the X and Z frames never mix, so the walk gives
    both parts.  A code is the XOR of the effects of its Paulis, which
    is exact in the frame picture.
    """
    if op.final:
        parts = [(Effect(gen_flip=1), Effect())]
    else:
        gates = g.gates if gates is None else gates
        ys = [_Walker(g).run(gates[op.after + 1:], {-1: [(q, "Y")]}).effect()
              for q in op.qubits]
        parts = [(replace(y, gen_flip=0), Effect(gen_flip=y.gen_flip)) for y in ys]
    by_pauli = [{"I": Effect(), "X": x, "Y": x ^ z, "Z": z} for x, z in parts]
    return [reduce(xor, (e[p] for e, p in zip(by_pauli, code))) for code in op.codes]


# what bounds the bit width of each FaultTable column (flips1... are more flips)
_COLUMN_WIDTH = {"data_x": "gamma", "slot_flips": "ring slots", "x": "n", "z": "n",
                 "wx": "n", "wz": "n", "flips": "generators plus ring slots"}

# the most gaps per chunk of ``FaultTable.sample``: it orders the draws, so
# the manifest format fixes it
_MAX_CHUNK = 1 << 16


class FaultTable:
    """Per-operation depolarizing effects, sampled over a batch.

    ``n_codes[i]`` is the number of non-identity Paulis of noisy op i
    (15 for a CNOT, 3 for a one-qubit channel); each column holds one
    uint64 effect mask per (op, code), tiled to ``width``, the lcm of the
    ``n_codes`` (entry j is code j mod ``n_codes[i]``).  Effects are
    XOR-linear, so a trial's combined effect is the XOR of its faults' rows.
    """

    def __init__(self, n_codes: Sequence[int],
                 columns: dict[str, Sequence[Sequence[int]]]):
        self.n_codes = list(n_codes)
        self.width = math.lcm(*self.n_codes)
        self.columns = []
        for name, rows in columns.items():
            bits = max((v.bit_length() for row in rows for v in row), default=0)
            if bits > 64:
                raise ValueError(
                    f"{_COLUMN_WIDTH.get(name.rstrip('0123456789'), name)}={bits} exceeds the "
                    "64-bit limit of packed masks"
                )
            self.columns.append(np.array(
                [np.array(row, np.uint64)[np.arange(self.width) % len(row)] for row in rows],
                np.uint64).reshape(len(self.n_codes), self.width))

    @classmethod
    def from_gadget(cls, g: GadgetCircuit, fields: Sequence[str]) -> "FaultTable":
        """Columns of the named ``Effect`` fields over the gadget's noisy ops."""
        ops = noisy_operations(g)
        effects = [op_code_effects(g, op) for op in ops]
        return cls([op.n_codes for op in ops],
                   {name: [[getattr(e, name) for e in row] for row in effects]
                    for name in fields})

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
        cat s, bit 1 cat s+1)."""
        slot = g.adaptive_slot(0)
        gates = g.ring_measurement_gates(0, slot)
        ops = gate_operations(gates)
        effects = [op_code_effects(g, op, gates) for op in ops]
        return cls([op.n_codes for op in ops],
                   {"anc": [[e.slot_flips >> slot for e in row] for row in effects],
                    "cats": [[e.persist_x for e in row] for row in effects]})

    def sample(self, rng: np.random.Generator, size: int,
               p: float) -> list[np.ndarray]:
        """One XOR accumulator per column for ``size`` trials.

        Each (trial, op) cell faults independently with probability p,
        then draws its code uniformly.  The draw order is part of the
        manifest format: one stream over the cells in trial-major order
        (cell = trial * n_ops + op), in chunks of geometric gaps between
        hit cells, each chunk followed by one code in [0, width) per hit
        it places; nothing at all when p or size is 0.
        """
        accs = [np.zeros(size, dtype=np.uint64) for _ in self.columns]
        n_ops = len(self.n_codes)
        cells = size * n_ops
        if p == 0.0 or cells == 0:
            return accs
        # chunks of the mean hit count plus 5 sigma, capped, until they
        # pass the last cell; clipping keeps the sum of the huge gaps of a
        # tiny p from overflowing
        mean = cells * p
        chunk = min(cells, _MAX_CHUNK, int(mean + 5.0 * math.sqrt(mean) + 10.0))
        flat = [col.ravel() for col in self.columns]
        last = -1
        while last < cells - 1:
            hit = last + np.minimum(rng.geometric(p, chunk), cells + 1).cumsum()
            last = int(hit[-1])
            hit = hit[:np.searchsorted(hit, cells)]
            trial, op = np.divmod(hit, n_ops)
            entry = op * self.width + rng.integers(0, self.width, size=hit.size)
            # one trial may take several hits, in one chunk or across two
            for acc, col in zip(accs, flat):
                np.bitwise_xor.at(acc, trial, col[entry])
        return accs
