"""Deterministic Pauli-frame propagation with fault injection.

Everything runs in the error-frame picture: the walker tracks which X/Z
errors sit on each qubit, CNOTs move components per the Clifford rules,
and a measurement outcome records its flip relative to the noiseless
run.  Ring outcomes are therefore 0 in a fault-free pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from .circuit import (
    ANC_PREP,
    PRE_MEASUREMENT,
    FaultLocation,
    GadgetCircuit,
    Gate,
    enumerate_fault_locations,
)
from .pauli import parity

# uniform two-qubit depolarizing support, code i -> (P_control, P_target)
PAULI_PAIRS: tuple[tuple[str, str], ...] = tuple(
    (a, b) for a in "IXYZ" for b in "IXYZ"
)[1:]
PAULI_SINGLES: tuple[str, ...] = ("X", "Y", "Z")
_SINGLE_CODES = tuple((p,) for p in PAULI_SINGLES)


@dataclass(frozen=True)
class CatSyndrome:
    """Ring-measurement outcomes of one gadget run.

    ``rounds[i]`` packs round i's m outcome bits; ``adaptive`` holds any
    re-measured stabilizers as (index, bit) pairs.
    """

    cat_count: int
    rounds: tuple[int, ...]
    adaptive: tuple[tuple[int, int], ...] = ()

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
        n_base = g.base_rounds * g.cat_count
        adaptive = tuple((slot - n_base, bit)
                         for slot, bit in sorted(self.outcome_flips.items())
                         if slot >= n_base)
        syn = CatSyndrome.from_key(g.cat_count, eff.slot_flips, g.base_rounds)
        return PropagationResult(
            data_x=eff.data_x,
            syndrome=replace(syn, adaptive=adaptive),
            generator_bit_flipped=bool((eff.gen_flip ^ extra_gen_flip) & 1),
            cat_x_final=eff.persist_x,
        )


def _resolve_faults(g, faults, locations) -> dict[int, list]:
    """Walker injections for (location or id, Pauli) faults, placed as
    ``FaultLocation`` describes."""
    inj: dict[int, list] = {}
    for loc, pauli in faults:
        if isinstance(loc, int):
            if locations is None:
                locations = enumerate_fault_locations(g)
            if not 0 <= loc < len(locations):
                raise ValueError(f"unknown fault id {loc}")
            loc = locations[loc]
        after = loc.gate_index - (loc.kind in (ANC_PREP, PRE_MEASUREMENT))
        inj.setdefault(after, []).append((loc.qubit, pauli))
    return inj


def propagate(
    g: GadgetCircuit,
    faults: Iterable[tuple[FaultLocation | int, str]] = (),
    locations: Sequence[FaultLocation] | None = None,
    initial_x: int = 0,
    initial_z: int = 0,
) -> PropagationResult:
    """Run the gadget once with the given faults injected.

    ``faults`` pairs a location (object or id into ``locations``) with a
    Pauli; a Y decomposes into simultaneous X and Z on the same site.
    ``initial_x``/``initial_z`` seed pre-existing data errors, whose Z
    component feeds the generator outcome through the data CNOTs.
    """
    inj = _resolve_faults(g, faults, locations)
    return _Walker(g, x=initial_x, z=initial_z).run(g.gates, inj).result()


# adaptive fault kind -> (re-read gate it follows, -1 for before the
# first; offset from the stabilizer of the cat qubit it hits, None for the
# ancilla).  Gate 0 reads the neighbor cat, gate 1 the own cat.
_REREAD_FAULTS = {
    "anc_prep": (-1, None),
    "anc_mid": (0, None),
    "anc_post": (1, None),
    "pre_measurement": (1, None),
    "post_gate_control_0": (0, 1),
    "post_gate_control_1": (1, 0),
}


def adaptive_propagate(
    g: GadgetCircuit,
    faults: Iterable[tuple[FaultLocation | int, str]] = (),
    planner: Callable[[CatSyndrome], Iterable[int]] | None = None,
    adaptive_faults: Iterable[tuple[int, str, str]] = (),
    locations: Sequence[FaultLocation] | None = None,
    initial_x: int = 0,
    initial_z: int = 0,
) -> PropagationResult:
    """Run the base rounds, consult the planner, then re-measure.

    The planner maps the base-round syndrome to stabilizer indices to
    measure again; persistent cat errors from the base rounds show up in
    those outcomes.  ``adaptive_faults`` are (stabilizer, kind, pauli)
    triples bound to the re-measurement of that stabilizer.
    """
    inj = _resolve_faults(g, faults, locations)
    walker = _Walker(g, x=initial_x, z=initial_z).run(g.gates, inj)
    plan = sorted(set(planner(walker.result().syndrome))) if planner is not None else []

    extra: dict[int, dict[int, list]] = {}
    for stab, kind, pauli in adaptive_faults:
        if stab not in plan:
            continue
        if kind not in _REREAD_FAULTS:
            raise ValueError(f"unknown adaptive fault kind {kind}")
        after, offset = _REREAD_FAULTS[kind]
        qubit = g.anc_qubit(stab) if offset is None else g.cat_qubit(stab + offset)
        extra.setdefault(stab, {}).setdefault(after, []).append((qubit, pauli))

    for stab in plan:
        if not 0 <= stab < g.cat_count:
            raise ValueError(f"planner requested stabilizer {stab}")
        gates = g.ring_measurement_gates(stab, g.adaptive_slot(stab))
        walker.run(gates, extra.get(stab, {}))
    return walker.result()


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


def location_effects(
    g: GadgetCircuit, locations: Sequence[FaultLocation], pauli: str = "X",
) -> list[Effect]:
    """Single-fault effect of each location, via one walk apiece."""
    return [_Walker(g).run(g.gates, _resolve_faults(g, [(loc, pauli)], None)).effect()
            for loc in locations]


def op_code_effects(g: GadgetCircuit, op: NoisyOp,
                    gates: Sequence[Gate] | None = None) -> list[Effect]:
    """Effect per depolarizing code of ``op``, a noisy op of ``gates``
    (by default the gadget's).

    Each X/Z component is walked once; a code is the XOR of its
    components, which is exact in the frame picture.
    """
    if op.final:
        parts = [(Effect(gen_flip=1), Effect())]
    else:
        gates = g.gates if gates is None else gates
        parts = [tuple(_Walker(g).run(gates, {op.after: [(q, p)]}).effect()
                       for p in "XZ") for q in op.qubits]
    out = []
    for code in op.codes:
        eff = Effect()
        for (x, z), pauli in zip(parts, code):
            if pauli in ("X", "Y"):
                eff ^= x
            if pauli in ("Z", "Y"):
                eff ^= z
        out.append(eff)
    return out
