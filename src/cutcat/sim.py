"""Deterministic Pauli-frame propagation with fault injection.

Everything runs in the error-frame picture: the walker tracks which X/Z
errors sit on each qubit, CNOTs move components per the Clifford rules,
and a measurement outcome records its flip relative to the noiseless
run.  Ring outcomes are therefore 0 in a fault-free pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .circuit import (
    ANC_MID,
    ANC_POST,
    ANC_PREP,
    CAT_INIT,
    POST_GATE_CONTROL,
    PRE_MEASUREMENT,
    FaultLocation,
    GadgetCircuit,
    enumerate_fault_locations,
)
from .pauli import parity

# uniform two-qubit depolarizing support, code i -> (P_control, P_target)
PAULI_PAIRS: tuple[tuple[str, str], ...] = tuple(
    (a, b) for a in "IXYZ" for b in "IXYZ"
)[1:]
PAULI_SINGLES: tuple[str, ...] = ("X", "Y", "Z")


@dataclass(frozen=True)
class CatSyndrome:
    """Ring-measurement outcomes of one gadget run.

    ``rounds[i]`` packs round i's m outcome bits; ``adaptive`` holds any
    re-measured stabilizers as (index, bit) pairs.  The trigger set is
    the ordered list of stabilizers that fired in round one.
    """

    cat_count: int
    rounds: tuple[int, ...]
    adaptive: tuple[tuple[int, int], ...] = ()

    @property
    def trigger_set(self) -> tuple[int, ...]:
        first = self.rounds[0] if self.rounds else 0
        return tuple(i for i in range(self.cat_count) if (first >> i) & 1)

    def round_bit(self, rnd: int, stab: int) -> int:
        return (self.rounds[rnd] >> (stab % self.cat_count)) & 1

    def adaptive_map(self) -> dict[int, int]:
        return dict(self.adaptive)

    def key(self) -> int:
        """All full-round bits concatenated, round 0 lowest."""
        out = 0
        for i, bits in enumerate(self.rounds):
            out |= bits << (i * self.cat_count)
        return out


@dataclass(frozen=True)
class PropagationResult:
    data_x: int
    data_z: int
    syndrome: CatSyndrome
    generator_bit_flipped: bool
    cat_x_final: int            # X errors remaining on cat qubits (local bit r)
    cat_z_final: int


class _Walker:
    """Mutable frame state for one run; internal."""

    def __init__(self, g: GadgetCircuit, x: int = 0, z: int = 0):
        self.g = g
        self.x = x
        self.z = z
        self.outcome_flips: dict[int, int] = {}

    def inject(self, qubit: int, pauli: str) -> None:
        if pauli in ("X", "Y"):
            self.x ^= 1 << qubit
        if pauli in ("Z", "Y"):
            self.z ^= 1 << qubit
        if pauli not in ("X", "Y", "Z"):
            raise ValueError(f"unknown Pauli {pauli!r}")

    def run(self, gates: Sequence, inj: dict, tag: object = None) -> None:
        """Execute gates, applying injections keyed by position.

        Position keys: ("start",), ("before_gate", tag, i),
        ("after_gate", tag, i), ("before_meas", slot).
        """
        for q, p in inj.get(("start",), ()):
            self.inject(q, p)
        for i, gate in enumerate(gates):
            for q, p in inj.get(("before_gate", tag, i), ()):
                self.inject(q, p)
            if gate.kind == "CNOT":
                c, t = gate.q0, gate.q1
                if (self.x >> c) & 1:
                    self.x ^= 1 << t
                if (self.z >> t) & 1:
                    self.z ^= 1 << c
            elif gate.kind == "MZ":
                for q, p in inj.get(("before_meas", gate.slot), ()):
                    self.inject(q, p)
                self.outcome_flips[gate.slot] = (self.x >> gate.q0) & 1
            elif gate.kind == "RESET":
                keep = ~(1 << gate.q0)
                self.x &= keep
                self.z &= keep
            for q, p in inj.get(("after_gate", tag, i), ()):
                self.inject(q, p)

    def result(self, extra_gen_flip: int = 0) -> PropagationResult:
        g = self.g
        data_mask = (1 << g.gamma) - 1
        cat_local_x = (self.x >> g.gamma) & ((1 << g.cat_count) - 1)
        cat_local_z = (self.z >> g.gamma) & ((1 << g.cat_count) - 1)
        rounds = []
        for slots in g.round_slots:
            bits = 0
            for pos, slot in enumerate(slots):
                bits |= self.outcome_flips.get(slot, 0) << pos
            rounds.append(bits)
        adaptive = tuple(
            (slot - g.base_rounds * g.cat_count, bit)
            for slot, bit in sorted(self.outcome_flips.items())
            if slot >= g.base_rounds * g.cat_count
        )
        syn = CatSyndrome(g.cat_count, tuple(rounds), adaptive)
        # the generator bit comes from the final transversal X-basis
        # readout of the cat qubits, which Z components flip
        gen_flip = bool(parity(cat_local_z) ^ (extra_gen_flip & 1))
        return PropagationResult(
            data_x=self.x & data_mask,
            data_z=self.z & data_mask,
            syndrome=syn,
            generator_bit_flipped=gen_flip,
            cat_x_final=cat_local_x,
            cat_z_final=cat_local_z,
        )


def _location_position(g: GadgetCircuit, loc: FaultLocation):
    """Map a fault location onto a walker injection (position, qubit)."""
    if loc.kind == CAT_INIT:
        return ("start",), loc.qubit
    if loc.kind == POST_GATE_CONTROL:
        return ("after_gate", None, loc.gate_index), g.gates[loc.gate_index].q0
    if loc.kind == ANC_PREP:
        return ("before_gate", None, loc.gate_index), loc.qubit
    if loc.kind == ANC_MID:
        return ("after_gate", None, loc.gate_index), loc.qubit
    if loc.kind == ANC_POST:
        return ("after_gate", None, loc.gate_index), loc.qubit
    if loc.kind == PRE_MEASUREMENT:
        return ("before_meas", loc.slot), loc.qubit
    raise ValueError(f"unknown fault kind {loc.kind}")


def _resolve_faults(g, faults, locations):
    inj: dict = {}
    for loc, pauli in faults:
        if isinstance(loc, int):
            if locations is None:
                locations = enumerate_fault_locations(g)
            if not 0 <= loc < len(locations):
                raise ValueError(f"unknown fault id {loc}")
            loc = locations[loc]
        pos, qubit = _location_position(g, loc)
        inj.setdefault(pos, []).append((qubit, pauli))
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
    walker = _Walker(g, x=initial_x, z=initial_z)
    walker.run(g.gates, inj, tag=None)
    return walker.result()


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
    walker = _Walker(g, x=initial_x, z=initial_z)
    walker.run(g.gates, inj, tag=None)
    base = walker.result()

    plan = sorted(set(planner(base.syndrome))) if planner is not None else []
    extra_inj: dict = {}
    plan_set = set(plan)
    for stab, kind, pauli in adaptive_faults:
        if stab not in plan_set:
            continue
        if kind == "anc_prep":
            pos = ("before_gate", ("adaptive", stab), 0)
        elif kind == "anc_mid":
            pos = ("after_gate", ("adaptive", stab), 0)
        elif kind in ("anc_post", "pre_measurement"):
            pos = ("after_gate", ("adaptive", stab), 1)
        elif kind == "post_gate_control_0":
            pos = ("after_gate", ("adaptive", stab), 0)
        elif kind == "post_gate_control_1":
            pos = ("after_gate", ("adaptive", stab), 1)
        else:
            raise ValueError(f"unknown adaptive fault kind {kind}")
        if kind.startswith("post_gate_control"):
            # re-measurement gate 0 reads the neighbor cat, gate 1 the own cat
            idx = int(kind[-1])
            qubit = g.cat_qubit(stab + 1 - idx)
        else:
            qubit = g.anc_qubit(stab)
        extra_inj.setdefault(pos, []).append((qubit, pauli))

    for stab in plan:
        if not 0 <= stab < g.cat_count:
            raise ValueError(f"planner requested stabilizer {stab}")
        gates = g.ring_measurement_gates(stab, g.adaptive_slot(stab))
        walker.run(gates, extra_inj, tag=("adaptive", stab))
    return walker.result()


@dataclass(frozen=True)
class NoisyOp:
    kind: str           # "init1q" | "cnot" | "meas_slot" | "meas_final"
    qubit: int = -1
    gate_index: int = -1
    slot: int = -1

    @property
    def n_codes(self) -> int:
        return 15 if self.kind == "cnot" else 3


def noisy_operations(g: GadgetCircuit) -> list[NoisyOp]:
    """Noisy operation sites of one gadget run, in program order.

    Circuit-level depolarizing noise at one rate for every channel: a
    one-qubit depolarizing on each freshly prepared cat qubit, a
    two-qubit depolarizing after every CNOT, and a one-qubit
    depolarizing before each measurement (ring slots and the final
    transversal readout).
    """
    ops: list[NoisyOp] = []
    for r in range(g.cat_count):
        ops.append(NoisyOp("init1q", qubit=g.cat_qubit(r)))
    for gi, gate in enumerate(g.gates):
        if gate.kind == "CNOT":
            ops.append(NoisyOp("cnot", gate_index=gi))
        elif gate.kind == "MZ":
            ops.append(NoisyOp("meas_slot", qubit=gate.q0, slot=gate.slot))
    for r in range(g.cat_count):
        ops.append(NoisyOp("meas_final", qubit=g.cat_qubit(r)))
    return ops


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
    inj: dict = {}

    def add(pos, qubit, pauli):
        if pauli != "I":
            inj.setdefault(pos, []).append((qubit, pauli))

    extra_gen_flip = 0
    for op_idx, code in entries:
        op = ops[op_idx]
        if op.kind == "init1q":
            add(("start",), op.qubit, PAULI_SINGLES[code])
        elif op.kind == "cnot":
            pc, pt = PAULI_PAIRS[code]
            gate = g.gates[op.gate_index]
            add(("after_gate", None, op.gate_index), gate.q0, pc)
            add(("after_gate", None, op.gate_index), gate.q1, pt)
        elif op.kind == "meas_slot":
            add(("before_meas", op.slot), op.qubit, PAULI_SINGLES[code])
        elif op.kind == "meas_final":
            # noise after the transversal Hadamard: X and Y flip the
            # computational readout, i.e. the generator parity bit
            if PAULI_SINGLES[code] in ("X", "Y"):
                extra_gen_flip ^= 1
    walker = _Walker(g)
    walker.run(g.gates, inj, tag=None)
    return walker.result(extra_gen_flip=extra_gen_flip)


@dataclass(frozen=True)
class Effect:
    """Frame-level consequence of a single injected Pauli.

    slot_flips packs outcome flips over all base-round slots; persist_x
    marks cat qubits still carrying an X at the end of the base rounds
    (what any re-measurement would see).
    """

    data_x: int = 0
    data_z: int = 0
    slot_flips: int = 0
    persist_x: int = 0
    gen_flip: int = 0

    def __xor__(self, other: "Effect") -> "Effect":
        return Effect(
            self.data_x ^ other.data_x,
            self.data_z ^ other.data_z,
            self.slot_flips ^ other.slot_flips,
            self.persist_x ^ other.persist_x,
            self.gen_flip ^ other.gen_flip,
        )


def _result_to_effect(g: GadgetCircuit, res: PropagationResult) -> Effect:
    return Effect(
        data_x=res.data_x,
        data_z=res.data_z,
        slot_flips=res.syndrome.key(),
        persist_x=res.cat_x_final,
        gen_flip=int(res.generator_bit_flipped),
    )


def location_effects(
    g: GadgetCircuit, locations: Sequence[FaultLocation], pauli: str = "X",
) -> list[Effect]:
    """Single-fault effect of each location, via one propagation apiece."""
    return [
        _result_to_effect(g, propagate(g, [(loc, pauli)])) for loc in locations
    ]


def op_base_effects(g: GadgetCircuit, op: NoisyOp) -> dict[str, Effect]:
    """Effects of elemental X/Z components of a noisy op.

    Pair codes compose by XOR of their components, which is exact in the
    frame picture.
    """
    def inj_effect(pos, qubit, pauli) -> Effect:
        walker = _Walker(g)
        walker.run(g.gates, {pos: [(qubit, pauli)]}, tag=None)
        return _result_to_effect(g, walker.result())

    if op.kind == "init1q":
        return {
            "X": inj_effect(("start",), op.qubit, "X"),
            "Z": inj_effect(("start",), op.qubit, "Z"),
        }
    if op.kind == "cnot":
        gate = g.gates[op.gate_index]
        pos = ("after_gate", None, op.gate_index)
        return {
            "cX": inj_effect(pos, gate.q0, "X"),
            "cZ": inj_effect(pos, gate.q0, "Z"),
            "tX": inj_effect(pos, gate.q1, "X"),
            "tZ": inj_effect(pos, gate.q1, "Z"),
        }
    if op.kind == "meas_slot":
        pos = ("before_meas", op.slot)
        return {
            "X": inj_effect(pos, op.qubit, "X"),
            "Z": inj_effect(pos, op.qubit, "Z"),
        }
    if op.kind == "meas_final":
        return {"X": Effect(gen_flip=1), "Z": Effect()}
    raise ValueError(op.kind)


def op_code_effects(g: GadgetCircuit, op: NoisyOp) -> list[Effect]:
    """Effect per depolarizing code of a noisy op."""
    base = op_base_effects(g, op)
    out = []
    if op.kind == "cnot":
        for pc, pt in PAULI_PAIRS:
            eff = Effect()
            if pc in ("X", "Y"):
                eff ^= base["cX"]
            if pc in ("Z", "Y"):
                eff ^= base["cZ"]
            if pt in ("X", "Y"):
                eff ^= base["tX"]
            if pt in ("Z", "Y"):
                eff ^= base["tZ"]
            out.append(eff)
    else:
        for p in PAULI_SINGLES:
            eff = Effect()
            if p in ("X", "Y"):
                eff ^= base["X"]
            if p in ("Z", "Y"):
                eff ^= base["Z"]
            out.append(eff)
    return out
