"""Gate-level IR for extraction gadgets and fault-location enumeration.

Qubit ids: data qubits are 0..gamma-1, cat qubits gamma..gamma+m-1, and a
single reused measurement ancilla sits at gamma+m.  Circuits are built
once and never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Gate:
    """One scheduled operation.

    kind is ``CNOT`` (q0 = control, q1 = target), ``MZ`` (q0 measured into
    ``slot``) or ``RESET`` (q0 cleared).
    """

    kind: str
    q0: int
    q1: int = -1
    slot: int = -1

    def __post_init__(self) -> None:
        if self.kind == "CNOT" and self.q0 == self.q1:
            raise ValueError("CNOT control equals target")


CAT_INIT = "cat_init"
POST_GATE_CONTROL = "post_gate_control"
ANC_PREP = "anc_prep"
ANC_MID = "anc_mid"
ANC_POST = "anc_post"
PRE_MEASUREMENT = "pre_measurement"


@dataclass(frozen=True)
class FaultLocation:
    """A circuit site where an injected Pauli is relevant.

    Relevant means an X fault there can either reach the data qubits or
    flip a ring-measurement outcome.  ids are dense 0..N-1 in enumeration
    order.  A site sits right after gate ``gate_index``, except that
    ANC_PREP and PRE_MEASUREMENT sites precede theirs; cat inits (index
    -1) precede the whole circuit.
    """

    id: int
    kind: str
    qubit: int = -1
    gate_index: int = -1
    slot: int = -1

    def describe(self) -> str:
        if self.kind == CAT_INIT:
            return f"{self.id}:{self.kind}(q{self.qubit})"
        if self.kind == POST_GATE_CONTROL:
            return f"{self.id}:{self.kind}(g{self.gate_index})"
        return f"{self.id}:{self.kind}(slot{self.slot})"


@dataclass(frozen=True)
class GadgetCircuit:
    """Extraction circuit for a single generator of weight ``gamma``.

    ``pair_map[r]`` lists the data qubits cat qubit r touches (two for
    paired cats, one for single-interaction cats).  ``round_slots`` groups
    ring-measurement outcome slots by round; the generator's own outcome
    is read from the final transversal cat measurement and is not slotted.
    """

    kind: str                       # "cut_cat" | "full_cat"
    gamma: int
    cat_count: int
    pair_map: tuple[tuple[int, ...], ...]
    gates: tuple[Gate, ...]
    round_slots: tuple[tuple[int, ...], ...]
    base_rounds: int
    max_adaptive: int = 0
    distance: int = 0

    @property
    def n_slots(self) -> int:
        return sum(len(r) for r in self.round_slots)

    def cat_qubit(self, r: int) -> int:
        return self.gamma + (r % self.cat_count)

    def anc_qubit(self, stab: int) -> int:
        """Measurement ancilla serving ring check ``stab`` (reused per round)."""
        return self.gamma + self.cat_count + (stab % self.cat_count)

    def correction_qubit(self, cat_index: int) -> int:
        """Data qubit targeted when a decoder corrects cat ``cat_index``.

        Decoders select the last data qubit a cat interacts with; for a
        reduced gadget this remaps onto the cat's single data qubit.
        """
        return self.pair_map[cat_index % self.cat_count][-1]

    def ring_measurement_gates(self, stab: int, slot: int) -> tuple[Gate, ...]:
        """ZZ parity check of cat qubits (stab, stab+1), used for adaptive
        re-measurements; the neighbor cat is read first, matching the
        layered order of the base rounds."""
        m = self.cat_count
        anc = self.anc_qubit(stab)
        return (
            Gate("CNOT", self.cat_qubit((stab + 1) % m), anc),
            Gate("CNOT", self.cat_qubit(stab), anc),
            Gate("MZ", anc, slot=slot),
            Gate("RESET", anc),
        )

    def adaptive_slot(self, stab: int) -> int:
        """Outcome slot id used when stabilizer ``stab`` is re-measured."""
        return self.base_rounds * self.cat_count + stab


def _control_has_later_read(gates: tuple[Gate, ...], gi: int) -> bool:
    """True if some later CNOT reads the control of gate ``gi``.

    X faults on a control with no later read only touch the final
    transversal measurement, which X errors cannot flip.
    """
    control = gates[gi].q0
    for g in gates[gi + 1:]:
        if g.kind == "CNOT" and g.q0 == control:
            return True
    return False


def enumerate_fault_locations(g: GadgetCircuit) -> list[FaultLocation]:
    """All sites where an X fault can reach data or flip a ring outcome.

    Per cat qubit: its initialization plus a post-gate control site on
    each of its CNOTs that still has a downstream ring read.  Per ring
    measurement: the ancilla preparation, both CNOT-target sites and the
    pre-measurement site.  For a one-round gadget with gamma = 2m this
    gives exactly 4*gamma locations.
    """
    locs: list[FaultLocation] = []

    def add(kind: str, **kw) -> None:
        locs.append(FaultLocation(id=len(locs), kind=kind, **kw))

    for r in range(g.cat_count):
        add(CAT_INIT, qubit=g.cat_qubit(r))

    data_gate_idx = [
        gi for gi, gate in enumerate(g.gates)
        if gate.kind == "CNOT" and gate.q1 < g.gamma
    ]
    for gi in data_gate_idx:
        if _control_has_later_read(g.gates, gi):
            add(POST_GATE_CONTROL, gate_index=gi, qubit=g.gates[gi].q0)

    # ring measurements: CNOTs are matched to their outcome slot through
    # the ancilla they target, since the layered schedule separates a
    # slot's two CNOTs
    pending: dict[int, list[int]] = {}
    for gi, gate in enumerate(g.gates):
        if gate.kind == "CNOT" and gate.q1 >= g.gamma + g.cat_count:
            pending.setdefault(gate.q1, []).append(gi)
        elif gate.kind == "MZ":
            first, second = pending.pop(gate.q0)
            for ci in (first, second):
                if _control_has_later_read(g.gates, ci):
                    add(POST_GATE_CONTROL, gate_index=ci,
                        qubit=g.gates[ci].q0)
            add(ANC_PREP, slot=gate.slot, qubit=gate.q0, gate_index=first)
            add(ANC_MID, slot=gate.slot, qubit=gate.q0, gate_index=first)
            add(ANC_POST, slot=gate.slot, qubit=gate.q0, gate_index=second)
            add(PRE_MEASUREMENT, slot=gate.slot, qubit=gate.q0, gate_index=gi)
    return locs


def circuit_depth(g: GadgetCircuit, extra_measurements: int = 0) -> int:
    """Depth excluding ancilla preparation.

    Data interactions run in two parallel CNOT layers (one for a full-cat
    gadget); each ring measurement, including its CNOT pair and the
    measure/reset on the shared ancilla, costs one unit.
    """
    if g.gamma == 0:
        return 0
    data_layers = 1 if g.kind == "full_cat" else 2
    return data_layers + g.n_slots + extra_measurements


def count_two_qubit_gates(g: GadgetCircuit, prep_cost: int = 0) -> tuple[int, int]:
    """(min, max) two-qubit gate count.

    min covers the data CNOTs, two CNOTs per scheduled ring measurement
    and the supplied preparation cost; max adds two CNOTs per adaptive
    measurement the gadget may append.
    """
    data_cnots = sum(len(p) for p in g.pair_map)
    ring_cnots = 2 * g.n_slots
    lo = data_cnots + ring_cnots + prep_cost
    hi = lo + 2 * g.max_adaptive
    return lo, hi
