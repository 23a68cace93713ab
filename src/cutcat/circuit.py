"""Gate-level IR for extraction gadgets.

Qubit ids: data qubits are 0..gamma-1, cat qubits gamma..gamma+m-1, and
ring check s is measured on ancilla gamma+m+s: m ancillas, reused in
every round.  Circuits are built once and never mutated.
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


@dataclass(frozen=True)
class GadgetCircuit:
    """Extraction circuit for a single generator of weight ``gamma``.

    ``pair_map[r]`` lists the data qubits cat qubit r touches (two for
    paired cats, one for single-interaction cats).  Each of the
    ``base_rounds`` rounds measures the m ring checks into slots
    round * m + s; the generator's own outcome is read from the final
    transversal cat measurement and is not slotted.
    """

    gamma: int
    cat_count: int
    pair_map: tuple[tuple[int, ...], ...]
    gates: tuple[Gate, ...]
    base_rounds: int
    max_adaptive: int = 0
    distance: int = 0

    @property
    def n_slots(self) -> int:
        return self.base_rounds * self.cat_count

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


def circuit_depth(g: GadgetCircuit, extra_measurements: int = 0) -> int:
    """Depth excluding ancilla preparation.

    Data interactions take one parallel CNOT layer per data qubit of the
    widest cat (two with paired cats, one for a full cat or a cut cat of
    single-interaction cats); each ring measurement, including its CNOT
    pair and the measure/reset of its ancilla, costs one unit.
    """
    data_layers = max(map(len, g.pair_map), default=0)
    return data_layers + g.n_slots + extra_measurements
