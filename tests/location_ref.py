"""The circuit-location fault model, kept as an independent reference
for the tests: the sites where a single X fault is relevant, a walk of
the gadget with faults injected at such sites, and a re-measurement walk
bound to a planner, and the per-op forward walk that gives each noisy
op's effects.  The package itself enumerates faults as the rows of
``sim.FaultTable``, built by one backward sweep, instead."""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace
from functools import reduce
from typing import Callable, Iterable, Sequence

from cutcat.circuit import GadgetCircuit, Gate
from cutcat.sim import Effect, NoisyOp, _Walker
from decoder_ref import CatSyndrome

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
) -> Effect:
    """The effect of one run of the gadget with the given faults injected.

    ``faults`` pairs a location (object or id into ``locations``) with a
    Pauli; a Y decomposes into simultaneous X and Z on the same site.
    ``initial_x``/``initial_z`` seed pre-existing data errors, whose Z
    component feeds the generator outcome through the data CNOTs.
    """
    inj = _resolve_faults(g, faults, locations)
    return _Walker(g, x=initial_x, z=initial_z).run(g.gates, inj).effect()


def adaptive_slot(g: GadgetCircuit, stab: int) -> int:
    """Outcome slot id used when stabilizer ``stab`` is re-measured."""
    return g.base_rounds * g.cat_count + stab


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
) -> tuple[Effect, tuple[tuple[int, int], ...]]:
    """Run the base rounds, consult the planner, then re-measure: the
    effect of the whole run, whose slot flips include the re-reads', and
    the re-reads as (stabilizer, outcome flip) pairs in stabilizer order.

    The planner maps the base-round ``CatSyndrome`` to stabilizer indices
    to measure again; persistent cat errors from the base rounds show up
    in those outcomes.  ``adaptive_faults`` are (stabilizer, kind, pauli)
    triples bound to the re-measurement of that stabilizer.
    """
    inj = _resolve_faults(g, faults, locations)
    walker = _Walker(g, x=initial_x, z=initial_z).run(g.gates, inj)
    base = CatSyndrome.from_key(g.cat_count, walker.effect().slot_flips, g.base_rounds)
    plan = sorted(set(planner(base))) if planner is not None else []

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
        gates = g.ring_measurement_gates(stab, adaptive_slot(g, stab))
        walker.run(gates, extra.get(stab, {}))
    # re-read outcomes sit in the slots after the base rounds
    n_base = g.base_rounds * g.cat_count
    return walker.effect(), tuple((slot - n_base, bit)
                                  for slot, bit in sorted(walker.outcome_flips.items())
                                  if slot >= n_base)


def location_effects(
    g: GadgetCircuit, locations: Sequence[FaultLocation], pauli: str = "X",
) -> list[Effect]:
    """Single-fault effect of each location, via one walk apiece."""
    return [_Walker(g).run(g.gates, _resolve_faults(g, [(loc, pauli)], None)).effect()
            for loc in locations]


def location_classes(g: GadgetCircuit, adaptive: bool) -> list[Effect]:
    """The distinct single X-fault effects over all locations, on the
    fields the decoder reads (``persist_x`` only if ``adaptive``), in
    location order."""
    first: dict[tuple[int, ...], Effect] = {}
    for e in location_effects(g, enumerate_fault_locations(g), "X"):
        first.setdefault((e.data_x, e.slot_flips, e.persist_x if adaptive else 0), e)
    return list(first.values())


def _xor(a: Effect, b: Effect) -> Effect:
    return Effect(*(u ^ v for u, v in zip(astuple(a), astuple(b))))


def walk_op_effects(g: GadgetCircuit, op: NoisyOp) -> list[Effect]:
    """Effect per depolarizing code of ``op``, a noisy op of the gadget,
    by forward walks: each qubit is walked once with a Y, from the op on
    (the frame is empty before it), and a code is the XOR of the effects
    of its Paulis."""
    if op.final:
        parts = [(Effect(gen_flip=1), Effect())]
    else:
        ys = [_Walker(g).run(g.gates[op.after + 1:], {-1: [(q, "Y")]}).effect()
              for q in op.qubits]
        parts = [(replace(y, gen_flip=0), Effect(gen_flip=y.gen_flip)) for y in ys]
    by_pauli = [{"I": Effect(), "X": x, "Y": _xor(x, z), "Z": z} for x, z in parts]
    return [reduce(_xor, (e[p] for e, p in zip(by_pauli, code))) for code in op.codes]
