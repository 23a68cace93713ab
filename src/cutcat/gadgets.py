"""Builders for cut-cat and full-cat extraction gadgets plus resource accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .circuit import GadgetCircuit, Gate, circuit_depth

SUPPORTED_DISTANCES = (3, 5, 7, 9)


def base_round_count(distance: int) -> int:
    """Rounds of ring measurements for a non-adaptive build: (d+2)//4."""
    return (distance + 2) // 4


@dataclass(frozen=True)
class GadgetSpec:
    """Parameters of one generator's extraction gadget.

    ``cat_count`` is max(ceil(gamma/2), distance): the ring needs at least
    d parity checks for the pairing argument to go through, so gadgets
    with gamma < 2d carry single-interaction cat qubits.  ``adaptive``
    acts at distance 7 only: the gadget runs one base round plus at most
    four extra measurements.  Other gadgets run ``base_round_count(d)``
    full rounds, or ``base_rounds`` when it is given.
    """

    gamma: int
    distance: int
    adaptive: bool = True
    base_rounds: int | None = None
    prep_cnots: int | None = None

    def __post_init__(self) -> None:
        if self.distance not in SUPPORTED_DISTANCES:
            raise ValueError(f"unsupported distance {self.distance}")
        if not isinstance(self.adaptive, bool):
            raise ValueError(f"adaptive={self.adaptive!r} must be True or False")
        if self.gamma < 2:
            raise ValueError("gamma must be at least 2")
        if self.prep_cnots is not None and self.prep_cnots < 0:
            raise ValueError(f"prep_cnots={self.prep_cnots} must be at least 0")

    @property
    def t(self) -> int:
        return (self.distance - 1) // 2

    @property
    def cat_count(self) -> int:
        return max(math.ceil(self.gamma / 2), self.distance)

    @property
    def is_adaptive(self) -> bool:
        return self.adaptive and self.distance == 7

    @property
    def rounds(self) -> int:
        if self.base_rounds is not None:
            return self.base_rounds
        return 1 if self.is_adaptive else base_round_count(self.distance)

    @property
    def max_adaptive(self) -> int:
        return 4 if self.is_adaptive else 0

    def pair_map(self) -> tuple[tuple[int, ...], ...]:
        """Cat index -> data qubits.

        Paired cats occupy the low indices in ascending data order; the
        2m - gamma single-interaction cats take the highest indices, one
        data qubit each.
        """
        m = self.cat_count
        n_pairs = self.gamma - m
        if n_pairs < 0:
            raise ValueError("gamma below cat count; gadget degenerate")
        pairs = [(2 * r, 2 * r + 1) for r in range(n_pairs)]
        singles = [(2 * n_pairs + i,) for i in range(m - n_pairs)]
        return tuple(pairs + singles)


def build_cut_cat(spec: GadgetSpec) -> GadgetCircuit:
    """Ring-checked extraction circuit for one generator.

    Cat qubits control their data CNOTs across two layers, then each
    round runs the m ZZ ring checks in ascending stabilizer index on a
    reused ancilla.
    """
    pair_map = spec.pair_map()
    m = spec.cat_count
    gamma = spec.gamma
    gates: list[Gate] = []

    def cat(r: int) -> int:
        return gamma + (r % m)

    # two data-CNOT layers: every cat fires its first CNOT, then pairs
    # fire their second; targets are disjoint within a layer
    for r in range(m):
        gates.append(Gate("CNOT", cat(r), pair_map[r][0]))
    for r in range(m):
        if len(pair_map[r]) > 1:
            gates.append(Gate("CNOT", cat(r), pair_map[r][1]))

    # each round runs its m ZZ checks in two parallel CNOT layers: every
    # check reads its neighbor cat first, then its own cat, so the ring
    # is rotation-symmetric and a cat error between the layers flips
    # exactly the check of its own index
    anc0 = gamma + m
    for rnd in range(spec.rounds):
        for s in range(m):
            gates.append(Gate("CNOT", cat(s + 1), anc0 + s))
        for s in range(m):
            gates.append(Gate("CNOT", cat(s), anc0 + s))
        for s in range(m):
            gates.append(Gate("MZ", anc0 + s, slot=rnd * m + s))
            gates.append(Gate("RESET", anc0 + s))

    return GadgetCircuit(
        gamma=gamma,
        cat_count=m,
        pair_map=pair_map,
        gates=tuple(gates),
        base_rounds=spec.rounds,
        max_adaptive=spec.max_adaptive,
        distance=spec.distance,
    )


def build_full_cat(gamma: int) -> GadgetCircuit:
    """One cat qubit per data qubit, a single parallel CNOT layer, no ring."""
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
    gates = tuple(
        Gate("CNOT", gamma + r, r) for r in range(gamma)
    )
    return GadgetCircuit(
        gamma=gamma,
        cat_count=gamma,
        pair_map=tuple((r,) for r in range(gamma)),
        gates=gates,
        base_rounds=0,
    )


# Published resource figures for the schemes compared against; keyed by
# (scheme, distance, gamma).  Comparison constants only, nothing is
# derived from them.
REPORTED_FIGURES: dict[tuple[str, int, int], dict[str, int]] = {
    ("cut_cat", 7, 14): {"simultaneous_qubits": 10},
    ("cut_cat", 9, 18): {"simultaneous_qubits": 13},
    ("full_cat", 7, 14): {"two_qubit_gates": 39, "simultaneous_qubits": 20,
                          "depth": 1},
    ("flag", 7, 14): {"two_qubit_gates": 44, "simultaneous_qubits": 8,
                      "depth": 44},
    ("flag", 9, 18): {"two_qubit_gates": 306, "simultaneous_qubits": 10},
}


@dataclass(frozen=True)
class ResourceReport:
    """Gate/depth/qubit accounting for one gadget build."""

    scheme: str
    gamma: int
    distance: int
    two_qubit_gates: tuple[int, int]
    depth: tuple[int, int]
    simultaneous_qubits_fast_reset: int
    simultaneous_qubits_slow_reset: int
    breakdown: dict[str, tuple[int, int]]
    published: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "gamma": self.gamma,
            "distance": self.distance,
            "two_qubit_gates": list(self.two_qubit_gates),
            "depth": list(self.depth),
            "simultaneous_qubits": {
                "fast_reset": self.simultaneous_qubits_fast_reset,
                "slow_reset": self.simultaneous_qubits_slow_reset,
            },
            "breakdown": {k: list(v) for k, v in self.breakdown.items()},
            "published": dict(self.published),
        }


def resource_report(spec: GadgetSpec, full_cat: bool = False) -> ResourceReport:
    """Resource totals counted from the gates of the built gadget.

    Data CNOTs are the CNOTs onto data qubits and ring CNOTs the others;
    the upper figures add the adaptive re-reads, two CNOTs each.  Cat
    preparation costs ``prep_cnots``, or by default 2(m-1): m-1
    entangling plus m-1 verification CNOTs of the post-selected
    preparation.

    ``fast_reset`` counts the cats plus one ancilla that reads every ring
    check in turn, reset between reads (m+1 for a cut cat).  That is a
    serial convention: the built circuit runs each round's checks in two
    parallel CNOT layers on m ancillas.  ``slow_reset`` counts a fresh
    ancilla per measurement.  Where the literature quotes different
    figures they are attached unreconciled in ``published``.
    """
    g = build_full_cat(spec.gamma) if full_cat else build_cut_cat(spec)
    m = g.cat_count
    targets = [x.q1 for x in g.gates if x.kind == "CNOT"]
    data = sum(q < g.gamma for q in targets)
    ring = len(targets) - data
    prep = 2 * (m - 1) if spec.prep_cnots is None else spec.prep_cnots
    breakdown = {
        "prep": (prep, prep),
        "data": (data, data),
        "ring_measurements": (ring, ring + 2 * g.max_adaptive),
    }
    measurements = g.n_slots + g.max_adaptive
    scheme = "full_cat" if full_cat else "cut_cat"
    return ResourceReport(
        scheme=scheme,
        gamma=spec.gamma,
        distance=spec.distance,
        two_qubit_gates=tuple(map(sum, zip(*breakdown.values()))),
        depth=(circuit_depth(g), circuit_depth(g, g.max_adaptive)),
        simultaneous_qubits_fast_reset=m + min(1, measurements),
        simultaneous_qubits_slow_reset=m + measurements,
        breakdown=breakdown,
        published=REPORTED_FIGURES.get((scheme, spec.distance, spec.gamma), {}),
    )
