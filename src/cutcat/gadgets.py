"""Builders for cut-cat and full-cat extraction gadgets plus resource accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .circuit import GadgetCircuit, Gate, circuit_depth, count_two_qubit_gates

SUPPORTED_DISTANCES = (3, 5, 7, 9)


def base_round_count(distance: int) -> int:
    """Rounds of ring measurements for a non-adaptive build: (d+2)//4."""
    return (distance + 2) // 4


@dataclass(frozen=True)
class GadgetSpec:
    """Parameters of one generator's extraction gadget.

    ``cat_count`` is max(ceil(gamma/2), distance): the ring needs at least
    d parity checks for the pairing argument to go through, so gadgets
    with gamma < 2d carry single-interaction cat qubits.  The adaptive
    variant (distance 7) runs one base round plus at most four extra
    measurements; other distances run ``base_rounds`` full rounds.
    """

    gamma: int
    distance: int
    adaptive: bool | None = None
    base_rounds: int | None = None
    prep_cnots: int | None = None

    def __post_init__(self) -> None:
        if self.distance not in SUPPORTED_DISTANCES:
            raise ValueError(f"unsupported distance {self.distance}")
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
        return self.distance == 7 if self.adaptive is None else self.adaptive

    @property
    def rounds(self) -> int:
        if self.base_rounds is not None:
            return self.base_rounds
        if self.is_adaptive and self.distance == 7:
            return 1
        return base_round_count(self.distance)

    @property
    def max_adaptive(self) -> int:
        return 4 if self.is_adaptive and self.distance == 7 else 0

    @property
    def prep_gate_cost(self) -> int:
        """Two-qubit gates to prepare and verify the cat state.

        Default model: m-1 entangling CNOTs plus m-1 verification CNOTs
        for the post-selected preparation.
        """
        if self.prep_cnots is not None:
            return self.prep_cnots
        return 2 * (self.cat_count - 1)

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
    round_slots: list[tuple[int, ...]] = []
    for rnd in range(spec.rounds):
        for s in range(m):
            gates.append(Gate("CNOT", cat(s + 1), anc0 + s))
        for s in range(m):
            gates.append(Gate("CNOT", cat(s), anc0 + s))
        for s in range(m):
            gates.append(Gate("MZ", anc0 + s, slot=rnd * m + s))
            gates.append(Gate("RESET", anc0 + s))
        round_slots.append(tuple(rnd * m + s for s in range(m)))

    return GadgetCircuit(
        kind="cut_cat",
        gamma=gamma,
        cat_count=m,
        pair_map=pair_map,
        gates=tuple(gates),
        round_slots=tuple(round_slots),
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
        kind="full_cat",
        gamma=gamma,
        cat_count=gamma,
        pair_map=tuple((r,) for r in range(gamma)),
        gates=gates,
        round_slots=(),
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
    """Resource totals under the parameterized preparation model.

    Simultaneous-qubit counts are this model's numbers (cats plus the
    reused ring/verification ancilla under fast reset); where the
    literature quotes different figures they are attached unreconciled in
    ``published``.
    """
    if full_cat:
        g = build_full_cat(spec.gamma)
        prep = 2 * (spec.gamma - 1) if spec.prep_cnots is None else spec.prep_cnots
    else:
        g = build_cut_cat(spec)
        prep = spec.prep_gate_cost

    lo, hi = count_two_qubit_gates(g, prep_cost=prep)
    depth_lo = circuit_depth(g)
    depth_hi = circuit_depth(g, extra_measurements=g.max_adaptive)

    m = g.cat_count
    anc_fast = 0 if full_cat and g.n_slots == 0 else 1
    fast = m + anc_fast
    slow = m + g.n_slots + g.max_adaptive

    data_cnots = sum(len(p) for p in g.pair_map)
    ring = 2 * g.n_slots
    breakdown = {
        "prep": (prep, prep),
        "data": (data_cnots, data_cnots),
        "ring_measurements": (ring, ring + 2 * g.max_adaptive),
    }
    scheme = "full_cat" if full_cat else "cut_cat"
    return ResourceReport(
        scheme=scheme,
        gamma=spec.gamma,
        distance=spec.distance,
        two_qubit_gates=(lo, hi),
        depth=(depth_lo, depth_hi),
        simultaneous_qubits_fast_reset=fast,
        simultaneous_qubits_slow_reset=slow,
        breakdown=breakdown,
        published=REPORTED_FIGURES.get((scheme, spec.distance, spec.gamma), {}),
    )
