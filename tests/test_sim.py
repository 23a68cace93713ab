import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutcat.circuit import CAT_INIT, POST_GATE_CONTROL, enumerate_fault_locations
from cutcat.experiments import FaultTable
from cutcat.gadgets import GadgetSpec, build_cut_cat, build_full_cat
from cutcat.sim import (
    PAULI_PAIRS,
    PAULI_SINGLES,
    adaptive_propagate,
    location_effects,
    noisy_operations,
    propagate,
    propagate_op_faults,
)


@pytest.fixture(scope="module")
def d5_gadget():
    g = build_cut_cat(GadgetSpec(gamma=10, distance=5))
    return g, enumerate_fault_locations(g)


def _loc(locs, kind, **match):
    out = [
        l for l in locs
        if l.kind == kind and all(getattr(l, k) == v for k, v in match.items())
    ]
    assert out, f"no location {kind} {match}"
    return out


class TestHookPropagation:
    def test_cat_init_hook(self, d5_gadget):
        g, locs = d5_gadget
        r = 2
        loc = _loc(locs, CAT_INIT, qubit=g.cat_qubit(r))[0]
        res = propagate(g, [(loc, "X")])
        assert res.data_x == (1 << 2 * r) | (1 << (2 * r + 1))
        assert res.syndrome.rounds[0] == (1 << (r - 1)) | (1 << r)

    def test_error_after_both_data_cnots(self, d5_gadget):
        g, locs = d5_gadget
        r = 2
        data_controls = [
            l for l in _loc(locs, POST_GATE_CONTROL)
            if g.gates[l.gate_index].q0 == g.cat_qubit(r)
            and g.gates[l.gate_index].q1 < g.gamma
        ]
        res = propagate(g, [(data_controls[1], "X")])
        assert res.data_x == 0
        assert res.syndrome.rounds[0] == (1 << (r - 1)) | (1 << r)

    def test_two_measurement_errors_same_signature(self, d5_gadget):
        g, locs = d5_gadget
        r = 2
        pm = {l.slot: l for l in _loc(locs, "pre_measurement")}
        res = propagate(g, [(pm[r - 1], "X"), (pm[r], "X")])
        assert res.data_x == 0
        assert res.syndrome.rounds[0] == (1 << (r - 1)) | (1 << r)

    def test_single_fault_weight_bound(self, d5_gadget):
        g, locs = d5_gadget
        for loc, eff in zip(locs, location_effects(g, locs)):
            w = bin(eff.data_x).count("1")
            assert w <= 2
            if w == 2:
                assert loc.kind == CAT_INIT
                cat = loc.qubit - g.gamma
                assert len(g.pair_map[cat]) == 2

    def test_cat_init_on_paired_cat_always_weight_two(self, d5_gadget):
        g, locs = d5_gadget
        for loc in _loc(locs, CAT_INIT):
            eff = location_effects(g, [loc])[0]
            assert bin(eff.data_x).count("1") == 2


class TestLinearity:
    @given(subset=st.lists(st.integers(0, 39), max_size=4, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_fault_composition_is_xor(self, subset):
        g = build_cut_cat(GadgetSpec(gamma=10, distance=5))
        locs = enumerate_fault_locations(g)
        combined = propagate(g, [(locs[i], "X") for i in subset])
        data = 0
        slots = 0
        for i in subset:
            single = propagate(g, [(locs[i], "X")])
            data ^= single.data_x
            slots ^= single.syndrome.key()
        assert combined.data_x == data
        assert combined.syndrome.key() == slots

    def test_empty_fault_set_is_identity(self, d5_gadget):
        g, _ = d5_gadget
        res = propagate(g, [])
        assert res.data_x == 0 and res.syndrome.key() == 0
        assert not res.generator_bit_flipped


class TestDepolarizingRelevance:
    def test_two_thirds_of_paulis_matter(self, d5_gadget):
        g, locs = d5_gadget
        relevant = sum(
            1
            for loc in locs
            for p in "XYZ"
            if (lambda e: e.data_x or e.slot_flips or e.persist_x)(
                location_effects(g, [loc], p)[0]
            )
        )
        assert relevant == 2 * len(locs)  # exactly 2 of 3 per location


class TestGeneratorBit:
    def test_data_z_flips_generator(self, d5_gadget):
        g, _ = d5_gadget
        res = propagate(g, [], initial_z=0b1)
        assert res.generator_bit_flipped

    def test_x_errors_do_not_flip_generator(self, d5_gadget):
        g, locs = d5_gadget
        res = propagate(g, [(locs[0], "X")], initial_x=0b111)
        assert not res.generator_bit_flipped


class TestAdaptive:
    def test_no_faults_trivial(self):
        g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
        res = adaptive_propagate(g, [], planner=lambda syn: [])
        assert res.syndrome.rounds[0] == 0 and res.syndrome.adaptive == ()

    def test_persistent_cat_error_reflips(self):
        g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
        locs = enumerate_fault_locations(g)
        loc = _loc(locs, CAT_INIT, qubit=g.cat_qubit(2))[0]
        res = adaptive_propagate(g, [(loc, "X")], planner=lambda syn: [1, 2])
        assert res.syndrome.adaptive == ((1, 1), (2, 1))

    def test_measurement_flip_reads_clean(self):
        g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
        locs = enumerate_fault_locations(g)
        pm = _loc(locs, "pre_measurement", slot=1)[0]
        res = adaptive_propagate(g, [(pm, "X")], planner=lambda syn: [1])
        assert res.syndrome.rounds[0] == 0b10
        assert res.syndrome.adaptive == ((1, 0),)

    def test_planner_out_of_range(self):
        g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
        with pytest.raises(ValueError):
            adaptive_propagate(g, [], planner=lambda syn: [99])


class TestSampling:
    @pytest.fixture
    def table(self, d5_gadget):
        g, _ = d5_gadget
        return FaultTable.from_gadget(g, ("data_x", "slot_flips"))

    def test_p_zero_empty(self, table):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        accs = table.sample(rng, 1000, 0.0)
        assert len(accs) == 2 and not any(acc.any() for acc in accs)
        assert rng.bit_generator.state == state

    def test_p_one_everything(self, d5_gadget):
        # one bit per op, whatever its code: p=1 must set all of them
        g, _ = d5_gadget
        ops = noisy_operations(g)
        table = FaultTable([op.n_codes for op in ops],
                           {"op": [[1 << i] * op.n_codes for i, op in enumerate(ops)]})
        (acc,) = table.sample(np.random.default_rng(1), 100, 1.0)
        assert (acc == np.uint64((1 << len(ops)) - 1)).all()

    def test_deterministic_replay(self, table):
        a = table.sample(np.random.default_rng(7), 5000, 0.3)
        b = table.sample(np.random.default_rng(7), 5000, 0.3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_unknown_fault_id(self, d5_gadget):
        g, _ = d5_gadget
        with pytest.raises(ValueError):
            propagate(g, [(10_000, "X")])


EFFECT_FIELDS = ("data_x", "slot_flips", "persist_x", "gen_flip")
DIFF_GADGETS = {
    "d5g10": lambda: build_cut_cat(GadgetSpec(gamma=10, distance=5)),
    "d7g14": lambda: build_cut_cat(GadgetSpec(gamma=14, distance=7)),
    "fullcat8": lambda: build_full_cat(8),
}


@functools.lru_cache(maxsize=None)
def _diff_setup(name):
    g = DIFF_GADGETS[name]()
    return g, noisy_operations(g), FaultTable.from_gadget(g, EFFECT_FIELDS)


class TestFaultTableMatchesWalker:
    """The sampler's XOR of table rows against one scalar walk of the same
    faults: CNOT Pauli pairs, Y and final-readout noise included."""

    @pytest.mark.parametrize("name", sorted(DIFF_GADGETS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_xor_of_rows_is_propagation(self, name, data):
        g, ops, table = _diff_setup(name)
        entry = st.integers(0, len(ops) - 1).flatmap(
            lambda i: st.tuples(st.just(i), st.integers(0, ops[i].n_codes - 1)))
        entries = data.draw(st.lists(entry, max_size=6))
        acc = [0] * len(EFFECT_FIELDS)
        for i, code in entries:
            for k, col in enumerate(table.columns):
                acc[k] ^= int(col[i, code])
        res = propagate_op_faults(g, entries)
        assert acc == [res.data_x, res.syndrome.key(), res.cat_x_final,
                       int(res.generator_bit_flipped)]

    def test_masks_wider_than_64_bits_rejected(self):
        g = build_cut_cat(GadgetSpec(gamma=70, distance=5))
        with pytest.raises(ValueError, match="gamma=70"):
            FaultTable.from_gadget(g, ("data_x",))


class TestRereadTableMatchesAdaptivePropagate:
    """Every (op, code) row of the re-measurement ``FaultTable`` against
    ``adaptive_propagate`` re-reading one stabilizer with the matching
    faults, for every stabilizer."""

    # (kind of the control fault, kind of the ancilla fault) per CNOT op
    GATE_KINDS = (("post_gate_control_0", "anc_mid"),
                  ("post_gate_control_1", "anc_post"))

    @pytest.mark.parametrize("gamma", [14, 20])
    def test_rows_are_single_stabilizer_rereads(self, gamma):
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=7))
        m = g.cat_count
        table = FaultTable.for_reread(g)
        anc_col, cats_col = table.columns
        assert table.n_codes == [15, 15, 3]
        for stab in range(m):
            for op, n_codes in enumerate(table.n_codes):
                for code in range(n_codes):
                    if op < 2:
                        faults = zip(self.GATE_KINDS[op], PAULI_PAIRS[code])
                    else:
                        faults = [("pre_measurement", PAULI_SINGLES[code])]
                    res = adaptive_propagate(
                        g, planner=lambda syn: [stab],
                        adaptive_faults=[(stab, kind, p) for kind, p in faults
                                         if p != "I"])
                    cats = int(cats_col[op, code])
                    rotated = ((cats << stab) | (cats >> (m - stab))) & ((1 << m) - 1)
                    assert res.syndrome.adaptive == ((stab, int(anc_col[op, code])),)
                    assert res.cat_x_final == rotated, (stab, op, code)
