import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutcat.gadgets import GadgetSpec, build_cut_cat, build_full_cat
from cutcat.sim import (
    _MAX_CHUNK,
    PAULI_PAIRS,
    PAULI_SINGLES,
    Effect,
    FaultTable,
    gate_operations,
    noisy_operations,
    op_code_effects,
    propagate_op_faults,
)
from location_ref import (
    ANC_MID,
    ANC_POST,
    ANC_PREP,
    CAT_INIT,
    POST_GATE_CONTROL,
    PRE_MEASUREMENT,
    adaptive_propagate,
    enumerate_fault_locations,
    location_effects,
    propagate,
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

    @staticmethod
    def _op_bits(ops):
        """One bit per op, whatever its code."""
        return FaultTable([op.n_codes for op in ops],
                          {"op": [[1 << i] * op.n_codes for i, op in enumerate(ops)]})

    def test_p_one_everything(self, d5_gadget):
        # p=1 must set every op's bit
        g, _ = d5_gadget
        ops = noisy_operations(g)
        (acc,) = self._op_bits(ops).sample(np.random.default_rng(1), 100, 1.0)
        assert (acc == np.uint64((1 << len(ops)) - 1)).all()

    def test_p_one_across_chunk_seams(self, d5_gadget):
        # over three chunks of cells, with seams inside a trial: a trial
        # whose ops two chunks hit must keep the bits of both
        g, _ = d5_gadget
        ops = noisy_operations(g)
        size = 3 * _MAX_CHUNK // len(ops) + 1
        assert size * len(ops) > 3 * _MAX_CHUNK and _MAX_CHUNK % len(ops)
        (acc,) = self._op_bits(ops).sample(np.random.default_rng(1), size, 1.0)
        assert (acc == np.uint64((1 << len(ops)) - 1)).all()

    def test_deterministic_replay(self, table):
        a = table.sample(np.random.default_rng(7), 5000, 0.3)
        b = table.sample(np.random.default_rng(7), 5000, 0.3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    @pytest.fixture
    def one_hot(self, d5_gadget):
        """Column i holds op i alone, bit c for code c: each hit reads back."""
        g, _ = d5_gadget
        ops = noisy_operations(g)
        return FaultTable([op.n_codes for op in ops], {
            f"op{i}": [[(1 << c) * (j == i) for c in range(op.n_codes)]
                       for j, op in enumerate(ops)]
            for i, op in enumerate(ops)})

    def test_hit_counts_binomial(self, one_hot):
        size, p = 20_000, 0.05
        accs = one_hot.sample(np.random.default_rng(3), size, p)
        sd = np.sqrt(size * p * (1 - p))
        for acc in accs:
            assert abs(np.count_nonzero(acc) - size * p) < 5 * sd

    def test_codes_uniform(self, one_hot):
        accs = one_hot.sample(np.random.default_rng(4), 20_000, 0.2)
        # chi-square 99.9 % points for 14 and 2 degrees of freedom
        critical = {15: 36.12, 3: 13.82}
        for n in (15, 3):
            codes = np.concatenate([
                np.log2(acc[acc != 0]).astype(int)
                for acc, k in zip(accs, one_hot.n_codes) if k == n])
            freq = np.bincount(codes, minlength=n)
            expected = len(codes) / n
            assert ((freq - expected) ** 2 / expected).sum() < critical[n]

    def test_no_trial_hit_twice_by_one_op(self, one_hot):
        # a second hit by the same op would leave two code bits, or none
        accs = one_hot.sample(np.random.default_rng(5), 5000, 0.5)
        hits = [np.bitwise_count(acc) for acc in accs]
        assert max(h.max() for h in hits) == 1
        p_one = one_hot.sample(np.random.default_rng(5), 300, 1.0)
        assert all((np.bitwise_count(acc) == 1).all() for acc in p_one)

    def test_gap_draws_continue_past_first_chunk(self, one_hot):
        class UnitGaps:
            """Stands in for a generator: every gap 1, every code 0; notes
            each chunk's size and the bounds of its codes."""

            def __init__(self):
                self.chunks, self.bounds = [], set()

            def geometric(self, p, size):
                self.chunks.append(size)
                return np.ones(size, dtype=np.int64)

            def integers(self, low, high, size):
                self.bounds.add((low, high))
                return np.zeros(size, dtype=np.int64)

        rng = UnitGaps()
        accs = one_hot.sample(rng, 1000, 0.01)
        assert all((acc == 1).all() for acc in accs)
        # one stream over all cells, in equal chunks, codes below the lcm
        cells = 1000 * len(one_hot.n_codes)
        assert len(set(rng.chunks)) == 1
        assert len(rng.chunks) == math.ceil(cells / rng.chunks[0]) > 1
        assert rng.bounds == {(0, 15)}

    def test_tiny_rate_gaps_do_not_overflow(self, one_hot):
        # gaps this long saturate at the int64 maximum
        accs = one_hot.sample(np.random.default_rng(2), 1000, 1e-300)
        assert not any(acc.any() for acc in accs)

    def test_size_zero_empty(self, table):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        accs = table.sample(rng, 0, 0.5)
        assert [acc.shape for acc in accs] == [(0,), (0,)]
        assert rng.bit_generator.state == state

    def test_accumulators_are_propagation(self, d5_gadget, one_hot):
        """The same draws through the one-hot table name each trial's
        faults; the scalar walk of those faults gives its accumulators."""
        g, _ = d5_gadget
        table = FaultTable.from_gadget(g, EFFECT_FIELDS)
        size, p = 400, 0.05
        accs = table.sample(np.random.default_rng(6), size, p)
        hits = one_hot.sample(np.random.default_rng(6), size, p)
        assert sum(np.count_nonzero(h) for h in hits) > size
        for trial in range(size):
            entries = [(i, int(h[trial]).bit_length() - 1)
                       for i, h in enumerate(hits) if h[trial]]
            res = propagate_op_faults(g, entries)
            assert [int(acc[trial]) for acc in accs] == [
                res.data_x, res.syndrome.key(), res.cat_x_final,
                int(res.generator_bit_flipped)]

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


class TestBackwardSweep:
    """``op_code_effects`` walks the gates once, backward: every (op,
    code) entry against one scalar walk of that fault alone, and each
    op's codes tiled across the table's width."""

    @staticmethod
    def _check_single_faults(g):
        ops = noisy_operations(g)
        cols = op_code_effects(g, ops, EFFECT_FIELDS)
        for op, noisy in enumerate(ops):
            n = noisy.n_codes
            for col in cols.values():
                assert np.array_equal(col[op], np.tile(col[op, :n], col.shape[1] // n))
            for code in range(n):
                res = propagate_op_faults(g, [(op, code)])
                assert [int(cols[f][op, code]) for f in EFFECT_FIELDS] == [
                    res.data_x, res.syndrome.key(), res.cat_x_final,
                    int(res.generator_bit_flipped)], (op, code)

    @pytest.mark.parametrize("gamma, distance", [
        (6, 3), (10, 5), (16, 5), (14, 7), (20, 7), (18, 9), (24, 9)])
    def test_cut_cat_entries_are_single_fault_walks(self, gamma, distance):
        self._check_single_faults(build_cut_cat(GadgetSpec(gamma=gamma, distance=distance)))

    @pytest.mark.parametrize("gamma", range(4, 9))
    def test_full_cat_entries_are_single_fault_walks(self, gamma):
        self._check_single_faults(build_full_cat(gamma))

    def test_slot_measured_twice_rejected(self):
        # the sweep XORs slot flips where a forward walk overwrites them
        g = build_cut_cat(GadgetSpec(gamma=10, distance=5))
        gates = g.ring_measurement_gates(0, 0) * 2
        with pytest.raises(ValueError, match="^slot 0 is measured twice$"):
            op_code_effects(g, gate_operations(gates), ("slot_flips",), gates)

    def test_unknown_field_rejected(self):
        g = build_full_cat(4)
        with pytest.raises(ValueError, match="^unknown effect field 'gen'$"):
            op_code_effects(g, noisy_operations(g), ("data_x", "gen"))

    @pytest.mark.parametrize("spec, field, limit, fitting", [
        (GadgetSpec(gamma=70, distance=3, adaptive=False), "data_x", "gamma=70",
         "slot_flips"),
        (GadgetSpec(gamma=44, distance=5, adaptive=False, base_rounds=3), "slot_flips",
         "ring slots=66", "data_x"),
    ], ids=["gamma", "ring-slots"])
    def test_too_wide_field_rejected(self, spec, field, limit, fitting):
        # only the fields asked for are checked
        g = build_cut_cat(spec)
        ops = noisy_operations(g)
        with pytest.raises(ValueError, match=f"^{limit} exceeds the 64-bit limit of packed masks$"):
            op_code_effects(g, ops, (field,))
        assert op_code_effects(g, ops, (fitting,))[fitting].shape == (len(ops), 15)


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


class TestLocationEffectsMatchOpEffects:
    """The verifier's single X faults and the sampler's table rows come
    from one effect model: each location's effect (data_x, slot_flips,
    persist_x, gen_flip) equals the ``op_code_effects`` entry of the noisy
    op and code at the same point."""

    X_ON_CONTROL = PAULI_PAIRS.index(("X", "I"))
    X_ON_TARGET = PAULI_PAIRS.index(("I", "X"))

    @pytest.mark.parametrize("gamma, distance",
                             [(6, 3), (10, 5), (14, 7), (20, 7), (18, 9)])
    def test_location_is_op_code(self, gamma, distance):
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=distance))
        ops = noisy_operations(g)
        cols = op_code_effects(g, ops, EFFECT_FIELDS)
        # noisy ops run cat inits, then one per CNOT or MZ gate in order
        op_of_gate = {}
        for gi, gate in enumerate(g.gates):
            if gate.kind in ("CNOT", "MZ"):
                op_of_gate[gi] = g.cat_count + len(op_of_gate)
        mz_of_slot = {gate.slot: gi for gi, gate in enumerate(g.gates)
                      if gate.kind == "MZ"}
        locs = enumerate_fault_locations(g)
        for loc, eff in zip(locs, location_effects(g, locs, "X")):
            if loc.kind == CAT_INIT:
                op, code = loc.qubit - g.gamma, PAULI_SINGLES.index("X")
            elif loc.kind == POST_GATE_CONTROL:
                op, code = op_of_gate[loc.gate_index], self.X_ON_CONTROL
            elif loc.kind in (ANC_PREP, ANC_MID, ANC_POST):
                op, code = op_of_gate[loc.gate_index], self.X_ON_TARGET
            else:
                assert loc.kind == PRE_MEASUREMENT
                op, code = op_of_gate[mz_of_slot[loc.slot]], PAULI_SINGLES.index("X")
            got = Effect(*(int(cols[f][op, code]) for f in EFFECT_FIELDS))
            assert eff == got, loc.describe()
