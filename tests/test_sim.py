import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutcat.block import BlockSimulator
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
from sample_ref import sample_ref, scatter, tiled


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
        assert res.slot_flips == (1 << (r - 1)) | (1 << r)

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
        assert res.slot_flips == (1 << (r - 1)) | (1 << r)

    def test_two_measurement_errors_same_signature(self, d5_gadget):
        g, locs = d5_gadget
        r = 2
        pm = {l.slot: l for l in _loc(locs, "pre_measurement")}
        res = propagate(g, [(pm[r - 1], "X"), (pm[r], "X")])
        assert res.data_x == 0
        assert res.slot_flips == (1 << (r - 1)) | (1 << r)

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
            slots ^= single.slot_flips
        assert combined.data_x == data
        assert combined.slot_flips == slots

    def test_empty_fault_set_is_identity(self, d5_gadget):
        g, _ = d5_gadget
        res = propagate(g, [])
        assert res == Effect()


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
        assert res.gen_flip == 1

    def test_x_errors_do_not_flip_generator(self, d5_gadget):
        g, locs = d5_gadget
        res = propagate(g, [(locs[0], "X")], initial_x=0b111)
        assert res.gen_flip == 0


class TestAdaptive:
    def test_no_faults_trivial(self):
        g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
        assert adaptive_propagate(g, [], planner=lambda syn: []) == (Effect(), ())

    def test_persistent_cat_error_reflips(self):
        g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
        locs = enumerate_fault_locations(g)
        loc = _loc(locs, CAT_INIT, qubit=g.cat_qubit(2))[0]
        _, rereads = adaptive_propagate(g, [(loc, "X")], planner=lambda syn: [1, 2])
        assert rereads == ((1, 1), (2, 1))

    def test_measurement_flip_reads_clean(self):
        g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
        locs = enumerate_fault_locations(g)
        pm = _loc(locs, "pre_measurement", slot=1)[0]
        res, rereads = adaptive_propagate(g, [(pm, "X")], planner=lambda syn: [1])
        assert res.slot_flips & ((1 << g.cat_count) - 1) == 0b10
        assert rereads == ((1, 0),)

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
        accs = scatter(table, rng, 1000, 0.0)
        assert len(accs) == 2 and not any(acc.any() for acc in accs)
        assert rng.bit_generator.state == state

    @staticmethod
    def _op_bits(ops):
        """One bit per op, whatever its code."""
        n_codes = [op.n_codes for op in ops]
        return FaultTable(n_codes, [tiled(n_codes, [[1 << i] * n for i, n in enumerate(n_codes)])])

    def test_p_one_everything(self, d5_gadget):
        # p=1 must set every op's bit
        g, _ = d5_gadget
        ops = noisy_operations(g)
        (acc,) = scatter(self._op_bits(ops), np.random.default_rng(1), 100, 1.0)
        assert (acc == np.uint64((1 << len(ops)) - 1)).all()

    def test_p_one_across_chunk_seams(self, d5_gadget):
        # over three chunks of cells, with seams inside a trial: a trial
        # whose ops two chunks hit must keep the bits of both
        g, _ = d5_gadget
        ops = noisy_operations(g)
        size = 3 * _MAX_CHUNK // len(ops) + 1
        assert size * len(ops) > 3 * _MAX_CHUNK and _MAX_CHUNK % len(ops)
        (acc,) = scatter(self._op_bits(ops), np.random.default_rng(1), size, 1.0)
        assert (acc == np.uint64((1 << len(ops)) - 1)).all()

    def test_deterministic_replay(self, table):
        a = scatter(table, np.random.default_rng(7), 5000, 0.3)
        b = scatter(table, np.random.default_rng(7), 5000, 0.3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    @pytest.fixture
    def one_hot(self, d5_gadget):
        """Column i holds op i alone, bit c for code c: each hit reads back."""
        g, _ = d5_gadget
        ops = noisy_operations(g)
        n_codes = [op.n_codes for op in ops]
        return FaultTable(n_codes, [
            tiled(n_codes, [[(1 << c) * (j == i) for c in range(n)] for j, n in enumerate(n_codes)])
            for i in range(len(ops))])

    def test_hit_counts_binomial(self, one_hot):
        size, p = 20_000, 0.05
        accs = scatter(one_hot, np.random.default_rng(3), size, p)
        sd = np.sqrt(size * p * (1 - p))
        for acc in accs:
            assert abs(np.count_nonzero(acc) - size * p) < 5 * sd

    def test_codes_uniform(self, one_hot):
        accs = scatter(one_hot, np.random.default_rng(4), 20_000, 0.2)
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
        accs = scatter(one_hot, np.random.default_rng(5), 5000, 0.5)
        hits = [np.bitwise_count(acc) for acc in accs]
        assert max(h.max() for h in hits) == 1
        p_one = scatter(one_hot, np.random.default_rng(5), 300, 1.0)
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
        accs = scatter(one_hot, rng, 1000, 0.01)
        assert all((acc == 1).all() for acc in accs)
        # one stream over all cells, in equal chunks, codes below the lcm
        cells = 1000 * len(one_hot.n_codes)
        assert len(set(rng.chunks)) == 1
        assert len(rng.chunks) == math.ceil(cells / rng.chunks[0]) > 1
        assert rng.bounds == {(0, 15)}

    def test_tiny_rate_gaps_do_not_overflow(self, one_hot):
        # gaps this long saturate at the int64 maximum
        accs = scatter(one_hot, np.random.default_rng(2), 1000, 1e-300)
        assert not any(acc.any() for acc in accs)

    def test_size_zero_empty(self, table):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        accs = scatter(table, rng, 0, 0.5)
        assert [acc.shape for acc in accs] == [(0,), (0,)]
        assert rng.bit_generator.state == state

    def test_accumulators_are_propagation(self, d5_gadget, one_hot):
        """The same draws through the one-hot table name each trial's
        faults; the scalar walk of those faults gives its accumulators."""
        g, _ = d5_gadget
        table = FaultTable.from_gadget(g, EFFECT_FIELDS)
        size, p = 400, 0.05
        accs = scatter(table, np.random.default_rng(6), size, p)
        hits = scatter(one_hot, np.random.default_rng(6), size, p)
        assert sum(np.count_nonzero(h) for h in hits) > size
        for trial in range(size):
            entries = [(i, int(h[trial]).bit_length() - 1)
                       for i, h in enumerate(hits) if h[trial]]
            assert propagate_op_faults(g, entries) == Effect(
                **{f: int(acc[trial]) for f, acc in zip(EFFECT_FIELDS, accs)})

    def test_unknown_fault_id(self, d5_gadget):
        g, _ = d5_gadget
        with pytest.raises(ValueError):
            propagate(g, [(10_000, "X")])



class _GapRecorder:
    """Passes a generator's draws through and keeps each chunk's gaps."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.gaps = rng, []

    def geometric(self, p, size):
        self.gaps.append(self.rng.geometric(p, size))
        return self.gaps[-1]

    def integers(self, low, high, size):
        return self.rng.integers(low, high, size=size)


def _split_trials(gaps, size: int, n_ops: int) -> bool:
    """Whether the chunks of these gaps put hits of one trial in two chunks."""
    cells, last, bounds = size * n_ops, -1, []
    for gap in gaps:
        hit = last + np.minimum(gap, cells + 1).cumsum()
        last = int(hit[-1])
        trial = hit[hit < cells] // n_ops
        if trial.size:
            bounds.append((trial[0], trial[-1]))
    return any(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))


def _wide_table() -> FaultTable:
    """One 64-bit column and two 40-bit ones: three words."""
    n_codes = [15, 3, 3, 15, 3]
    rng = np.random.default_rng(9)
    cols = []
    for bits in (64, 40, 40):
        col = rng.integers(0, 1 << 63, (len(n_codes), 15), dtype=np.uint64, endpoint=True)
        col >>= np.uint64(64 - bits)
        col[0, 0] |= np.uint64(1 << (bits - 1))
        cols.append(col)
    return FaultTable(n_codes, cols)


SAMPLED_TABLES = {
    "d5": lambda request: FaultTable.for_decoder(
        build_cut_cat(GadgetSpec(gamma=10, distance=5)), adaptive=False),
    "d7-adaptive": lambda request: FaultTable.for_decoder(
        build_cut_cat(GadgetSpec(gamma=14, distance=7)), adaptive=True),
    "reread": lambda request: FaultTable.for_reread(
        build_cut_cat(GadgetSpec(gamma=14, distance=7))),
    "steane-data": lambda request: BlockSimulator(
        request.getfixturevalue("steane"), ratio=20).data_noise,
    "steane-round": lambda request: BlockSimulator(
        request.getfixturevalue("steane"), ratio=20).round_faults,
    "rm15-data": lambda request: BlockSimulator(
        request.getfixturevalue("rm15"), ratio=20).data_noise,
    "rm15-round": lambda request: BlockSimulator(
        request.getfixturevalue("rm15"), ratio=20).round_faults,
    "wide": lambda request: _wide_table(),
}


class TestSamplerMatchesReference:
    """``sample_words``, unpacked and scattered, against the dense ``ufunc.at``
    scatter of ``sample_ref``: the same accumulators bit for bit, and the
    generator left in the same state."""

    @pytest.mark.parametrize("name", sorted(SAMPLED_TABLES))
    def test_bit_for_bit(self, request, name):
        table = SAMPLED_TABLES[name](request)
        n_ops = len(table.n_codes)
        # the ops' bits, 64 per column: each hit sets its op's bit
        ops = FaultTable(table.n_codes, [
            tiled(table.n_codes, [[1 << (i - k) if k <= i < k + 64 else 0] * n
                                  for i, n in enumerate(table.n_codes)])
            for k in range(0, n_ops, 64)])
        split = False
        for p in (1e-300, 1e-3, 0.05, 0.5, 1.0):
            for size in (0, 1, 1000, 3 * _MAX_CHUNK // n_ops + 1):
                seed = [size, int(p * 1000)]
                ref_rng, rngs = np.random.default_rng(seed), [
                    np.random.default_rng(seed) for _ in range(3)]
                want = sample_ref(table, ref_rng, size, p)
                got = scatter(table, rngs[0], size, p)
                recorder = _GapRecorder(rngs[1])
                trials, words = table.sample_words(recorder, size, p)
                cols = table.unpack(words)
                hit = np.flatnonzero(np.bitwise_or.reduce(
                    [np.zeros(size, np.uint64), *sample_ref(ops, rngs[2], size, p)]))
                for rng in rngs:
                    assert rng.bit_generator.state == ref_rng.bit_generator.state
                assert [a.dtype for a in got + cols] == [np.uint64] * 2 * len(want)
                assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
                assert np.array_equal(trials, hit) and (np.diff(trials) > 0).all()
                assert all(np.array_equal(a, b[trials])
                           for a, b in zip(cols, want, strict=True))
                split |= _split_trials(recorder.gaps, size, n_ops)
        assert split

    @pytest.mark.parametrize("name", sorted(SAMPLED_TABLES))
    def test_any_nonzero_reads_the_packed_words(self, request, name):
        """``any_nonzero(words, n)`` on the packed words of ``sample_words``
        against the unpacked columns, for every count of leading columns."""
        table = SAMPLED_TABLES[name](request)
        _, words = table.sample_words(np.random.default_rng(8), 2000, 0.05)
        cols = table.unpack(words)
        for n in range(len(cols) + 1):
            want = np.logical_or.reduce([np.zeros(len(cols[0]), bool)]
                                        + [c != 0 for c in cols[:n]])
            assert np.array_equal(table.any_nonzero(words, n), want)
        if name.startswith("d"):
            # the gadget's residual and syndrome miss some hit trials
            assert 0 < np.count_nonzero(table.any_nonzero(words, 2)) < len(cols[0])


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
        acc = dict.fromkeys(EFFECT_FIELDS, 0)
        for i, code in entries:
            for f, col in zip(EFFECT_FIELDS, table.columns):
                acc[f] ^= int(col[i, code])
        assert propagate_op_faults(g, entries) == Effect(**acc)

    def test_columns_straddling_two_words_read_back(self):
        # widths 40, 30 and 5: the 30-bit column opens a second word and
        # the 5-bit one follows it there; every column reads back its rows
        rng = np.random.default_rng(12)
        n_codes = [3, 15, 1]
        given = [[[int(v) | (1 << (w - 1)) * (op == code == 0)
                   for code, v in enumerate(rng.integers(0, 1 << w, n, dtype=np.uint64))]
                  for op, n in enumerate(n_codes)]
                 for w in (40, 30, 5)]
        table = FaultTable(n_codes, [tiled(n_codes, rows) for rows in given])
        assert len(table._words) == 2
        for col, rows in zip(table.columns, given, strict=True):
            assert col.shape == (len(n_codes), table.width)
            for op, row in enumerate(rows):
                assert col[op].tolist() == [row[j % len(row)] for j in range(table.width)]

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
                assert propagate_op_faults(g, [(op, code)]) == Effect(
                    **{f: int(cols[f][op, code]) for f in EFFECT_FIELDS}), (op, code)

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
                    res, rereads = adaptive_propagate(
                        g, planner=lambda syn: [stab],
                        adaptive_faults=[(stab, kind, p) for kind, p in faults
                                         if p != "I"])
                    cats = int(cats_col[op, code])
                    rotated = ((cats << stab) | (cats >> (m - stab))) & ((1 << m) - 1)
                    assert rereads == ((stab, int(anc_col[op, code])),)
                    assert res.persist_x == rotated, (stab, op, code)


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
