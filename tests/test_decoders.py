import dataclasses
from itertools import combinations

import numpy as np
import pytest

from cutcat.decoders import (IdentityDecoder, LutDecoder, RuleDecoderD3D5, RuleDecoderD7,
                             build_code_lut, build_cut_cat_lut, j_list)
from cutcat.experiments import GadgetMonteCarlo
from cutcat.gadgets import GadgetSpec, build_cut_cat
from cutcat.pauli import CssCode, mask_of, parity
from cutcat.verify import MAX_REREADS, KeyCache, verify_gadget

from decoder_ref import CatSyndrome, RefD7, arc_sets, cats_to_mask, decode_d3d5, decode_d7, reread_table
from pauli_ref import PauliFrame, code_syndrome


def plan_round2_d7(round1, ring_size=None):
    """Stabilizers the distance-7 decoder re-measures when round two
    echoes round one."""
    if isinstance(round1, CatSyndrome):
        round1, ring_size = round1.rounds[0], round1.cat_count
    _, requested = decode_d7(round1, ring_size,
                             lambda indices: {i: (round1 >> i) & 1 for i in indices})
    return frozenset(requested)


def bits(*idx):
    mask = 0
    for i in idx:
        mask |= 1 << i
    return mask


class TestArcSets:
    def test_adjacent_pair_selects_shared_cat(self):
        sel, comp = arc_sets((1, 2), 5)
        assert sel == {2}
        assert comp == {0, 1, 3, 4}

    def test_empty(self):
        sel, comp = arc_sets((), 5)
        assert sel == set() and comp == set(range(5))

    def test_two_arcs(self):
        sel, comp = arc_sets((0, 1, 2, 3), 7)
        assert sel == {1, 3}
        assert len(comp) == 5

    def test_odd_trigger_count_rejected(self):
        with pytest.raises(ValueError):
            arc_sets((0, 1, 2), 5)

    def test_wrap_pair(self):
        sel, comp = arc_sets((0, 2), 3)
        # walking 0 -> 2 selects {1, 2}; complement isents the wrap arc
        assert sel == {1, 2} and comp == {0}


class TestRuleD3D5:
    def test_no_triggers_no_correction(self):
        assert decode_d3d5(0, 1, 3) == frozenset()

    def test_single_trigger_ignored(self):
        assert decode_d3d5(bits(1), 1, 3) == frozenset()

    def test_adjacent_pair_corrects_shared_cat(self):
        for t, m in ((1, 3), (2, 5)):
            r = 2
            assert decode_d3d5(bits(r - 1, r), t, m) == frozenset({r})

    def test_disjoint_pairs_d5(self):
        m = 5
        got = decode_d3d5(bits(0, 1, 2, 3), 2, m)
        assert got == frozenset({1, 3})

    def test_three_triggers_no_correction(self):
        assert decode_d3d5(bits(0, 1, 3), 2, 5) == frozenset()


class TestJLists:
    def test_examples(self):
        assert j_list(1, 0, 0, 7) == (1, 2)
        assert j_list(2, 4, 0, 7) == (6, 1)
        assert j_list(5, 0, 0, 7) == (3, 4)

    def test_modular_reduction(self):
        assert j_list(5, 0, 5, 7) == (1, 2)

    def test_undefined_pair(self):
        with pytest.raises(ValueError):
            j_list(6, 0, 0, 7)

    def test_all_fifteen_defined(self):
        pairs = [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4),
                 (3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2), (4, 3), (5, 0)]
        for na, k in pairs:
            assert len(j_list(na, k, 0, 9)) >= 2


def echo_measure(round0, m):
    def measure(indices):
        return {i: (round0 >> (i % m)) & 1 for i in indices}
    return measure


class TestDecodeD7:
    def test_single_trigger_right_changed(self):
        m = 7
        round0 = bits(2)
        # J(1,0) anchored at 2 probes {3, 4}; answer slot 3 flipped on
        def measure(indices):
            return {i: 1 if i == 3 else (round0 >> i) & 1 for i in indices}
        corr, _ = decode_d7(round0, m, measure)
        assert corr == frozenset({3})  # cat a0+1, i.e. data 2*a0+3

    def test_five_adjacent_equal_comparison(self):
        m = 7
        round0 = bits(0, 1, 2, 3, 4)
        corr, requested = decode_d7(round0, m, echo_measure(round0, m))
        assert corr == frozenset({4})  # cat a0+4, i.e. data 2*(a0+3)+3
        assert set(requested) == {3, 4}

    def test_eight_triggers_even_arcs(self):
        m = 10
        round0 = bits(0, 1, 2, 3, 4, 5, 6, 7)
        corr, requested = decode_d7(round0, m, echo_measure(round0, m))
        assert corr == frozenset({1, 3, 5, 7})
        assert requested == ()

    def test_numpy_and_wide_syndromes(self):
        """``RuleDecoderD7.tables`` reads a key's ring bits only."""
        keys, dec = np.arange(1 << 7, dtype=np.uint64), RuleDecoderD7(
            build_cut_cat(GadgetSpec(gamma=14, distance=7)))
        for want, got in zip(dec.tables(keys, 7, 1), dec.tables(keys | (5 << 7), 7, 1)):
            np.testing.assert_array_equal(got, want)

    def test_never_more_than_four_requests(self):
        m = 7
        for round0 in range(1 << m):
            outcomes = {}

            def measure(indices, _r=round0):
                # adversarial: flip every re-measurement
                return {i: 1 ^ ((_r >> (i % m)) & 1) for i in indices}

            _, requested = decode_d7(round0, m, measure)
            assert len(requested) <= 4

    def test_requests_bounded_over_outcome_tree(self):
        # every key and every answer to each request: the tree walk refuses
        # a fifth request, and no stabilizer is requested twice
        g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
        for key in range(1 << g.cat_count):
            for reads, _ in reread_table(RefD7(g), CatSyndrome(g.cat_count, (key,))):
                assert len(reads) == len(set(reads)) <= MAX_REREADS


class TestPlanner:
    def test_empty_plan(self):
        assert plan_round2_d7(0, 7) == frozenset()

    def test_single_trigger_plan(self):
        a0 = 2
        plan = plan_round2_d7(bits(a0), 7)
        assert plan == {(a0 + 1) % 7, (a0 + 2) % 7, (a0 - 3) % 7, (a0 - 2) % 7}

    def test_five_adjacent_plan(self):
        plan = plan_round2_d7(bits(0, 1, 2, 3, 4), 7)
        assert {3, 4} <= plan

    def test_accepts_cat_syndrome(self):
        syn = CatSyndrome(7, (bits(2),))
        assert plan_round2_d7(syn) == plan_round2_d7(bits(2), 7)

    def test_plan_size_bounded(self):
        for round0 in range(1 << 7):
            assert len(plan_round2_d7(round0, 7)) <= 4


class TestDecoderObjects:
    def test_rule_decoder_maps_to_last_data_qubit(self):
        g = build_cut_cat(GadgetSpec(gamma=8, distance=5))
        # triggers {2,3} select cat 3, a single-interaction cat at data 6
        _, corr = RuleDecoderD3D5(g, 2).tables(np.array([bits(2, 3)], np.uint64), 5, 1)
        assert corr.tolist() == [[bits(6)]]

    def test_rule_decoder_standard_mapping(self):
        g = build_cut_cat(GadgetSpec(gamma=10, distance=5))
        _, corr = RuleDecoderD3D5(g, 2).tables(np.array([bits(1, 2)], np.uint64), 5, 1)
        assert corr.tolist() == [[bits(5)]]  # cat 2 -> data 2*2+1

    @pytest.mark.parametrize("distance, own, other", [(5, 10, 12), (7, 14, 20)])
    def test_rule_decoder_of_another_ring_rejected(self, distance, own, other):
        # 5 cats against 6, and 7 against 10: MC and the verifier fail
        # before any batch, as ``KeyCache`` asks for no key when made
        g, wrong = (build_cut_cat(GadgetSpec(gamma=gamma, distance=distance))
                    for gamma in (own, other))
        decoder = RuleDecoderD7(g) if distance == 7 else RuleDecoderD3D5(g, 2)
        msg = f"^syndrome of {wrong.cat_count} cats does not match the gadget's ring of {g.cat_count}$"
        with pytest.raises(ValueError, match=msg):
            decoder.tables(np.zeros(1, np.uint64), wrong.cat_count, wrong.base_rounds)
        with pytest.raises(ValueError, match=msg):
            GadgetMonteCarlo(wrong, decoder)
        with pytest.raises(ValueError, match=msg):
            verify_gadget(wrong, decoder, 1)

    def test_correction_off_the_gadget_rejected(self):
        # the d=7 gamma=13 and gamma=14 gadgets share a ring of 7 cats, but
        # gamma=14's decoder flips data qubit 13 for some keys, which
        # gamma=13 lacks and whose coset weight reads only 13 bits
        g13, g14 = (build_cut_cat(GadgetSpec(gamma=gamma, distance=7)) for gamma in (13, 14))
        msg = r"^the decoder corrects syndrome 0x[0-9a-f]+ on a qubit outside the gamma=13 data qubits$"
        with pytest.raises(ValueError, match=msg):
            verify_gadget(g13, RuleDecoderD7(g14), 3)
        with pytest.raises(ValueError, match=msg):
            GadgetMonteCarlo(g13, RuleDecoderD7(g14)).run_batch(1e-2, 1, 0, 10_000)
        assert verify_gadget(g13, RuleDecoderD7(g13), 3).passed

    def test_lut_correction_off_the_gadget_rejected(self):
        spec = GadgetSpec(gamma=6, distance=3, adaptive=False)
        g = build_cut_cat(spec)
        lut = build_cut_cat_lut(spec, gadget=g)
        table = lut.table.copy()
        table[-1, 1] |= np.uint64(1 << 6)  # the last key, reached at weight 1
        planted = LutDecoder(dataclasses.replace(lut, table=table))
        with pytest.raises(ValueError, match=f"syndrome {int(table[-1, 0]):#x} on a qubit"):
            verify_gadget(g, planted, 1)


def _shipped_decoder(kind):
    """A gadget and one of the shipped decoders on it, with its re-read count s."""
    spec = GadgetSpec(*{"rule-t1": (6, 3), "rule-d7": (14, 7)}.get(kind, (10, 5)))
    g = build_cut_cat(spec)
    return g, {
        "rule-t1": lambda: RuleDecoderD3D5(g, 1),
        "rule-t2": lambda: RuleDecoderD3D5(g, 2),
        "rule-d7": lambda: RuleDecoderD7(g),
        "lut": lambda: LutDecoder(build_cut_cat_lut(spec, gadget=g)),
        "identity": IdentityDecoder,
    }[kind](), MAX_REREADS if kind == "rule-d7" else 0


class TestTablesContract:
    """Every shipped decoder answers ``tables(keys, cat_count, rounds)``
    with int8 reads (n, 2^s, s), -1 past the last, and uint64
    corrections (n, 2^s); row v is the run whose i-th re-read returns bit
    i of v, so step i is read from the row of the outcomes before it, and
    rows that agree on the bits a run read share its correction."""

    @pytest.mark.parametrize("kind", ["rule-t1", "rule-t2", "rule-d7", "lut", "identity"])
    def test_shapes_padding_and_prefixes(self, kind):
        g, decoder, s = _shipped_decoder(kind)
        m, rounds = g.cat_count, g.base_rounds
        none = np.zeros(0, np.uint64)
        keys = np.arange(1 << (m * rounds), dtype=np.uint64)
        for n, (reads, corr) in ((0, decoder.tables(none, m, rounds)),
                                 (len(keys), decoder.tables(keys, m, rounds))):
            assert (reads.dtype, reads.shape, corr.dtype, corr.shape) == (
                np.int8, (n, 1 << s, s), np.uint64, (n, 1 << s))
        # an empty cache takes its answers' shape from the answer for no key
        cache = KeyCache(m * rounds, lambda new: decoder.tables(new, m, rounds))
        assert cache.index(none).shape == (0,)
        assert [v.shape for v in cache.values] == [(0, 1 << s, s), (0, 1 << s)]
        assert ((reads >= -1) & (reads < m)).all()
        assert (reads[..., 1:] < 0)[reads[..., :-1] < 0].all()
        v = np.arange(1 << s)
        for i in range(s):
            np.testing.assert_array_equal(reads[:, v, i], reads[:, v & ((1 << i) - 1), i])
        n_read = np.count_nonzero(reads >= 0, axis=-1)
        np.testing.assert_array_equal(
            corr, np.take_along_axis(corr, v & ((1 << n_read) - 1), axis=1))
        assert (n_read > 0).any() == (s > 0)


class TestRuleD3D5Tables:
    """``RuleDecoderD3D5.tables`` against the scalar ``decode_d3d5`` at
    every base-round key, alone and under random second-round bits."""

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("m", range(3, 13))
    def test_every_key_matches_decode_d3d5(self, m, t):
        g = build_cut_cat(GadgetSpec(gamma=2 * m, distance=3))
        assert g.cat_count == m
        round0 = np.arange(1 << m, dtype=np.uint64)
        upper = np.random.default_rng(m).integers(1, 1 << m, 1 << m, dtype=np.uint64)
        want = [cats_to_mask(g, decode_d3d5(k, t, m)) for k in round0.tolist()]
        for keys in (round0, round0 | upper << np.uint64(m)):
            reads, corr = RuleDecoderD3D5(g, t).tables(keys, m, 2)
            assert reads.shape == (len(keys), 1, 0)
            assert corr[:, 0].tolist() == want


def _dict_code_table(code, rows):
    """The per-pattern dict builder the array tables replaced: patterns of
    weight up to t in ascending weight, then lexicographically, each fresh
    syndrome keeping its first pattern."""
    table = {0: 0}
    for w in range(1, code.t + 1):
        for qubits in combinations(range(code.n), w):
            err = mask_of(qubits)
            syndrome = sum(parity(row & err) << i for i, row in enumerate(rows))
            table.setdefault(syndrome, err)
    return table


class TestCodeLut:
    def test_steane_weight_one_syndromes(self, steane):
        lut = build_code_lut(steane)
        assert len(lut.x_table) == 8  # zero plus seven single-qubit errors
        assert dict(lut.x_table.tolist())[0] == 0

    def test_steane_round_trip(self, steane):
        lut = build_code_lut(steane)
        table = dict(lut.x_table.tolist())
        for q in range(7):
            err = PauliFrame.single(7, q, "X")
            syn = code_syndrome(steane, err)
            sz = syn.bits >> len(steane.hx)
            assert table.get(sz) == err.x

    @pytest.mark.parametrize("name", ["steane", "rm15"])
    def test_arrays_match_dict_builder(self, request, name):
        code = request.getfixturevalue(name)
        lut = build_code_lut(code)
        for table, rows in ((lut.x_table, code.hz), (lut.z_table, code.hx)):
            assert table.dtype == np.uint64 and table.shape[1] == 2
            assert (np.diff(table[:, 0].astype(np.int64)) > 0).all()
            assert table.tolist() == [[k, e] for k, e in sorted(_dict_code_table(code, rows).items())]

    def test_equality_and_table_form(self, steane):
        lut = build_code_lut(steane)
        assert lut == build_code_lut(steane)
        assert dataclasses.replace(lut, x_table=lut.z_table[:-1]) != lut
        with pytest.raises(ValueError, match="z_table is not a uint64"):
            dataclasses.replace(lut, z_table=lut.z_table[::-1])

    def test_code_over_64_qubits_rejected(self):
        code = CssCode(n=65, k=63, d=3, hx=(0b11,), hz=(0b11,))
        with pytest.raises(ValueError, match="n=65 exceeds the 64-bit"):
            build_code_lut(code)

    def test_enumeration_cap(self, steane):
        with pytest.raises(ValueError):
            build_code_lut(steane, max_patterns=5)
