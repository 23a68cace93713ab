import numpy as np
import pytest

from cutcat.decoders import (
    RuleDecoderD3D5,
    arc_sets,
    build_code_lut,
    decode_d3d5,
    decode_d7,
    j_list,
)
from cutcat.gadgets import GadgetSpec, build_cut_cat
from cutcat.sim import CatSyndrome

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
        """A numpy integer syndrome, or one with bits above the ring,
        decodes as its ring bits do."""
        m = 7
        for round0 in (bits(2), bits(0, 1, 2, 3, 4), bits(0, 2)):
            want = decode_d7(round0, m, echo_measure(round0, m))
            for same in (np.uint64(round0), np.int64(round0), round0 | 1 << m):
                assert decode_d7(same, m, echo_measure(round0, m)) == want

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
        # explore every possible answer pattern for every round-1 state
        m = 7

        def explore(round0, answers):
            requested = []

            def measure(indices):
                out = {}
                for i in indices:
                    i %= m
                    out[i] = answers.get(i, 0)
                    requested.append(i)
                return out

            decode_d7(round0, m, measure)
            return tuple(requested)

        import itertools
        for round0 in range(1 << m):
            seen = {()}
            frontier = [dict()]
            while frontier:
                answers = frontier.pop()
                req = explore(round0, answers)
                assert len(req) <= 4
                for i in req:
                    if i not in answers:
                        for v in (0, 1):
                            nxt = dict(answers)
                            nxt[i] = v
                            key = tuple(sorted(nxt.items()))
                            if key not in seen:
                                seen.add(key)
                                frontier.append(nxt)


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
        dec = RuleDecoderD3D5(g, 2)
        # triggers {2,3} select cat 3, a single-interaction cat at data 6
        syn = CatSyndrome(g.cat_count, (bits(2, 3),))
        assert dec.decode(syn) == bits(6)

    def test_rule_decoder_standard_mapping(self):
        g = build_cut_cat(GadgetSpec(gamma=10, distance=5))
        dec = RuleDecoderD3D5(g, 2)
        syn = CatSyndrome(g.cat_count, (bits(1, 2),))
        assert dec.decode(syn) == bits(5)  # cat 2 -> data 2*2+1


class TestCodeLut:
    def test_steane_weight_one_syndromes(self, steane):
        lut = build_code_lut(steane)
        assert len(lut.x_table) == 8  # zero plus seven single-qubit errors
        assert lut.x_table[0] == 0

    def test_steane_round_trip(self, steane):
        lut = build_code_lut(steane)
        for q in range(7):
            err = PauliFrame.single(7, q, "X")
            syn = code_syndrome(steane, err)
            sz = syn.bits >> len(steane.hx)
            assert lut.x_table.get(sz) == err.x

    def test_enumeration_cap(self, steane):
        with pytest.raises(ValueError):
            build_code_lut(steane, max_patterns=5)
