import math
from itertools import combinations

import pytest

from cutcat.circuit import PRE_MEASUREMENT, enumerate_fault_locations
from cutcat.decoders import (
    IdentityDecoder,
    RuleDecoderD3D5,
    RuleDecoderD7,
    cats_to_mask,
    decode_d7,
)
from cutcat.gadgets import GadgetSpec, build_cut_cat
from cutcat.sim import CatSyndrome, adaptive_propagate, location_effects
from cutcat.verify import (
    MAX_REREADS,
    _combos,
    _persist_outcome,
    eval_upper_bound,
    oracle_residuals,
    reread_table,
    verify_gadget,
)


def _reference_effects(g, dedupe):
    """Single X-fault effects, keeping the first location per (data_x,
    slot_flips) class under ``dedupe``."""
    effects = location_effects(g, enumerate_fault_locations(g), "X")
    if dedupe:
        first = {}
        for e in effects:
            first.setdefault((e.data_x, e.slot_flips), e)
        effects = list(first.values())
    return effects


def _reference_combos(effects, max_weight):
    """Per-tuple reference for the combination walk: (combo, data, key,
    persist) over ``itertools.combinations``, each tuple XORed afresh."""
    out = []
    for w in range(1, max_weight + 1):
        for combo in combinations(range(len(effects)), w):
            data = key = persist = 0
            for i in combo:
                data ^= effects[i].data_x
                key ^= effects[i].slot_flips
                persist ^= effects[i].persist_x
            out.append((combo, data, key, persist))
    return out


class TestVerifyGadget:
    def test_d3_gamma6_passes(self):
        spec = GadgetSpec(gamma=6, distance=3)
        g = build_cut_cat(spec)
        rep = verify_gadget(g, RuleDecoderD3D5(g, 1), 1, dedupe=False)
        assert rep.passed
        assert rep.n_locations == 24

    def test_d5_gamma10_passes(self):
        spec = GadgetSpec(gamma=10, distance=5)
        g = build_cut_cat(spec)
        assert verify_gadget(g, RuleDecoderD3D5(g, 2), 2, dedupe=False).passed

    def test_identity_decoder_hook_counterexample(self):
        spec = GadgetSpec(gamma=6, distance=3)
        g = build_cut_cat(spec)
        rep = verify_gadget(g, IdentityDecoder(), 1, dedupe=False)
        assert not rep.passed
        cx = rep.counterexample
        assert cx.n_faults == 1
        assert cx.coset_weight == 2
        locs = enumerate_fault_locations(g)
        assert locs[cx.fault_ids[0]].kind == "cat_init"

    def test_dedupe_agrees_with_full(self):
        spec = GadgetSpec(gamma=8, distance=5)
        g = build_cut_cat(spec)
        dec = RuleDecoderD3D5(g, 2)
        assert verify_gadget(g, dec, 2, dedupe=True).passed == \
            verify_gadget(g, dec, 2, dedupe=False).passed

    def test_measurement_only_faults_always_pass(self):
        spec = GadgetSpec(gamma=10, distance=5)
        g = build_cut_cat(spec)
        locs = [l for l in enumerate_fault_locations(g) if l.kind == PRE_MEASUREMENT]
        rep = verify_gadget(g, RuleDecoderD3D5(g, 2), 2, locations=locs,
                            dedupe=False)
        assert rep.passed

    def test_parallel_jobs_match_serial(self):
        spec = GadgetSpec(gamma=8, distance=3)
        g = build_cut_cat(spec)
        dec = RuleDecoderD3D5(g, 1)
        serial = verify_gadget(g, dec, 1, dedupe=False, jobs=1)
        parallel = verify_gadget(g, dec, 1, dedupe=False, jobs=2)
        assert serial.passed == parallel.passed
        assert serial.faults_checked == parallel.faults_checked

    def test_d7_small_adaptive_passes(self):
        spec = GadgetSpec(gamma=14, distance=7)
        g = build_cut_cat(spec)
        assert verify_gadget(g, RuleDecoderD7(g), 3, dedupe=True).passed

    @pytest.mark.parametrize("gamma,distance,decoder,t,expected", [
        (10, 5, "identity", 2, ((0,), 1, 0x11, 0x3, 0x0, 2)),
        (10, 5, "rule-t1", 2, ((0, 1), 2, 0x12, 0xF, 0x0, 4)),
        (14, 7, "rule-t2", 3, ((0, 1, 2), 3, 0x44, 0x3F, 0x0, 6)),
    ])
    def test_first_counterexample_pinned(self, gamma, distance, decoder, t,
                                         expected):
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=distance))
        dec = {
            "identity": IdentityDecoder,
            "rule-t1": lambda: RuleDecoderD3D5(g, 1),
            "rule-t2": lambda: RuleDecoderD3D5(g, 2),
        }[decoder]()
        cx = verify_gadget(g, dec, t).counterexample
        assert (cx.fault_ids, cx.n_faults, cx.syndrome_key, cx.residual,
                cx.correction, cx.coset_weight) == expected


    def test_adaptive_reports_pinned(self):
        """Counts and the first counterexample of the adaptive branch, as
        recorded when every event set was decoded afresh."""
        g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
        dec = RuleDecoderD7(g)
        rep = verify_gadget(g, dec, 3)
        assert rep.passed and rep.faults_checked == 10598
        rep = verify_gadget(g, dec, 4)
        cx = rep.counterexample
        assert rep.faults_checked == 14002
        assert (cx.fault_ids, cx.round2_flips, cx.n_faults, cx.syndrome_key,
                cx.residual, cx.correction, cx.coset_weight) == \
            ((0, 1, 2), (1,), 4, 0x44, 0x3F, 0x0, 6)

    @pytest.mark.parametrize("dedupe", [True, False])
    @pytest.mark.parametrize("gamma,distance,decoder,t", [
        (10, 5, "identity", 2),
        (10, 5, "rule-t1", 2),
        (14, 7, "rule-t2", 3),
    ])
    def test_failing_reports_do_not_depend_on_jobs(self, gamma, distance,
                                                   decoder, t, dedupe):
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=distance))
        dec = {
            "identity": IdentityDecoder,
            "rule-t1": lambda: RuleDecoderD3D5(g, 1),
            "rule-t2": lambda: RuleDecoderD3D5(g, 2),
        }[decoder]()
        serial = verify_gadget(g, dec, t, dedupe=dedupe, jobs=1)
        parallel = verify_gadget(g, dec, t, dedupe=dedupe, jobs=2)
        assert not serial.passed
        assert parallel == serial


class TestRereadTable:
    """The compiled adaptive decoder against ``decode_d7`` itself."""

    @pytest.mark.parametrize("gamma", [14, 20])
    def test_every_key_and_outcome_matches_decode_d7(self, gamma):
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=7))
        m = g.cat_count
        dec = RuleDecoderD7(g)
        for key in range(1 << m):
            rows = reread_table(dec, CatSyndrome(m, (key,)))
            for v in range(1 << MAX_REREADS):
                fed = iter(range(MAX_REREADS))

                def measure(indices):
                    return {i: (v >> next(fed)) & 1 for i in indices}

                cats, requested = decode_d7(key, m, measure)
                reads, corr = rows[v]
                assert (reads, corr) == (requested, cats_to_mask(g, cats))
                # step i is read from the row of the outcomes before it
                for i, stab in enumerate(requested):
                    assert rows[v & ((1 << i) - 1)][0][i] == stab

    def test_more_than_four_rereads_rejected(self):
        class Greedy:
            needs_round2 = True

            def decode(self, syn, measure):
                measure(tuple(range(MAX_REREADS + 1)))
                return 0

        with pytest.raises(ValueError, match="more than 4 re-reads"):
            reread_table(Greedy(), CatSyndrome(7, (0b11,)))


class TestOracle:
    def test_weight_zero_entry(self):
        g = build_cut_cat(GadgetSpec(gamma=6, distance=3))
        stream = list(oracle_residuals(g, 0))
        assert stream == [(0, 0, 0)]

    def test_weight_one_count_matches_locations(self):
        g = build_cut_cat(GadgetSpec(gamma=6, distance=3))
        entries = [e for e in oracle_residuals(g, 1) if e[2] == 1]
        assert len(entries) == 24

    def test_weight_one_residuals_bounded(self):
        g = build_cut_cat(GadgetSpec(gamma=10, distance=5))
        for _, res, w in oracle_residuals(g, 1):
            if w == 1:
                assert bin(res).count("1") <= 2

    def test_deterministic_stream(self):
        g = build_cut_cat(GadgetSpec(gamma=6, distance=3))
        assert list(oracle_residuals(g, 2)) == list(oracle_residuals(g, 2))

    @pytest.mark.parametrize("dedupe", [False, True])
    @pytest.mark.parametrize("gamma,distance", [(6, 3), (10, 5)])
    def test_stream_matches_reference(self, gamma, distance, dedupe):
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=distance))
        ref = _reference_combos(_reference_effects(g, dedupe), 2)
        expected = [(0, 0, 0)] + [(key, data, len(c)) for c, data, key, _ in ref]
        assert list(oracle_residuals(g, 2, dedupe=dedupe)) == expected

    def test_walk_over_first_range_matches_reference(self):
        g = build_cut_cat(GadgetSpec(gamma=10, distance=5))
        effects = _reference_effects(g, False)
        part = range(7, 23)
        expected = [r for r in _reference_combos(effects, 3) if r[0][0] in part]
        assert list(_combos(effects, 3, part)) == expected


class TestRemeasurementModel:
    """The verifier's slot/cat event model against ``adaptive_propagate``,
    with every ring stabilizer re-read once."""

    @pytest.fixture(params=[14, 20], ids=["g14", "g20"])
    def gadget(self, request):
        return build_cut_cat(GadgetSpec(gamma=request.param, distance=7))

    @staticmethod
    def _rereads(g, faults=(), adaptive_faults=()):
        res = adaptive_propagate(g, faults, planner=lambda syn: range(g.cat_count),
                                 adaptive_faults=adaptive_faults)
        return dict(res.syndrome.adaptive)

    def test_base_round_faults_persist(self, gadget):
        g, m = gadget, gadget.cat_count
        locs = enumerate_fault_locations(g)
        for loc, eff in zip(locs, location_effects(g, locs, "X")):
            expected = {s: _persist_outcome(eff.persist_x, s, m) for s in range(m)}
            assert self._rereads(g, [(loc, "X")]) == expected, loc.describe()

    def test_remeasurement_faults_are_slot_or_cat_events(self, gadget):
        g, m = gadget, gadget.cat_count
        assert self._rereads(g) == {s: 0 for s in range(m)}
        events = [set()] + [{s} for s in range(m)]
        events += [{(c - 1) % m, c} for c in range(m)]
        kinds = ("anc_prep", "anc_mid", "anc_post", "pre_measurement",
                 "post_gate_control_0", "post_gate_control_1")
        for stab in range(m):
            for kind in kinds:
                for pauli in "XYZ":
                    bits = self._rereads(g, adaptive_faults=[(stab, kind, pauli)])
                    flipped = {s for s, bit in bits.items() if bit}
                    assert flipped in events, (stab, kind, pauli, flipped)


class TestUpperBound:
    def test_zero_rate(self):
        assert eval_upper_bound(10, 2, 0.0) == 0.0

    def test_t_zero_closed_form(self):
        for gamma, p in ((6, 1e-3), (10, 3e-3), (18, 1e-2)):
            q = 2 * p / 3
            expected = 1 - (1 - q) ** (4 * gamma)
            assert eval_upper_bound(gamma, 0, p) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_p(self):
        vals = [eval_upper_bound(10, 2, p) for p in (1e-4, 1e-3, 1e-2, 1e-1)]
        assert vals == sorted(vals)

    def test_monotone_in_gamma(self):
        vals = [eval_upper_bound(g, 2, 1e-3) for g in (6, 10, 14, 18)]
        assert vals == sorted(vals)

    def test_antitone_in_t(self):
        vals = [eval_upper_bound(10, t, 1e-2) for t in (0, 1, 2, 3)]
        assert vals == sorted(vals, reverse=True)

    def test_matches_complementary_identity(self):
        # direct 1 - CDF in exact fractions for a modest case
        from fractions import Fraction

        gamma, t, p = 6, 1, Fraction(3, 1000)
        q = 2 * p / 3
        n = 4 * gamma
        cdf = sum(
            Fraction(math.comb(n, s)) * q**s * (1 - q) ** (n - s)
            for s in range(t + 1)
        )
        expected = float(1 - cdf)
        assert eval_upper_bound(gamma, t, float(p)) == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            eval_upper_bound(10, 2, 1.5)
