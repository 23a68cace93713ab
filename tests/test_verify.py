import dataclasses
import math
import random
from itertools import combinations

import numpy as np
import pytest

from cutcat.circuit import PRE_MEASUREMENT, enumerate_fault_locations
from cutcat.decoders import (
    IdentityDecoder,
    LutDecoder,
    RuleDecoderD3D5,
    RuleDecoderD7,
    build_cut_cat_lut,
    cats_to_mask,
    decode_d7,
)
from cutcat.gadgets import GadgetSpec, build_cut_cat
from cutcat.pauli import mask_of, residual_weight_mod_generator
from cutcat.sim import CatSyndrome, adaptive_propagate, location_effects
from cutcat.verify import (
    MAX_REREADS,
    KeyCache,
    _check_combos,
    _effect_classes,
    combo_walk,
    eval_upper_bound,
    reread_table,
    verify_gadget,
)


def _persist_outcome(persist, stab, m):
    """Re-read bit of stabilizer ``stab`` under persisting cat X errors:
    the parity of cats ``stab`` and ``stab + 1``."""
    return ((persist >> stab) ^ (persist >> ((stab + 1) % m))) & 1


def _persist_outcome_bits(persist, m):
    return sum(_persist_outcome(persist, s, m) << s for s in range(m))


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


def _walk_rows(effects, max_weight, first_range=None, min_weight=1):
    """``combo_walk`` flattened to (combo, data, key, persist) tuples, row
    by row, each combination rebuilt from its parent chain."""
    return [
        (s.combo(r), int(s.data[r]), int(s.key[r]), int(s.persist[r]))
        for s in combo_walk(effects, max_weight, first_range, min_weight,
                            with_persist=True)
        for r in range(len(s.data))
    ]


def _class_effects(g, dedupe=False):
    return _effect_classes(g, enumerate_fault_locations(g), dedupe, False)[0]


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

    def test_lut_shape_mismatch_rejected(self):
        lut = build_cut_cat_lut(GadgetSpec(gamma=10, distance=5, adaptive=False))
        other = build_cut_cat(GadgetSpec(gamma=12, distance=5))
        with pytest.raises(ValueError, match="shape"):
            verify_gadget(other, LutDecoder(lut), 2)
        g = build_cut_cat(GadgetSpec(gamma=10, distance=5))
        with pytest.raises(ValueError, match="shape"):
            verify_gadget(g, LutDecoder(dataclasses.replace(lut, rounds=2)), 2)

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


def _full_reread_table(decoder, syn):
    """``reread_table`` with one decoder run per outcome vector."""
    rows = []
    for v in range(1 << MAX_REREADS):
        reads = []

        def measure(indices):
            out = {}
            for i in indices:
                out[i] = (v >> len(reads)) & 1
                reads.append(i % syn.cat_count)
            return out

        corr = decoder.decode(syn, measure)
        rows.append((tuple(reads), corr))
    return rows


def _reached_keys(g, t):
    """Every syndrome key the adaptive verifier meets at budget t."""
    effects = _effect_classes(g, enumerate_fault_locations(g), True, True)[0]
    return sorted({int(k) for s in combo_walk(effects, t) for k in s.key})


class TestPrunedRereadTable:
    """``reread_table`` runs the decoder once per distinct read prefix;
    the table must equal one built from a run per outcome vector."""

    @pytest.mark.parametrize("gamma", [14, 20])
    def test_equals_full_table_on_reached_keys(self, gamma):
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=7))
        calls = []

        class Counted(RuleDecoderD7):
            def decode(self, syn, measure=None):
                calls.append(syn)
                return super().decode(syn, measure)

        keys = _reached_keys(g, 3)
        paths = 0
        for key in keys:
            syn = CatSyndrome.from_key(g.cat_count, key, g.base_rounds)
            full = _full_reread_table(RuleDecoderD7(g), syn)
            assert reread_table(Counted(g), syn) == full, hex(key)
            # rows that agree on the bits their run read share one run
            paths += len({(reads, v % (1 << len(reads))) for v, (reads, _) in enumerate(full)})
        assert len(calls) == paths < len(keys) << MAX_REREADS


class TestKeyCache:
    def test_computes_only_new_keys_and_keeps_order(self):
        cache, asked = KeyCache(), []

        def square(keys):
            asked.append(keys.tolist())
            return keys * keys, np.stack([keys, keys + 1], axis=1)

        sq, pair = cache.get(np.array([3, 7], np.uint64), square)
        assert sq.tolist() == [9, 49] and pair.tolist() == [[3, 4], [7, 8]]
        sq, pair = cache.get(np.array([1, 3, 5, 9], np.uint64), square)
        assert asked == [[3, 7], [1, 5, 9]]
        assert sq.tolist() == [1, 9, 25, 81]
        assert pair.tolist() == [[1, 2], [3, 4], [5, 6], [9, 10]]
        assert cache.keys.tolist() == [1, 3, 5, 7, 9]
        cache.get(np.array([5, 7], np.uint64), square)
        assert len(asked) == 2

    def test_no_keys_on_an_empty_cache_keep_the_answers_shape(self):
        cache = KeyCache()

        def square(keys):
            return keys * keys, np.stack([keys, keys + 1], axis=1)

        sq, pair = cache.get(np.zeros(0, np.uint64), square)
        assert sq.shape == (0,) and pair.shape == (0, 2)
        sq, pair = cache.get(np.array([2], np.uint64), square)
        assert sq.tolist() == [4] and pair.tolist() == [[2, 3]]


class TestEmptyDeepestSlice:
    """A range of first indices may hold no combination at the deepest
    weight (index n-1 at weight 2): a worker that starts with such a
    range meets an empty slice with an empty cache."""

    @pytest.mark.parametrize("adaptive", [False, True], ids=["lut", "d7"])
    def test_last_first_index_checks_nothing(self, adaptive):
        if adaptive:
            g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
            decoder, t = RuleDecoderD7(g), 3
        else:
            spec = GadgetSpec(gamma=10, distance=5, adaptive=False)
            g = build_cut_cat(spec)
            decoder, t = LutDecoder(build_cut_cat_lut(spec, gadget=g)), 2
        effects, ids = _effect_classes(g, enumerate_fault_locations(g), True, adaptive)
        n = len(effects)
        assert _check_combos(g, decoder, t, effects, ids, KeyCache(), 2,
                             range(n - 1, n)) == (0, None)


class _BrokenAt:
    """``RuleDecoderD7`` with a wrong correction for base-round key
    ``key`` once at least ``changed`` re-reads differ from ``clean`` (the
    bits a run with no re-measurement fault reads)."""

    needs_round2 = True

    def __init__(self, g, key, bad, clean, changed):
        self.inner, self.key, self.bad = RuleDecoderD7(g), key, bad
        self.clean, self.changed = clean, changed

    def decode(self, syn, measure):
        if syn.key() != self.key:
            return self.inner.decode(syn, measure)
        diff = 0

        def spy(indices):
            nonlocal diff
            out = measure(indices)
            diff += sum(out[i] != (self.clean >> i) & 1 for i in indices)
            return out

        corr = self.inner.decode(syn, spy)
        return self.bad if diff >= self.changed else corr


class TestAdaptiveVerifierMatchesScalarWalk:
    """The grid check of adaptive decoders against the per-row loop it
    replaced: each combination, then each set of re-measurement events
    in size-major lexicographic order, followed through a table built
    from one decoder run per outcome vector."""

    @staticmethod
    def _scalar_verify(g, decoder, t):
        effects, ids = _effect_classes(g, enumerate_fault_locations(g), True, True)
        m = g.cat_count
        events = [("slot", s, 1 << s) for s in range(m)]
        events += [("cat", c, (1 << c) | (1 << ((c - 1) % m))) for c in range(m)]
        tables = {}
        checked = 0
        for w in range(1, t + 1):
            for combo in combinations(range(len(effects)), w):
                data = key = persist = 0
                for i in combo:
                    data ^= effects[i].data_x
                    key ^= effects[i].slot_flips
                    persist ^= effects[i].persist_x
                if key not in tables:
                    syn = CatSyndrome.from_key(m, key, g.base_rounds)
                    tables[key] = [(reads, mask_of(set(reads)), corr)
                                   for reads, corr in _full_reread_table(decoder, syn)]
                rows = tables[key]
                base = _persist_outcome_bits(persist, m)
                for fsize in range(t - w + 1):
                    for chosen in combinations(events, fsize):
                        bits = base
                        for _, _, mask in chosen:
                            bits ^= mask
                        v = 0
                        for i in range(MAX_REREADS):
                            reads = rows[v][0]
                            if i == len(reads):
                                break
                            v |= ((bits >> reads[i]) & 1) << i
                        _, read, corr = rows[v]
                        if not all(mask & read for _, _, mask in chosen):
                            continue
                        checked += 1
                        cw = residual_weight_mod_generator(data ^ corr, g.gamma)
                        if cw > w + fsize:
                            flips = tuple(i for kind, i, _ in chosen if kind == "slot")
                            flips += tuple(("cat", i) for kind, i, _ in chosen if kind == "cat")
                            return checked, (tuple(ids[i] for i in combo), flips, w + fsize,
                                             key, data, corr, cw)
        return checked, None

    @staticmethod
    def _report(rep):
        cx = rep.counterexample
        return rep.faults_checked, cx and (
            cx.fault_ids, cx.round2_flips, cx.n_faults, cx.syndrome_key,
            cx.residual, cx.correction, cx.coset_weight)

    @pytest.fixture(scope="class")
    def references(self):
        out = {}
        for gamma in (14, 20):
            g = build_cut_cat(GadgetSpec(gamma=gamma, distance=7))
            out[gamma] = self._scalar_verify(g, RuleDecoderD7(g), 3)
        return out

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("gamma", [14, 20])
    def test_rule_decoder_passes_with_same_count(self, references, gamma, jobs):
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=7))
        rep = verify_gadget(g, RuleDecoderD7(g), 3, jobs=jobs)
        assert self._report(rep) == references[gamma]
        assert references[gamma] == ({14: 10598, 20: 25765}[gamma], None)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("changed, flips", [(0, ()), (1, ("slot",)), (2, ("cat",))],
                             ids=["no-event", "slot-event", "cat-event"])
    def test_broken_decoder_found_mid_weight_one_grid(self, changed, flips, jobs):
        g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
        m = g.cat_count
        effects = _effect_classes(g, enumerate_fault_locations(g), True, True)[0]
        n = len(effects)
        # the first weight-1 row past the middle whose key no earlier row
        # has and for which the decoder re-reads some stabilizer
        earlier = {e.slot_flips for e in effects[:n // 2]}
        reads_any = lambda key: reread_table(RuleDecoderD7(g), CatSyndrome(m, (key,)))[0][0]
        r = next(r for r in range(n // 2, n) if effects[r].slot_flips not in earlier
                 and reads_any(effects[r].slot_flips))
        e = effects[r]
        broken = _BrokenAt(g, e.slot_flips, e.data_x ^ 0b111,
                           _persist_outcome_bits(e.persist_x, m), changed)

        checked, cx = self._scalar_verify(g, broken, 3)
        # weight 1, row r, with no event, one slot flip or one cat event
        fault_ids, got_flips, n_faults, key = cx[:4]
        assert len(fault_ids) == 1 and key == e.slot_flips and checked > n // 2
        assert tuple(f[0] if isinstance(f, tuple) else "slot" for f in got_flips) == flips
        assert n_faults == 1 + len(flips)
        assert self._report(verify_gadget(g, broken, 3, jobs=jobs)) == (checked, cx)


class TestOracle:
    """The combination walk that LUT synthesis and the verifier consume."""

    def test_weight_zero_entry(self):
        g = build_cut_cat(GadgetSpec(gamma=6, distance=3))
        assert _walk_rows(_class_effects(g), 0, min_weight=0) == [((), 0, 0, 0)]

    def test_weight_one_count_matches_locations(self):
        g = build_cut_cat(GadgetSpec(gamma=6, distance=3))
        entries = [e for e in _walk_rows(_class_effects(g), 1) if len(e[0]) == 1]
        assert len(entries) == 24

    def test_weight_one_residuals_bounded(self):
        g = build_cut_cat(GadgetSpec(gamma=10, distance=5))
        for combo, res, _, _ in _walk_rows(_class_effects(g), 1):
            if len(combo) == 1:
                assert bin(res).count("1") <= 2

    def test_deterministic_stream(self):
        g = build_cut_cat(GadgetSpec(gamma=6, distance=3))
        effects = _class_effects(g)
        assert _walk_rows(effects, 2, min_weight=0) == _walk_rows(effects, 2, min_weight=0)

    @pytest.mark.parametrize("dedupe", [False, True])
    @pytest.mark.parametrize("gamma,distance", [(6, 3), (10, 5)])
    def test_stream_matches_reference(self, gamma, distance, dedupe):
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=distance))
        expected = [((), 0, 0, 0)] + _reference_combos(_reference_effects(g, dedupe), 2)
        assert _walk_rows(_class_effects(g, dedupe), 2, min_weight=0) == expected

    def test_walk_over_first_range_matches_reference(self):
        g = build_cut_cat(GadgetSpec(gamma=10, distance=5))
        effects = _reference_effects(g, False)
        part = range(7, 23)
        expected = [r for r in _reference_combos(effects, 3) if r[0][0] in part]
        assert _walk_rows(effects, 3, part) == expected

    def test_deepest_weight_walked_by_first_index(self):
        g = build_cut_cat(GadgetSpec(gamma=10, distance=5))
        effects = _class_effects(g)
        n = len(effects)
        slices = list(combo_walk(effects, 3))
        sizes = [len(s.data) for s in slices]
        assert [s.weight for s in slices] == [1, 2] + [3] * n
        assert sizes == [n, math.comb(n, 2)] + [math.comb(n - 1 - i, 2) for i in range(n)]
        assert max(sizes[2:]) == math.comb(n - 1, 2)
        for s in slices:
            assert s.persist is None
            assert all(a.dtype == np.int32 for pair in s.chain for a in pair)
        # parents index the whole weight below, whose arrays every slice shares
        for s in slices[1:]:
            assert all(x is y for x, y in zip(s.chain[:-1], slices[s.weight - 2].chain))


class TestStaticVerifierMatchesScalarWalk:
    """The array check of static decoders against a per-combination walk
    over ``itertools.combinations``, on a d=5 LUT with one entry broken."""

    @staticmethod
    def _scalar_verify(g, decoder, t):
        effects, ids = _effect_classes(g, enumerate_fault_locations(g), True, False)
        checked = 0
        for w in range(1, t + 1):
            for combo in combinations(range(len(effects)), w):
                data = key = 0
                for i in combo:
                    data ^= effects[i].data_x
                    key ^= effects[i].slot_flips
                checked += 1
                corr = decoder.decode(CatSyndrome.from_key(g.cat_count, key, g.base_rounds))
                cw = residual_weight_mod_generator(data ^ corr, g.gamma)
                if cw > w:
                    return checked, (tuple(ids[i] for i in combo), (), w, key, data, corr, cw)
        return checked, None

    @pytest.fixture(scope="class")
    def setup(self):
        spec = GadgetSpec(gamma=10, distance=5, adaptive=False)
        g = build_cut_cat(spec)
        return g, build_cut_cat_lut(spec, gadget=g)

    @pytest.mark.parametrize("first", [0, 3])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_broken_entry_found_mid_slice(self, setup, first, jobs):
        g, lut = setup
        effects = _class_effects(g, dedupe=True)
        n = len(effects)
        earlier = {e.slot_flips for e in effects}
        # the first weight-2 combination starting at ``first`` whose key no
        # earlier combination reaches, well inside its slice
        for i, j in combinations(range(n), 2):
            key = effects[i].slot_flips ^ effects[j].slot_flips
            if i == first and j > first + 8 and key not in earlier:
                break
            earlier.add(key)
        else:
            pytest.fail("no fresh weight-2 key")
        data = effects[i].data_x ^ effects[j].data_x
        table = dict(lut.table)
        table[key] = data ^ 0b111  # coset weight 3 against a budget of 2
        broken = LutDecoder(type(lut)(lut.gamma, lut.t, lut.rounds, lut.cat_count, table))

        checked, cx = self._scalar_verify(g, broken, 2)
        # rows of weight 1, of the slices before ``first``, then (i, j)
        assert checked == n + sum(n - 1 - a for a in range(i)) + (j - i - 1) + 1
        rep = verify_gadget(g, broken, 2, jobs=jobs)
        assert rep.faults_checked == checked
        got = rep.counterexample
        assert (got.fault_ids, got.round2_flips, got.n_faults, got.syndrome_key,
                got.residual, got.correction, got.coset_weight) == cx


class TestMaskWidthLimit:
    """The walk packs residuals and keys into uint64 rows: wider gadgets
    are rejected before walking, not decided through Python ints."""

    @pytest.mark.parametrize("spec, message", [
        (GadgetSpec(gamma=70, distance=3, adaptive=False), "gamma=70 exceeds the 64-bit"),
        (GadgetSpec(gamma=44, distance=5, adaptive=False, base_rounds=3),
         "ring slots=66 exceeds the 64-bit"),
    ], ids=["gamma", "ring-slots"])
    def test_verify_and_lut_build_reject(self, spec, message):
        g = build_cut_cat(spec)
        with pytest.raises(ValueError, match=message):
            verify_gadget(g, IdentityDecoder(), spec.t)
        with pytest.raises(ValueError, match=message):
            build_cut_cat_lut(spec, gadget=g)

    def test_sixty_four_bits_accepted(self):
        g = build_cut_cat(GadgetSpec(gamma=64, distance=3))
        assert verify_gadget(g, RuleDecoderD3D5(g, 1), 1).passed


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

    KINDS = ("anc_prep", "anc_mid", "anc_post", "pre_measurement",
             "post_gate_control_0", "post_gate_control_1")

    def test_remeasurement_faults_are_slot_or_cat_events(self, gadget):
        g, m = gadget, gadget.cat_count
        assert self._rereads(g) == {s: 0 for s in range(m)}
        events = [set()] + [{s} for s in range(m)]
        events += [{(c - 1) % m, c} for c in range(m)]
        for stab in range(m):
            for kind in self.KINDS:
                for pauli in "XYZ":
                    bits = self._rereads(g, adaptive_faults=[(stab, kind, pauli)])
                    flipped = {s for s, bit in bits.items() if bit}
                    assert flipped in events, (stab, kind, pauli, flipped)

    def test_multi_fault_rereads_compose(self, gadget):
        # up to t=3 faults mixing base-round X locations and re-measurement
        # faults: the re-read bits are the persist parities of the XORed
        # base effects, flipped by each re-measurement fault on its own
        g, m = gadget, gadget.cat_count
        locs = enumerate_fault_locations(g)
        persist = [e.persist_x for e in location_effects(g, locs, "X")]
        remeas = [(stab, kind, pauli) for stab in range(m)
                  for kind in self.KINDS for pauli in "XYZ"]
        flips = {f: self._rereads(g, adaptive_faults=[f]) for f in remeas}
        rng = random.Random(g.gamma)
        for _ in range(400):
            n = rng.randint(1, 3)
            base = rng.sample(range(len(locs)), rng.randint(0, n))
            extra = [rng.choice(remeas) for _ in range(n - len(base))]
            p = 0
            for i in base:
                p ^= persist[i]
            expected = {s: _persist_outcome(p, s, m) for s in range(m)}
            for f in extra:
                for s, bit in flips[f].items():
                    expected[s] ^= bit
            got = self._rereads(g, [(locs[i], "X") for i in base], extra)
            assert got == expected, (base, extra)


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
