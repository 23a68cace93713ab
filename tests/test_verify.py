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
from cutcat.pauli import residual_weight_mod_generator
from cutcat.sim import (
    CatSyndrome,
    FaultTable,
    _Walker,
    adaptive_propagate,
    gate_operations,
    location_effects,
    noisy_operations,
)
from cutcat.verify import (
    MAX_REREADS,
    EventSets,
    KeyCache,
    _check_combos,
    _effect_classes,
    _first_rows,
    combo_walk,
    eval_upper_bound,
    reread_events,
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
        the scalar reference of ``TestAdaptiveVerifierMatchesScalarWalk``
        gives them (t=4 too slow for the suite there): at t=4 an X on the
        ancilla of the first re-read, which reads stabilizer 1."""
        g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
        dec = RuleDecoderD7(g)
        rep = verify_gadget(g, dec, 3)
        assert rep.passed and rep.faults_checked == 19817
        rep = verify_gadget(g, dec, 4)
        cx = rep.counterexample
        assert rep.faults_checked == 112121
        assert (cx.fault_ids, cx.round2_flips, cx.n_faults, cx.syndrome_key,
                cx.residual, cx.correction, cx.coset_weight) == \
            ((0, 1, 2), ((0, 0, 0),), 4, 0x44, 0x3F, 0x0, 6)
        assert "round2_flips=((0, 0, 0),)" in cx.describe()

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

    def test_repeated_unsorted_keys(self):
        cache, asked = KeyCache(), []

        def square(keys):
            asked.append(keys.tolist())
            return (keys * keys,)

        (sq,) = cache.get(np.array([5, 2, 5, 9, 2], np.uint64), square)
        assert sq.tolist() == [25, 4, 25, 81, 4]
        (sq,) = cache.get(np.array([9, 4, 4, 2], np.uint64), square)
        assert sq.tolist() == [81, 16, 16, 4]
        assert asked == [[2, 5, 9], [4]] and cache.keys.tolist() == [2, 4, 5, 9]
        assert cache.index(np.array([4, 9], np.uint64), square).tolist() == [1, 3]

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
        events = EventSets.build(*(reread_events(g) if adaptive else ([], [])), t - 1)
        n = len(effects)
        assert _check_combos(g, decoder, t, effects, ids, events, KeyCache(), 2,
                             range(n - 1, n)) == (0, None)


class _BrokenAt:
    """``RuleDecoderD7`` with a wrong correction for base-round key
    ``key`` when its re-reads differ from the clean per-stabilizer bits
    ``clean`` as ``mode`` says: "always"; "any" re-read; "later", the
    first re-read as clean and a later one not.  Other keys go to
    ``inner`` (by default ``RuleDecoderD7``)."""

    needs_round2 = True

    def __init__(self, g, key, bad, clean, mode, inner=None):
        self.inner, self.key, self.bad = inner or RuleDecoderD7(g), key, bad
        self.clean, self.mode = clean, mode

    def decode(self, syn, measure):
        if syn.key() != self.key:
            return self.inner.decode(syn, measure)
        diff = []

        def spy(indices):
            out = measure(indices)
            diff.extend(out[i] != (self.clean >> i) & 1 for i in indices)
            return out

        corr = self.inner.decode(syn, spy)
        broken = {"always": True, "any": any(diff),
                  "later": bool(diff) and not diff[0] and any(diff[1:])}[self.mode]
        return self.bad if broken else corr


def _grid_verify(g, decoder, t, keep):
    """``verify_gadget``'s serial walk with only the re-measurement
    events whose names pass ``keep``."""
    effects, ids = _effect_classes(g, enumerate_fault_locations(g), True, True)
    names, rows = reread_events(g)
    sel = [i for i, name in enumerate(names) if keep(name)]
    events = EventSets.build([names[i] for i in sel], [rows[i] for i in sel], t - 1)
    cache, checked = KeyCache(), 0
    for w in range(1, t + 1):
        part, cx = _check_combos(g, decoder, t, effects, ids, events, cache, w,
                                 range(len(effects)))
        checked += part
        if cx is not None:
            return checked, cx
    return checked, None


class TestAdaptiveVerifierMatchesScalarWalk:
    """The grid check of adaptive decoders against a scalar reference:
    each combination, then each set of re-measurement events in
    size-major lexicographic order, decoded afresh with a live
    ``measure`` that walks each re-read's gates with the set's faults
    injected as Paulis.  No compiled table and no ``follow_rereads``."""

    @staticmethod
    def _scalar_verify(g, decoder, t, keep=lambda name: True):
        effects, ids = _effect_classes(g, enumerate_fault_locations(g), True, True)
        m, k = g.cat_count, MAX_REREADS
        events = [name for name in reread_events(g)[0] if keep(name)]
        base_ops = noisy_operations(g)
        reread = FaultTable.for_reread(g)
        (persist,) = FaultTable.from_gadget(g, ("persist_x",)).columns

        def masks(step, op, code):
            # the table row of an event, placed at its step
            row = [0] * (1 + 2 * k)
            if step < 0:
                row[0] = int(persist[op, code])
            else:
                row[1 + 2 * step:3 + 2 * step] = (int(c[op, code]) for c in reread.columns)
            return row

        # the first set of each XOR of rows, size-major then lexicographic
        first = {}
        for size in range(t):
            for chosen in combinations(events, size):
                xor = [0] * (1 + 2 * k)
                for name in chosen:
                    xor = [a ^ b for a, b in zip(xor, masks(*name))]
                first.setdefault(tuple(xor), chosen)
        sets = list(first.values())

        def paulis(op, code):
            return [(q, p) for q, p in zip(op.qubits, op.codes[code]) if p != "I"]

        gates = [g.ring_measurement_gates(s, g.adaptive_slot(s)) for s in range(m)]
        ops = [gate_operations(gs) for gs in gates]

        def run(syn, persist_x, chosen):
            """The decoder's correction and the stabilizers it re-read."""
            walker = _Walker(g, x=persist_x << g.gamma)
            for step, op, code in chosen:
                if step < 0:
                    walker.inject(paulis(base_ops[op], code))
            reads = []

            def measure(indices):
                out = {}
                for i in indices:
                    s, step = i % m, len(reads)
                    inj = {}
                    for st, op, code in chosen:
                        if st == step:
                            inj.setdefault(ops[s][op].after, []).extend(paulis(ops[s][op], code))
                    walker.run(gates[s], inj)
                    out[i] = walker.outcome_flips[g.adaptive_slot(s)]
                    reads.append(s)
                return out

            return decoder.decode(syn, measure), reads

        checked = 0
        for w in range(1, t + 1):
            for combo in combinations(range(len(effects)), w):
                data = key = persist_x = 0
                for i in combo:
                    data ^= effects[i].data_x
                    key ^= effects[i].slot_flips
                    persist_x ^= effects[i].persist_x
                syn = CatSyndrome.from_key(m, key, g.base_rounds)
                for chosen in sets:
                    if len(chosen) > t - w:
                        break
                    corr, reads = run(syn, persist_x, chosen)
                    # an event counts once its run reaches its step
                    if any(len(reads) <= max(step, 0) for step, _, _ in chosen):
                        continue
                    checked += 1
                    cw = residual_weight_mod_generator(data ^ corr, g.gamma)
                    if cw > w + len(chosen):
                        return checked, (tuple(ids[i] for i in combo), chosen,
                                         w + len(chosen), key, data, corr, cw)
        return checked, None

    @staticmethod
    def _report(checked, cx):
        return checked, cx and (
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
        assert self._report(rep.faults_checked, rep.counterexample) == references[gamma]
        assert references[gamma] == ({14: 19817, 20: 42535}[gamma], None)

    @staticmethod
    def _broken(g, mode, later_touch):
        """A decoder broken at the first weight-1 row past the middle
        whose key no earlier row has and whose clean run re-reads a
        stabilizer (with ``later_touch``, then re-reads one sharing a
        cat with the first)."""
        m = g.cat_count
        effects = _effect_classes(g, enumerate_fault_locations(g), True, True)[0]
        n = len(effects)
        earlier = {e.slot_flips for e in effects[:n // 2]}

        def clean_reads(e):
            clean = _persist_outcome_bits(e.persist_x, m)
            reads = []

            def measure(indices):
                reads.extend(i % m for i in indices)
                return {i: (clean >> (i % m)) & 1 for i in indices}

            RuleDecoderD7(g).decode(CatSyndrome(m, (e.slot_flips,)), measure)
            return reads

        def fits(reads):
            if not later_touch:
                return bool(reads)
            return any((s - reads[0]) % m in (1, 0, m - 1) for s in reads[1:])

        r = next(r for r in range(n // 2, n) if effects[r].slot_flips not in earlier
                 and fits(clean_reads(effects[r])))
        e = effects[r]
        broken = _BrokenAt(g, e.slot_flips, e.data_x ^ 0b111,
                           _persist_outcome_bits(e.persist_x, m), mode)
        return broken, e, n, r

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("mode, later_touch, kind", [
        ("always", False, "none"), ("any", False, "anc"), ("later", True, "cats")],
        ids=["no-event", "step-ancilla-flip", "reread-cat-event"])
    def test_broken_decoder_found_mid_weight_one_grid(self, mode, later_touch, kind, jobs):
        g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
        broken, e, n, _ = self._broken(g, mode, later_touch)
        reread = FaultTable.for_reread(g)
        checked, cx = self._scalar_verify(g, broken, 3)
        # weight 1, the broken row, with no event or one event at step 0
        fault_ids, flips, n_faults, key = cx[:4]
        assert len(fault_ids) == 1 and key == e.slot_flips and checked > n // 2
        assert n_faults == 1 + len(flips)
        if kind == "none":
            assert flips == ()
        else:
            ((step, op, code),) = flips
            anc, cats = (int(c[op, code]) for c in reread.columns)
            assert step == 0 and (anc, cats != 0) == {"anc": (1, False), "cats": (0, True)}[kind]
        rep = verify_gadget(g, broken, 3, jobs=jobs)
        assert self._report(rep.faults_checked, rep.counterexample) == (checked, cx)

    def test_first_failing_cell_is_row_major(self):
        # row r fails only with a re-measurement event, a later row also
        # with none: row r, the earlier row, is reported
        g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
        broken, _, n, r = self._broken(g, "any", False)
        effects = _effect_classes(g, enumerate_fault_locations(g), True, True)[0]
        keys = [e.slot_flips for e in effects]
        r2 = next(j for j in range(r + 1, n) if keys[j] not in keys[:j])
        e2 = effects[r2]
        both = _BrokenAt(g, e2.slot_flips, e2.data_x ^ 0b111,
                         _persist_outcome_bits(e2.persist_x, g.cat_count), "always", broken)
        checked, cx = self._scalar_verify(g, both, 3)
        assert (checked, cx) == self._scalar_verify(g, broken, 3) and cx[1]
        rep = verify_gadget(g, both, 3)
        assert self._report(rep.faults_checked, rep.counterexample) == (checked, cx)

    def test_broken_decoder_found_by_pre_reread_event(self):
        # A step -1 event gives the same run as the event at the first
        # re-read touching its cat (the ancilla flip with the cat X), or
        # as none if no re-read does, which comes first, so it never opens
        # a counterexample of the full alphabet: here the grid meets the
        # step -1 events alone.
        g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
        broken, e, n, _ = self._broken(g, "any", False)
        pre_only = lambda name: name[0] < 0
        checked, cx = self._scalar_verify(g, broken, 3, pre_only)
        fault_ids, flips, n_faults, key = cx[:4]
        assert len(fault_ids) == 1 and key == e.slot_flips and checked > n // 2
        assert len(flips) == 1 and flips[0][0] == -1 and n_faults == 2
        assert self._report(*_grid_verify(g, broken, 3, pre_only)) == (checked, cx)
        # with every event, the same row fails first at a re-read step
        full = self._scalar_verify(g, broken, 3)[1]
        assert full[0] == fault_ids and full[1][0][0] == 0


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
    """Re-measurement faults against ``adaptive_propagate``, with every
    ring stabilizer re-read once, and the verifier's events against the
    fault tables."""

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

    def test_event_alphabet_is_the_table_rows(self, gadget):
        """The verifier's events are the distinct nonzero rows of the
        re-read table at each step, then the distinct rows of the gadget
        table that only leave X on cats, each named by its first (op,
        code): exactly the re-measurement faults MC samples."""
        g, k = gadget, MAX_REREADS
        expected = []
        reread = FaultTable.for_reread(g)
        for step in range(k):
            seen = set()
            for op, n_codes in enumerate(reread.n_codes):
                for code in range(n_codes):
                    anc, cats = (int(c[op, code]) for c in reread.columns)
                    if (anc or cats) and (anc, cats) not in seen:
                        seen.add((anc, cats))
                        row = [0] * (1 + 2 * k)
                        row[1 + 2 * step], row[2 + 2 * step] = anc, cats
                        expected.append(((step, op, code), row))
        table = FaultTable.from_gadget(g, ("data_x", "slot_flips", "persist_x"))
        seen = set()
        for op, n_codes in enumerate(table.n_codes):
            for code in range(n_codes):
                data, slots, persist = (int(c[op, code]) for c in table.columns)
                if data == slots == 0 and persist and persist not in seen:
                    seen.add(persist)
                    expected.append(((-1, op, code), [persist] + [0] * (2 * k)))
        assert list(zip(*reread_events(g))) == expected
        # five re-read rows per step; one pure cat X row per cat
        assert len(expected) == 5 * k + g.cat_count

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


class TestMonteCarloFaultsCovered:
    """Every fault MC samples, read on the fields the decoder sees, is
    one the verifier enumerates, or a bare weight-1 data X with no
    syndrome (which spends the budget one for one, so t-FT under the
    verifier's faults carries over), or, for an adaptive gadget, one of
    its step -1 re-measurement events."""

    @pytest.mark.parametrize("gamma, distance",
                             [(6, 3), (10, 5), (14, 7), (20, 7), (18, 9)])
    def test_every_table_row_is_covered(self, gamma, distance):
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=distance))
        adaptive = g.max_adaptive > 0
        fields = ("data_x", "slot_flips") + (("persist_x",) if adaptive else ())
        locs = {tuple(getattr(e, f) for f in fields)
                for e in location_effects(g, enumerate_fault_locations(g), "X")}
        pre = set()
        if adaptive:
            names, rows = reread_events(g)
            pre = {(0, 0, row[0]) for name, row in zip(names, rows) if name[0] < 0}
            assert len(pre) == g.cat_count and not pre & locs
        table = FaultTable.from_gadget(g, fields)
        kinds = set()
        for op, n_codes in enumerate(table.n_codes):
            for code in range(n_codes):
                row = tuple(int(c[op, code]) for c in table.columns)
                if not any(row):
                    continue
                bare = bin(row[0]).count("1") == 1 and not any(row[1:])
                kind = "location" if row in locs else "bare" if bare else "pre"
                assert kind != "pre" or row in pre, (op, code, row)
                kinds.add(kind)
        assert kinds == {"location", "bare"} | ({"pre"} if adaptive else set())

    @pytest.mark.parametrize("gamma, first_pre_op", [(14, 28), (20, 40)])
    def test_event_names_read_untiled_rows(self, gamma, first_pre_op):
        """Table rows are tiled to the lcm of the code counts; events are
        still named by each op's own codes, as pinned here."""
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=7))
        names, _ = reread_events(g)
        assert names == [(step, op, code) for step in range(MAX_REREADS)
                         for op, code in ((0, 0), (0, 3), (0, 4), (1, 3), (1, 4))] + [
            (-1, first_pre_op + r, 3) for r in range(g.cat_count)]
        for table in (FaultTable.for_reread(g),
                      FaultTable.from_gadget(g, ("data_x", "slot_flips", "persist_x"))):
            assert table.columns[0].shape[1] == 15
            assert all(code < table.n_codes[op] for op, code in _first_rows(table).values())


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
