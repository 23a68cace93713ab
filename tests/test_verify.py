import dataclasses
import functools
import math
import random
from itertools import combinations, product

import numpy as np
import pytest

from cutcat import verify
from cutcat.block import BlockSimulator
from cutcat.decoders import (
    IdentityDecoder,
    LutDecoder,
    RuleDecoderD3D5,
    RuleDecoderD7,
    build_cut_cat_lut,
)
from cutcat.experiments import GadgetMonteCarlo
from cutcat.gadgets import GadgetSpec, build_cut_cat
from cutcat.pauli import residual_weight_mod_generator
from cutcat.sim import (
    CatSyndrome,
    Effect,
    FaultTable,
    _Walker,
    gate_operations,
    noisy_operations,
)
from cutcat.verify import (
    MAX_REREADS,
    _GRID_CELLS,
    EventSets,
    KeyCache,
    _distinct_rows,
    _effect_classes,
    combo_walk,
    eval_upper_bound,
    follow_rereads,
    reread_events,
    sort_unique,
    verify_gadget,
)
from decoder_ref import RefD7, TreeWalk, reread_table
from location_ref import (
    adaptive_propagate,
    enumerate_fault_locations,
    location_classes,
    location_effects,
)


def _tables_cache(g, decoder):
    """A ``KeyCache`` of ``decoder``'s tables, bound to ``g`` as
    ``verify_gadget`` binds them."""
    return KeyCache(g.n_slots, functools.partial(
        decoder.tables, cat_count=g.cat_count, rounds=g.base_rounds))


def _no_events(g, max_size):
    """The event sets of a decoder that re-reads nothing: the empty one."""
    return EventSets.build(*reread_events(g, 0), max_size)


def _persist_outcome(persist, stab, m):
    """Re-read bit of stabilizer ``stab`` under persisting cat X errors:
    the parity of cats ``stab`` and ``stab + 1``."""
    return ((persist >> stab) ^ (persist >> ((stab + 1) % m))) & 1


def _persist_outcome_bits(persist, m):
    return sum(_persist_outcome(persist, s, m) << s for s in range(m))


def _rows(effects, n_cols=3):
    """``Effect``s as a uint64 (effects, columns) array of their first
    ``n_cols`` fields: data X, ring outcomes, cat X."""
    return np.array([dataclasses.astuple(e)[:n_cols] for e in effects],
                    np.uint64).reshape(len(effects), n_cols)


def _effects(rows):
    """Rows of data X, ring outcomes and cat X as scalar ``Effect``s."""
    return [Effect(*row) for row in rows.tolist()]


def _raw_location_rows(g, n_cols=3):
    """The single X-fault effect of every location of ``location_ref``,
    repeats included, as rows."""
    return _rows(location_effects(g, enumerate_fault_locations(g), "X"), n_cols)


@pytest.fixture(scope="module")
def raw_d5_reference():
    """The raw location rows of d=5 gamma=10 and their reference walk to t=3."""
    rows = _raw_location_rows(build_cut_cat(GadgetSpec(gamma=10, distance=5)))
    return rows, _reference_combos(rows, 3)


def _reference_combos(rows, max_weight, min_weight=1):
    """Per-tuple reference for the combination walk: (combo, XOR of each
    column...) over ``itertools.combinations``, each tuple XORed afresh."""
    out, rows = [], rows.tolist()
    for w in range(min_weight, max_weight + 1):
        for combo in combinations(range(len(rows)), w):
            xor = [0] * len(rows[0])
            for i in combo:
                xor = [a ^ b for a, b in zip(xor, rows[i])]
            out.append((combo, *xor))
    return out


def _walk_rows(rows, max_weight, min_weight=1, max_rows=_GRID_CELLS):
    """``combo_walk`` flattened to (combo, XOR of each column...) tuples,
    row by row, each combination rebuilt from its parent chain."""
    return [
        (s.combo(r), *(int(c[r]) for c in s.cols))
        for s in combo_walk(rows, max_weight, min_weight, max_rows=max_rows)
        for r in range(len(s.cols[0]))
    ]


def _classes(g, adaptive=False):
    """The verifier's effect classes and their (op, code) names, and the
    table they come from."""
    table = FaultTable.for_decoder(g, adaptive)
    return (*_effect_classes(table), table)


def _class_effects(g, adaptive=False):
    """The effect classes as ``Effect``s, for the scalar references."""
    return _effects(_classes(g, adaptive)[0])


def _pairs(cx):
    """A counterexample's faults as (op, code) pairs."""
    return tuple(zip(cx.fault_ids, cx.fault_codes))


class TestVerifyGadget:
    def test_d3_gamma6_passes(self):
        spec = GadgetSpec(gamma=6, distance=3)
        g = build_cut_cat(spec)
        rep = verify_gadget(g, RuleDecoderD3D5(g, 1), 1)
        assert rep.passed
        assert rep.n_classes == 12 and rep.checked_per_weight == (12,)

    def test_d5_gamma10_passes(self):
        spec = GadgetSpec(gamma=10, distance=5)
        g = build_cut_cat(spec)
        assert verify_gadget(g, RuleDecoderD3D5(g, 2), 2).passed

    def test_identity_decoder_hook_counterexample(self):
        spec = GadgetSpec(gamma=6, distance=3)
        g = build_cut_cat(spec)
        rep = verify_gadget(g, IdentityDecoder(), 1)
        assert not rep.passed
        cx = rep.counterexample
        assert cx.n_faults == 1
        assert cx.coset_weight == 2
        # an X on a freshly prepared cat qubit
        op = noisy_operations(g)[cx.fault_ids[0]]
        assert op.after == -1 and op.qubits == (g.cat_qubit(0),)
        assert op.codes[cx.fault_codes[0]] == ("X",)

    def test_measurement_only_faults_always_pass(self):
        # the rows of the noise before each ring measurement, alone
        spec = GadgetSpec(gamma=10, distance=5)
        g = build_cut_cat(spec)
        table = FaultTable.for_decoder(g, False)
        rows = {}
        for i, op in enumerate(noisy_operations(g)):
            if not op.final and op.qubits[0] >= g.gamma + g.cat_count:
                for code in range(op.n_codes):
                    row = tuple(int(c[i, code]) for c in table.columns)
                    if any(row):
                        rows.setdefault(row, (i, code))
        assert len(rows) == g.n_slots and all(data == 0 for data, _ in rows)
        effects = np.array(list(rows), np.uint64)
        for w in (1, 2):
            checked, cx = verify._check_combos(g, 2, effects, list(rows.values()), _no_events(g, 1),
                                               _tables_cache(g, RuleDecoderD3D5(g, 2)), w)
            assert cx is None and checked == math.comb(len(effects), w)

    def test_d7_small_adaptive_passes(self):
        spec = GadgetSpec(gamma=14, distance=7)
        g = build_cut_cat(spec)
        assert verify_gadget(g, RuleDecoderD7(g), 3).passed

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
        gives them: at t=4 an X on the ancilla of the first re-read, which
        reads stabilizer 1."""
        g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
        dec = RuleDecoderD7(g)
        rep = verify_gadget(g, dec, 3)
        assert rep.passed and rep.faults_checked == 14847
        rep = verify_gadget(g, dec, 4)
        cx = rep.counterexample
        assert rep.faults_checked == 44991
        assert (cx.fault_ids, cx.round2_flips, cx.n_faults, cx.syndrome_key,
                cx.residual, cx.correction, cx.coset_weight) == \
            ((0, 1, 2), ((0, 0, 0),), 4, 0x44, 0x3F, 0x0, 6)
        assert cx.fault_codes == (0, 0, 0)
        assert "faults(op, code)=((0, 0), (1, 0), (2, 0)) round2_flips=((0, 0, 0),)" \
            in cx.describe()

    @pytest.mark.parametrize("gamma,distance,decoder,t,passed,n_classes,per_weight", [
        (18, 9, "lut", 4, True, 63, (63, 1953, 39711, 595665)),
        (20, 7, "rule-d7", 3, True, 50, (2210, 10025, 19600)),
        (14, 7, "rule-d7", 3, True, 35, (1547, 6755, 6545)),
        (10, 5, "identity", 2, False, 20, (1,)),
        (10, 5, "rule-t1", 2, False, 20, (20, 1)),
        (14, 7, "rule-t2", 3, False, 28, (28, 378, 1)),
    ])
    def test_reports_per_weight_pinned(self, gamma, distance, decoder, t, passed,
                                       n_classes, per_weight):
        """The benchmark's verify cases (the d=9 LUT at t=4 checks 637 392
        combinations) and the d=7 gamma=14 adaptive one, weight by weight."""
        spec = GadgetSpec(gamma=gamma, distance=distance)
        g = build_cut_cat(spec)
        dec = {
            "lut": lambda: LutDecoder(build_cut_cat_lut(spec, gadget=g)),
            "rule-d7": lambda: RuleDecoderD7(g),
            "identity": IdentityDecoder,
            "rule-t1": lambda: RuleDecoderD3D5(g, 1),
            "rule-t2": lambda: RuleDecoderD3D5(g, 2),
        }[decoder]()
        rep = verify_gadget(g, dec, t)
        assert (rep.passed, rep.n_classes, rep.checked_per_weight) == (
            passed, n_classes, per_weight)

    @pytest.mark.parametrize("jobs", [0, 2])
    def test_jobs_other_than_one_rejected(self, jobs):
        g = build_cut_cat(GadgetSpec(gamma=6, distance=3))
        dec = RuleDecoderD3D5(g, 1)
        assert verify_gadget(g, dec, 1, jobs=1) == verify_gadget(g, dec, 1)
        with pytest.raises(ValueError, match=f"jobs={jobs}"):
            verify_gadget(g, dec, 1, jobs=jobs)

    def test_one_table_walk_per_adaptive_verify(self, monkeypatch):
        g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
        walks = []
        from_gadget = FaultTable.from_gadget

        def counted(cls, *args, **kwargs):
            walks.append(args)
            return from_gadget(*args, **kwargs)

        monkeypatch.setattr(FaultTable, "from_gadget", classmethod(counted))
        assert verify_gadget(g, RuleDecoderD7(g), 2).passed
        assert len(walks) == 1


def _raw_verify(g, decoder, t):
    """``_check_combos`` over every location effect of ``location_ref``,
    repeats included, named by location id: the first counterexample."""
    rows = _raw_location_rows(g, 2)
    names = [(i, 0) for i in range(len(rows))]
    cache = _tables_cache(g, decoder)
    for w in range(1, t + 1):
        _, cx = verify._check_combos(g, t, rows, names, _no_events(g, t - 1), cache, w)
        if cx is not None:
            return cx
    return None


class TestClassesAgreeWithRawLocations:
    """Walking distinct table rows, with the drop rule of
    ``_effect_classes``, decides as walking every raw location does."""

    @pytest.mark.parametrize("decoder", ["rule", "rule-t1", "identity"])
    @pytest.mark.parametrize("gamma, distance", [(6, 3), (8, 5), (10, 5)])
    def test_same_verdict_and_first_failure(self, gamma, distance, decoder):
        spec = GadgetSpec(gamma=gamma, distance=distance)
        g = build_cut_cat(spec)
        dec = {"rule": lambda: RuleDecoderD3D5(g, spec.t),
               "rule-t1": lambda: RuleDecoderD3D5(g, 1),
               "identity": IdentityDecoder}[decoder]()
        rep = verify_gadget(g, dec, spec.t)
        raw = _raw_verify(g, dec, spec.t)
        # the rule decoder at its own budget passes; so does rule-t1 at d=3
        assert rep.passed == (raw is None) == (
            decoder == "rule" or (decoder == "rule-t1" and spec.t == 1))
        if raw is not None:
            cx = rep.counterexample
            assert (cx.syndrome_key, cx.residual) == (raw.syndrome_key, raw.residual)


class _Forwarding:
    """A decoder proxy that forwards every attribute it lacks to the
    decoder it wraps."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestRereadTable:
    """The array rule of ``RuleDecoderD7.tables`` against the scalar rule
    of ``decoder_ref``, compiled through ``reread_table``."""

    @pytest.mark.parametrize("gamma", [14, 16, 18, 20, 22, 24])
    def test_every_key_and_outcome_matches_decode_d7(self, gamma):
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=7))
        m = g.cat_count
        keys = np.arange(1 << m, dtype=np.uint64)
        reads, corr = RuleDecoderD7(g).tables(keys, m, 1)
        want_reads, want_corr = RefD7(g).tables(keys, m, 1)
        np.testing.assert_array_equal(reads, want_reads)
        np.testing.assert_array_equal(corr, want_corr)

    def test_through_a_forwarding_proxy(self):
        """``tables`` is found through a proxy that forwards the
        attributes it lacks: the verifier and MC run the array rule."""
        g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
        proxy = _Forwarding(RuleDecoderD7(g))
        rep = verify_gadget(g, proxy, 3)
        assert rep.passed and rep.faults_checked == 14847
        got = GadgetMonteCarlo(g, proxy).run_batch(1e-2, 3, 0, 50_000)
        assert got == GadgetMonteCarlo(g, RuleDecoderD7(g)).run_batch(1e-2, 3, 0, 50_000)

    @pytest.mark.parametrize("spec", [
        GadgetSpec(gamma=6, distance=3), GadgetSpec(gamma=10, distance=5),
        GadgetSpec(gamma=18, distance=9), GadgetSpec(gamma=14, distance=7, adaptive=False)],
        ids=["d3", "d5", "d9", "d7-static"])
    def test_rule_d7_needs_four_rereads(self, spec):
        """A gadget without four re-reads is refused when the decoder is
        made, not reported as a failing verify."""
        g = build_cut_cat(spec)
        with pytest.raises(ValueError, match=f"distance {spec.distance} gadget"):
            RuleDecoderD7(g)

    def test_more_rereads_than_the_gadget_allows_rejected(self):
        """A gadget refuses a decoder whose tables re-read more than it allows."""
        g = build_cut_cat(GadgetSpec(gamma=10, distance=5))
        once = _Forwarding(IdentityDecoder())
        once.tables = lambda keys, cat_count, rounds: (
            np.zeros((len(keys), 2, 1), np.int8), np.zeros((len(keys), 2), np.uint64))
        message = "re-reads up to 1 stabilizers; the distance 5 gadget allows 0"
        for run in (lambda: verify_gadget(g, once, 2), lambda: GadgetMonteCarlo(g, once)):
            with pytest.raises(ValueError, match=message):
                run()

    def test_more_than_four_rereads_rejected(self):
        class Greedy(TreeWalk):
            def decode(self, syn, measure):
                measure(tuple(range(MAX_REREADS + 1)))
                return 0

        with pytest.raises(ValueError, match="more than 4 re-reads"):
            reread_table(Greedy(), CatSyndrome(7, (0b11,)))


def _reached_keys(g, t):
    """Every syndrome key the adaptive verifier meets at budget t."""
    return sorted({int(k) for s in combo_walk(_classes(g, True)[0], t) for k in s.cols[1]})


class TestPrunedRereadTable:
    """``reread_table`` runs the decoder once per distinct read prefix;
    the table must equal one built from a run per outcome vector."""

    @pytest.mark.parametrize("gamma", [14, 20])
    def test_equals_full_table_on_reached_keys(self, gamma):
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=7))
        calls = []

        class Counted(RefD7):
            def decode(self, syn, measure=None):
                calls.append(syn)
                return super().decode(syn, measure)

        keys = _reached_keys(g, 3)
        paths = 0
        for key in keys:
            syn = CatSyndrome.from_key(g.cat_count, key, g.base_rounds)
            full = reread_table(RefD7(g), syn, prune=False)
            assert reread_table(Counted(g), syn) == full, hex(key)
            # rows that agree on the bits their run read share one run
            paths += len({(reads, v % (1 << len(reads))) for v, (reads, _) in enumerate(full)})
        assert len(calls) == paths < len(keys) << MAX_REREADS


@pytest.mark.parametrize("bits", [8, 32], ids=["dense", "sorted"])
class TestKeyCache:
    """One key width on each side of ``DENSE_BITS``.  Rows come in no
    promised order: answers are checked per key."""

    def test_computes_only_new_keys(self, bits):
        asked = []

        def square(keys):
            asked.append(keys.tolist())
            return keys * keys, np.stack([keys, keys + 1], axis=1)

        cache = KeyCache(bits, square)
        sq, pair = cache.get(np.array([7, 3], np.uint64))
        assert sq.tolist() == [49, 9] and pair.tolist() == [[7, 8], [3, 4]]
        sq, pair = cache.get(np.array([9, 3, 5, 1], np.uint64))
        # the first call, for no key, comes when the cache is made
        assert asked == [[], [3, 7], [1, 5, 9]]
        assert sq.tolist() == [81, 9, 25, 1]
        assert pair.tolist() == [[9, 10], [3, 4], [5, 6], [1, 2]]
        assert sorted(cache.keys.tolist()) == [1, 3, 5, 7, 9]
        cache.get(np.array([5, 7], np.uint64))
        assert len(asked) == 3

    def test_repeated_unsorted_keys(self, bits):
        asked = []

        def square(keys):
            asked.append(keys.tolist())
            return (keys * keys,)

        cache = KeyCache(bits, square)
        (sq,) = cache.get(np.array([5, 2, 5, 9, 2], np.uint64))
        assert sq.tolist() == [25, 4, 25, 81, 4]
        (sq,) = cache.get(np.array([9, 4, 4, 2], np.uint64))
        assert sq.tolist() == [81, 16, 16, 4]
        assert asked == [[], [2, 5, 9], [4]]
        rows = cache.index(np.array([4, 9, 4], np.uint64))
        assert cache.keys[rows].tolist() == [4, 9, 4]
        assert cache.find(np.array([3, 9], np.uint64)).tolist() == [-1, rows[1]]

    def test_no_keys_on_an_empty_cache_keep_the_answers_shape(self, bits):
        def square(keys):
            return keys * keys, np.stack([keys, keys + 1], axis=1)

        cache = KeyCache(bits, square)
        assert [v.shape for v in cache.values] == [(0,), (0, 2)]
        sq, pair = cache.get(np.zeros(0, np.uint64))
        assert sq.shape == (0,) and pair.shape == (0, 2)
        sq, pair = cache.get(np.array([2], np.uint64))
        assert sq.tolist() == [4] and pair.tolist() == [[2, 3]]


class TestSortedKeyPath:
    """Keys wider than ``DENSE_BITS`` bits go through the sorted index.
    With the limit at 0 every cache takes that path, and every table and
    report must come out as through the dense one."""

    @staticmethod
    def _sorted(monkeypatch, fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(verify, "DENSE_BITS", 0)
            assert isinstance(KeyCache(1, lambda keys: (keys,))._index, tuple)
            return fn(*args)

    @pytest.mark.parametrize("gamma, distance", [(10, 5), (18, 9)])
    def test_lut_tables_identical(self, monkeypatch, gamma, distance):
        spec = GadgetSpec(gamma=gamma, distance=distance, adaptive=False)
        g = build_cut_cat(spec)
        dense = build_cut_cat_lut(spec, gadget=g).table
        assert np.array_equal(self._sorted(monkeypatch, build_cut_cat_lut, spec, g).table, dense)

    @pytest.mark.parametrize("gamma, distance, decoder, t, passed", [
        (18, 9, "lut", 4, True),
        (20, 7, "rule-d7", 3, True),
        (10, 5, "identity", 2, False),
        (10, 5, "rule-t1", 2, False),
        (14, 7, "rule-t2", 3, False),
    ])
    def test_reports_identical(self, monkeypatch, gamma, distance, decoder, t, passed):
        spec = GadgetSpec(gamma=gamma, distance=distance)
        g = build_cut_cat(spec)
        lut = build_cut_cat_lut(spec, gadget=g) if decoder == "lut" else None
        make = {"lut": lambda: LutDecoder(lut), "rule-d7": lambda: RuleDecoderD7(g),
                "identity": IdentityDecoder, "rule-t1": lambda: RuleDecoderD3D5(g, 1),
                "rule-t2": lambda: RuleDecoderD3D5(g, 2)}[decoder]
        dense = verify_gadget(g, make(), t)
        assert dense.passed == passed
        assert self._sorted(monkeypatch, verify_gadget, g, make(), t) == dense


class TestSortUnique:
    @pytest.mark.parametrize("keys", [[], [7], [3, 3, 3], [9, 2, 9, 2**63 + 1, 0, 5, 2]],
                             ids=["empty", "singleton", "repeated", "unsorted"])
    def test_equals_np_unique(self, keys):
        a = np.array(keys, np.uint64)
        got = sort_unique(a)
        assert got.dtype == np.uint64 and got.tolist() == np.unique(a).tolist()


class TestEmptyDeepestSlice:
    """The deepest weight may hold no combination at all (a weight above
    the number of effects): its one slice is empty and meets an empty
    cache."""

    @pytest.mark.parametrize("adaptive", [False, True], ids=["lut", "d7"])
    def test_last_first_index_checks_nothing(self, adaptive):
        if adaptive:
            g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
            decoder, t = RuleDecoderD7(g), 3
        else:
            spec = GadgetSpec(gamma=10, distance=5, adaptive=False)
            g = build_cut_cat(spec)
            decoder, t = LutDecoder(build_cut_cat_lut(spec, gadget=g)), 2
        effects, names, _ = _classes(g, adaptive)
        events = EventSets.build(*reread_events(g, MAX_REREADS if adaptive else 0), t - 1)
        # one effect, whose index is the last first index: no pair
        assert verify._check_combos(g, t, effects[:1], names[:1], events,
                                    _tables_cache(g, decoder), 2) == (0, None)


class _BrokenAt(TreeWalk):
    """The scalar distance-7 rule with a wrong correction for base-round key
    ``key`` when its re-reads differ from the clean per-stabilizer bits
    ``clean`` as ``mode`` says: "always"; "any" re-read; "later", the
    first re-read as clean and a later one not.  Other keys go to
    ``inner`` (by default ``RefD7``)."""

    def __init__(self, g, key, bad, clean, mode, inner=None):
        self.inner, self.key, self.bad = inner or RefD7(g), key, bad
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


def _pre_reread_events(table):
    """The step -1 events: each distinct row of the adaptive gadget
    table ``table`` that leaves X only on cats, after their last
    base-round read, named (-1, op, code) by its first row.
    ``_effect_classes`` drops these rows as dominated by re-read events;
    only the scalar reference offers them."""
    rows, names = _distinct_rows(table)
    return [(-1, op, code) for (data, slots, persist), (op, code) in zip(rows.tolist(), names)
            if data == slots == 0 and persist]


class TestAdaptiveVerifierMatchesScalarWalk:
    """The grid check of adaptive decoders against a scalar reference:
    each combination, then each set of re-measurement events in
    size-major lexicographic order, decoded afresh with a live
    ``measure`` that walks each re-read's gates with the set's faults
    injected as Paulis.  No compiled table and no ``follow_rereads``."""

    @staticmethod
    def _scalar_verify(g, decoder, t, pre=False):
        """With ``pre``, the alphabet also holds the step -1 events: X
        left only on cats before the re-reads (``_pre_reread_events``)."""
        rows, names, table = _classes(g, True)
        effects = _effects(rows)
        m, k = g.cat_count, MAX_REREADS
        events = reread_events(g, k)[0] + (_pre_reread_events(table) if pre else [])
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

        # a run depends on these alone, and many combinations share them
        @functools.cache
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
                        return checked, (tuple(names[i] for i in combo), chosen,
                                         w + len(chosen), key, data, corr, cw)
        return checked, None

    @staticmethod
    def _report(checked, cx):
        return checked, cx and (
            _pairs(cx), cx.round2_flips, cx.n_faults, cx.syndrome_key,
            cx.residual, cx.correction, cx.coset_weight)

    @pytest.fixture(scope="class")
    def references(self):
        out = {}
        for gamma in (14, 20):
            g = build_cut_cat(GadgetSpec(gamma=gamma, distance=7))
            out[gamma] = self._scalar_verify(g, RefD7(g), 3)
        return out

    @pytest.mark.parametrize("gamma", [14, 20])
    def test_rule_decoder_passes_with_same_count(self, references, gamma):
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=7))
        rep = verify_gadget(g, RuleDecoderD7(g), 3)
        assert self._report(rep.faults_checked, rep.counterexample) == references[gamma]
        assert references[gamma] == ({14: 14847, 20: 31835}[gamma], None)

    @staticmethod
    def _broken(g, mode, later_touch):
        """A decoder broken at the first weight-1 row past the middle
        whose key no earlier row has and whose clean run re-reads a
        stabilizer (with ``later_touch``, then re-reads one sharing a
        cat with the first)."""
        m = g.cat_count
        effects = _class_effects(g, True)
        n = len(effects)
        earlier = {e.slot_flips for e in effects[:n // 2]}

        def clean_reads(e):
            clean = _persist_outcome_bits(e.persist_x, m)
            reads = []

            def measure(indices):
                reads.extend(i % m for i in indices)
                return {i: (clean >> (i % m)) & 1 for i in indices}

            RefD7(g).decode(CatSyndrome(m, (e.slot_flips,)), measure)
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

    @pytest.mark.parametrize("mode, later_touch, kind", [
        ("always", False, "none"), ("any", False, "anc"), ("later", True, "cats")],
        ids=["no-event", "step-ancilla-flip", "reread-cat-event"])
    def test_broken_decoder_found_mid_weight_one_grid(self, mode, later_touch, kind):
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
        rep = verify_gadget(g, broken, 3)
        assert self._report(rep.faults_checked, rep.counterexample) == (checked, cx)

    def test_first_failing_cell_is_row_major(self):
        # row r fails only with a re-measurement event, a later row also
        # with none: row r, the earlier row, is reported
        g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
        broken, _, n, r = self._broken(g, "any", False)
        effects = _class_effects(g, True)
        keys = [e.slot_flips for e in effects]
        r2 = next(j for j in range(r + 1, n) if keys[j] not in keys[:j])
        e2 = effects[r2]
        both = _BrokenAt(g, e2.slot_flips, e2.data_x ^ 0b111,
                         _persist_outcome_bits(e2.persist_x, g.cat_count), "always", broken)
        checked, cx = self._scalar_verify(g, both, 3)
        assert (checked, cx) == self._scalar_verify(g, broken, 3) and cx[1]
        rep = verify_gadget(g, both, 3)
        assert self._report(rep.faults_checked, rep.counterexample) == (checked, cx)

    @pytest.mark.parametrize("case", [
        "rule-g14", "rule-g20", "rule-g14-t4", "always", "any", "later"])
    def test_pre_reread_events_dominated(self, references, case):
        """A step -1 event gives the same run as the re-read event "outcome
        flip plus that cat's X" at the first re-read touching its cat, or
        as no event if no re-read does; that set comes no later and costs
        no more.  So adding the step -1 events to the alphabet changes no
        verdict and no first counterexample, only the count (the with-step
        -1 counts are the verifier's before it dropped them)."""
        gamma, t = (20, 3) if case == "rule-g20" else (14, 4) if case == "rule-g14-t4" else (14, 3)
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=7))
        # the premise: cat s X and cat s+1 X, each with the outcome flip
        assert {(1, 0b01), (1, 0b10)} <= set(map(tuple, _distinct_rows(
            FaultTable.for_reread(g))[0].tolist()))
        if case.startswith("rule"):
            decoder = RefD7(g)
            rep = verify_gadget(g, RuleDecoderD7(g), t)
            alone = self._report(rep.faults_checked, rep.counterexample)
            if t == 3:
                assert alone == references[gamma]
        else:
            # each mode of ``_BrokenAt``, as in the grid tests above
            decoder = self._broken(g, case, case == "later")[0]
            alone = self._scalar_verify(g, decoder, t)
            assert alone[1] is not None
        checked, cx = self._scalar_verify(g, decoder, t, pre=True)
        # equal counts when no cell before the failure reaches a re-read
        assert cx == alone[1] and checked >= alone[0]
        if case.startswith("rule"):
            assert checked == {"rule-g14": 19817, "rule-g20": 42535, "rule-g14-t4": 112121}[case]


class TestOracle:
    """The combination walk that LUT synthesis and the verifier consume."""

    def test_weight_zero_entry(self):
        g = build_cut_cat(GadgetSpec(gamma=6, distance=3))
        assert _walk_rows(_classes(g)[0], 0, min_weight=0) == [((), 0, 0)]

    def test_weight_one_count_matches_locations(self):
        g = build_cut_cat(GadgetSpec(gamma=6, distance=3))
        entries = [e for e in _walk_rows(_raw_location_rows(g), 1) if len(e[0]) == 1]
        assert len(entries) == 24

    def test_weight_one_residuals_bounded(self):
        g = build_cut_cat(GadgetSpec(gamma=10, distance=5))
        for combo, res, _ in _walk_rows(_classes(g)[0], 1):
            if len(combo) == 1:
                assert bin(res).count("1") <= 2

    def test_deterministic_stream(self):
        g = build_cut_cat(GadgetSpec(gamma=6, distance=3))
        rows = _classes(g)[0]
        assert _walk_rows(rows, 2, min_weight=0) == _walk_rows(rows, 2, min_weight=0)

    @pytest.mark.parametrize("source", ["locations", "classes"])
    @pytest.mark.parametrize("gamma,distance", [(6, 3), (10, 5)])
    def test_stream_matches_reference(self, gamma, distance, source):
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=distance))
        rows = _raw_location_rows(g) if source == "locations" else _classes(g)[0]
        expected = _reference_combos(rows, 2, min_weight=0)
        assert expected[0] == ((),) + (0,) * rows.shape[1]
        assert _walk_rows(rows, 2, min_weight=0) == expected

    def test_any_columns_walked(self, rm15):
        """The walk XORs whatever uint64 columns it is given: here the
        [[15,1,3]] block round table's distinct rows (wx, wz, the
        generator outcomes and the 8 ring slot columns) and a twelfth
        column of each row's (op, code) packed in one word."""
        rows, names = _distinct_rows(BlockSimulator(rm15, ratio=20).round_faults)
        packed = np.array([op << 4 | code for op, code in names], np.uint64)
        # every tenth row, from each generator's gadget
        rows = np.column_stack([rows, packed])[::10]
        assert rows.dtype == np.uint64 and rows.shape == (39, 12)
        for max_rows in (7, _GRID_CELLS):
            assert _walk_rows(rows, 3, min_weight=0, max_rows=max_rows) == \
                _reference_combos(rows, 3, min_weight=0)

    def test_deepest_weight_walked_by_first_index(self):
        """The deepest weight comes in runs of whole consecutive first
        indices, each within its row cap or of one first index."""
        g = build_cut_cat(GadgetSpec(gamma=10, distance=5))
        rows = _classes(g)[0]
        n = len(rows)
        for max_rows in (1, 100, _GRID_CELLS):
            slices = list(combo_walk(rows, 3, max_rows=max_rows))
            assert [s.weight for s in slices[:2]] == [1, 2]
            assert [len(s.cols[0]) for s in slices[:2]] == [n, math.comb(n, 2)]
            deepest = slices[2:]
            runs = [sorted({s.combo(r)[0] for r in range(len(s.cols[0]))}) for s in deepest]
            assert sum(runs, []) == list(range(n - 2))
            for s, run in zip(deepest, runs):
                assert s.weight == 3 and run == list(range(run[0], run[-1] + 1))
                assert len(s.cols[0]) == sum(math.comb(n - 1 - i, 2) for i in run)
                assert len(s.cols[0]) <= max(max_rows, math.comb(n - 1 - run[0], 2))
            # a run stops only where the next first index would break the cap
            for s, nxt in zip(deepest, runs[1:]):
                assert len(s.cols[0]) + math.comb(n - 1 - nxt[0], 2) > max_rows
            assert len(deepest) == {1: n - 2, 100: 11, _GRID_CELLS: 1}[max_rows]
            assert _walk_rows(rows, 3, max_rows=max_rows) == _reference_combos(rows, 3)
            for s in slices:
                assert len(s.cols) == 2
                assert all(a.dtype == np.int32 for pair in s.chain for a in pair)
            # parents index the whole weight below, whose arrays every slice shares
            for s in slices[1:]:
                assert all(x is y for x, y in zip(s.chain[:-1], slices[s.weight - 2].chain))

    @pytest.mark.parametrize("max_rows", [1, 7, 100])
    def test_small_row_caps_match_reference(self, raw_d5_reference, max_rows):
        rows, reference = raw_d5_reference
        assert _walk_rows(rows, 3, max_rows=max_rows) == reference


def _first_rows_ref(table):
    """The first (op, code) of each distinct row of ``table``, a dict
    keyed by the row's tuple of ints: the loop over every (op, code)
    entry that ``_distinct_rows`` replaced."""
    first = {}
    for op, (n, *rows) in enumerate(zip(table.n_codes, *table.columns)):
        for code, row in enumerate(zip(*(r[:n].tolist() for r in rows))):
            first.setdefault(row, (op, code))
    return first


def _classes_ref(table):
    """``_effect_classes`` through the dict of ``_first_rows_ref``, the
    classes as ``Effect``s."""
    effects, names = [], []
    for row, name in _first_rows_ref(table).items():
        data, slots, *persist = row
        if slots == 0 and (data == 0 or (data.bit_count() == 1 and not any(persist))):
            continue
        effects.append(Effect(*row))
        names.append(name)
    return effects, names


def _event_sets_ref(g, steps, max_size):
    """``reread_events`` and ``EventSets.build`` through the dict of
    ``_first_rows_ref``, ``itertools`` and a dict keyed by each XOR's
    bytes: (names, sizes, need, masks) of the first set of each XOR."""
    names, rows = [], []
    reread = _first_rows_ref(FaultTable.for_reread(g)).items() if steps else ()
    for step, ((anc, cats), (op, code)) in product(range(steps), reread):
        if anc or cats:
            names.append((step, op, code))
            rows.append([0] * (2 * step) + [anc, cats] + [0] * (2 * (MAX_REREADS - 1 - step)))
    rows = np.array(rows, np.uint64).reshape(len(rows), 2 * MAX_REREADS)
    first = {}
    for size in range(max_size + 1):
        combos = np.array(list(combinations(range(len(rows)), size)), np.intp)
        combos = combos.reshape(math.comb(len(rows), size), size)
        for c, xor in zip(combos.tolist(), np.bitwise_xor.reduce(rows[combos], axis=1)):
            first.setdefault(xor.tobytes(), (c, xor))
    sets, masks = zip(*first.values())
    return (tuple(tuple(names[e] for e in c) for c in sets), [len(c) for c in sets],
            [max((names[e][0] + 1 for e in c), default=0) for c in sets], np.array(masks))


class TestRowFormMatchesDictReference:
    """Effect classes and event sets as uint64 rows against the dict,
    ``Effect`` and ``itertools`` construction they replaced."""

    @pytest.mark.parametrize("gamma, distance, adaptive", [
        (6, 3, None), (10, 5, None), (14, 7, False), (14, 7, None), (20, 7, None),
        (18, 9, None), (24, 9, None)])
    def test_classes_and_event_sets(self, gamma, distance, adaptive):
        # None: the default of GadgetSpec.adaptive
        kw = {} if adaptive is None else {"adaptive": adaptive}
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=distance, **kw))
        steps = MAX_REREADS if g.max_adaptive else 0
        table = FaultTable.for_decoder(g, steps > 0)
        rows, names = _effect_classes(table)
        effects, ref_names = _classes_ref(table)
        assert rows.dtype == np.uint64 and rows.tolist() == _rows(effects, rows.shape[1]).tolist()
        assert names == ref_names and all(type(v) is int for name in names for v in name)
        for max_size in range(4):
            got = EventSets.build(*reread_events(g, steps), max_size)
            ref_names, size, need, masks = _event_sets_ref(g, steps, max_size)
            assert got.names == ref_names
            assert got.size.tolist() == size and got.need.tolist() == need
            assert got.masks.dtype == np.uint64 and np.array_equal(got.masks, masks)
            assert all(type(v) is int for s in got.names for name in s for v in name)


class TestRowCap:
    """The deepest weight comes in runs of first indices capped in (row x
    event set) cells: the cap changes how the walk is sliced, not what
    the verifier finds."""

    def test_adaptive_grid_within_cap(self, monkeypatch):
        g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
        effects, names, _ = _classes(g, True)
        events = EventSets.build(*reread_events(g, MAX_REREADS), 3)
        k = int(np.searchsorted(events.size, 2, "right"))
        cells = []

        def spy(reads, corrections, inv, frame, noise, m):
            cells.append(frame.size)
            return follow_rereads(reads, corrections, inv, frame, noise, m)

        monkeypatch.setattr(verify, "follow_rereads", spy)
        assert verify._check_combos(g, 4, effects, names, events,
                                    _tables_cache(g, RuleDecoderD7(g)), 2)[1] is None
        assert sum(cells) == math.comb(len(effects), 2) * k
        assert 1 < len(cells) < len(effects) - 1
        assert max(cells) <= _GRID_CELLS

    @pytest.mark.parametrize("cells", [1, 997])
    @pytest.mark.parametrize("gamma,distance,decoder,t", [
        (10, 5, "identity", 2),
        (10, 5, "rule-t1", 2),
        (14, 7, "rule-t2", 3),
        (14, 7, "d7", 3),
    ])
    def test_reports_do_not_depend_on_the_cap(self, monkeypatch, gamma, distance,
                                              decoder, t, cells):
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=distance))
        dec = {
            "identity": IdentityDecoder,
            "rule-t1": lambda: RuleDecoderD3D5(g, 1),
            "rule-t2": lambda: RuleDecoderD3D5(g, 2),
            "d7": lambda: RuleDecoderD7(g),
        }[decoder]()
        expected = verify_gadget(g, dec, t)
        monkeypatch.setattr(verify, "_GRID_CELLS", cells)
        assert verify_gadget(g, dec, t) == expected


class TestStaticVerifierMatchesScalarWalk:
    """The array check of static decoders against a per-combination walk
    over ``itertools.combinations``, on a d=5 LUT with one entry broken,
    each key looked up in its table (zero if absent)."""

    @staticmethod
    def _scalar_verify(g, table, t):
        rows, names, _ = _classes(g)
        effects = _effects(rows)
        checked = 0
        for w in range(1, t + 1):
            for combo in combinations(range(len(effects)), w):
                data = key = 0
                for i in combo:
                    data ^= effects[i].data_x
                    key ^= effects[i].slot_flips
                checked += 1
                corr = table.get(key, 0)
                cw = residual_weight_mod_generator(data ^ corr, g.gamma)
                if cw > w:
                    return checked, (tuple(names[i] for i in combo), (), w, key, data, corr, cw)
        return checked, None

    @pytest.fixture(scope="class")
    def setup(self):
        spec = GadgetSpec(gamma=10, distance=5, adaptive=False)
        g = build_cut_cat(spec)
        return g, build_cut_cat_lut(spec, gadget=g)

    @pytest.mark.parametrize("first", [0, 3])
    def test_broken_entry_found_mid_slice(self, setup, first):
        g, lut = setup
        effects = _class_effects(g)
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
        table = dict(lut.table.tolist())
        table[key] = data ^ 0b111  # coset weight 3 against a budget of 2
        broken = LutDecoder(type(lut)(lut.gamma, lut.t, lut.rounds, lut.cat_count,
                                      np.array(sorted(table.items()), np.uint64)))

        checked, cx = self._scalar_verify(g, table, 2)
        # rows of weight 1, of the slices before ``first``, then (i, j)
        assert checked == n + sum(n - 1 - a for a in range(i)) + (j - i - 1) + 1
        rep = verify_gadget(g, broken, 2)
        assert rep.faults_checked == checked
        got = rep.counterexample
        assert (_pairs(got), got.round2_flips, got.n_faults, got.syndrome_key,
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
        re-read table at each step, each named by its first (op, code):
        exactly the re-measurement faults MC samples at a re-read."""
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
                        row = [0] * (2 * k)
                        row[2 * step], row[2 * step + 1] = anc, cats
                        expected.append(((step, op, code), row))
        names, rows = reread_events(g, k)
        assert rows.dtype == np.uint64 and list(zip(names, rows.tolist())) == expected
        # five re-read rows per step
        assert len(expected) == 5 * k

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
    verifier's faults carries over), or, for an adaptive gadget, X left
    only on cats before the re-reads, which re-read events dominate
    (``test_pre_reread_events_dominated``)."""

    @pytest.mark.parametrize("gamma, distance",
                             [(6, 3), (10, 5), (14, 7), (20, 7), (18, 9)])
    def test_every_table_row_is_covered(self, gamma, distance):
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=distance))
        adaptive = g.max_adaptive > 0
        fields = ("data_x", "slot_flips") + (("persist_x",) if adaptive else ())
        locs = {tuple(getattr(e, f) for f in fields)
                for e in location_effects(g, enumerate_fault_locations(g), "X")}
        table = FaultTable.from_gadget(g, fields)
        kinds, dominated = set(), set()
        for op, n_codes in enumerate(table.n_codes):
            for code in range(n_codes):
                row = tuple(int(c[op, code]) for c in table.columns)
                if not any(row):
                    continue
                bare = bin(row[0]).count("1") == 1 and not any(row[1:])
                kind = "location" if row in locs else "bare" if bare else "dominated"
                if kind == "dominated":
                    assert adaptive and row[:2] == (0, 0), (op, code, row)
                    dominated.add(row)
                kinds.add(kind)
        assert kinds == {"location", "bare"} | ({"dominated"} if adaptive else set())
        # X on one cat each
        assert len(dominated) == (g.cat_count if adaptive else 0)

    @pytest.mark.parametrize("gamma, distance, n_classes", [
        (6, 3, 12), (10, 5, 20), (14, 7, 35), (20, 7, 50), (18, 9, 63), (24, 9, 84)])
    def test_classes_are_the_table_rows(self, gamma, distance, n_classes):
        """The effect classes are the distinct table rows but for the
        dropped kinds, named by their first (op, code) in that order, and
        the same set as the deduplicated location effects."""
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=distance))
        adaptive = g.max_adaptive > 0
        classes, names, table = _classes(g, adaptive)
        fields = [f.name for f in dataclasses.fields(Effect)][:len(table.columns)]
        rows = list(map(tuple, classes.tolist()))
        assert len(rows) == len(set(rows)) == n_classes
        assert names == sorted(names) and names[:g.cat_count] == [
            (r, 0) for r in range(g.cat_count)]
        for op, n_codes in enumerate(table.n_codes):
            for code in range(n_codes):
                row = tuple(int(c[op, code]) for c in table.columns)
                data, slots, *persist = row
                # no effect, a bare data X, or X only on cats
                dropped = slots == 0 and (
                    data == 0 or (bin(data).count("1") == 1 and not any(persist)))
                assert (row in rows) != dropped, (op, code)
                if row in rows:
                    assert names[rows.index(row)] <= (op, code)
        locs = {tuple(getattr(e, f) for f in fields) for e in location_classes(g, adaptive)}
        assert set(rows) == locs

    @pytest.mark.parametrize("gamma, first_pre_op", [(14, 28), (20, 40)])
    def test_event_names_read_untiled_rows(self, gamma, first_pre_op):
        """Table rows are tiled to the lcm of the code counts; events, and
        the dominated rows that leave X on one cat each, are still named
        by each op's own codes, as pinned here."""
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=7))
        names, _ = reread_events(g, MAX_REREADS)
        assert names == [(step, op, code) for step in range(MAX_REREADS)
                         for op, code in ((0, 0), (0, 3), (0, 4), (1, 3), (1, 4))]
        assert _pre_reread_events(FaultTable.for_decoder(g, True)) == [
            (-1, first_pre_op + r, 3) for r in range(g.cat_count)]
        for table in (FaultTable.for_reread(g),
                      FaultTable.from_gadget(g, ("data_x", "slot_flips", "persist_x"))):
            assert table.columns[0].shape[1] == 15
            assert all(code < table.n_codes[op] for op, code in _distinct_rows(table)[1])


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

    @pytest.mark.parametrize("gamma, t, message", [
        (-3, 1, "gamma must be at least 2"), (1, 1, "gamma must be at least 2"),
        (10, -1, "t must be at least 0")])
    def test_rejects_bad_gamma_and_t(self, gamma, t, message):
        with pytest.raises(ValueError, match=message):
            eval_upper_bound(gamma, t, 0.1)
