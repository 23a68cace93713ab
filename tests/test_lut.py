import dataclasses
import json
import random
from itertools import chain, combinations

import numpy as np
import pytest

from cutcat.decoders import (
    CutCatLUT,
    LutBuildError,
    LutDecoder,
    RuleDecoderD3D5,
    _solve_constraints,
    build_cut_cat_lut,
)
from cutcat.gadgets import GadgetSpec, build_cut_cat
from cutcat.pauli import mask_of, residual_weight_mod_generator
from cutcat.sim import FaultTable
from cutcat.verify import _effect_classes, combo_walk, verify_gadget
from location_ref import enumerate_fault_locations, location_effects


def _dict(table):
    """A table's (syndrome, correction) rows as a dict."""
    return dict(table.tolist())


def _class_rows(g):
    """The effect classes' (data X, key) rows."""
    return _effect_classes(FaultTable.for_decoder(g, False))[0]


def _oracle_rows(g, t):
    """(syndrome key, data residual, weight) of every combination of up to
    t effect classes, the empty one first, in walk order."""
    return [(int(k), int(d), s.weight)
            for s in combo_walk(_class_rows(g), t, min_weight=0)
            for d, k in zip(*s.cols)]


def _reference_rows(rows, t):
    """The same stream over the (data X, key) ``rows``, one
    ``itertools.combinations`` tuple at a time."""
    rows = rows.tolist()
    yield 0, 0, 0
    for w in range(1, t + 1):
        for combo in combinations(range(len(rows)), w):
            key = data = 0
            for i in combo:
                data ^= rows[i][0]
                key ^= rows[i][1]
            yield key, data, w


def _reference_search(constraints, gamma):
    """Per-key correction search: zero, stored residuals in insertion
    order, then plain-weight offsets around the first residual."""
    entries = list(constraints.items())

    def admissible(c):
        return all(residual_weight_mod_generator(e ^ c, gamma) <= w for e, w in entries)

    first_e, first_w = entries[0]
    offsets = (first_e ^ mask_of(q) for w in range(first_w + 1)
               for q in combinations(range(gamma), w))
    for cand in chain([0], (e for e, _ in entries), offsets):
        if admissible(cand):
            return cand
    return None


def _reference_table(rows, gamma, t):
    """LUT synthesis over a dict of (residual -> first weight) per key."""
    constraints = {}
    for key, residual, w in rows:
        constraints.setdefault(key, {}).setdefault(residual, w)
    table = {}
    for key, cons in constraints.items():
        corr = _reference_search(cons, gamma)
        if corr is None:
            raise LutBuildError(f"syndrome {key:#x} admits no correction within weight {t}")
        table[key] = corr
    return table


def _solve(rows, gamma, t):
    """``_solve_constraints`` with each key's group id its rank among the
    keys, not its first row: a key's rows, and its place among the keys
    that need the offset search, must still follow the row order."""
    key, residual, weight = (np.array(c, dtype) for c, dtype in
                             zip(zip(*rows), (np.uint64, np.uint64, np.uint8)))
    keys, group = np.unique(key, return_inverse=True)
    return dict(zip(keys.tolist(), _solve_constraints(keys, group, residual, weight,
                                                      gamma, t).tolist()))


@pytest.fixture(scope="module")
def d3_lut():
    return build_cut_cat_lut(GadgetSpec(gamma=6, distance=3, adaptive=False))


class TestBuild:
    def test_zero_syndrome_zero_correction(self, d3_lut):
        assert _dict(d3_lut.table)[0] == 0

    def test_d3_agrees_with_rule_decoder_up_to_coset(self, d3_lut):
        spec = GadgetSpec(gamma=6, distance=3)
        g = build_cut_cat(spec)
        keys = [key for key, _, _ in _oracle_rows(g, 1)]
        _, rule = RuleDecoderD3D5(g, 1).tables(np.array(keys, np.uint64), g.cat_count, 1)
        table = _dict(d3_lut.table)
        for key, corr in zip(keys, rule[:, 0].tolist()):
            assert corr ^ table.get(key, 0) in (0, (1 << 6) - 1)

    def test_single_init_fault_correction_close(self, d3_lut):
        spec = GadgetSpec(gamma=6, distance=3)
        g = build_cut_cat(spec)
        table = _dict(d3_lut.table)
        for r in range(3):
            key = (1 << ((r - 1) % 3)) | (1 << r)
            corr = table.get(key, 0)
            hook = (1 << (2 * r)) | (1 << (2 * r + 1))
            assert residual_weight_mod_generator(hook ^ corr, 6) <= 1

    def test_unreachable_syndrome_zero(self, d3_lut):
        assert 0b111 not in _dict(d3_lut.table)
        _, corr = LutDecoder(d3_lut).tables(np.array([0b111], np.uint64), 3, 1)
        assert corr.tolist() == [[0]]

    def test_adaptive_flag_inert_below_d7(self):
        default = build_cut_cat_lut(GadgetSpec(gamma=10, distance=5))
        adaptive = build_cut_cat_lut(GadgetSpec(gamma=10, distance=5, adaptive=True))
        assert adaptive.to_json() == default.to_json()

    def test_deterministic(self):
        spec = GadgetSpec(gamma=8, distance=3, adaptive=False)
        a = build_cut_cat_lut(spec)
        b = build_cut_cat_lut(spec)
        assert np.array_equal(a.table, b.table)

    @pytest.mark.parametrize("gamma,distance", [(6, 3), (8, 5), (10, 5)])
    def test_raw_locations_give_the_same_table(self, gamma, distance):
        # synthesis over every location effect of ``location_ref``,
        # repeats included, in location order
        spec = GadgetSpec(gamma=gamma, distance=distance, adaptive=False)
        g = build_cut_cat(spec)
        raw = np.array([(e.data_x, e.slot_flips) for e in
                        location_effects(g, enumerate_fault_locations(g), "X")], np.uint64)
        expected = _reference_table(_reference_rows(raw, spec.t), gamma, spec.t)
        assert _dict(build_cut_cat_lut(spec, gadget=g).table) == expected

    def test_adaptive_spec_rejected(self):
        with pytest.raises(ValueError):
            build_cut_cat_lut(GadgetSpec(gamma=14, distance=7))

    def test_d3_lut_decoder_verifies(self, d3_lut):
        g = build_cut_cat(GadgetSpec(gamma=6, distance=3))
        assert verify_gadget(g, LutDecoder(d3_lut), 1).passed


class TestLookupContract:
    def test_shape_mismatch_rejected(self, d3_lut):
        decoder, key = LutDecoder(d3_lut), np.zeros(1, np.uint64)
        with pytest.raises(ValueError):
            decoder.tables(key, 4, 1)
        with pytest.raises(ValueError):
            decoder.tables(key, 3, 2)

    @pytest.mark.parametrize("lut", [
        GadgetSpec(gamma=6, distance=3, adaptive=False),
        GadgetSpec(gamma=10, distance=5, adaptive=False),
        CutCatLUT(6, 1, 1, 3, np.zeros((0, 2), np.uint64)),
    ], ids=["d3", "d5", "empty"])
    def test_json_matches_json_dumps(self, lut):
        if isinstance(lut, GadgetSpec):
            lut = build_cut_cat_lut(lut)
        n_bits = lut.rounds * lut.cat_count
        row = lambda mask, n: "".join(str((mask >> i) & 1) for i in range(n))
        expected = json.dumps({
            "format": "cutcat-lut-v1", "gamma": lut.gamma, "t": lut.t,
            "rounds": lut.rounds, "cat_count": lut.cat_count,
            "entries": [{"syndrome": row(k, n_bits), "correction": row(c, lut.gamma)}
                        for k, c in sorted(_dict(lut.table).items())],
        }, indent=1)
        assert lut.to_json() == expected

    @pytest.mark.parametrize("gamma, distance", [(6, 3), (10, 5)])
    def test_key_level_lookup_matches_decode(self, gamma, distance):
        lut = build_cut_cat_lut(GadgetSpec(gamma=gamma, distance=distance, adaptive=False))
        decoder = LutDecoder(lut)
        m = lut.cat_count
        # every key of the table's shape, most of them absent from it
        keys = np.arange(1 << (lut.rounds * m), dtype=np.uint64)
        table = _dict(lut.table)
        expected = [[table.get(k, 0)] for k in keys.tolist()]
        _, got = decoder.tables(keys, m, lut.rounds)
        assert got.dtype == np.uint64 and got.tolist() == expected

    @pytest.mark.parametrize("gamma, distance", [(6, 3), (10, 5)])
    def test_table_is_rows_sorted_by_key(self, gamma, distance):
        table = build_cut_cat_lut(GadgetSpec(gamma=gamma, distance=distance,
                                             adaptive=False)).table
        assert table.dtype == np.uint64 and table.ndim == 2 and table.shape[1] == 2
        assert (np.diff(table[:, 0].astype(np.int64)) > 0).all()

    def test_json_round_trip(self, d3_lut):
        again = CutCatLUT.from_json(d3_lut.to_json())
        assert again == d3_lut

    def test_equality_compares_tables(self, d3_lut):
        rows = d3_lut.table.copy()
        assert CutCatLUT(6, 1, 1, 3, rows) == d3_lut
        rows[-1, 1] ^= 1
        assert CutCatLUT(6, 1, 1, 3, rows) != d3_lut
        assert dataclasses.replace(d3_lut, t=2) != d3_lut

    @pytest.mark.parametrize("rows", [
        np.array([[2, 1], [1, 0]], np.uint64),
        np.array([[1, 0], [1, 1]], np.uint64),
        np.array([[1, 0], [2, 1]], np.int64),
        np.array([1, 2], np.uint64),
        {1: 0, 2: 1},
    ], ids=["unsorted", "repeated", "int64", "one-column", "dict"])
    def test_table_form_checked(self, rows):
        with pytest.raises(ValueError, match="distinct syndromes in increasing order"):
            CutCatLUT(6, 1, 1, 3, rows)

    def test_json_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            CutCatLUT.from_json('{"format": "other"}')

    @pytest.mark.parametrize("edit, where", [
        ({"syndrome": "1x1"}, "LUT entry 1 syndrome"),
        ({"syndrome": "1010"}, "LUT entry 1 syndrome"),
        ({"correction": "0000001"}, "LUT entry 1 correction"),
        ({"syndrome": "010"}, "distinct syndromes in increasing order"),
        ({"gamma": 65}, "gamma=65 exceeds the 64-bit"),
        ({"rounds": 2, "cat_count": 33}, "ring slots=66 exceeds the 64-bit"),
        ({"gamma": "6"}, "LUT gamma missing or not an integer"),
        (lambda doc: {k: v for k, v in doc.items() if k != "gamma"},
         "LUT gamma missing or not an integer"),
        (lambda doc: doc["entries"][1].pop("correction") and doc,
         "LUT entry 1 lacks a syndrome or a correction"),
        (lambda doc: [doc], "LUT is not a JSON object"),
    ], ids=["bad-character", "long-key", "wide-correction", "repeated-syndrome",
            "wide-gamma", "wide-key", "string-gamma", "no-gamma", "no-correction",
            "top-level-list"])
    def test_json_rejects_malformed_entry(self, d3_lut, edit, where):
        # entry edits go to entry 1 (syndrome 0b001; entry 2 holds 0b010),
        # the rest to the header; a function edits the whole document
        doc = json.loads(d3_lut.to_json())
        if callable(edit):
            doc = edit(doc)
        else:
            for field, value in edit.items():
                (doc["entries"][1] if field in ("syndrome", "correction") else doc)[field] = value
        with pytest.raises(ValueError, match=where):
            CutCatLUT.from_json(json.dumps(doc))


class TestStoredCorrectionsSatisfyOracle:
    def test_every_entry_passes_accumulated_constraints(self, d3_lut):
        g = build_cut_cat(GadgetSpec(gamma=6, distance=3))
        constraints: dict[int, dict[int, int]] = {}
        for key, res, w in _oracle_rows(g, 1):
            per = constraints.setdefault(key, {})
            if res not in per:
                per[res] = w
        table = _dict(d3_lut.table)
        for key, per in constraints.items():
            corr = table.get(key, 0)
            for res, w in per.items():
                assert residual_weight_mod_generator(res ^ corr, 6) <= w


class TestSynthesisMatchesReference:
    """Array synthesis against the per-key dict builder it replaced."""

    @pytest.mark.parametrize("gamma,distance", [
        (3, 3), (6, 3), (8, 3), (12, 3), (8, 5), (10, 5), (16, 5), (20, 7),
        (48, 3), (40, 5),
    ])
    def test_tables_identical(self, gamma, distance):
        # gamma 3: the zero correction serves every key.  gamma 48 and 40:
        # 24- and 20-bit keys, too sparse for np.isin's dense table, so the
        # key test takes its sort path
        spec = GadgetSpec(gamma=gamma, distance=distance, adaptive=False)
        g = build_cut_cat(spec)
        expected = _reference_table(_reference_rows(_class_rows(g), spec.t), gamma, spec.t)
        assert _dict(build_cut_cat_lut(spec, gadget=g).table) == expected

    # gamma 8, t 2.  Key 1: zero fails (0b0011 at weight 1) and each stored
    # residual breaks the other, but 0b0010 is within one of both.  Key 2:
    # zero fails, the first stored residual breaks the third, the second
    # serves.  Key 3: zero serves; its repeat at weight 2 is ignored.
    ROWS = [(0, 0, 0), (1, 0b0011, 1), (3, 0b1, 1), (1, 0b0110, 1),
            (2, 0b0001, 2), (2, 0b0111, 2), (3, 0b11, 2), (3, 0b1, 2),
            (2, 0b1111, 2), (2, 0b0001, 2)]

    def test_offset_search_for_hand_made_groups(self):
        table = _solve(self.ROWS, 8, 2)
        assert table == _reference_table(self.ROWS, 8, 2)
        assert table == {0: 0, 1: 0b0010, 2: 0b0111, 3: 0}

    def test_no_admissible_correction_raises(self):
        # 0b0011 and 0b1100, both at weight 1: 4 apart under any correction
        rows = self.ROWS + [(5, 0b0011, 1), (5, 0b1100, 1)]
        with pytest.raises(LutBuildError, match="syndrome 0x5 admits no correction"):
            _reference_table(rows, 8, 2)
        with pytest.raises(LutBuildError, match="syndrome 0x5 admits no correction"):
            _solve(rows, 8, 2)

    def test_many_keys_need_the_offset_search(self):
        # 1 200 keys like key 1 above, each still open after the zero
        # vector and both stored residuals; then two keys that admit
        # nothing, the larger one first
        rows = [(0, 0, 0)] + [(k, r, 1) for k in range(10, 1210) for r in (0b0011, 0b0110)]
        assert _solve(rows, 8, 2) == _reference_table(rows, 8, 2)
        rows += [(5000, 0b0011, 1), (3, 0b0011, 1), (5000, 0b1100, 1), (3, 0b1100, 1)]
        with pytest.raises(LutBuildError, match="syndrome 0x1388 admits"):
            _solve(rows, 8, 2)

    def test_random_streams(self):
        rng = random.Random(7)
        outcomes = set()
        for _ in range(300):
            rows = [(0, 0, 0)] + sorted((
                (rng.randrange(6), rng.getrandbits(8) & rng.getrandbits(8),
                 rng.randint(1, 2))
                for _ in range(rng.randint(1, 12))
            ), key=lambda row: row[2])  # weights ascend, as in the walk
            try:
                expected = _reference_table(rows, 8, 2)
            except LutBuildError as exc:
                with pytest.raises(LutBuildError, match=str(exc)):
                    _solve(rows, 8, 2)
                outcomes.add("error")
                continue
            assert _solve(rows, 8, 2) == expected, rows
            outcomes.add("table")
        assert outcomes == {"error", "table"}
