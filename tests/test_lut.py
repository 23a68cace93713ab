import pytest

from cutcat.decoders import (
    CutCatLUT,
    LutDecoder,
    RuleDecoderD3D5,
    build_cut_cat_lut,
)
from cutcat.gadgets import GadgetSpec, build_cut_cat
from cutcat.pauli import residual_weight_mod_generator
from cutcat.sim import CatSyndrome
from cutcat.verify import oracle_residuals, verify_gadget


@pytest.fixture(scope="module")
def d3_lut():
    return build_cut_cat_lut(GadgetSpec(gamma=6, distance=3, adaptive=False))


class TestBuild:
    def test_zero_syndrome_zero_correction(self, d3_lut):
        assert d3_lut.lookup(0) == 0

    def test_d3_agrees_with_rule_decoder_up_to_coset(self, d3_lut):
        spec = GadgetSpec(gamma=6, distance=3)
        g = build_cut_cat(spec)
        rule = RuleDecoderD3D5(g, 1)
        ones = (1 << 6) - 1
        for key, _, _ in oracle_residuals(g, 1):
            syn = CatSyndrome.from_key(g.cat_count, key, 1)
            diff = rule.decode(syn) ^ d3_lut.lookup(key)
            assert diff in (0, ones)

    def test_single_init_fault_correction_close(self, d3_lut):
        spec = GadgetSpec(gamma=6, distance=3)
        g = build_cut_cat(spec)
        for r in range(3):
            key = (1 << ((r - 1) % 3)) | (1 << r)
            corr = d3_lut.lookup(key)
            hook = (1 << (2 * r)) | (1 << (2 * r + 1))
            assert residual_weight_mod_generator(hook ^ corr, 6) <= 1

    def test_unreachable_syndrome_zero(self, d3_lut):
        assert 0b111 not in d3_lut.table
        assert LutDecoder(d3_lut).decode(CatSyndrome(3, (0b111,))) == 0

    def test_deterministic(self):
        spec = GadgetSpec(gamma=8, distance=3, adaptive=False)
        a = build_cut_cat_lut(spec)
        b = build_cut_cat_lut(spec)
        assert a.table == b.table

    def test_dedupe_matches_full_enumeration(self):
        spec = GadgetSpec(gamma=6, distance=3, adaptive=False)
        a = build_cut_cat_lut(spec, dedupe=True)
        b = build_cut_cat_lut(spec, dedupe=False)
        assert a.table == b.table

    def test_adaptive_spec_rejected(self):
        with pytest.raises(ValueError):
            build_cut_cat_lut(GadgetSpec(gamma=14, distance=7))

    def test_d3_lut_decoder_verifies(self, d3_lut):
        g = build_cut_cat(GadgetSpec(gamma=6, distance=3))
        assert verify_gadget(g, LutDecoder(d3_lut), 1, dedupe=False).passed


class TestLookupContract:
    def test_shape_mismatch_rejected(self, d3_lut):
        decoder = LutDecoder(d3_lut)
        with pytest.raises(ValueError):
            decoder.decode(CatSyndrome(4, (0,)))
        with pytest.raises(ValueError):
            decoder.decode(CatSyndrome(3, (0, 0)))

    def test_json_round_trip(self, d3_lut):
        again = CutCatLUT.from_json(d3_lut.to_json())
        assert again == d3_lut

    def test_json_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            CutCatLUT.from_json('{"format": "other"}')


class TestStoredCorrectionsSatisfyOracle:
    def test_every_entry_passes_accumulated_constraints(self, d3_lut):
        g = build_cut_cat(GadgetSpec(gamma=6, distance=3))
        constraints: dict[int, dict[int, int]] = {}
        for key, res, w in oracle_residuals(g, 1):
            per = constraints.setdefault(key, {})
            if res not in per:
                per[res] = w
        for key, per in constraints.items():
            corr = d3_lut.lookup(key)
            for res, w in per.items():
                assert residual_weight_mod_generator(res ^ corr, 6) <= w
