import pytest

from cutcat.gadgets import (
    GadgetSpec,
    base_round_count,
    build_cut_cat,
    build_full_cat,
    resource_report,
)


class TestSpec:
    def test_unsupported_distance(self):
        with pytest.raises(ValueError):
            GadgetSpec(gamma=10, distance=4)

    def test_gamma_too_small(self):
        with pytest.raises(ValueError):
            GadgetSpec(gamma=1, distance=3)

    def test_negative_prep_cnots(self):
        with pytest.raises(ValueError, match="^prep_cnots=-1 must be at least 0$"):
            GadgetSpec(gamma=10, distance=5, prep_cnots=-1)
        rep = resource_report(GadgetSpec(gamma=10, distance=5, prep_cnots=0))
        assert rep.breakdown["prep"] == (0, 0)

    @pytest.mark.parametrize("d,rounds", [(3, 1), (5, 1), (7, 2), (9, 2)])
    def test_non_adaptive_round_count(self, d, rounds):
        assert base_round_count(d) == rounds
        spec = GadgetSpec(gamma=4 * d, distance=d, adaptive=False)
        assert spec.rounds == rounds

    def test_adaptive_d7_single_base_round(self):
        spec = GadgetSpec(gamma=14, distance=7)
        assert spec.is_adaptive and spec.rounds == 1 and spec.max_adaptive == 4

    def test_adaptive_acts_at_d7_only(self):
        spec = GadgetSpec(gamma=10, distance=5, adaptive=True)
        assert not spec.is_adaptive and spec.max_adaptive == 0
        assert build_cut_cat(spec) == build_cut_cat(
            GadgetSpec(gamma=10, distance=5, adaptive=False))

    def test_adaptive_is_a_bool(self):
        with pytest.raises(ValueError, match="^adaptive=None must be True or False$"):
            GadgetSpec(gamma=14, distance=7, adaptive=None)

    def test_d7_worst_case_average_measurements(self):
        # 1 + 8/gamma holds once all cats are paired (gamma >= 2d); below
        # that the ring is padded to d cats and the average is lower still
        for gamma in (14, 16, 20):
            spec = GadgetSpec(gamma=gamma, distance=7)
            worst = (spec.cat_count + spec.max_adaptive) / spec.cat_count
            assert worst == pytest.approx(1 + 8 / gamma)
        spec = GadgetSpec(gamma=10, distance=7)
        assert (spec.cat_count + spec.max_adaptive) / spec.cat_count <= 1 + 8 / 10


class TestPairMap:
    def test_gamma10_d5_all_paired(self):
        spec = GadgetSpec(gamma=10, distance=5)
        assert spec.pair_map() == ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))

    def test_gamma8_d5_three_pairs_two_singles(self):
        pm = GadgetSpec(gamma=8, distance=5).pair_map()
        assert sum(1 for p in pm if len(p) == 2) == 3
        assert sum(1 for p in pm if len(p) == 1) == 2

    @pytest.mark.parametrize("gamma,d", [(6, 3), (8, 3), (8, 5), (10, 5),
                                         (16, 5), (14, 7), (20, 7), (18, 9)])
    def test_partition_property(self, gamma, d):
        pm = GadgetSpec(gamma=gamma, distance=d).pair_map()
        flat = [q for pair in pm for q in pair]
        assert sorted(flat) == list(range(gamma))


class TestBuilders:
    def test_cut_cat_d5_gamma10_shape(self):
        g = build_cut_cat(GadgetSpec(gamma=10, distance=5))
        assert g.cat_count == 5
        assert g.base_rounds == 1
        assert g.n_slots == 5
        data_cnots = [x for x in g.gates if x.kind == "CNOT" and x.q1 < 10]
        assert len(data_cnots) == 10

    def test_cut_cat_d9_two_rounds(self):
        g = build_cut_cat(GadgetSpec(gamma=18, distance=9))
        assert g.cat_count == 9 and g.base_rounds == 2 and g.n_slots == 18

    def test_full_cat_shapes(self):
        for gamma in (1, 4, 14):
            g = build_full_cat(gamma)
            cnots = [x for x in g.gates if x.kind == "CNOT"]
            assert len(cnots) == gamma and g.n_slots == 0


class TestResources:
    def test_cut_cat_d7_gamma14(self):
        rep = resource_report(GadgetSpec(gamma=14, distance=7))
        assert rep.two_qubit_gates == (40, 48)
        assert rep.depth == (9, 13)
        assert rep.published["simultaneous_qubits"] == 10
        assert rep.simultaneous_qubits_fast_reset == 8

    def test_cut_cat_d9_gamma18(self):
        rep = resource_report(GadgetSpec(gamma=18, distance=9))
        assert rep.two_qubit_gates == (70, 70)
        assert rep.depth == (20, 20)
        assert rep.published["simultaneous_qubits"] == 13

    def test_full_cat_gamma14_ideal_prep(self):
        rep = resource_report(GadgetSpec(gamma=14, distance=7, prep_cnots=0),
                              full_cat=True)
        assert rep.breakdown["data"] == (14, 14)
        assert rep.depth == (1, 1)

    def test_breakdown_totals(self):
        rep = resource_report(GadgetSpec(gamma=14, distance=7))
        lo = sum(v[0] for v in rep.breakdown.values())
        hi = sum(v[1] for v in rep.breakdown.values())
        assert (lo, hi) == rep.two_qubit_gates

    def test_gamma_d_cut_cat_one_data_layer(self):
        assert resource_report(GadgetSpec(gamma=5, distance=5)).depth == (6, 6)

    @pytest.mark.parametrize("full_cat", [False, True], ids=["cutcat", "fullcat"])
    @pytest.mark.parametrize("d", [3, 5, 7, 9])
    def test_against_closed_form(self, d, full_cat):
        """Every valid gamma up to 64 and three preparation costs against
        the closed-form counts of the two schemes."""
        for gamma in range(2 if full_cat else d, 65):
            for prep_cnots in (None, 0, 7):
                spec = GadgetSpec(gamma=gamma, distance=d, prep_cnots=prep_cnots)
                if full_cat:
                    m, data, n_slots, rereads, layers = gamma, gamma, 0, 0, 1
                else:
                    m, rereads = spec.cat_count, spec.max_adaptive
                    n_slots = spec.rounds * m
                    data = sum(len(p) for p in spec.pair_map())
                    layers = 1 if gamma == d else 2
                prep = 2 * (m - 1) if prep_cnots is None else prep_cnots
                rep = resource_report(spec, full_cat=full_cat)
                assert rep.breakdown == {
                    "prep": (prep, prep), "data": (data, data),
                    "ring_measurements": (2 * n_slots, 2 * n_slots + 2 * rereads)}
                assert rep.two_qubit_gates == (prep + data + 2 * n_slots,
                                               prep + data + 2 * n_slots + 2 * rereads)
                assert rep.depth == (layers + n_slots, layers + n_slots + rereads)
                assert rep.simultaneous_qubits_fast_reset == m + (not full_cat)
                assert rep.simultaneous_qubits_slow_reset == m + n_slots + rereads
