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
        assert GadgetSpec(gamma=10, distance=5, prep_cnots=0).prep_gate_cost == 0

    @pytest.mark.parametrize("d,rounds", [(3, 1), (5, 1), (7, 2), (9, 2)])
    def test_non_adaptive_round_count(self, d, rounds):
        assert base_round_count(d) == rounds
        spec = GadgetSpec(gamma=4 * d, distance=d, adaptive=False)
        assert spec.rounds == rounds

    def test_adaptive_d7_single_base_round(self):
        spec = GadgetSpec(gamma=14, distance=7)
        assert spec.is_adaptive and spec.rounds == 1 and spec.max_adaptive == 4

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
        assert len(g.round_slots[0]) == 5
        data_cnots = [x for x in g.gates if x.kind == "CNOT" and x.q1 < 10]
        assert len(data_cnots) == 10

    def test_cut_cat_d9_two_rounds(self):
        g = build_cut_cat(GadgetSpec(gamma=18, distance=9))
        assert g.cat_count == 9 and len(g.round_slots) == 2

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
