import pytest

from cutcat.circuit import GadgetCircuit, Gate, circuit_depth
from cutcat.gadgets import GadgetSpec, build_cut_cat, build_full_cat
from location_ref import CAT_INIT, enumerate_fault_locations

EMPTY_GADGET = GadgetCircuit(gamma=0, cat_count=0, pair_map=(), gates=(), base_rounds=0)


class TestFaultLocations:
    @pytest.mark.parametrize("gamma,distance", [(6, 3), (10, 5), (14, 7), (18, 9)])
    def test_one_round_count_is_4_gamma(self, gamma, distance):
        spec = GadgetSpec(gamma=gamma, distance=distance, base_rounds=1,
                          adaptive=False)
        locs = enumerate_fault_locations(build_cut_cat(spec))
        assert len(locs) == 4 * gamma

    def test_d5_gamma10_example(self):
        g = build_cut_cat(GadgetSpec(gamma=10, distance=5))
        assert len(enumerate_fault_locations(g)) == 40

    def test_d3_gamma6_example(self):
        g = build_cut_cat(GadgetSpec(gamma=6, distance=3))
        assert len(enumerate_fault_locations(g)) == 24

    def test_empty_circuit(self):
        assert enumerate_fault_locations(EMPTY_GADGET) == []

    def test_ids_dense(self):
        locs = enumerate_fault_locations(build_cut_cat(GadgetSpec(gamma=8, distance=5)))
        assert [l.id for l in locs] == list(range(len(locs)))

    def test_full_cat_only_init_locations(self):
        locs = enumerate_fault_locations(build_full_cat(9))
        assert len(locs) == 9
        assert all(l.kind == CAT_INIT for l in locs)


class TestDepth:
    def test_d7_gamma14_depth_range(self):
        g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
        assert circuit_depth(g) == 9
        assert circuit_depth(g, extra_measurements=4) == 13

    def test_d9_gamma18_two_rounds(self):
        g = build_cut_cat(GadgetSpec(gamma=18, distance=9))
        assert circuit_depth(g) == 20

    def test_full_cat_depth_one(self):
        assert circuit_depth(build_full_cat(14)) == 1

    def test_empty_gadget_depth_zero(self):
        assert circuit_depth(EMPTY_GADGET) == 0

    def test_depth_invariant_under_data_cnot_reordering(self):
        g = build_cut_cat(GadgetSpec(gamma=10, distance=5))
        data = [x for x in g.gates if x.kind == "CNOT" and x.q1 < g.gamma]
        rest = [x for x in g.gates if not (x.kind == "CNOT" and x.q1 < g.gamma)]
        shuffled = g.__class__(**{**g.__dict__, "gates": tuple(data[::-1] + rest)})
        assert circuit_depth(shuffled) == circuit_depth(g)


class TestStructure:
    def test_slots_unique_and_complete(self):
        g = build_cut_cat(GadgetSpec(gamma=18, distance=9))
        mz = [x for x in g.gates if x.kind == "MZ"]
        assert sorted(x.slot for x in mz) == list(range(g.n_slots))
        assert g.n_slots == g.base_rounds * g.cat_count == 18
        assert all(x.q0 == g.anc_qubit(x.slot % g.cat_count) for x in mz)

    def test_cnot_control_differs_from_target(self):
        with pytest.raises(ValueError):
            Gate("CNOT", 3, 3)

    def test_ring_components_per_slot(self):
        g = build_cut_cat(GadgetSpec(gamma=10, distance=5))
        for s in range(g.cat_count):
            anc = g.anc_qubit(s)
            controls = {x.q0 for x in g.gates if x.kind == "CNOT" and x.q1 == anc}
            assert controls == {g.cat_qubit(s), g.cat_qubit(s + 1)}
