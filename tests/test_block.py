import numpy as np
import pytest

from cutcat.block import BlockSimulator, run_block_mc
from cutcat.pauli import CssCode, parse_css_code
from cutcat.sim import CatSyndrome


class TestSetup:
    def test_missing_logicals_rejected(self):
        code = parse_css_code("7 1 3\nX 3\n0001111\n0110011\n1010101\n"
                              "Z 3\n0001111\n0110011\n1010101\n")
        with pytest.raises(ValueError):
            BlockSimulator(code, ratio=20)

    def test_gadget_assignment_rule(self, rm15):
        sim = BlockSimulator(rm15, ratio=20)
        kinds = [ext.gadget.kind for ext in sim.extractors]
        # the eight weight-8 generators get the ring gadget, the six
        # weight-4 ones the plain cat gadget
        assert kinds.count("cut_cat") == 8
        assert kinds.count("full_cat") == 6

    def test_steane_all_full_cat(self, steane):
        sim = BlockSimulator(steane, ratio=20)
        assert all(ext.gadget.kind == "full_cat" for ext in sim.extractors)

    def test_bad_ratio(self, steane):
        with pytest.raises(ValueError):
            BlockSimulator(steane, ratio=0)

    def test_extraction_rate_above_one_rejected(self, steane):
        with pytest.raises(ValueError, match="p/ratio=1.6"):
            run_block_mc(steane, 0.8, ratio=0.5, min_failures=5, trial_cap=100)

    def test_p_ft_from_simulator_ratio(self, steane):
        sim = BlockSimulator(steane, ratio=10)
        stats = run_block_mc(steane, 1e-2, min_failures=5, seed=1,
                             trial_cap=1_000, batch_size=1_000, simulator=sim)
        assert stats.p_ft == 1e-3
        with pytest.raises(ValueError, match="p/ratio"):
            run_block_mc(steane, 1.0, ratio=100, min_failures=5, trial_cap=100,
                         simulator=BlockSimulator(steane, ratio=0.5))

    def test_max_rounds_below_run_length_rejected(self, steane):
        # Steane has t=1: acceptance needs two identical rounds
        with pytest.raises(ValueError, match="max_rounds"):
            BlockSimulator(steane, ratio=20, max_rounds=1)
        assert BlockSimulator(steane, ratio=20, max_rounds=2).max_rounds == 2

    def test_code_beyond_64_qubits_rejected(self):
        # 65-qubit repetition code: ZZ checks on neighbors, no X checks
        n = 65
        code = CssCode(n=n, k=1, d=1, hx=(), hz=tuple(3 << i for i in range(n - 1)),
                       lx=((1 << n) - 1,), lz=(1,))
        with pytest.raises(ValueError, match="n=65"):
            BlockSimulator(code, ratio=20)


class TestRuns:
    def test_zero_noise_zero_failures(self, steane):
        stats = run_block_mc(steane, 0.0, ratio=20, min_failures=5, seed=1,
                             trial_cap=20_000, batch_size=10_000)
        assert stats.failures == 0 and stats.censored

    def test_reproducible(self, steane):
        kw = dict(ratio=20, min_failures=10, seed=4, trial_cap=200_000,
                  batch_size=20_000)
        assert run_block_mc(steane, 1e-2, **kw) == run_block_mc(steane, 1e-2, **kw)

    def test_steane_failure_rate_sane(self, steane):
        stats = run_block_mc(steane, 1e-2, ratio=20, min_failures=50, seed=4,
                             trial_cap=10**6, batch_size=50_000)
        assert not stats.censored
        assert 1e-4 < stats.estimate < 3e-2

    def test_rm15_cut_cat_path_runs(self, rm15):
        stats = run_block_mc(rm15, 1e-2, ratio=20, min_failures=20, seed=4,
                             trial_cap=400_000, batch_size=20_000)
        assert stats.failures >= 20
        assert stats.estimate < 0.2

    def test_p_ft_scaling(self, steane):
        # a larger reliability ratio must not increase the failure rate
        lo = run_block_mc(steane, 2e-2, ratio=100, min_failures=30, seed=7,
                          trial_cap=400_000, batch_size=20_000)
        hi = run_block_mc(steane, 2e-2, ratio=20, min_failures=30, seed=7,
                          trial_cap=400_000, batch_size=20_000)
        assert lo.estimate <= hi.estimate * 1.5


def _masked_extract_until_stable(sim, rng, p_ft, data_x, data_z):
    """Reference protocol at full batch size: each round's extraction
    noise is drawn over the active trials and scattered to their places;
    returns the accepted syndromes, the rounds run per trial and which
    trials stabilized before the cap."""
    size = len(data_x)
    done = np.zeros(size, dtype=bool)
    run_len = np.zeros(size, dtype=np.int64)
    last_syn = np.zeros(size, dtype=np.uint64)
    accepted = np.zeros(size, dtype=np.uint64)
    rounds = np.zeros(size, dtype=np.int64)
    for _ in range(sim.max_rounds):
        active = np.nonzero(~done)[0]
        rounds[active] += 1
        syn = np.zeros(size, dtype=np.uint64)
        for gi, ext in enumerate(sim.extractors):
            reads = data_z if ext.sector == "X" else data_x
            true = np.bitwise_count(reads & ext.support_mask) & np.uint64(1)
            acc_data, acc_slot, acc_gen = (np.zeros(size, dtype=np.uint64)
                                           for _ in range(3))
            acc_data[active], acc_slot[active], acc_gen[active] = (
                ext.faults.sample(rng, len(active), p_ft))
            if ext.has_ring:
                m = ext.gadget.cat_count
                for trial in np.nonzero(acc_slot)[0]:
                    ring = CatSyndrome(m, (int(acc_slot[trial]),))
                    acc_data[trial] ^= np.uint64(ext._globalize(ext.decoder.decode(ring)))
            if ext.sector == "X":
                data_x ^= acc_data
            else:
                data_z ^= acc_data
            syn |= ((true ^ acc_gen) & np.uint64(1)) << np.uint64(gi)
        on = ~done
        run_len[on] = np.where(syn[on] == last_syn[on], run_len[on] + 1, 1)
        last_syn[on] = syn[on]
        newly = on & (run_len >= sim.t + 1)
        accepted[newly] = syn[newly]
        done |= newly
        if done.all():
            break
    accepted[~done] = last_syn[~done]
    return accepted, rounds, done


class TestCompaction:
    """Extraction over compacted active trials against the masked loop."""

    @pytest.mark.parametrize("code_name, max_rounds", [("steane", 4), ("rm15", 3)])
    def test_matches_masked_reference(self, request, code_name, max_rounds):
        code = request.getfixturevalue(code_name)
        sim = BlockSimulator(code, ratio=20, max_rounds=max_rounds)
        p, seed, batch, size = 3e-2, 9, 1, 4000
        compacted = sim.extract_until_stable
        runs = {}

        def recorder(name, fn):
            def run(rng, p_ft, data_x, data_z):
                accepted, *extra = fn(rng, p_ft, data_x, data_z)
                runs[name] = (accepted, data_x.copy(), data_z.copy(),
                              rng.bit_generator.state, *extra)
                return accepted
            return run

        sim.extract_until_stable = recorder(
            "masked", lambda *a: _masked_extract_until_stable(sim, *a))
        expected = sim.run_batch(p, seed, batch, size)
        sim.extract_until_stable = recorder("compacted", lambda *a: (compacted(*a),))
        assert sim.run_batch(p, seed, batch, size) == expected

        accepted, data_x, data_z, state, rounds, stable = runs["masked"]
        # trials stop in every round, and some reach the cap unstable
        assert set(rounds[stable].tolist()) == set(range(sim.t + 1, max_rounds + 1))
        assert 0 < (~stable).sum() < size
        got = runs["compacted"]
        assert np.array_equal(got[0], accepted)
        assert np.array_equal(got[1], data_x) and np.array_equal(got[2], data_z)
        assert got[3] == state


def _table_apply(lookup, keys):
    """Reference lookup: ``lookup`` once per distinct key, then (values,
    miss flags) per entry; a miss is a None result."""
    uniq, inv = np.unique(keys, return_inverse=True)
    values = np.zeros(len(uniq), dtype=np.uint64)
    miss = np.zeros(len(uniq), dtype=bool)
    for i, key in enumerate(uniq.tolist()):
        v = lookup(key)
        if v is None:
            miss[i] = True
        else:
            values[i] = v
    return values[inv], miss[inv]


class TestKeyCacheLookups:
    """The ``KeyCache`` lookups of the block, over repeated unsorted keys
    and across calls that find some keys cached, against one lookup per
    distinct key."""

    def test_ring_corrections(self, rm15):
        sim = BlockSimulator(rm15, ratio=20)
        ext = next(e for e in sim.extractors if e.has_ring)
        m = ext.gadget.cat_count
        _, slots, _ = ext.faults.sample(np.random.default_rng(4), 4000, 0.05)
        keys = slots[slots != 0]
        assert len(np.unique(keys)) < len(keys)

        def correction(key):
            return ext._globalize(ext.decoder.decode(CatSyndrome(m, (key,))))

        expected, miss = _table_apply(correction, keys)
        assert not miss.any()
        for part in (keys[: len(keys) // 2], keys):
            (got,) = ext._ring.get(part, ext._ring_corrections)
            assert np.array_equal(got, expected[: len(part)])

    def test_code_lut_corrections_and_misses(self, rm15):
        # 10 Z rows, 1024 syndromes, most of which the t=1 table lacks: a
        # miss must come back flagged, not as a silent zero correction
        sim = BlockSimulator(rm15, ratio=20)
        rng = np.random.default_rng(8)
        sx = rng.integers(0, 1 << len(rm15.hx), 3000, dtype=np.uint64)
        sz = rng.integers(0, 1 << len(rm15.hz), 3000, dtype=np.uint64)
        z_corr, z_miss = _table_apply(sim.code_lut.z_table.get, sx)
        x_corr, x_miss = _table_apply(sim.code_lut.x_table.get, sz)
        assert x_miss.any() and (~x_miss).any()
        for _ in range(2):  # the second pass finds the misses cached
            data_x, data_z = np.zeros(3000, np.uint64), np.zeros(3000, np.uint64)
            fail = sim._correct(sx, sz, data_x, data_z)
            assert np.array_equal(data_z, z_corr) and np.array_equal(data_x, x_corr)
            assert np.array_equal(fail, z_miss | x_miss)
