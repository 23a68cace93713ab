import random

import numpy as np
import pytest

from cutcat.block import BlockSimulator, run_block_mc
from cutcat.pauli import CssCode, bits_of, mask_of, parse_css_code
from cutcat.sim import FaultTable, noisy_operations, pack_fields, propagate_op_faults
from decoder_ref import cats_to_mask, decode_d3d5
from location_ref import walk_op_effects
from sample_ref import scatter, tiled


class TestSetup:
    def test_missing_logicals_rejected(self):
        code = parse_css_code("7 1 3\nX 3\n0001111\n0110011\n1010101\n"
                              "Z 3\n0001111\n0110011\n1010101\n")
        with pytest.raises(ValueError):
            BlockSimulator(code, ratio=20)

    def test_gadget_assignment_rule(self, rm15):
        sim = BlockSimulator(rm15, ratio=20)
        ringless = [gen.ring is None for gen in sim.generators]
        # the eight weight-8 generators get the ring gadget, the six
        # weight-4 ones the plain cat gadget
        assert ringless.count(False) == 8
        assert ringless.count(True) == 6

    def test_steane_all_full_cat(self, steane):
        sim = BlockSimulator(steane, ratio=20)
        assert all(gen.ring is None for gen in sim.generators)

    def test_bad_ratio(self, steane):
        for ratio in (0, -1, float("nan")):
            with pytest.raises(ValueError, match="^ratio must be positive$"):
                BlockSimulator(steane, ratio=ratio)

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


def _sequential_round(sim, data_x, data_z, entries):
    """Scalar reference of one round on one trial: generator by generator,
    X then Z, the syndrome bit read from the current frame, the gadget
    run by ``propagate_op_faults`` with its faults among ``entries``
    ((round-table op, code) pairs), then its residual, corrected by the
    ring decoder on its slots, placed on the generator's support."""
    syn, first = 0, 0
    for gi, gen in enumerate(sim.generators):
        n_ops = len(noisy_operations(gen.gadget))
        local = [(op - first, code) for op, code in entries if first <= op < first + n_ops]
        first += n_ops
        reads = data_z if gen.sector == "X" else data_x
        bit = sum((reads >> q) & 1 for q in gen.support) & 1
        if local:
            res = propagate_op_faults(gen.gadget, local)
            bit ^= res.gen_flip
            residual = res.data_x
            if gen.decoder is not None:
                cats = decode_d3d5(res.slot_flips, gen.decoder.t, gen.gadget.cat_count)
                residual ^= cats_to_mask(gen.gadget, cats)
            # the residual's local bit i is the code's qubit support[i]
            placed = mask_of(gen.support[i] for i in bits_of(residual))
            if gen.sector == "X":
                data_x ^= placed
            else:
                data_z ^= placed
        syn |= bit << gi
    return syn, data_x, data_z


def _fault_sets(sim, n_trials, seed):
    """Random (op, code) fault sets over the round table: any 0-4 faults,
    two or three in one gadget, one fault each in a ring and a plain cat
    gadget (when the code has both), or faults that only flip outcomes."""
    rng = random.Random(seed)
    ops, spans, first = [], [], 0
    for gen in sim.generators:
        gadget_ops = noisy_operations(gen.gadget)
        ops += gadget_ops
        spans.append((gen, range(first, first + len(gadget_ops))))
        first += len(gadget_ops)
    finals = [i for i, op in enumerate(ops) if op.final]
    rings = [span for gen, span in spans if gen.decoder is not None]
    cats = [span for gen, span in spans if gen.decoder is None]

    def fault(op):
        return op, rng.randrange(ops[op].n_codes)

    sets = []
    for trial in range(n_trials):
        kind = trial % 4
        if kind == 0:
            sets.append([fault(rng.randrange(len(ops))) for _ in range(rng.randint(0, 4))])
        elif kind == 1:
            _, span = rng.choice(spans)
            sets.append([fault(rng.choice(span)) for _ in range(rng.randint(2, 3))])
        elif kind == 2 and rings and cats:
            sets.append([fault(rng.choice(rng.choice(rings))),
                         fault(rng.choice(rng.choice(cats)))])
        else:
            sets.append([fault(rng.choice(finals)) for _ in range(rng.randint(1, 2))])
    return sets


class TestRoundStep:
    """``BlockSimulator.apply_round`` on round-table rows of given faults
    against extraction one generator at a time through the scalar
    propagator."""

    @pytest.mark.parametrize("code_name", ["steane", "rm15"], ids=lambda name: f"{name}-packed")
    def test_matches_sequential_propagation(self, request, code_name):
        code = request.getfixturevalue(code_name)
        sim = BlockSimulator(code, ratio=20)
        n_rings = sum(gen.decoder is not None for gen in sim.generators)
        assert len(sim.round_faults.columns) == 3 + n_rings
        trials = 1200
        sets = _fault_sets(sim, trials, seed=len(code_name))
        rng = np.random.default_rng(3)
        data_x = rng.integers(0, 1 << code.n, trials, dtype=np.uint64)
        data_z = rng.integers(0, 1 << code.n, trials, dtype=np.uint64)
        faults = [np.zeros(trials, np.uint64) for _ in sim.round_faults.columns]
        for trial, entries in enumerate(sets):
            for op, fcode in entries:
                for acc, col in zip(faults, sim.round_faults.columns):
                    acc[trial] ^= col[op, fcode]
        expected = [_sequential_round(sim, int(x), int(z), entries)
                    for x, z, entries in zip(data_x.tolist(), data_z.tolist(), sets)]
        syn = sim.apply_round(data_x, data_z, faults)
        assert [(int(s), int(x), int(z)) for s, x, z in zip(syn, data_x, data_z)] == expected
        # ring fields reached the ring decoders, when the code has any
        assert (n_rings > 0) == any(len(gen.ring.keys) for gen in sim._rings)


class TestRoundTableMatchesPerOpWalks:
    """Every round-table entry against the per-op forward walks of
    ``location_ref.walk_op_effects``, globalized one mask at a time."""

    @pytest.mark.parametrize("name", ["rm15", "steane"])
    def test_round_table_entries(self, request, name):
        sim = BlockSimulator(request.getfixturevalue(name), ratio=20)
        n_codes, rows = [], []
        for gi, gen in enumerate(sim.generators):
            for op in noisy_operations(gen.gadget):
                n_codes.append(op.n_codes)
                rows.append([])
                for e in walk_op_effects(gen.gadget, op):
                    data = sum(1 << gen.support[i] for i in bits_of(e.data_x))
                    rows[-1].append([data * (gen.sector == "X"), data * (gen.sector == "Z"),
                                     e.gen_flip << gi] + [e.slot_flips * (ring is gen)
                                                          for ring in sim._rings])
        want = FaultTable(n_codes, [tiled(n_codes, [[e[k] for e in row] for row in rows])
                                    for k in range(3 + len(sim._rings))])
        assert sim.round_faults.n_codes == want.n_codes
        for got, ref in zip(sim.round_faults.columns, want.columns, strict=True):
            assert np.array_equal(got, ref)


class TestFlipLayout:
    """``FaultTable`` packs columns into uint64 words in order, a column
    that would cross bit 64 opening a new word."""

    def test_fields_start_a_column_instead_of_straddling(self):
        widths = [14, 20, 20, 20, 30, 64, 1, 5, 60]
        assert pack_fields(widths) == [
            (0, 0), (0, 14), (0, 34), (1, 0), (1, 20), (2, 0), (3, 0), (3, 1), (4, 0)]
        assert pack_fields([14, 50]) == [(0, 0), (0, 14)]

    def test_random_widths_pack_without_overlap(self):
        rng = random.Random(5)
        for _ in range(200):
            widths = [rng.randint(1, 64) for _ in range(rng.randint(0, 12))]
            used = {}
            for (col, at), w in zip(pack_fields(widths), widths):
                assert at + w <= 64
                field = ((1 << w) - 1) << at
                assert not used.get(col, 0) & field
                used[col] = used.get(col, 0) | field
            assert sorted(used) == list(range(len(used)))

    def test_round_table_words(self, rm15, steane):
        # [[15,1,3]]: wx and wz (15 bits each), 14 generator bits and 5
        # ring gadgets of 4 slots in word 0, the other 3 ring gadgets in
        # word 1; Steane's 6 plain cat gadgets fit in one word
        table = BlockSimulator(rm15, ratio=20).round_faults
        assert [int(np.bitwise_or.reduce(c.ravel())) for c in table.columns] == [
            (1 << 15) - 1, (1 << 15) - 1, (1 << 14) - 1] + [15] * 8
        assert [word for word, _, _ in table._fields] == [0] * 8 + [1] * 3
        assert len(BlockSimulator(steane, ratio=20).round_faults._words) == 1


def _masked_extract_until_stable(sim, rng, p_ft, data_x, data_z):
    """Reference protocol at full batch size: each round's noise is drawn
    over the active trials and scattered to their places, the other
    trials taking none; returns the accepted syndromes, the rounds run
    per trial and which trials stabilized before the cap."""
    size = len(data_x)
    done = np.zeros(size, dtype=bool)
    run_len = np.zeros(size, dtype=np.int64)
    last_syn = np.zeros(size, dtype=np.uint64)
    accepted = np.zeros(size, dtype=np.uint64)
    rounds = np.zeros(size, dtype=np.int64)
    for _ in range(sim.max_rounds):
        active = np.nonzero(~done)[0]
        rounds[active] += 1
        faults = [np.zeros(size, dtype=np.uint64) for _ in sim.round_faults.columns]
        for full, drawn in zip(faults, scatter(sim.round_faults, rng, len(active), p_ft)):
            full[active] = drawn
        syn = sim.apply_round(data_x, data_z, faults)
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
    """Extraction over compacted active trials, with only the hit trials
    run through ``apply_round``, against the masked loop."""

    @staticmethod
    def _runs(sim, p, seed=9, batch=1, size=4000):
        """One batch through the masked loop, then through
        ``extract_until_stable``, whose failure count must match; per run,
        the accepted syndromes, data frames after it and RNG state, then
        for the masked run the rounds per trial and the stabilized flags."""
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
        masked, got = runs["masked"], runs["compacted"]
        assert np.array_equal(got[0], masked[0])
        assert np.array_equal(got[1], masked[1]) and np.array_equal(got[2], masked[2])
        assert got[3] == masked[3]
        return masked

    @pytest.mark.parametrize("code_name, max_rounds", [("steane", 4), ("rm15", 3)])
    def test_matches_masked_reference(self, request, code_name, max_rounds):
        code = request.getfixturevalue(code_name)
        sim = BlockSimulator(code, ratio=20, max_rounds=max_rounds)
        *_, rounds, stable = self._runs(sim, 3e-2)
        # trials stop in every round, and some reach the cap unstable
        assert set(rounds[stable].tolist()) == set(range(sim.t + 1, max_rounds + 1))
        assert 0 < (~stable).sum() < len(stable)

    @pytest.mark.parametrize("code_name, p", [("rm15", 1e-2), ("steane", 1e-3)])
    def test_matches_masked_reference_default_rounds(self, request, code_name, p):
        sim = BlockSimulator(request.getfixturevalue(code_name), ratio=20)
        sample_words, hits = sim.round_faults.sample_words, []

        def recorded(*args):
            trials, words = sample_words(*args)
            hits.append(len(trials))
            return trials, words

        sim.round_faults.sample_words = recorded
        *_, rounds, stable = self._runs(sim, p)
        assert stable.all() and rounds.max() > sim.t + 2
        # both runs draw through ``sample_words``: the masked run's
        # rounds, then the same hit counts in the compacted run's, where
        # some rounds hit trials and some draw no hit at all
        assert hits == 2 * hits[:rounds.max()]
        assert hits[0] > 0 and 0 in hits


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
    """The block's lookups, ring corrections through a ``KeyCache`` and
    code-LUT corrections by binary search, over repeated unsorted keys and
    across calls, against one lookup per distinct key."""

    def test_ring_corrections(self, rm15):
        sim = BlockSimulator(rm15, ratio=20)
        gen = next(g for g in sim.generators if g.decoder is not None)
        m, k = gen.gadget.cat_count, sim._rings.index(gen)
        slots = scatter(sim.round_faults, np.random.default_rng(4), 4000, 0.05)[3 + k]
        keys = slots[slots != 0]
        assert len(np.unique(keys)) < len(keys)

        def correction(key):
            local = cats_to_mask(gen.gadget, decode_d3d5(key, gen.decoder.t, m))
            return mask_of(gen.support[i] for i in bits_of(local))

        expected, miss = _table_apply(correction, keys)
        assert not miss.any()
        for part in (keys[: len(keys) // 2], keys):
            (got,) = gen.ring.get(part)
            assert np.array_equal(got, expected[: len(part)])

    def test_code_lut_corrections_and_misses(self, rm15):
        # 10 Z rows, 1024 syndromes, most of which the t=1 table lacks: a
        # miss must come back flagged, not as a silent zero correction
        sim = BlockSimulator(rm15, ratio=20)
        rng = np.random.default_rng(8)
        sx = rng.integers(0, 1 << len(rm15.hx), 3000, dtype=np.uint64)
        sz = rng.integers(0, 1 << len(rm15.hz), 3000, dtype=np.uint64)
        z_corr, z_miss = _table_apply(dict(sim.code_lut.z_table.tolist()).get, sx)
        x_corr, x_miss = _table_apply(dict(sim.code_lut.x_table.tolist()).get, sz)
        assert x_miss.any() and (~x_miss).any()
        for _ in range(2):  # a second pass answers the same
            data_x, data_z = np.zeros(3000, np.uint64), np.zeros(3000, np.uint64)
            fail = sim._correct(sx, sz, data_x, data_z)
            assert np.array_equal(data_z, z_corr) and np.array_equal(data_x, x_corr)
            assert np.array_equal(fail, z_miss | x_miss)

    def test_correct_matches_full_batch_lookup(self, rm15):
        # mostly zero syndromes, as in a run, among them ones the tables
        # lack: looking up only the nonzero ones changes no correction
        # and no miss flag
        sim = BlockSimulator(rm15, ratio=20)
        rng = np.random.default_rng(11)
        size = 5000
        sx, sz = (np.where(rng.random(size) < 0.15,
                           rng.integers(0, 1 << len(rows), size, dtype=np.uint64),
                           np.uint64(0)) for rows in (rm15.hx, rm15.hz))
        z_corr, z_miss = _table_apply(dict(sim.code_lut.z_table.tolist()).get, sx)
        x_corr, x_miss = _table_apply(dict(sim.code_lut.x_table.tolist()).get, sz)
        # the four X rows leave no syndrome the t=1 table lacks; the ten Z rows do
        assert (sx == 0).mean() > 0.8 and x_miss.any() and not z_miss.any()
        data_x = rng.integers(0, 1 << rm15.n, size, dtype=np.uint64)
        data_z = rng.integers(0, 1 << rm15.n, size, dtype=np.uint64)
        want_x, want_z = data_x ^ x_corr, data_z ^ z_corr
        fail = sim._correct(sx, sz, data_x, data_z)
        assert np.array_equal(data_x, want_x) and np.array_equal(data_z, want_z)
        assert np.array_equal(fail, z_miss | x_miss)
