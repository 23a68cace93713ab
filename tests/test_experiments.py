import copy

import numpy as np
import pytest

from cutcat.block import run_block_mc
from cutcat.decoders import RuleDecoderD3D5, RuleDecoderD7
from cutcat.experiments import (
    GadgetMonteCarlo,
    _follow_split,
    TrialStats,
    fit_slope,
    load_manifest,
    make_manifest,
    run_batches_until,
    run_gadget_mc,
    sweep_mc,
    sweep_to_csv,
    wilson_interval,
)
from cutcat.gadgets import GadgetSpec, build_cut_cat
from cutcat.verify import DENSE_BITS, MAX_REREADS, coset_weights, follow_rereads
from decoder_ref import CatSyndrome, RefD7, TreeWalk, cats_to_mask
from sample_ref import sample_ref, scatter


def repeat_until_stable(
    extract, t: int, max_rounds: int,
) -> tuple[object, bool, int]:
    """Repeat extraction until t+1 identical consecutive syndromes.

    Returns (syndrome, stable, rounds_used); hitting the round cap
    returns the last syndrome flagged unstable rather than failing.
    """
    if max_rounds < t + 1:
        raise ValueError("max_rounds below the acceptance run length")
    last: object = None
    run = 0
    for i in range(max_rounds):
        syn = extract(i)
        run = run + 1 if syn == last else 1
        last = syn
        if run >= t + 1:
            return last, True, i + 1
    return last, False, max_rounds


class TestWilson:
    def test_zero_counts(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0.0 < hi < 0.05

    def test_contains_estimate(self):
        lo, hi = wilson_interval(37, 1000)
        assert lo < 0.037 < hi

    def test_empty_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestFitSlope:
    def test_exact_quadratic(self):
        pts = [(p, 3.0 * p**2) for p in (1e-3, 2e-3, 5e-3, 1e-2)]
        slope, err = fit_slope(pts)
        assert slope == pytest.approx(2.0, abs=1e-9)
        assert err == pytest.approx(0.0, abs=1e-9)

    def test_exact_cubic(self):
        pts = [(p, 0.5 * p**3) for p in (1e-3, 3e-3, 1e-2)]
        slope, _ = fit_slope(pts)
        assert slope == pytest.approx(3.0, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_slope([(1e-3, 1e-6)])

    def test_zero_estimate_rejected(self):
        with pytest.raises(ValueError):
            fit_slope([(1e-3, 0.0), (2e-3, 1e-6), (4e-3, 4e-6)])

    def test_one_rate_rejected(self):
        # no spread in log(p) to fit against: raise, never divide by zero
        with pytest.raises(ValueError, match="two distinct rates"):
            fit_slope([(1e-2, 1e-3)] * 3)


class _RateEngine:
    """An engine whose batch at rate p has size·p failures, run at
    extraction rate p/ratio under the bound 2·p_ft."""

    batch_size = 1_000

    def __init__(self, ratio=2.0):
        self.ratio = ratio

    def extraction_rate(self, p):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p={p!r} is not a probability")
        return p / self.ratio

    def bound(self, p_ft):
        return 2 * p_ft

    def run_batch(self, p, seed, batch_index, size):
        return round(size * p)


class TestSweepMc:
    def test_points_bounds_and_slope(self):
        sweep = sweep_mc(_RateEngine(), [4e-2, 1e-2, 2e-2], min_failures=10)
        assert [(s.p, s.p_ft, s.trials) for s in sweep.points] == [
            (1e-2, 5e-3, 1_000), (2e-2, 1e-2, 1_000), (4e-2, 2e-2, 1_000)]
        assert sweep.bounds == (1e-2, 2e-2, 4e-2)
        assert sweep.slope == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("ratio, p_values", [
        (2.0, [2e-2] * 3), (2.0, [1e-2, 2e-2]), (2.0, [0.0, 1e-2, 2e-2]),
        (2.0, [1e-3, 1e-2, 2e-2]), (float("inf"), [1e-2, 2e-2, 4e-2])],
        ids=["one-rate", "two-points", "no-failures", "censored", "noiseless-extraction"])
    def test_too_few_usable_points_leave_no_slope(self, ratio, p_values):
        # p=1e-3 finds 1 failure per batch: censored at the 1 000-trial cap
        sweep = sweep_mc(_RateEngine(ratio), p_values, min_failures=10, trial_cap=1_000)
        assert len(sweep.points) == len(p_values)
        assert sweep.slope is None and sweep.slope_stderr is None


class TestRepeatUntilStable:
    def test_noiseless_accepts_after_t_plus_one(self):
        calls = []

        def extract(i):
            calls.append(i)
            return 0b101

        syn, stable, rounds = repeat_until_stable(extract, t=2, max_rounds=10)
        assert (syn, stable, rounds) == (0b101, True, 3)
        assert calls == [0, 1, 2]

    def test_early_flip_then_clean(self):
        seq = [0b1, 0b0, 0b0]

        def extract(i):
            return seq[i]

        syn, stable, rounds = repeat_until_stable(extract, t=1, max_rounds=10)
        assert (syn, stable) == (0, True)
        assert rounds == 3

    def test_alternating_never_stabilizes(self):
        syn, stable, rounds = repeat_until_stable(lambda i: i % 2, t=1, max_rounds=6)
        assert not stable and rounds == 6

    def test_round_budget_validated(self):
        with pytest.raises(ValueError):
            repeat_until_stable(lambda i: 0, t=3, max_rounds=2)


@pytest.fixture(scope="module")
def d3_setup():
    spec = GadgetSpec(gamma=6, distance=3)
    g = build_cut_cat(spec)
    return spec, RuleDecoderD3D5(g, 1)


class TestGadgetMc:
    def test_zero_rate_censored(self, d3_setup):
        spec, dec = d3_setup
        stats = run_gadget_mc(spec, dec, 0.0, min_failures=10, seed=1,
                              trial_cap=10_000, batch_size=5_000)
        assert stats.failures == 0 and stats.censored

    def test_reproducible_bit_for_bit(self, d3_setup):
        spec, dec = d3_setup
        kw = dict(min_failures=20, seed=9, trial_cap=10**6, batch_size=50_000)
        a = run_gadget_mc(spec, dec, 5e-3, **kw)
        b = run_gadget_mc(spec, dec, 5e-3, **kw)
        assert a == b

    def test_sweep_csv_stable(self, d3_setup):
        spec, dec = d3_setup
        kw = dict(min_failures=20, seed=9, trial_cap=10**6, batch_size=50_000)
        s1 = sweep_mc(GadgetMonteCarlo(build_cut_cat(spec), dec), [3e-3, 1e-2], **kw)
        s2 = sweep_mc(GadgetMonteCarlo(build_cut_cat(spec), dec), [3e-3, 1e-2], **kw)
        assert sweep_to_csv(s1) == sweep_to_csv(s2)

    def test_csv_columns(self, d3_setup):
        spec, dec = d3_setup
        sweep = sweep_mc(GadgetMonteCarlo(build_cut_cat(spec), dec), [1e-2], min_failures=5,
                         seed=2, trial_cap=10**5, batch_size=50_000)
        header = sweep_to_csv(sweep).splitlines()[0]
        assert header == "p,p_ft,trials,failures,estimate,ci_lo,ci_hi,bound"

    def test_min_failures_validated(self, d3_setup):
        spec, dec = d3_setup
        with pytest.raises(ValueError):
            run_gadget_mc(spec, dec, 1e-3, min_failures=0)

    @pytest.mark.parametrize("batch_size", [0, -5])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_size_below_one_rejected(self, batch_size, jobs):
        # a batch of no trials never reaches the cap: raise, never loop
        def batch_fn(batch_index, size):
            raise AssertionError("a batch ran")

        with pytest.raises(ValueError, match=f"batch_size={batch_size}"):
            run_batches_until(batch_fn, min_failures=1, trial_cap=10, batch_size=batch_size,
                              jobs=jobs)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        # a non-positive worker count fails before any batch, never runs serially
        def batch_fn(batch_index, size):
            raise AssertionError("a batch ran")

        with pytest.raises(ValueError, match=f"jobs={jobs} must be positive"):
            run_batches_until(batch_fn, min_failures=1, trial_cap=10, batch_size=10, jobs=jobs)

    @pytest.mark.parametrize("trial_cap", [0, -5])
    def test_trial_cap_below_one_rejected(self, trial_cap):
        # a cap of no trials fails before any batch, never reports 0 trials
        def batch_fn(batch_index, size):
            raise AssertionError("a batch ran")

        with pytest.raises(ValueError, match=f"trial_cap={trial_cap} must be positive"):
            run_batches_until(batch_fn, min_failures=1, trial_cap=trial_cap, batch_size=10)

    def test_fixed_trial_runs_do_not_depend_on_jobs(self, d3_setup, steane):
        # min_failures above the cap: every batch runs, in a pool for jobs=2
        spec, dec = d3_setup
        gadget = [run_gadget_mc(spec, dec, 2e-2, min_failures=10**6, seed=3,
                                trial_cap=40_000, batch_size=10_000, jobs=jobs)
                  for jobs in (1, 2)]
        block = [run_block_mc(steane, 2e-2, ratio=20, min_failures=10**6, seed=3,
                              trial_cap=4_000, batch_size=1_000, jobs=jobs)
                 for jobs in (1, 2)]
        for one, two in (gadget, block):
            assert one == two
            assert one.failures > 0 and one.censored

    def test_pool_workers_receive_batch_fn_once(self, tmp_path):
        batch_fn = _PickleCountedBatch(tmp_path / "pickles")
        trials, failures = run_batches_until(batch_fn, min_failures=10**6, trial_cap=12_000,
                                             batch_size=1_000, jobs=2)
        assert (trials, failures) == (12_000, sum(range(12)))
        assert batch_fn.pickles() <= 2


class _PickleCountedBatch:
    """A batch callable that logs each pickling of itself to a file and
    returns its batch index as the failure count."""

    def __init__(self, log):
        self.log = log

    def __reduce__(self):
        with open(self.log, "a") as f:
            f.write("x")
        return type(self), (self.log,)

    def pickles(self):
        return len(self.log.read_text()) if self.log.exists() else 0

    def __call__(self, batch_index, size):
        return batch_index


class TestManifest:
    def test_round_trip(self):
        text = make_manifest("mc-gadget", {"gamma": 6, "seed": 3})
        command, config = load_manifest(text)
        assert command == "mc-gadget" and config["gamma"] == 6

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            load_manifest('{"format": "nope"}')

    def test_writes_v5(self):
        assert '"format": "cutcat-manifest-v5"' in make_manifest("mc-gadget", {})

    def _rejected_with_rerun_hint(self, old):
        text = make_manifest("mc-gadget", {"gamma": 6}).replace(
            "cutcat-manifest-v5", old)
        with pytest.raises(ValueError, match="re-run without --from-manifest") as exc:
            load_manifest(text)
        assert "\n" not in str(exc.value) and old in str(exc.value)

    def test_v1_rejected_with_rerun_hint(self):
        self._rejected_with_rerun_hint("cutcat-manifest-v1")

    def test_v2_rejected_with_rerun_hint(self):
        self._rejected_with_rerun_hint("cutcat-manifest-v2")

    def test_v3_rejected_with_rerun_hint(self):
        self._rejected_with_rerun_hint("cutcat-manifest-v3")

    def test_v4_rejected_with_rerun_hint(self):
        # v4 sampled each generator's gadget of a block round on its own
        self._rejected_with_rerun_hint("cutcat-manifest-v4")


class TestAdaptiveBatch:
    def test_matches_scalar_loop_over_same_draws(self):
        """The vectorized re-read steps against the scalar rule's
        ``decode`` per trial, with a measure callback that applies the
        same draws one re-read at a time."""
        g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
        m, gamma, t = g.cat_count, g.gamma, 3
        dec = RefD7(g)
        engine = GadgetMonteCarlo(g, RuleDecoderD7(g))
        seed, batch, size, p = 5, 2, 20_000, 5e-2

        rng = np.random.default_rng([seed, 1, batch])
        data, slots, persist = scatter(engine.faults, rng, size, p)
        cand = np.nonzero(data | slots)[0]
        rereads = [scatter(engine.reread, rng, len(cand), p)
                   for _ in range(MAX_REREADS)]
        failures = 0
        for j, trial in enumerate(cand.tolist()):
            frame = int(persist[trial])
            step = 0

            def measure(indices):
                nonlocal frame, step
                out = {}
                for s in indices:
                    anc, cats = (int(col[j]) for col in rereads[step])
                    out[s] = ((frame >> s) ^ (frame >> ((s + 1) % m)) ^ anc) & 1
                    frame ^= ((cats << s) | (cats >> (m - s))) & ((1 << m) - 1)
                    step += 1
                return out

            corr = dec.decode(CatSyndrome(m, (int(slots[trial]),)), measure)
            w = bin(int(data[trial]) ^ corr).count("1")
            failures += min(w, gamma - w) > t
        assert failures > 0
        assert engine.run_batch(p, seed, batch, size) == failures



def _batch_ref(engine: GadgetMonteCarlo, p: float, seed: int, batch_index: int,
               size: int, t: int) -> int:
    """``GadgetMonteCarlo.run_batch`` as it read over the dense sampler:
    full-batch accumulators of ``sample_ref``, then a mask of the trials
    with a residual or a syndrome."""
    rng = np.random.default_rng([seed, 1, batch_index])
    accs = sample_ref(engine.faults, rng, size, p)
    candidates = np.flatnonzero((accs[0] != 0) | (accs[1] != 0))
    accs = [acc[candidates] for acc in accs]
    data, keys, g = accs[0], accs[1], engine.g
    rows = engine._answers.index(keys)
    noise = (sample_ref(engine.reread, rng, len(keys), p) for _ in range(engine.steps))
    frame = accs[2] if engine.steps else np.zeros(len(keys), np.uint64)
    corr, _ = follow_rereads(*engine._answers.values, rows, frame, noise, g.cat_count)
    return int(np.count_nonzero(coset_weights(data ^ corr, g.gamma) > t))


class TestBatchMatchesDenseReference:
    """The failure counts of the benchmark's gadget points, batch for
    batch, against the dense-sampler batch body: the hit-sparse sampler
    must not move them."""

    @pytest.mark.parametrize("gamma, distance, p, size", [
        (10, 5, 1e-3, 1_000_000), (10, 5, 1e-2, 1_000_000), (14, 7, 1e-2, 500_000)])
    def test_failure_counts(self, gamma, distance, p, size):
        spec = GadgetSpec(gamma=gamma, distance=distance)
        g = build_cut_cat(spec)
        decoder = RuleDecoderD7(g) if distance == 7 else RuleDecoderD3D5(g, spec.t)
        engine, ref = GadgetMonteCarlo(g, decoder), GadgetMonteCarlo(g, decoder)
        assert engine.steps == (MAX_REREADS if distance == 7 else 0)
        counts = [(engine.run_batch(p, seed, 0, size),
                   _batch_ref(ref, p, seed, 0, size, spec.t)) for seed in (1, 2, 4242)]
        assert [got for got, _ in counts] == [want for _, want in counts]


class _ReadWalk(TreeWalk):
    """An adaptive decoder known only by ``decode``, compiled by the tree
    walk of ``decoder_ref.reread_table``: every key of two or more triggers
    re-reads, 1 to 4 stabilizers along the ring, each step chosen by the
    outcome before it."""

    def __init__(self, g):
        self.g = g

    def decode(self, syn, measure):
        m, key = syn.cat_count, syn.rounds[0]
        if key.bit_count() < 2:
            return 0
        s, cats = (key & -key).bit_length() - 1, set()
        for _ in range(1 + key.bit_count() % MAX_REREADS):
            if measure([s])[s]:
                cats ^= {(s + 1) % m}
                s += 1
            else:
                s += 2
        return cats_to_mask(self.g, cats)


class TestFollowSplit:
    """``_follow_split`` against one all-rows ``follow_rereads`` call on
    the same sampled runs, drawn as ``run_batch`` draws them: the same
    correction for every decoded trial."""

    @staticmethod
    def _check(engine, p, seed, size):
        g, m = engine.g, engine.g.cat_count
        rng = np.random.default_rng([seed, 1, 0])
        _, words = engine.faults.sample_words(rng, size, p)
        data, keys, persist = engine.faults.unpack(
            [w[engine.faults.any_nonzero(words, 2)] for w in words])
        rows = engine._answers.index(keys)
        # the all-rows call takes the same draws scattered over the runs
        twin = copy.deepcopy(rng)
        hits = [(trials, engine.reread.unpack(words)) for trials, words in
                (engine.reread.sample_words(rng, len(keys), p) for _ in range(MAX_REREADS))]
        noise = [scatter(engine.reread, twin, len(keys), p) for _ in range(MAX_REREADS)]
        reads, corrections = engine._answers.values
        want, _ = follow_rereads(reads, corrections, rows, persist.copy(), noise, m)
        got = _follow_split(reads, corrections, rows, persist.copy(), hits, m,
                            engine._noiseless)
        assert np.array_equal(got, want)
        # every branch of the split is taken: runs that re-read nothing,
        # runs that re-read with and without noise, noise that changes a
        # correction, and a hit of a re-reading run that XORs to a zero row
        live = reads[rows, 0, 0] >= 0
        met = np.any([col != 0 for step in noise for col in step], axis=0)
        assert (~live).any() and (live & met).any() and (live & ~met).any()
        for (trials, (anc, cats)), (dense_anc, dense_cats) in zip(hits, noise):
            assert np.array_equal(dense_anc[trials], anc)
            assert np.array_equal(dense_cats[trials], cats)
            assert (live[trials] & (anc == 0) & (cats == 0)).any()
        zero = np.zeros(len(keys), np.uint64)
        quiet, _ = follow_rereads(reads, corrections, rows, persist.copy(),
                                  [(zero, zero)] * MAX_REREADS, m)
        assert (quiet != want).any()

    @pytest.mark.parametrize("seed", [1, 2, 4242])
    @pytest.mark.parametrize("p", [1e-2, 5e-2])
    @pytest.mark.parametrize("gamma", [14, 20])
    def test_rule_d7(self, gamma, p, seed):
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=7))
        self._check(GadgetMonteCarlo(g, RuleDecoderD7(g)), p, seed, 50_000)

    @pytest.mark.parametrize("seed", [1, 4242])
    def test_tree_walk_decoder(self, seed):
        g = build_cut_cat(GadgetSpec(gamma=14, distance=7))
        engine = GadgetMonteCarlo(g, _ReadWalk(g))
        self._check(engine, 2e-2, seed, 20_000)
        reads, _ = engine._answers.values
        assert np.count_nonzero(reads[:, 0, 0] >= 0) > len(reads) // 2

    def test_tables_without_reads(self):
        """Tables with no read column need no frame and no noise."""
        corrections = np.arange(5, dtype=np.uint64)[:, None]
        rows = np.array([3, 0, 3, 4])
        got = _follow_split(np.zeros((5, 1, 0), np.int8), corrections, rows, None, [], 7,
                            None)
        assert got.tolist() == [3, 0, 3, 4]

    def test_wide_ring(self):
        # at γ=64 (m=32) a pair packs a 32-bit frame under its row
        g = build_cut_cat(GadgetSpec(gamma=64, distance=7))
        self._check(GadgetMonteCarlo(g, RuleDecoderD7(g)), 1e-2, 2, 20_000)


class TestNoiselessCache:
    """The engine's cache of noiseless runs lives across batches and
    leaks nothing into their counts."""

    @pytest.mark.parametrize("gamma", [14, 20])
    def test_warm_engine_counts_as_fresh(self, gamma):
        g = build_cut_cat(GadgetSpec(gamma=gamma, distance=7))
        p, seed, size = 1e-2, 11, 50_000
        warm, fresh = (GadgetMonteCarlo(g, RuleDecoderD7(g)) for _ in range(2))
        warm.run_batch(p, seed, 0, size)
        seen, follow, calls = warm._noiseless.keys.copy(), warm._noiseless.compute, []
        warm._noiseless.compute = lambda pairs: calls.append(pairs.copy()) or follow(pairs)
        assert warm.run_batch(p, seed, 1, size) == fresh.run_batch(p, seed, 1, size)
        # no pair of batch 0 is followed again, and batch 1 meets some of them
        followed = np.concatenate(calls)
        assert len(seen) and not np.isin(followed, seen).any()
        assert len(followed) < len(fresh._noiseless.keys)

    def test_wide_pairs_kept_one_batch(self):
        """Pairs wider than a dense index (n_slots + m = 64 at gamma=64) are
        followed per batch: the engine keeps none of them."""
        g = build_cut_cat(GadgetSpec(gamma=64, distance=7))
        warm, fresh = (GadgetMonteCarlo(g, RuleDecoderD7(g)) for _ in range(2))
        assert warm._noiseless.bits > DENSE_BITS
        warm.run_batch(1e-2, 11, 0, 20_000)
        assert warm.run_batch(1e-2, 11, 1, 20_000) == fresh.run_batch(1e-2, 11, 1, 20_000)
        assert not len(warm._noiseless.keys)


class TestTrialStats:
    def test_estimate_and_interval(self):
        s = TrialStats(p=1e-3, p_ft=1e-3, trials=1000, failures=10, seed=0,
                       censored=False)
        assert s.estimate == 0.01
        lo, hi = s.interval
        assert lo < 0.01 < hi
        assert s.stderr > 0
