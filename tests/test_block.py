import pytest

from cutcat.block import BlockSimulator, run_block_mc
from cutcat.pauli import CssCode, parse_css_code


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
