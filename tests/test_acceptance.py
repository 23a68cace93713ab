"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  The heavy Monte-Carlo points use fixed seeds and finish
in about a minute total.
"""

import hashlib
import math
import os
from pathlib import Path

import pytest

from cutcat.block import sweep_block_mc
from cutcat.decoders import (
    LutDecoder,
    RuleDecoderD3D5,
    RuleDecoderD7,
    build_cut_cat_lut,
)
from cutcat.experiments import run_gadget_mc, sweep_gadget_mc
from cutcat.cli import main as cli_main
from cutcat.gadgets import GadgetSpec, build_cut_cat, resource_report
from cutcat.pauli import parse_css_code, steane_code
from cutcat.verify import eval_upper_bound, verify_gadget
from location_ref import CAT_INIT, enumerate_fault_locations, location_effects

SEED = 11


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def _rule_decoder(g, spec):
    return RuleDecoderD7(g) if spec.distance == 7 else RuleDecoderD3D5(g, spec.t)


class TestCriterion1ExhaustiveVerification:
    @pytest.mark.parametrize(
        "distance,gamma",
        [(3, 6), (3, 8), (3, 12), (5, 8), (5, 10), (5, 16), (7, 14), (7, 20)],
    )
    def test_t_ft_verification(self, distance, gamma):
        spec = GadgetSpec(gamma=gamma, distance=distance)
        g = build_cut_cat(spec)
        rep = verify_gadget(g, _rule_decoder(g, spec), spec.t)
        _report(
            "1 (exhaustive t-FT)",
            rep.passed,
            f"d={distance} gamma={gamma}: {rep.faults_checked} combinations "
            f"over {rep.n_classes} effect classes, all within budget",
        )


D9_SPEC = GadgetSpec(gamma=18, distance=9)
D9_LUT_SHA256 = "30cc32dc73c7d59b325f5f6509155c983ff2a5dfd0faf98befa7e60b2fac0632"


@pytest.fixture(scope="module")
def d9_lut():
    return build_cut_cat_lut(D9_SPEC)


class TestCriterion2LutSynthesis:
    def test_d9_lut_builds_and_verifies(self, d9_lut):
        spec, lut = D9_SPEC, d9_lut
        g = build_cut_cat(spec)
        rep = verify_gadget(g, LutDecoder(lut), spec.t)
        digest = hashlib.sha256(lut.to_json().encode()).hexdigest()
        _report(
            "2 (d=9 LUT)",
            lut.rounds == 2 and digest == D9_LUT_SHA256 and rep.passed,
            f"two-round table with {len(lut.table)} syndromes (JSON sha256 "
            f"{digest[:12]}) passes weight<=4 verification "
            f"({rep.faults_checked} combinations)",
        )


class TestCriterion3HookCharacterization:
    def test_single_fault_residuals(self):
        ok = True
        detail = []
        for gamma, distance in ((6, 3), (10, 5), (14, 7), (18, 9)):
            spec = GadgetSpec(gamma=gamma, distance=distance)
            g = build_cut_cat(spec)
            locs = enumerate_fault_locations(g)
            weight2 = set()
            for loc, eff in zip(locs, location_effects(g, locs)):
                w = bin(eff.data_x).count("1")
                if w > 2:
                    ok = False
                if w == 2:
                    weight2.add(loc.id)
            expected = {
                loc.id for loc in locs
                if loc.kind == CAT_INIT
                and len(g.pair_map[loc.qubit - g.gamma]) == 2
            }
            if weight2 != expected:
                ok = False
            detail.append(f"d={distance}:{len(weight2)} hooks")
        _report(
            "3 (hook errors)",
            ok,
            "single faults give weight<=2, weight 2 exactly for cat-side "
            "faults ahead of both data CNOTs [" + ", ".join(detail) + "]",
        )


@pytest.fixture(scope="module")
def slope_sweeps():
    grid = [1.5e-3, 3e-3, 5.5e-3, 1e-2]
    out = {}
    spec3 = GadgetSpec(gamma=6, distance=3)
    g3 = build_cut_cat(spec3)
    out[(3, 6)] = (
        spec3,
        sweep_gadget_mc(spec3, RuleDecoderD3D5(g3, 1), grid, min_failures=150,
                        seed=SEED, trial_cap=3 * 10**7),
    )
    spec5 = GadgetSpec(gamma=10, distance=5)
    g5 = build_cut_cat(spec5)
    out[(5, 10)] = (
        spec5,
        sweep_gadget_mc(spec5, RuleDecoderD3D5(g5, 2), grid, min_failures=100,
                        seed=SEED, trial_cap=2 * 10**8),
    )
    return out


@pytest.fixture(scope="module")
def high_p_points(d9_lut):
    pts = {}
    spec7 = GadgetSpec(gamma=14, distance=7)
    g7 = build_cut_cat(spec7)
    pts[7] = (spec7, run_gadget_mc(spec7, RuleDecoderD7(g7), 1e-2,
                                   min_failures=100, seed=SEED,
                                   trial_cap=10**7, batch_size=500_000))
    pts[9] = (D9_SPEC, run_gadget_mc(D9_SPEC, LutDecoder(d9_lut), 1e-2,
                                     min_failures=100, seed=SEED,
                                     trial_cap=10**7, batch_size=500_000))
    return pts


class TestCriterion4SlopeReproduction:
    @pytest.mark.parametrize("distance,gamma", [(3, 6), (5, 10)])
    def test_low_distance_slopes(self, slope_sweeps, distance, gamma):
        spec, sweep = slope_sweeps[(distance, gamma)]
        enough = all(p.failures >= 100 and not p.censored for p in sweep.points)
        target = spec.t + 1
        ok = enough and sweep.slope is not None and \
            abs(sweep.slope - target) <= 0.35
        _report(
            "4 (slope)",
            ok,
            f"d={distance} gamma={gamma}: fitted slope "
            f"{sweep.slope:.3f}+-{sweep.slope_stderr:.3f} vs target {target} "
            f"(>=100 failures per point: {enough})",
        )

    @pytest.mark.parametrize("distance", [7, 9])
    def test_high_distance_substitute_points(self, high_p_points, distance):
        spec, stats = high_p_points[distance]
        bound = eval_upper_bound(spec.gamma, spec.t, stats.p_ft)
        ok = (not stats.censored) and \
            stats.estimate <= bound + 3 * stats.stderr
        _report(
            "4 (high-p substitute)",
            ok,
            f"d={distance}: estimate {stats.estimate:.3e} "
            f"({stats.failures}/{stats.trials}) vs bound {bound:.3e} "
            f"at p_ft=1e-2",
        )


class TestCriterion5AnalyticBound:
    def test_empirical_below_bound(self, slope_sweeps, high_p_points):
        ok = True
        checked = 0
        for (distance, gamma), (spec, sweep) in slope_sweeps.items():
            for stats, bound in zip(sweep.points, sweep.bounds):
                checked += 1
                if stats.estimate > bound + 3 * stats.stderr:
                    ok = False
        for distance, (spec, stats) in high_p_points.items():
            checked += 1
            bound = eval_upper_bound(spec.gamma, spec.t, stats.p_ft)
            if stats.estimate > bound + 3 * stats.stderr:
                ok = False
        _report(
            "5 (bound dominates)",
            ok,
            f"all {checked} swept points within 3 standard errors of the "
            "analytic bound",
        )

    def test_bound_against_arbitrary_precision(self):
        import mpmath

        mpmath.mp.dps = 50
        import random

        rng = random.Random(2024)
        worst = 0.0
        for _ in range(10):
            gamma = rng.choice([6, 8, 10, 14, 18, 20])
            t = rng.randint(1, 4)
            p = 10 ** rng.uniform(-4, math.log10(0.2))
            q = mpmath.mpf(2) * mpmath.mpf(p) / 3
            n = 4 * gamma
            cdf = mpmath.fsum(
                mpmath.binomial(n, s) * q**s * (1 - q) ** (n - s)
                for s in range(t + 1)
            )
            reference = float(1 - cdf)
            got = eval_upper_bound(gamma, t, p)
            rel = abs(got - reference) / reference
            worst = max(worst, rel)
        _report(
            "5 (12-digit check)",
            worst < 1e-12,
            f"10 random inputs, worst relative deviation {worst:.2e}",
        )


class TestCriterion6Resources:
    def test_cut_cat_figures(self):
        r7 = resource_report(GadgetSpec(gamma=14, distance=7))
        r9 = resource_report(GadgetSpec(gamma=18, distance=9))
        ok = (
            r7.two_qubit_gates == (40, 48)
            and r7.depth == (9, 13)
            and r9.two_qubit_gates == (70, 70)
            and r9.depth == (20, 20)
            and r7.published.get("simultaneous_qubits") == 10
            and r9.published.get("simultaneous_qubits") == 13
        )
        _report(
            "6 (resources)",
            ok,
            f"d=7 gamma=14 gates {r7.two_qubit_gates} depth {r7.depth} "
            f"(model qubits {r7.simultaneous_qubits_fast_reset}, reported 10); "
            f"d=9 gamma=18 gates {r9.two_qubit_gates} depth {r9.depth} "
            f"(model qubits {r9.simultaneous_qubits_fast_reset}, reported 13)",
        )


class TestCriterion7BlockLevel:
    def test_steane_slope(self):
        sweep = sweep_block_mc(
            steane_code(), [3e-3, 6.5e-3, 1.4e-2, 3e-2], ratio=20,
            min_failures=100, seed=5, trial_cap=5 * 10**6,
        )
        enough = all(p.failures >= 100 and not p.censored for p in sweep.points)
        ok = enough and sweep.slope is not None and abs(sweep.slope - 2) <= 0.4
        _report(
            "7 (Steane block)",
            ok,
            f"repeat-until-2-identical, ratio 20: slope "
            f"{sweep.slope:.3f}+-{sweep.slope_stderr:.3f} vs 2 "
            f"(>=100 failures per point: {enough})",
        )

    def test_external_49_1_5_if_supplied(self):
        path = os.environ.get("CUTCAT_CODE_49_1_5",
                              str(Path(__file__).parent.parent / "codes" / "49_1_5.txt"))
        if not Path(path).exists():
            print("ACCEPTANCE 7 ([[49,1,5]]): SKIPPED - external check matrix "
                  f"not supplied at {path}")
            pytest.skip("external [[49,1,5]] check matrix not supplied")
        code = parse_css_code(Path(path).read_text())
        sweep = sweep_block_mc(code, [6e-3, 1.2e-2, 2.4e-2], ratio=20,
                               min_failures=100, seed=5, trial_cap=10**7)
        ok = sweep.slope is not None and abs(sweep.slope - 3) <= 0.4
        _report("7 ([[49,1,5]])", ok,
                f"slope {sweep.slope:.3f} vs 3")


class TestCriterion8Determinism:
    def test_manifest_replay_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["mc-gadget", "--gamma", "10", "--distance", "5",
                "--p", "0.005", "0.01", "--min-failures", "30",
                "--seed", "21", "--trial-cap", "2000000",
                "--batch-size", "200000"]
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(["mc-gadget", "--from-manifest",
                         str(a.with_suffix(".manifest.json")),
                         "--out", str(b)]) == 0
        ok = a.read_bytes() == b.read_bytes()
        _report(
            "8 (determinism)",
            ok,
            "mc-gadget replayed from its manifest reproduces identical CSV bytes",
        )
