import json

import pytest

from cutcat.block import BlockSimulator
from cutcat.cli import main
from cutcat.experiments import GadgetMonteCarlo
from cutcat.pauli import STEANE_TEXT


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys):
        assert main(["verify", "--gamma", "10", "--distance", "5"]) == 0
        assert capsys.readouterr().out == (
            "PASS: distance 5, gamma 10: 210 fault combinations over 20 effect "
            "classes (by weight 1: 20, 2: 190)\n")

    def test_jobs_option_gone(self, capsys):
        # the verifier runs in one process; argparse rejects the option
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--gamma", "10", "--distance", "5", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_bad_arguments_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--gamma", "10"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, distance", [
        (["verify"], "3"), (["lut", "build"], "3"), (["mc-gadget", "--p", "1e-2"], "3"),
        (["verify"], "7"), (["lut", "build"], "7"), (["mc-gadget", "--p", "1e-2"], "7"),
    ], ids=["verify", "lut-build", "mc-gadget", "verify-d7", "lut-build-d7", "mc-gadget-d7"])
    def test_gamma_over_64_bits_exit_two(self, command, distance, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CUTCAT_OUTDIR", str(tmp_path))
        assert main(command + ["--gamma", "70", "--distance", distance]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: gamma=70 exceeds the 64-bit limit of packed masks"]
        assert list(tmp_path.iterdir()) == []


class TestUsageErrors:
    """Each usage error exits 2 with one ``error:`` line and writes nothing,
    unlike a failed certificate (exit 1)."""

    @pytest.mark.parametrize("args, message", [
        (["verify", "--gamma", "18", "--distance", "9"],
         "distance 9 gadgets need --decoder lut"),
        (["mc-gadget", "--gamma", "6", "--distance", "3"],
         "give either --p values or --p-min/--p-max"),
        (["mc-gadget", "--gamma", "6", "--distance", "3", "--p-min", "1e-3",
          "--p-max", "1e-2", "--points", "1"], "--points must be at least 2"),
        (["mc-gadget", "--gamma", "6", "--distance", "3", "--p-min", "0",
          "--p-max", "1e-2"], "--p-min=0.0 must be positive"),
        (["mc-gadget", "--gamma", "6", "--distance", "3", "--p-min", "1e-3",
          "--p-max", "-1"], "--p-max=-1.0 must be positive"),
        (["mc-gadget", "--gamma", "6", "--distance", "3", "--p-min", "1e-3",
          "--p-max", "inf"], "--p-max=inf is not a probability"),
        (["mc-gadget", "--gamma", "6", "--distance", "3", "--p-min", "nan",
          "--p-max", "1e-2"], "--p-min=nan must be positive"),
        (["mc-gadget", "--gamma", "6", "--distance", "3", "--p-min", "1e-3",
          "--p-max", "1.5"], "--p-max=1.5 is not a probability"),
        (["mc-gadget", "--p", "1e-2"], "--gamma and --distance are required without a manifest"),
        (["mc-block", "--p", "1e-2"], "--code is required without a manifest"),
        (["mc-block", "--from-manifest"], "manifest is not an mc-block run"),
        (["mc-gadget", "--gamma", "6", "--distance", "3", "--p", "1e-2", "--trial-cap", "0"],
         "trial_cap=0 must be positive"),
        (["mc-gadget", "--gamma", "6", "--distance", "3", "--p", "1e-2", "--trial-cap", "-5"],
         "trial_cap=-5 must be positive"),
    ], ids=["d9-rules", "no-p", "one-point", "p-min-zero", "p-max-negative", "p-max-inf",
            "p-min-nan", "p-max-above-one", "no-gamma",
            "no-code", "other-manifest", "trial-cap-zero", "trial-cap-negative"])
    def test_exit_two(self, tmp_path, capsys, args, message):
        if args[-1] == "--from-manifest":
            manifest = tmp_path / "gadget.manifest.json"
            manifest.write_text(json.dumps({"format": "cutcat-manifest-v5",
                                            "command": "mc-gadget", "config": {}}))
            args = args + [str(manifest)]
        out = tmp_path / "a.csv"
        assert main(args + ([] if args[0] == "verify" else ["--out", str(out)])) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        assert not out.exists()


class TestBoundCommand:
    def test_zero_rate_prints_zero(self, capsys):
        assert main(["bound", "--gamma", "10", "--t", "2", "--p", "0"]) == 0
        assert capsys.readouterr().out.strip() == "0.0"


class TestResourcesCommand:
    def test_d9_figures(self, capsys):
        assert main(["resources", "--scheme", "cutcat", "--gamma", "18",
                     "--distance", "9"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["two_qubit_gates"] == [70, 70]
        assert doc["depth"] == [20, 20]
        assert doc["published"]["simultaneous_qubits"] == 13

    def test_d7_figures(self, capsys):
        assert main(["resources", "--scheme", "cutcat", "--gamma", "14",
                     "--distance", "7"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["two_qubit_gates"] == [40, 48]
        assert doc["depth"] == [9, 13]

    def test_negative_prep_cnots_exit_two(self, capsys):
        assert main(["resources", "--scheme", "cutcat", "--gamma", "10",
                     "--distance", "5", "--prep-cnots", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: prep_cnots=-3 must be at least 0\n"


class TestLutCommand:
    def test_build_writes_file(self, tmp_path, capsys):
        out = tmp_path / "lut.json"
        assert main(["lut", "build", "--gamma", "6", "--distance", "3",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["format"] == "cutcat-lut-v1"
        assert doc["gamma"] == 6


class TestMonteCarloCommands:
    def test_mc_gadget_replay_identical(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["mc-gadget", "--gamma", "6", "--distance", "3",
                "--p", "0.005", "0.01", "--min-failures", "20",
                "--seed", "3", "--trial-cap", "400000",
                "--batch-size", "50000"]
        assert main(args + ["--out", str(a)]) == 0
        manifest = a.with_suffix(".manifest.json")
        assert manifest.exists()
        assert main(["mc-gadget", "--from-manifest", str(manifest),
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @staticmethod
    def _old_manifest_rejected(tmp_path, capsys, fmt):
        manifest = tmp_path / "old.manifest.json"
        manifest.write_text(json.dumps({
            "tool": "cutcat", "format": fmt,
            "command": "mc-gadget", "config": {}}))
        out = tmp_path / "a.csv"
        assert main(["mc-gadget", "--from-manifest", str(manifest),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "re-run without --from-manifest" in err and err.count("\n") == 1
        assert not out.exists()

    def test_v1_manifest_rejected_exit_two(self, tmp_path, capsys):
        self._old_manifest_rejected(tmp_path, capsys, "cutcat-manifest-v1")

    def test_v2_manifest_rejected_exit_two(self, tmp_path, capsys):
        self._old_manifest_rejected(tmp_path, capsys, "cutcat-manifest-v2")

    def test_v3_manifest_rejected_exit_two(self, tmp_path, capsys):
        self._old_manifest_rejected(tmp_path, capsys, "cutcat-manifest-v3")

    def test_v4_manifest_rejected_exit_two(self, tmp_path, capsys):
        self._old_manifest_rejected(tmp_path, capsys, "cutcat-manifest-v4")

    # configs of the types the CLI writes, one entry of each case replaced
    GADGET = {"gamma": 6, "distance": 3, "decoder": "rules", "p_values": [0.01],
              "min_failures": 5, "seed": 1, "trial_cap": 1000, "batch_size": 1000, "jobs": 1}
    BLOCK = {"code_file": "steane.txt", "ratio": 20.0, "p_values": [0.01], "min_failures": 5,
             "seed": 1, "trial_cap": 1000, "batch_size": 1000, "max_rounds": None, "jobs": 1}
    BAD_TYPES = [
        ("mc-gadget", GADGET, "gamma", "ten", 'gamma="ten" is not an integer'),
        ("mc-gadget", GADGET, "p_values", 0.01, "p_values=0.01 is not a list of numbers"),
        ("mc-gadget", GADGET, "seed", 1.5, "seed=1.5 is not an integer"),
        ("mc-gadget", GADGET, "min_failures", True, "min_failures=true is not an integer"),
        ("mc-gadget", GADGET, "jobs", "two", 'jobs="two" is not an integer'),
        ("mc-gadget", GADGET, "batch_size", None, "batch_size=null is not an integer"),
        ("mc-gadget", GADGET, "decoder", "LUT", 'decoder="LUT" is not "rules" or "lut"'),
        ("mc-gadget", GADGET, "decoder", "foo", 'decoder="foo" is not "rules" or "lut"'),
        ("mc-block", BLOCK, "ratio", "x", 'ratio="x" is not a number'),
        ("mc-block", BLOCK, "max_rounds", "3", 'max_rounds="3" is not an integer or null'),
        ("mc-block", BLOCK, "code_file", 5, "code_file=5 is not a string"),
    ]

    @pytest.mark.parametrize("command, doc, message", [
        ("mc-gadget", [1, 2], "manifest is not a JSON object"),
        ("mc-gadget", {"command": "mc-gadget"},
         "manifest lacks a command string or a config object"),
        ("mc-gadget", {"command": "mc-gadget", "config": {"gamma": 6, "distance": 3}},
         "manifest config lacks decoder, p_values, min_failures, seed, trial_cap, batch_size"),
        ("mc-block", {"command": "mc-block", "config": {"ratio": 20, "max_rounds": None}},
         "manifest config lacks code_file, p_values, min_failures, seed, trial_cap, batch_size"),
    ] + [(command, {"command": command, "config": config | {key: value}},
          f"manifest config {message}") for command, config, key, value, message in BAD_TYPES],
        ids=["not-an-object", "no-config", "gadget-config", "block-config"] + [
            f"{key}-{value}" for _, _, key, value, _ in BAD_TYPES])
    def test_malformed_manifest_exit_two(self, tmp_path, capsys, command, doc, message):
        manifest, out = tmp_path / "bad.manifest.json", tmp_path / "a.csv"
        manifest.write_text(json.dumps(
            {"format": "cutcat-manifest-v5", **doc} if isinstance(doc, dict) else doc))
        assert main([command, "--from-manifest", str(manifest), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_mc_block_replay_identical(self, tmp_path, capsys):
        code_file = tmp_path / "steane.txt"
        code_file.write_text(STEANE_TEXT)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["mc-block", "--code", str(code_file), "--ratio", "20",
                "--p", "0.02", "--min-failures", "10", "--seed", "3",
                "--trial-cap", "100000", "--batch-size", "20000"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(["mc-block", "--from-manifest",
                     str(a.with_suffix(".manifest.json")), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_code_file_exit_one(self, tmp_path, capsys):
        assert main(["mc-block", "--code", str(tmp_path / "nope.txt"),
                     "--p", "0.01", "--min-failures", "5",
                     "--trial-cap", "1000"]) == 1

    @pytest.mark.parametrize("p", ["2", "-0.5"])
    def test_mc_block_rate_out_of_range_exit_two(self, tmp_path, capsys, p):
        code_file = tmp_path / "steane.txt"
        code_file.write_text(STEANE_TEXT)
        out = tmp_path / "a.csv"
        assert main(["mc-block", "--code", str(code_file), "--p", p,
                     "--min-failures", "5", "--trial-cap", "100",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: p=")
        assert not out.exists()

    def test_mc_block_extraction_rate_above_one_exit_two(self, tmp_path, capsys):
        code_file = tmp_path / "steane.txt"
        code_file.write_text(STEANE_TEXT)
        out = tmp_path / "a.csv"
        assert main(["mc-block", "--code", str(code_file), "--ratio", "0.5",
                     "--p", "0.8", "--min-failures", "5", "--trial-cap", "100",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: extraction rate")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["cli", "manifest"])
    def test_mc_block_nan_ratio_exit_two(self, tmp_path, capsys, source):
        code_file = tmp_path / "steane.txt"
        code_file.write_text(STEANE_TEXT)
        if source == "cli":
            args = ["--code", str(code_file), "--ratio", "nan", "--p", "0.01",
                    "--min-failures", "5", "--trial-cap", "100"]
        else:
            manifest = tmp_path / "nan.manifest.json"
            manifest.write_text(json.dumps({
                "format": "cutcat-manifest-v5", "command": "mc-block",
                "config": self.BLOCK | {"code_file": str(code_file), "ratio": float("nan")}}))
            args = ["--from-manifest", str(manifest)]
        out = tmp_path / "a.csv"
        assert main(["mc-block", *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: ratio must be positive\n"
        assert not out.exists()

    def test_mc_gadget_rate_out_of_range_exit_two(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        assert main(["mc-gadget", "--gamma", "10", "--distance", "5",
                     "--p", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: p=")
        assert not out.exists()

    @staticmethod
    def _run_without_batches(tmp_path, monkeypatch, command, options):
        """``command`` on Steane (mc-block) or d=3 gamma=6 (mc-gadget)
        with ``options``, every batch patched to fail: the exit code."""
        def no_batch(*args, **kwargs):
            raise AssertionError("a batch ran")

        for cls in (BlockSimulator, GadgetMonteCarlo):
            monkeypatch.setattr(cls, "run_batch", no_batch)
        code_file = tmp_path / "steane.txt"
        code_file.write_text(STEANE_TEXT)
        args = (["--code", str(code_file)] if command == "mc-block"
                else ["--gamma", "6", "--distance", "3"])
        return main([command, *args, "--p", "1e-2", *options, "--trial-cap", "10",
                     "--min-failures", "1", "--out", str(tmp_path / "a.csv")])

    @pytest.mark.parametrize("command", ["mc-block", "mc-gadget"])
    def test_zero_batch_size_exit_two(self, tmp_path, monkeypatch, capsys, command):
        # a batch of no trials never reaches the cap: fail, never hang
        assert self._run_without_batches(tmp_path, monkeypatch, command,
                                         ["--batch-size", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: batch_size=0") and err.count("\n") == 1
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("command", ["mc-block", "mc-gadget"])
    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_exit_two(self, tmp_path, monkeypatch, capsys, command, jobs):
        assert self._run_without_batches(tmp_path, monkeypatch, command,
                                         ["--jobs", str(jobs), "--batch-size", "10"]) == 2
        assert capsys.readouterr().err == f"error: jobs={jobs} must be positive\n"
        assert [f.name for f in tmp_path.iterdir()] == ["steane.txt"]

    def test_gamma_beyond_64_bits_exit_two(self, tmp_path, capsys):
        assert main(["mc-gadget", "--gamma", "70", "--distance", "5",
                     "--p", "1e-2", "--out", str(tmp_path / "a.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: gamma=70") and err.count("\n") == 1
