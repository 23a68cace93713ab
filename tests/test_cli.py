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

    @pytest.mark.parametrize("command", [["verify"], ["lut", "build"]],
                             ids=["verify", "lut-build"])
    def test_gamma_over_64_bits_exit_two(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CUTCAT_OUTDIR", str(tmp_path))
        assert main(command + ["--gamma", "70", "--distance", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: gamma=70 exceeds the 64-bit limit of packed masks"]
        assert list(tmp_path.iterdir()) == []


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
