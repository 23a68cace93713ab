import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cutcat
from cutcat import _check_numpy


@pytest.mark.parametrize("version", ["1.26.4", "1.0", "0.9.8rc1"])
def test_numpy_before_2_rejected(version):
    with pytest.raises(ImportError) as exc:
        _check_numpy(version)
    assert version in str(exc.value) and "np.bitwise_count" in str(exc.value)


@pytest.mark.parametrize("version", ["2.0.0", "2.4.6", "2.5.0.dev0+git1", "10.1"])
def test_numpy_2_and_later_accepted(version):
    _check_numpy(version)


def test_installed_numpy_accepted():
    _check_numpy(np.__version__)


def test_perfbench_layer_hooks_resolve():
    # perfbench times a layer by wrapping the module attribute its
    # MODULE_SPANS names and skips a name that is gone, so a rename would
    # silently drop the layer's timing; the file is read, not imported
    worker = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    spans = next(ast.literal_eval(node.value) for node in ast.parse(worker.read_text()).body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["MODULE_SPANS"])
    live = [("block", "op_code_effects"), ("block", "build_cut_cat"),
            ("block", "build_full_cat"), ("block", "build_code_lut")]
    assert set(live) <= {(mod, attr) for mod, attr, _ in spans}
    for mod, attr in live:
        assert callable(getattr(importlib.import_module(f"cutcat.{mod}"), attr, None)), (mod, attr)


def test_perfbench_calls_bind():
    # perfbench cannot change with the package, and a call or field it
    # uses that no longer fits ends every run of its workload as failed;
    # each call is looked up where perfbench looks it up and bound as it
    # makes it, the arguments stand-ins
    mods = {name: importlib.import_module(f"cutcat.{name}")
            for name in ("experiments", "block", "decoders", "verify")}
    x = object()
    calls = [
        (cutcat.GadgetSpec, (), {"gamma": x, "distance": x}),
        (cutcat.build_cut_cat, (x,), {}),
        (cutcat.RuleDecoderD3D5, (x, x), {}),
        (cutcat.RuleDecoderD7, (x,), {}),
        (mods["decoders"].RuleDecoderD3D5, (x, x), {}),
        (mods["decoders"].RuleDecoderD7, (x,), {}),
        (mods["decoders"].LutDecoder, (x,), {}),
        (mods["decoders"].IdentityDecoder, (), {}),
        (mods["experiments"].GadgetMonteCarlo, (x, x), {}),
        (mods["block"].BlockSimulator, (x, x), {}),
        (cutcat.run_gadget_mc, (x, x, x), dict.fromkeys(
            ("min_failures", "seed", "trial_cap", "batch_size", "jobs", "engine"), x)),
        (cutcat.run_block_mc, (x, x, x), dict.fromkeys(
            ("min_failures", "seed", "trial_cap", "batch_size", "jobs", "simulator"), x)),
        (cutcat.build_cut_cat_lut, (x,), {"gadget": x}),
        (cutcat.verify_gadget, (x, x, x), {"jobs": x}),
        (cutcat.eval_upper_bound, (x, x, x), {}),
        (cutcat.parse_css_code, (x,), {}),
    ]
    for fn, args, kwargs in calls:
        inspect.signature(fn).bind(*args, **kwargs)
    reads = [
        (cutcat.TrialStats, ("failures", "trials", "interval", "estimate")),
        (cutcat.VerificationReport, ("passed", "counterexample", "faults_checked")),
        (mods["verify"].Counterexample, ("fault_ids", "n_faults", "syndrome_key", "residual",
                                         "correction", "coset_weight", "describe")),
        (cutcat.CutCatLUT, ("table", "to_json")),
    ]
    for cls, names in reads:
        have = {f.name for f in dataclasses.fields(cls)} | set(dir(cls))
        assert set(names) <= have, (cls.__name__, set(names) - have)


def test_import_leaves_out_the_process_pool():
    # the pool is imported by the runs that ask for workers, not by the package
    pool = ("multiprocessing", "concurrent.futures.process")
    env = {**os.environ, "PYTHONPATH": str(Path(cutcat.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, cutcat; print([m for m in {pool!r} if m in sys.modules])"],
        capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_readme_library_sketch_runs(capsys):
    # the README's public example follows the API
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sketch = readme.split("## Library sketch\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(sketch, "README.md (Library sketch)", "exec"), {})
    estimate, bound = map(float, capsys.readouterr().out.split())
    assert 0 < estimate < 1 and 0 < bound < 1
