"""Command-line interface.

Subcommands: ``verify`` (exhaustive fault-tolerance check), ``lut``
(table construction), ``mc-gadget`` / ``mc-block`` (Monte-Carlo sweeps
with CSV + manifest output), ``resources`` (gate/depth/qubit report) and
``bound`` (analytic failure bound).  Monte-Carlo runs are replayable
byte-for-byte from their manifests via ``--from-manifest``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .decoders import LutBuildError, LutDecoder, RuleDecoderD3D5, RuleDecoderD7, build_cut_cat_lut
from .block import sweep_block_mc
from .experiments import (
    SweepResult,
    load_manifest,
    make_manifest,
    sweep_gadget_mc,
    sweep_to_csv,
)
from .gadgets import GadgetSpec, build_cut_cat, resource_report
from .pauli import CodeFormatError, parse_css_code
from .verify import eval_upper_bound, verify_gadget

DEFAULT_SEED = 20250809


def _out_dir() -> Path:
    return Path(os.environ.get("CUTCAT_OUTDIR", "."))


def _default_decoder(g, spec: GadgetSpec, kind: str):
    if kind == "lut":
        return LutDecoder(build_cut_cat_lut(spec, gadget=g))
    if spec.distance in (3, 5):
        return RuleDecoderD3D5(g, spec.t)
    if spec.distance == 7:
        return RuleDecoderD7(g)
    raise ValueError("distance 9 gadgets need --decoder lut")


def _p_values(args) -> list[float]:
    if args.p is not None:
        return list(args.p)
    if args.p_min is None or args.p_max is None:
        raise ValueError("give either --p values or --p-min/--p-max")
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    for name, p in (("--p-min", args.p_min), ("--p-max", args.p_max)):
        if not p > 0:
            raise ValueError(f"{name}={p!r} must be positive")
        if p > 1:
            raise ValueError(f"{name}={p!r} is not a probability")
    lo, hi = math.log(args.p_min), math.log(args.p_max)
    return [
        math.exp(lo + (hi - lo) * i / (args.points - 1))
        for i in range(args.points)
    ]


def _write_outputs(args, csv_text: str, manifest: str) -> None:
    out = Path(args.out) if args.out else _out_dir() / f"{args.command}.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(csv_text)
    manifest_path = out.with_suffix(".manifest.json")
    manifest_path.write_text(manifest + "\n")
    print(f"wrote {out} and {manifest_path}")


def cmd_verify(args) -> int:
    spec = GadgetSpec(
        gamma=args.gamma, distance=args.distance,
        adaptive=None if args.decoder != "lut" else False,
    )
    g = build_cut_cat(spec)
    decoder = _default_decoder(g, spec, args.decoder)
    report = verify_gadget(g, decoder, spec.t)
    per_weight = ", ".join(f"{w}: {n}" for w, n in enumerate(report.checked_per_weight, 1))
    counts = (f"{report.faults_checked} fault combinations over "
              f"{report.n_classes} effect classes (by weight {per_weight})")
    if report.passed:
        print(f"PASS: distance {spec.distance}, gamma {spec.gamma}: {counts}")
        return 0
    print(f"FAIL: counterexample {report.counterexample.describe()}")
    print(f"checked {counts}")
    return 1


def cmd_lut(args) -> int:
    spec = GadgetSpec(gamma=args.gamma, distance=args.distance, adaptive=False)
    try:
        lut = build_cut_cat_lut(spec)
    except LutBuildError as exc:
        print(f"FAIL: {exc}")
        return 1
    out = Path(args.out) if args.out else _out_dir() / f"lut_d{args.distance}_g{args.gamma}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(lut.to_json() + "\n")
    print(f"wrote {out}: {len(lut.table)} syndromes, rounds={lut.rounds}")
    return 0


def _mc_gadget_config(args) -> dict:
    if args.gamma is None or args.distance is None:
        raise ValueError("--gamma and --distance are required without a manifest")
    return {
        "gamma": args.gamma,
        "distance": args.distance,
        "decoder": args.decoder,
        "p_values": _p_values(args),
        "min_failures": args.min_failures,
        "seed": args.seed,
        "trial_cap": args.trial_cap,
        "batch_size": args.batch_size,
        "jobs": args.jobs,
    }


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


# the type of each config entry as the CLI writes it; any other is an integer
_ENTRY_TYPES = {
    "p_values": ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
    "ratio": ("a number", _is_number),
    "max_rounds": ("an integer or null", lambda v: v is None or _is_int(v)),
    "code_file": ("a string", lambda v: isinstance(v, str)),
    "decoder": ('"rules" or "lut"', lambda v: v in ("rules", "lut")),
}


def _entries(config: dict, *names: str) -> dict:
    """The entries ``names`` of a sweep config and its ``jobs`` (1 if
    absent); a ``ValueError`` names every entry a manifest lacks, or the
    first whose type differs from the one the CLI writes."""
    missing = [k for k in names if k not in config]
    if missing:
        raise ValueError(f"manifest config lacks {', '.join(missing)}")
    entries = {k: config[k] for k in names} | {"jobs": config.get("jobs", 1)}
    for k, v in entries.items():
        kind, ok = _ENTRY_TYPES.get(k, ("an integer", _is_int))
        if not ok(v):
            raise ValueError(f"manifest config {k}={json.dumps(v)} is not {kind}")
    return entries


def _run_mc_gadget(config: dict) -> SweepResult:
    c = _entries(config, "gamma", "distance", "decoder", "p_values",
                 "min_failures", "seed", "trial_cap", "batch_size")
    kind = c.pop("decoder")
    spec = GadgetSpec(gamma=c.pop("gamma"), distance=c.pop("distance"),
                      adaptive=None if kind != "lut" else False)
    decoder = _default_decoder(build_cut_cat(spec), spec, kind)
    return sweep_gadget_mc(spec, decoder, c.pop("p_values"), **c)


def _mc_block_config(args) -> dict:
    if args.code is None:
        raise ValueError("--code is required without a manifest")
    return {
        "code_file": str(Path(args.code).resolve()),
        "ratio": args.ratio,
        "p_values": _p_values(args),
        "min_failures": args.min_failures,
        "seed": args.seed,
        "trial_cap": args.trial_cap,
        "batch_size": args.batch_size,
        "max_rounds": args.max_rounds,
        "jobs": args.jobs,
    }


def _run_mc_block(config: dict) -> SweepResult:
    c = _entries(config, "code_file", "ratio", "max_rounds", "p_values",
                 "min_failures", "seed", "trial_cap", "batch_size")
    code = parse_css_code(Path(c.pop("code_file")).read_text())
    return sweep_block_mc(code, c.pop("p_values"), **c)


def cmd_mc(args) -> int:
    """A sweep of ``args.command`` from the arguments or a manifest."""
    make_config, run = args.mc
    if args.from_manifest:
        command, config = load_manifest(Path(args.from_manifest).read_text())
        if command != args.command:
            raise ValueError(f"manifest is not an {args.command} run")
    else:
        config = make_config(args)
    sweep = run(config)
    if sweep.slope is not None:
        print(f"fitted slope {sweep.slope:.3f} +- {sweep.slope_stderr:.3f}")
    _write_outputs(args, sweep_to_csv(sweep), make_manifest(args.command, config))
    return 0


def cmd_resources(args) -> int:
    spec = GadgetSpec(
        gamma=args.gamma, distance=args.distance, prep_cnots=args.prep_cnots,
    )
    report = resource_report(spec, full_cat=args.scheme == "fullcat")
    print(json.dumps(report.as_dict(), indent=1))
    return 0


def cmd_bound(args) -> int:
    print(repr(eval_upper_bound(args.gamma, args.t, args.p)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutcat",
        description="Cut-cat syndrome extraction: verification, decoding, experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_gadget_args(p):
        p.add_argument("--gamma", type=int, required=True)
        p.add_argument("--distance", type=int, required=True)

    p = sub.add_parser("verify", help="exhaustive fault-tolerance check")
    add_gadget_args(p)
    p.add_argument("--decoder", choices=["rules", "lut"], default="rules")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lut", help="lookup-table construction")
    lut_sub = p.add_subparsers(dest="lut_command", required=True)
    pb = lut_sub.add_parser("build")
    add_gadget_args(pb)
    pb.add_argument("--out", type=str, default=None)
    pb.set_defaults(func=cmd_lut)

    def add_mc_args(p):
        p.add_argument("--p", type=float, nargs="+", default=None)
        p.add_argument("--p-min", type=float, default=None)
        p.add_argument("--p-max", type=float, default=None)
        p.add_argument("--points", type=int, default=4)
        p.add_argument("--min-failures", type=int, default=100)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--trial-cap", type=int, default=10**8)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
        p.add_argument("--from-manifest", type=str, default=None)

    p = sub.add_parser("mc-gadget", help="gadget failure-rate sweep")
    p.add_argument("--gamma", type=int, default=None)
    p.add_argument("--distance", type=int, default=None)
    p.add_argument("--decoder", choices=["rules", "lut"], default="rules")
    p.add_argument("--batch-size", type=int, default=1_000_000)
    add_mc_args(p)
    p.set_defaults(func=cmd_mc, mc=(_mc_gadget_config, _run_mc_gadget))

    p = sub.add_parser("mc-block", help="block-level logical error sweep")
    p.add_argument("--code", type=str, default=None)
    p.add_argument("--ratio", type=float, default=20.0)
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=100_000)
    add_mc_args(p)
    p.set_defaults(func=cmd_mc, mc=(_mc_block_config, _run_mc_block))

    p = sub.add_parser("resources", help="gate/depth/qubit report")
    p.add_argument("--scheme", choices=["cutcat", "fullcat"], required=True)
    add_gadget_args(p)
    p.add_argument("--prep-cnots", type=int, default=None)
    p.set_defaults(func=cmd_resources)

    p = sub.add_parser("bound", help="analytic failure bound")
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CodeFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # invalid parameters, like argparse errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
