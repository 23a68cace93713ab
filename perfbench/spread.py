"""Run-to-run spread of the cutcat benchmark, and agreement of two sets.

    python3 perfbench/spread.py --runs 10 [--workload W ...] [--seconds S]
                                [--first-seed N] [--against SET.json] > SET.json

Runs ``run.py --trace 0`` once per (seed, workload), seeds first-seed ..
first-seed+runs-1, interleaving workloads so that slow drift of the machine
reaches all of them alike.  For each end-to-end metric it reports the
median and the quartiles of statistics.quantiles(values, n=4), and the
spread (q3 - q1) / median against the metric's bound in BENCHMARK.json.
With ``--against`` it also checks that no median got worse than the other
set's by more than the bound, and that the determinism fingerprint of
every (workload, seed) is identical in both sets.  Exit code 0 when every
check holds; setup_s is exempt from the spread check, not from the others.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=400)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "fingerprint": record.get("fingerprint", {}),
            "pass_s_all": record["pass_s_all"], "calib_s_all": record["calib_s_all"],
            "env": record["env"]}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        values = [r["metrics"][m["name"]] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "bound": m["bound"], "values": values}
    return out


def worse_by(new: float, old: float, better: str) -> float:
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args(argv)
    workloads = args.workload or names
    metrics = spec["end_to_end"]

    runs: dict[str, list] = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            runs[w].append(run_once(w, seed, args.seconds))
            print(f"{w} seed {seed}: {runs[w][-1]['metrics']}", file=sys.stderr)

    ok = True
    doc = {"seconds": args.seconds, "workloads": {}}
    for w in workloads:
        summary = summarize(runs[w], metrics)
        doc["workloads"][w] = {"summary": summary, "runs": runs[w]}
        ok &= all(r["correct"] for r in runs[w])
        for name, s in summary.items():
            flag = "ok" if s["spread"] <= s["bound"] or name == "setup_s" else "SPREAD > BOUND"
            if s["spread"] >= s["bound"] / 3 and flag == "ok":
                flag = "ok (spread above a third of the bound)"
            ok &= flag.startswith("ok")
            print(f"{w:<16} {name:<12} median {s['median']:<12.6g} spread {s['spread']:.4f} "
                  f"bound {s['bound']}  {flag}", file=sys.stderr)

    if args.against:
        other = json.loads(args.against.read_text())
        better = {m["name"]: m["better"] for m in metrics}
        for w in workloads:
            if w not in other["workloads"]:
                continue
            old = other["workloads"][w]
            for name, s in doc["workloads"][w]["summary"].items():
                d = worse_by(s["median"], old["summary"][name]["median"], better[name])
                good = d <= s["bound"]
                ok &= good
                print(f"{w:<16} {name:<12} worse by {d:+.4f} vs the other set "
                      f"(bound {s['bound']}) {'ok' if good else 'FAIL'}", file=sys.stderr)
            prints = {r["seed"]: r["fingerprint"] for r in old["runs"]}
            for r in doc["workloads"][w]["runs"]:
                if r["seed"] in prints and prints[r["seed"]] != r["fingerprint"]:
                    ok = False
                    print(f"{w:<16} seed {r['seed']}: fingerprint differs", file=sys.stderr)
    doc["ok"] = ok
    print(json.dumps(doc, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
