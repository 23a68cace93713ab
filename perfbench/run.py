"""cutcat benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Each workload is measured in a fresh child process
(``worker.py``), so its peak RSS is its own.  ``setup_s`` is the median of
several fresh processes' import-and-build times.  End-to-end times are
scaled to a reference CPU speed measured around every pass (see
``calibrate`` in worker.py); raw wall times are in the record.

Output: a ``{"record": ...}`` line (environment, per-pass times, the
determinism fingerprint, errors), then as the last line
``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end
metric of BENCHMARK.json (``--trace 0``) or every per-layer one
(``--trace 1``).  ``--workload all`` prints a table of the end-to-end
metrics of every workload instead.  Exit code 0 only if every operation
passed its check.

Seeds: 20250809 is the default; 4242 is held out for confirming a claimed
gain on a seed the change was not developed against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORKLOADS = ("gadget-static", "gadget-adaptive", "block-rm15", "verify-lut")
DEFAULT_SEED = 20250809
HELD_OUT_SEED = 4242
SETUP_SAMPLES = 5      # fresh processes behind the median setup_s
DEADLINE_S = 170.0     # a run must end within 180 s


class BenchError(Exception):
    pass


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool,
               deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        # run() kills and reaps the child when the timeout expires
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> tuple[dict, dict]:
    """Returns (record, end-to-end or per-layer values)."""
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(workload, seed, seconds, trace, True, deadline))
    main = run_worker(workload, seed, seconds, trace, False, deadline)
    setups.append(main)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "numpy": main["numpy"],
        "setup_s_all": [s["setup_s"] for s in setups],
        "setup_ref_s_all": [s["setup_ref_s"] for s in setups],
        "ops_failed_frac": main["failed"] / main["attempted"] if main["attempted"] else 1.0,
    }
    record.update({k: main[k] for k in ("attempted", "failed", "errors", "passes",
                                         "traced_passes", "pass_s_all", "pass_ref_s_all",
                                         "calib_s_all")})
    record.update({k: main[k] for k in ("op_s", "fingerprint") if k in main})
    if "pass_s" not in main:
        return record, {}
    if trace:
        return record, main.get("layers", {})
    return record, {
        "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
        "pass_s": main["pass_ref_s"],
        "peak_rss_mb": main["peak_rss_mb"],
    }


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "cutcat" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no cutcat sources or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = environment()

    if args.workload == "all":
        return print_table(args, spec["end_to_end"], env)

    try:
        record, values = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                      deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = os.getloadavg()
    record["env"] = env
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not record["errors"]:
        record["errors"].append(f"metrics not measured: {missing}")
    print(json.dumps({"record": record}))
    correct = not record["errors"] and record["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }))
    return 0 if correct else 1


def print_table(args, metrics: list[dict], env: dict) -> int:
    print(f"# cutcat benchmark, seed {args.seed}, {args.seconds:g} s per workload, "
          f"source {env['src_sha256'][:12]}, git {env['git_sha']}, "
          f"python {env['python']}, {env['cpu_count']} cpus")
    print(f"{'workload':<16} {'metric':<16} {'value':>14}  unit")
    ok = True
    for workload in WORKLOADS:
        try:
            record, values = run_workload(workload, args.seed, args.seconds, 0,
                                          time.monotonic() + DEADLINE_S)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        ok &= not record["errors"] and record["failed"] == 0
        for m in metrics:
            value = values.get(m["name"], float("nan"))
            print(f"{workload:<16} {m['name']:<16} {value:>14.6g}  {m['unit']}")
        print(f"{workload:<16} {'ops_failed_frac':<16} {record['ops_failed_frac']:>14.6g}  "
              f"frac ({record['failed']} of {record['attempted']})")
        for err in record["errors"]:
            print(f"{workload:<16} error: {err}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
