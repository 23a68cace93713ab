"""One benchmark workload, measured in a fresh process.

``run.py`` starts this file as a script:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

and reads the JSON object printed as its last stdout line.

A *pass* is the workload's fixed list of operations: one MC point, one LUT
build or one verify call each.  Every pass runs on freshly built gadgets,
decoders and engines, so decoder caches start cold as in one CLI run, and
every pass at one seed must reproduce the first pass's counts exactly.
Passes repeat until the next one would overrun ``--seconds``; end-to-end
times are medians over untraced passes, scaled to a reference CPU speed
(see ``calibrate``).  With ``--trace 1`` untraced and traced passes
alternate: per-layer figures come from the traced passes, operation wall
times from the untraced ones, and the ratio of their scaled medians is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

RM15_FILE = BENCH_DIR / "rm15.txt"
RM15_SHA256 = "39f59bad83258b0f7df5b49f70a62a949d2ab51292c8a91dc649e6f6540718d7"

# Gadget and block MC points: (point name, gamma, distance, p, trials).
# Each point is one batch of a fixed trial count, never min_failures stopping.
GADGET_POINTS = {
    "gadget-static": (("d5-1e-3", 10, 5, 1e-3, 1_000_000),
                      ("d5-1e-2", 10, 5, 1e-2, 1_000_000)),
    "gadget-adaptive": (("d7-1e-2", 14, 7, 1e-2, 500_000),),
}
BLOCK_RATIO = 20.0
BLOCK_POINTS = (("rm15-3e-3", 3e-3, 100_000), ("rm15-1e-2", 1e-2, 100_000))

# Failure rates measured at the commit that introduced this benchmark:
# (failures, trials) summed over seeds 1000..1099 (d5-1e-3) or
# 1000..1019 (the rest), one point-sized batch per seed.
REFERENCE_RATES = {
    "d5-1e-3": (56, 100_000_000),
    "d5-1e-2": (9421, 20_000_000),
    "d7-1e-2": (807, 10_000_000),
    "rm15-3e-3": (3443, 2_000_000),
    "rm15-1e-2": (35814, 2_000_000),
}
# Accept a count within this many standard deviations (binomial spread of
# the point plus the reference's own sampling error) of the reference
# rate, plus one: loose enough for a legitimate change of random stream,
# tight enough to catch a sampler that draws the wrong noise.
TOLERANCE_Z = 5.0

LUT_ENTRIES = 51_361
LUT_JSON_SHA256 = "30cc32dc73c7d59b325f5f6509155c983ff2a5dfd0faf98befa7e60b2fac0632"

# Verify cases: (case name, gamma, distance, decoder, budget t, expected
# first counterexample or None for PASS).  A counterexample is
# (fault_ids, n_faults, syndrome_key, residual, correction, coset_weight).
VERIFY_CASES = (
    ("lut-d9g18-t4", 18, 9, "lut", 4, None),
    ("rule-d7g20-t3", 20, 7, "rule-d7", 3, None),
    ("identity-d5g10-t2", 10, 5, "identity", 2, ((0,), 1, 0x11, 0x3, 0x0, 2)),
    ("rule1-d5g10-t2", 10, 5, "rule-t1", 2, ((0, 1), 2, 0x12, 0xF, 0x0, 4)),
    ("rule2-d7g14-t3", 14, 7, "rule-t2", 3, ((0, 1, 2), 3, 0x44, 0x3F, 0x0, 6)),
)
LUT_SPEC = (18, 9)

# The 2-vCPU shared-host VM the baseline was measured on runs the same code
# at speeds that differ by up to 1.7x, in stretches of seconds to minutes,
# whatever the load of the VM itself.  A fixed pure-Python loop, timed
# around every pass, tracks that speed; times reported end to end are
# scaled by CALIB_REF_S / (loop time), i.e. to the speed at which the loop
# takes CALIB_REF_S.  Raw wall times stay in the record.
CALIB_ITERS = 60_000
CALIB_REF_S = 0.010


def calibrate() -> float:
    """Median of three timings of a fixed loop of integer arithmetic and
    dict stores, about 10 ms each."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        table = {}
        for i in range(CALIB_ITERS):
            acc += i * i
            table[i & 1023] = acc
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Program:
    """The cutcat modules the benchmark drives, imported from ``src/``."""

    def __init__(self) -> None:
        if not (SRC / "cutcat" / "__init__.py").is_file():
            raise SystemExit(f"error: no cutcat sources under {SRC}")
        sys.path.insert(0, str(SRC))
        self.cc = importlib.import_module("cutcat")
        if Path(self.cc.__file__).resolve().parent != (SRC / "cutcat").resolve():
            raise SystemExit(f"error: imported cutcat from {self.cc.__file__}, not {SRC}")
        self.experiments = importlib.import_module("cutcat.experiments")
        self.block = importlib.import_module("cutcat.block")
        self.verify = importlib.import_module("cutcat.verify")
        self.decoders = importlib.import_module("cutcat.decoders")
        self.numpy_version = importlib.import_module("numpy").__version__


# ---------------------------------------------------------------- tracing

class Tracer:
    """Spans folded into per-name totals as they close.

    For each span name: number of spans, total time, time covered by child
    spans and number of child spans.  Per (parent, child) name pair: count
    and total.  Spans are not kept one by one, because a verify pass closes
    over a million decoder spans.  Self time is total minus child time,
    minus what the tracer itself adds to a parent per child span (``leak``,
    calibrated when the tracer is made).
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.edges: dict[tuple[str, str], list] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []
        self.leak = 0.0
        self.leak = self._calibrate()

    def _calibrate(self, n: int = 20_000) -> float:
        noop = self.wrap("calibrate.child", lambda: None)
        self.begin("calibrate")
        for _ in range(n):
            noop()
        self.end()
        leak = self.self_time("calibrate") / n
        self.stats.clear()
        self.edges.clear()
        return max(leak, 0.0)

    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def end(self) -> None:
        now = time.perf_counter()
        name, start, child = self._stack.pop()
        dur = now - start
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        st[0] += 1
        st[1] += dur
        st[2] += child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            self.stats.setdefault(parent[0], [0, 0.0, 0.0, 0])[3] += 1
            edge = self.edges.setdefault((parent[0], name), [0, 0.0])
            edge[0] += 1
            edge[1] += dur

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def self_time(self, name: str) -> float:
        count, total, child, n_child = self.stats.get(name, (0, 0.0, 0.0, 0))
        return total - child - n_child * self.leak

    def edge(self, parent: str, name: str) -> tuple[int, float]:
        count, total = self.edges.get((parent, name), (0, 0.0))
        return count, total


class TracedDecoder:
    """Decoder proxy: one ``decoders.decode`` span per call, and counts of
    the adaptive re-measurement callbacks the decoder makes."""

    def __init__(self, tracer: Tracer, inner) -> None:
        self._tracer = tracer
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def decode(self, syn, measure=None):
        tr = self._tracer
        tr.begin("decoders.decode")
        try:
            if measure is None:
                return self._inner.decode(syn)

            def counted(indices):
                tr.count("decoders.measure_calls")
                tr.count("decoders.slots_reread", len(indices))
                return measure(indices)

            return self._inner.decode(syn, counted)
        finally:
            tr.end()


# Program functions whose calls get a span in a traced pass: (module,
# attribute, span).  They are looked up by name at call time, so patching
# the module attribute reaches the calls inside the package.  A name the
# program no longer has is skipped and its layer reads 0.
MODULE_SPANS = (
    ("experiments", "op_code_effects", "sim.effect_table"),
    ("block", "op_code_effects", "sim.effect_table"),
    ("block", "build_cut_cat", "gadgets.build"),
    ("block", "build_full_cat", "gadgets.build"),
    ("block", "build_code_lut", "decoders.code_lut_build"),
    ("verify", "location_effects", "sim.location_effects"),
)


@contextlib.contextmanager
def traced_program(P: Program, tr: Tracer):
    saved = []
    try:
        for mod_name, attr, span in MODULE_SPANS:
            mod = getattr(P, mod_name)
            fn = getattr(mod, attr, None)
            if fn is not None:
                saved.append((mod, attr, fn))
                setattr(mod, attr, tr.wrap(span, fn))
        oracle = getattr(P.verify, "oracle_residuals", None)
        if oracle is not None:
            saved.append((P.verify, "oracle_residuals", oracle))
            P.verify.oracle_residuals = _traced_stream(tr, oracle)
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def _traced_stream(tr: Tracer, fn):
    """Generator proxy: a ``verify.oracle_stream`` span around each step."""
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            tr.begin("verify.oracle_stream")
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tr.end()
            tr.count("verify.oracle_yields")
            yield item
    return traced


def _span(tr: Tracer | None, name: str, fn, *args, **kwargs):
    if tr is None:
        return fn(*args, **kwargs)
    return tr.wrap(name, fn)(*args, **kwargs)


# ---------------------------------------------------------------- checks

def rate_errors(name: str, failures: int, trials: int) -> list[str]:
    ref_fail, ref_trials = REFERENCE_RATES[name]
    rate = ref_fail / ref_trials
    mean = trials * rate
    sd = math.sqrt(trials * rate * (1.0 - rate) * (1.0 + trials / ref_trials))
    if abs(failures - mean) > TOLERANCE_Z * sd + 1.0:
        return [f"{failures}/{trials} failures, reference rate {rate:.3e} "
                f"expects {mean:.1f} +- {TOLERANCE_Z * sd + 1.0:.1f}"]
    return []


# ---------------------------------------------------------------- workloads

class GadgetWorkload:
    """Gadget MC points through ``run_gadget_mc`` with a prebuilt engine."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.points = GADGET_POINTS[name]

    def build(self, P: Program, tr: Tracer | None):
        cc = P.cc
        engines = {}
        for point, gamma, distance, _, _ in self.points:
            spec = cc.GadgetSpec(gamma=gamma, distance=distance)
            if (gamma, distance) not in engines:
                g = _span(tr, "gadgets.build", cc.build_cut_cat, spec)
                decoder = cc.RuleDecoderD7(g) if distance == 7 else cc.RuleDecoderD3D5(g, spec.t)
                if tr is not None:
                    decoder = TracedDecoder(tr, decoder)
                engine = P.experiments.GadgetMonteCarlo(g, decoder)
                if tr is not None:
                    engine.run_batch = tr.wrap("experiments.run_batch", engine.run_batch)
                engines[(gamma, distance)] = (spec, decoder, engine)
        return engines

    def ops(self, P: Program, state, seed: int):
        for point, gamma, distance, p, trials in self.points:
            spec, decoder, engine = state[(gamma, distance)]
            yield point, lambda spec=spec, decoder=decoder, engine=engine, p=p, n=trials: \
                P.cc.run_gadget_mc(spec, decoder, p, min_failures=n + 1, seed=seed,
                                   trial_cap=n, batch_size=n, jobs=1, engine=engine)

    def check(self, P: Program, results: dict) -> tuple[dict, dict]:
        errors = {}
        counts = {}
        for point, gamma, distance, p, trials in self.points:
            stats = results[point]
            counts[point] = {f"experiments.failures.{point}": stats.failures}
            errs = errors.setdefault(point, [])
            if stats.trials != trials:
                errs.append(f"ran {stats.trials} trials, asked {trials}")
            t = P.cc.GadgetSpec(gamma=gamma, distance=distance).t
            bound = P.cc.eval_upper_bound(gamma, t, p)
            if stats.interval[0] > bound:
                errs.append(f"Wilson lower bound {stats.interval[0]:.3e} "
                            f"exceeds the analytic bound {bound:.3e}")
            errs += rate_errors(point, stats.failures, stats.trials)
        return errors, counts

    def trials(self) -> dict[str, int]:
        return {pt[0]: pt[4] for pt in self.points}


class BlockWorkload:
    """[[15,1,3]] block MC points through ``run_block_mc`` with a prebuilt
    simulator."""

    name = "block-rm15"

    def build(self, P: Program, tr: Tracer | None):
        text = RM15_FILE.read_text()
        if hashlib.sha256(text.encode()).hexdigest() != RM15_SHA256:
            raise ValueError(f"{RM15_FILE.name} does not match its recorded digest")
        code = P.cc.parse_css_code(text)
        sim = P.block.BlockSimulator(code, BLOCK_RATIO)
        self.n_extractors = len(getattr(sim, "extractors", ()))
        if tr is not None:
            sim.run_batch = tr.wrap("block.run_batch", sim.run_batch)
            for ext in getattr(sim, "extractors", ()):
                ext.extract = tr.wrap("block.extract", ext.extract)
                if getattr(ext, "decoder", None) is not None:
                    ext.decoder = TracedDecoder(tr, ext.decoder)
        return code, sim

    def ops(self, P: Program, state, seed: int):
        code, sim = state
        for point, p, trials in BLOCK_POINTS:
            yield point, lambda p=p, n=trials: P.cc.run_block_mc(
                code, p, BLOCK_RATIO, min_failures=n + 1, seed=seed, trial_cap=n,
                batch_size=n, jobs=1, simulator=sim)

    def check(self, P: Program, results: dict) -> tuple[dict, dict]:
        errors = {}
        counts = {}
        for point, p, trials in BLOCK_POINTS:
            stats = results[point]
            counts[point] = {f"block.failures.{point}": stats.failures}
            errs = errors.setdefault(point, [])
            if stats.trials != trials:
                errs.append(f"ran {stats.trials} trials, asked {trials}")
            errs += rate_errors(point, stats.failures, stats.trials)
        (low_pt, low_p, _), (high_pt, high_p, _) = BLOCK_POINTS
        low, high = results[low_pt], results[high_pt]
        if not high.estimate > low.estimate:
            errors[high_pt].append(
                f"rate at p={high_p} ({high.estimate:.3e}) does not exceed "
                f"the rate at p={low_p} ({low.estimate:.3e})")
        return errors, counts

    def trials(self) -> dict[str, int]:
        return {pt[0]: pt[2] for pt in BLOCK_POINTS}


class VerifyWorkload:
    """d=9 LUT synthesis, then exhaustive verification: the LUT at t=4,
    the adaptive d=7 decoder, and three negative controls.  No noise is
    sampled, so the seed does not change the work."""

    name = "verify-lut"

    def build(self, P: Program, tr: Tracer | None):
        cc = P.cc
        gadgets = {}
        for gamma, distance in {LUT_SPEC} | {(c[1], c[2]) for c in VERIFY_CASES}:
            spec = cc.GadgetSpec(gamma=gamma, distance=distance)
            gadgets[(gamma, distance)] = (spec, _span(tr, "gadgets.build", cc.build_cut_cat, spec))
        return {"gadgets": gadgets, "tracer": tr}

    def _decoder(self, P: Program, state, kind: str, g):
        d = P.decoders
        decoder = {
            "lut": lambda: d.LutDecoder(state["lut"]),
            "rule-d7": lambda: d.RuleDecoderD7(g),
            "identity": d.IdentityDecoder,
            "rule-t1": lambda: d.RuleDecoderD3D5(g, 1),
            "rule-t2": lambda: d.RuleDecoderD3D5(g, 2),
        }[kind]()
        tr = state["tracer"]
        return decoder if tr is None else TracedDecoder(tr, decoder)

    def ops(self, P: Program, state, seed: int):
        tr = state["tracer"]
        spec, g = state["gadgets"][LUT_SPEC]

        def build_lut():
            state["lut"] = _span(tr, "decoders.lut_build", P.cc.build_cut_cat_lut, spec, gadget=g)
            return state["lut"]

        yield "lut-build", build_lut
        for case, gamma, distance, kind, t, _ in VERIFY_CASES:
            def verify(gamma=gamma, distance=distance, kind=kind, t=t):
                g = state["gadgets"][(gamma, distance)][1]
                decoder = self._decoder(P, state, kind, g)
                return _span(tr, "verify.verify", P.cc.verify_gadget, g, decoder, t, jobs=1)
            yield case, verify

    def check(self, P: Program, results: dict) -> tuple[dict, dict]:
        lut = results["lut-build"]
        errors = {"lut-build": []}
        counts = {"lut-build": {"decoders.lut_entries": len(lut.table)}}
        if len(lut.table) != LUT_ENTRIES:
            errors["lut-build"].append(
                f"LUT has {len(lut.table)} entries, expected {LUT_ENTRIES}")
        digest = hashlib.sha256(lut.to_json().encode()).hexdigest()
        if digest != LUT_JSON_SHA256:
            errors["lut-build"].append(f"LUT JSON sha256 {digest} differs from the recorded one")
        for case, _, _, _, _, expect in VERIFY_CASES:
            rep = results[case]
            counts[case] = {f"verify.combinations.{case}": rep.faults_checked}
            errs = errors.setdefault(case, [])
            cx = rep.counterexample
            if expect is None:
                if not rep.passed:
                    errs.append(f"expected PASS, got {cx.describe()}")
                continue
            got = None if cx is None else (
                tuple(cx.fault_ids), cx.n_faults, cx.syndrome_key, cx.residual,
                cx.correction, cx.coset_weight)
            if got != expect:
                errs.append(f"expected counterexample {expect}, got {got}")
        return errors, counts

    def trials(self) -> dict[str, int]:
        return {}


WORKLOADS = {
    "gadget-static": lambda: GadgetWorkload("gadget-static"),
    "gadget-adaptive": lambda: GadgetWorkload("gadget-adaptive"),
    "block-rm15": BlockWorkload,
    "verify-lut": VerifyWorkload,
}

ALL_GADGET_POINTS = [pt[0] for pts in GADGET_POINTS.values() for pt in pts]
ALL_BLOCK_POINTS = [pt[0] for pt in BLOCK_POINTS]


# ---------------------------------------------------------------- passes

class OpFailed(Exception):
    pass


def run_pass(wl, P: Program, seed: int, state, tr: Tracer | None):
    """Run the workload's operations once; returns (op wall times,
    results).  An operation that raises fails the pass."""
    op_s = {}
    results = {}
    for name, fn in wl.ops(P, state, seed):
        t0 = time.perf_counter()
        try:
            results[name] = fn()
        except Exception as exc:  # reported as a failed operation
            traceback.print_exc(file=sys.stderr)
            raise OpFailed(f"{name}: {type(exc).__name__}: {exc}") from exc
        op_s[name] = time.perf_counter() - t0
    return op_s, results


def layer_metrics(tr: Tracer, wl) -> dict:
    """Per-layer figures of one traced pass."""
    trials = sum(wl.trials().values())
    block_batches = tr.calls("block.run_batch")
    n_ext = getattr(wl, "n_extractors", 0)
    decode_calls = tr.calls("decoders.decode")
    verify_decode_calls, verify_decode_s = tr.edge("verify.verify", "decoders.decode")
    return {
        "gadgets.build_s": tr.total("gadgets.build"),
        "sim.effect_table_s": tr.total("sim.effect_table"),
        "sim.location_effects_s": tr.total("sim.location_effects"),
        "decoders.code_lut_build_s": tr.total("decoders.code_lut_build"),
        "experiments.run_batch_s": tr.total("experiments.run_batch"),
        "experiments.batches": tr.calls("experiments.run_batch"),
        "experiments.sample_s": tr.self_time("experiments.run_batch"),
        "decoders.decode_calls": decode_calls,
        "decoders.decode_s": tr.total("decoders.decode"),
        "decoders.decode_per_trial": decode_calls / trials if trials else 0.0,
        "decoders.measure_calls": tr.counts.get("decoders.measure_calls", 0),
        "decoders.slots_reread": tr.counts.get("decoders.slots_reread", 0),
        "block.run_batch_s": tr.total("block.run_batch"),
        "block.extract_calls": tr.calls("block.extract"),
        "block.extract_s": tr.total("block.extract"),
        "block.rounds_per_batch": (tr.calls("block.extract") / n_ext / block_batches
                                   if block_batches and n_ext else 0.0),
        "block.ring_decode_calls": tr.edge("block.extract", "decoders.decode")[0],
        "block.self_s": tr.self_time("block.run_batch"),
        "verify.decode_calls": verify_decode_calls,
        "verify.decode_s": verify_decode_s,
        "verify.enum_s": tr.self_time("verify.verify"),
        "verify.oracle_yields": tr.counts.get("verify.oracle_yields", 0),
        "verify.oracle_stream_s": tr.total("verify.oracle_stream"),
        "decoders.lut_search_s": tr.self_time("decoders.lut_build"),
        "trace.span_cost_s": tr.leak,
    }


def op_metrics(wl, op_s: dict, counts: dict) -> dict:
    """Figures from untraced operation wall times and result counts; a
    point or case of another workload reads 0."""
    m = {}
    trials = wl.trials()
    for points, layer in ((ALL_GADGET_POINTS, "experiments"), (ALL_BLOCK_POINTS, "block")):
        for point in points:
            m[f"{layer}.trials_per_s.{point}"] = (
                trials[point] / op_s[point] if point in trials else 0.0)
            m[f"{layer}.failures.{point}"] = counts.get(f"{layer}.failures.{point}", 0)
    combos = 0
    for case, *_ in VERIFY_CASES:
        m[f"verify.verify_s.{case}"] = op_s.get(case, 0.0)
        combos += counts.get(f"verify.combinations.{case}", 0)
    verify_s = sum(m[f"verify.verify_s.{case}"] for case, *_ in VERIFY_CASES)
    m["verify.verify_s"] = verify_s
    m["verify.combinations"] = combos
    m["verify.combinations_per_s"] = combos / verify_s if verify_s else 0.0
    m["decoders.lut_build_s"] = op_s.get("lut-build", 0.0)
    m["decoders.lut_entries"] = counts.get("decoders.lut_entries", 0)
    return m


def _median_dict(dicts: list[dict]) -> dict:
    """Per-key median; counts stay whole numbers."""
    return {k: (statistics.median_low if isinstance(v, int) else statistics.median)(
                [d[k] for d in dicts]) for k, v in dicts[0].items()}


def measure(wl, P: Program, seed: int, seconds: float, trace: bool, state) -> dict:
    """Repeat passes for ``seconds``; the first pass uses ``state``, built
    during set-up, and each later pass builds its own."""
    untraced: list[dict] = []
    traced: list[dict] = []
    errors: list[str] = []
    attempted = failed = 0
    first_counts: dict | None = None
    durations: list[float] = []
    gc.collect()  # every pass and calibration starts from the same heap state
    calib = [calibrate()]
    start = time.perf_counter()
    i = 0
    while True:
        tr = Tracer() if trace and i % 2 == 1 else None
        t_pass = time.perf_counter()
        try:
            with traced_program(P, tr) if tr else contextlib.nullcontext():
                if i > 0:
                    state = wl.build(P, tr)
                op_s, results = run_pass(wl, P, seed, state, tr)
        except OpFailed as exc:
            n_ops = sum(1 for _ in wl.ops(P, state, seed))
            attempted += n_ops
            failed += n_ops
            errors.append(f"pass {i}: {exc}")
            break
        op_errors, counts = wl.check(P, results)
        del results
        gc.collect()
        calib.append(calibrate())
        scale = CALIB_REF_S / ((calib[-2] + calib[-1]) / 2)
        if first_counts is None:
            first_counts = counts
        for op, value in counts.items():
            if value != first_counts[op]:
                op_errors[op].append(f"counts {value} differ from the first pass's "
                                     f"{first_counts[op]} at the same seed")
        attempted += len(op_s)
        for op, errs in op_errors.items():
            if errs:
                failed += 1
                errors += [f"pass {i}: {op}: {e}" for e in errs]
        wall = sum(op_s.values())
        if tr:
            traced.append({"pass_s": wall, "pass_ref_s": wall * scale,
                           "layers": layer_metrics(tr, wl)})
        else:
            untraced.append({"pass_s": wall, "pass_ref_s": wall * scale, "op_s": op_s})
        durations.append(time.perf_counter() - t_pass)
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed + max(durations[-2:]) > seconds and (traced or not trace):
            break
    fingerprint = {k: v for op_counts in (first_counts or {}).values()
                   for k, v in op_counts.items()}
    out = {
        "passes": len(untraced),
        "traced_passes": len(traced),
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "pass_s_all": [p["pass_s"] for p in untraced],
        "pass_ref_s_all": [p["pass_ref_s"] for p in untraced],
        "calib_s_all": calib,
    }
    if not untraced or errors:
        return out
    out["pass_s"] = statistics.median(out["pass_s_all"])
    out["pass_ref_s"] = statistics.median(out["pass_ref_s_all"])
    out["op_s"] = _median_dict([p["op_s"] for p in untraced])
    if traced:
        layers = _median_dict([p["layers"] for p in traced])
        layers.update(op_metrics(wl, out["op_s"], fingerprint))
        layers["trace.untraced_pass_s"] = out["pass_s"]
        layers["trace.traced_pass_s"] = statistics.median(p["pass_s"] for p in traced)
        # at reference speed, so that the host's swings cancel
        traced_ref_s = statistics.median(p["pass_ref_s"] for p in traced)
        layers["trace.overhead_frac"] = traced_ref_s / out["pass_ref_s"] - 1.0
        layers["trace.calib_s"] = statistics.median(calib)
        out["layers"] = layers
        fingerprint["decoders.decode_calls"] = layers["decoders.decode_calls"]
    out["fingerprint"] = fingerprint
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build once, report the set-up time, exit")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    P = Program()
    import_s = time.perf_counter() - t0
    wl = WORKLOADS[args.workload]()
    t1 = time.perf_counter()
    state = wl.build(P, None)
    build_s = time.perf_counter() - t1
    setup_s = import_s + build_s
    out = {"setup_s": setup_s, "setup_ref_s": setup_s * CALIB_REF_S / calibrate(),
           "import_s": import_s, "build_s": build_s, "numpy": P.numpy_version}
    if not args.setup_only:
        out.update(measure(wl, P, args.seed, args.seconds, bool(args.trace), state))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
