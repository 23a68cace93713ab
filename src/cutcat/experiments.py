"""Monte-Carlo validation harnesses: gadget failure sweeps, block-level
logical error rates, slope fits and run manifests.

Trials are grouped into fixed-size batches; every random draw of a batch
comes from a generator seeded by (seed, stream, batch index), so any run
is reproducible bit-for-bit from its manifest regardless of stopping
point or worker layout.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circuit import GadgetCircuit
from .gadgets import GadgetSpec, build_cut_cat
from .pauli import popcount
from .sim import (
    PAULI_PAIRS,
    PAULI_SINGLES,
    CatSyndrome,
    noisy_operations,
    op_code_effects,
)
from .verify import eval_upper_bound


def wilson_interval(failures: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Score interval for a binomial proportion; sane at tiny counts."""
    if trials == 0:
        return (0.0, 1.0)
    phat = failures / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)
    )
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class TrialStats:
    """Outcome of one Monte-Carlo point."""

    p: float
    p_ft: float
    trials: int
    failures: int
    seed: int
    censored: bool

    @property
    def estimate(self) -> float:
        return self.failures / self.trials if self.trials else 0.0

    @property
    def interval(self) -> tuple[float, float]:
        return wilson_interval(self.failures, self.trials)

    @property
    def stderr(self) -> float:
        if self.trials == 0:
            return 0.0
        e = self.estimate
        return math.sqrt(max(e * (1.0 - e), 1.0 / self.trials) / self.trials)


def fit_slope(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope of log(estimate) against log(p), with its
    standard error."""
    if len(points) < 3:
        raise ValueError("need at least 3 points to fit a slope")
    if any(e <= 0.0 or p <= 0.0 for p, e in points):
        raise ValueError("slope fit requires positive rates and estimates")
    xs = [math.log(p) for p, _ in points]
    ys = [math.log(e) for _, e in points]
    n = len(xs)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    ssr = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    dof = max(n - 2, 1)
    stderr = math.sqrt(ssr / dof / sxx)
    return slope, stderr


@dataclass(frozen=True)
class SweepResult:
    points: tuple[TrialStats, ...]
    bounds: tuple[float, ...]
    slope: float | None
    slope_stderr: float | None


def _fit_sweep(points: Sequence[TrialStats]) -> tuple[float | None, float | None]:
    usable = [(s.p_ft, s.estimate) for s in points
              if not s.censored and s.failures > 0]
    if len(usable) < 3:
        return None, None
    return fit_slope(usable)


# what bounds the bit width of each FaultTable column
_COLUMN_WIDTH = {"data_x": "gamma", "slot_flips": "ring slots", "x": "n", "z": "n"}


class FaultTable:
    """Per-operation depolarizing effects, sampled over a batch.

    ``n_codes[i]`` is the number of non-identity Paulis of noisy op i
    (15 for a CNOT, 3 for a one-qubit channel); each column holds one
    uint64 effect mask per (op, code).  Effects are XOR-linear, so a
    trial's combined effect is the XOR of its faults' rows.
    """

    def __init__(self, n_codes: Sequence[int],
                 columns: dict[str, Sequence[Sequence[int]]]):
        self.n_codes = list(n_codes)
        width = max(self.n_codes, default=0)
        self.columns = []
        for name, rows in columns.items():
            bits = max((v.bit_length() for row in rows for v in row), default=0)
            if bits > 64:
                raise ValueError(
                    f"{_COLUMN_WIDTH.get(name, name)}={bits} exceeds the "
                    "64-bit limit of packed masks"
                )
            col = np.zeros((len(self.n_codes), width), dtype=np.uint64)
            for i, row in enumerate(rows):
                col[i, :len(row)] = row
            self.columns.append(col)

    @classmethod
    def from_gadget(cls, g: GadgetCircuit, fields: Sequence[str],
                    data_map: Callable[[int], int] | None = None) -> "FaultTable":
        """Columns of the named ``Effect`` fields over the gadget's noisy
        ops; ``data_map`` rewrites ``data_x`` masks (e.g. to global qubits)."""
        ops = noisy_operations(g)
        effects = [op_code_effects(g, op) for op in ops]
        columns = {
            name: [[getattr(e, name) for e in row] for row in effects]
            for name in fields
        }
        if data_map is not None:
            columns["data_x"] = [[data_map(v) for v in row] for row in columns["data_x"]]
        return cls([op.n_codes for op in ops], columns)

    def sample(self, rng: np.random.Generator, size: int,
               p: float) -> list[np.ndarray]:
        """One XOR accumulator per column for ``size`` trials.

        Each op faults independently with probability p, then draws its
        code uniformly.  The draw order is part of the manifest format:
        per op, ``size`` float32 uniforms, then one code per hit; nothing
        at all when p is 0.
        """
        accs = [np.zeros(size, dtype=np.uint64) for _ in self.columns]
        if p == 0.0:
            return accs
        for i, n in enumerate(self.n_codes):
            hit = np.nonzero(rng.random(size, dtype=np.float32) < p)[0]
            if hit.size == 0:
                continue
            codes = rng.integers(0, n, size=hit.size)
            for acc, col in zip(accs, self.columns):
                acc[hit] ^= col[i, codes]
        return accs


def table_apply(lookup: Callable[[int], int | None],
                keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized lookup: calls ``lookup`` once per distinct key and
    returns (values, miss flags) per entry; a miss is a None result."""
    uniq, inv = np.unique(keys, return_inverse=True)
    values = np.zeros(len(uniq), dtype=np.uint64)
    miss = np.zeros(len(uniq), dtype=bool)
    for i, key in enumerate(uniq.tolist()):
        v = lookup(key)
        if v is None:
            miss[i] = True
        else:
            values[i] = v
    return values[inv], miss[inv]


class GadgetMonteCarlo:
    """Vectorized circuit-level noise sampler for one gadget + decoder.

    A batch XOR-accumulates sampled fault effects from a ``FaultTable``
    and only trials with a visible residual or ring syndrome reach
    decoding: static decoders once per distinct syndrome, adaptive ones
    per trial.
    """

    def __init__(self, g: GadgetCircuit, decoder):
        self.g = g
        self.decoder = decoder
        self.adaptive = bool(getattr(decoder, "needs_round2", False))
        fields = ("data_x", "slot_flips") + (("persist_x",) if self.adaptive else ())
        self.faults = FaultTable.from_gadget(g, fields)
        self._decode_cache: dict[int, int] = {}

    def _decode_static(self, slots_key: int) -> int:
        corr = self._decode_cache.get(slots_key)
        if corr is None:
            g = self.g
            corr = self.decoder.decode(
                CatSyndrome.from_key(g.cat_count, slots_key, g.base_rounds))
            self._decode_cache[slots_key] = corr
        return corr

    def _decode_adaptive(self, slots_key: int, persist: int, p: float,
                         rng: np.random.Generator) -> int:
        g = self.g
        m = g.cat_count
        syn = CatSyndrome(m, (slots_key,))
        overlay = 0

        def measure(indices):
            nonlocal overlay
            out = {}
            for s in indices:
                s %= m
                anc = 0
                for cat in ((s + 1) % m, s):  # neighbor read first
                    anc ^= ((persist >> cat) ^ (overlay >> cat)) & 1
                    if rng.random() < p:
                        pc, pt = PAULI_PAIRS[int(rng.integers(15))]
                        if pt in ("X", "Y"):
                            anc ^= 1
                        if pc in ("X", "Y"):
                            overlay ^= 1 << cat
                if rng.random() < p:
                    if PAULI_SINGLES[int(rng.integers(3))] in ("X", "Y"):
                        anc ^= 1
                out[s] = anc
            return out

        return self.decoder.decode(syn, measure)

    def run_batch(self, p: float, seed: int, batch_index: int, size: int,
                  t: int) -> int:
        """Returns the number of failing trials in the batch."""
        rng = np.random.default_rng([seed, 1, batch_index])
        accs = self.faults.sample(rng, size, p)
        acc_data, acc_slot = accs[0], accs[1]

        gamma = self.g.gamma
        candidates = np.nonzero(acc_data | acc_slot)[0]
        if not self.adaptive:
            corr, _ = table_apply(self._decode_static, acc_slot[candidates])
            w = np.bitwise_count(acc_data[candidates] ^ corr)
            return int(np.count_nonzero(np.minimum(w, gamma - w) > t))
        acc_persist = accs[2]
        failures = 0
        base_trial = batch_index * size
        for idx in candidates:
            trial_rng = np.random.default_rng([seed, 2, base_trial + int(idx)])
            corr = self._decode_adaptive(
                int(acc_slot[idx]), int(acc_persist[idx]), p, trial_rng
            )
            w = popcount(int(acc_data[idx]) ^ corr)
            if min(w, gamma - w) > t:
                failures += 1
        return failures


def run_batches_until(
    batch_fn: Callable[[int, int], int],
    min_failures: int,
    trial_cap: int,
    batch_size: int,
    jobs: int = 1,
) -> tuple[int, int]:
    """Drive ``batch_fn(batch_index, size) -> failures`` to the target.

    Batches are indexed deterministically, so worker counts only change
    how many batches land in a stopping wave; counts aggregate by sum,
    which is order-independent.  Returns (trials, failures).
    """
    trials = 0
    failures = 0
    batch_index = 0
    if jobs <= 1:
        while failures < min_failures and trials < trial_cap:
            size = min(batch_size, trial_cap - trials)
            failures += batch_fn(batch_index, size)
            trials += size
            batch_index += 1
        return trials, failures
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        while failures < min_failures and trials < trial_cap:
            wave = []
            for _ in range(jobs):
                if trials >= trial_cap:
                    break
                size = min(batch_size, trial_cap - trials)
                wave.append(pool.submit(batch_fn, batch_index, size))
                trials += size
                batch_index += 1
            for fut in wave:
                failures += fut.result()
    return trials, failures


def run_gadget_mc(
    spec: GadgetSpec,
    decoder,
    p_ft: float,
    min_failures: int = 100,
    seed: int = 0,
    trial_cap: int = 10**8,
    batch_size: int = 1_000_000,
    jobs: int = 1,
    gadget: GadgetCircuit | None = None,
    engine: GadgetMonteCarlo | None = None,
) -> TrialStats:
    """Sample gadget runs until ``min_failures`` failures or the cap.

    A failure is a corrected residual of coset weight above t.  Points
    that hit the cap short of the failure target are flagged censored.
    """
    if min_failures < 1:
        raise ValueError("min_failures must be positive")
    if not 0.0 <= p_ft <= 1.0:
        raise ValueError(f"p={p_ft!r} is not a probability")
    if engine is None:
        g = gadget if gadget is not None else build_cut_cat(spec)
        engine = GadgetMonteCarlo(g, decoder)
    trials, failures = run_batches_until(
        _GadgetBatchTask(engine, p_ft, seed, spec.t), min_failures, trial_cap,
        batch_size, jobs,
    )
    return TrialStats(
        p=p_ft, p_ft=p_ft, trials=trials, failures=failures, seed=seed,
        censored=failures < min_failures,
    )


class _GadgetBatchTask:
    """Picklable batch closure for process pools."""

    def __init__(self, engine: GadgetMonteCarlo, p_ft: float, seed: int, t: int):
        self.engine = engine
        self.p_ft = p_ft
        self.seed = seed
        self.t = t

    def __call__(self, batch_index: int, size: int) -> int:
        return self.engine.run_batch(self.p_ft, self.seed, batch_index, size, self.t)


def sweep_gadget_mc(
    spec: GadgetSpec,
    decoder,
    p_list: Sequence[float],
    min_failures: int = 100,
    seed: int = 0,
    trial_cap: int = 10**8,
    batch_size: int = 1_000_000,
    jobs: int = 1,
) -> SweepResult:
    g = build_cut_cat(spec)
    engine = GadgetMonteCarlo(g, decoder)
    points = []
    bounds = []
    for p in sorted(p_list):
        points.append(
            run_gadget_mc(spec, decoder, p, min_failures, seed, trial_cap,
                          batch_size, jobs=jobs, engine=engine)
        )
        bounds.append(eval_upper_bound(spec.gamma, spec.t, p))
    slope, stderr = _fit_sweep(points)
    return SweepResult(tuple(points), tuple(bounds), slope, stderr)


def repeat_until_stable(
    extract: Callable[[int], object], t: int, max_rounds: int,
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


def sweep_to_csv(sweep: SweepResult, include_bound: bool = True) -> str:
    """CSV with one row per point: p, p_ft, trials, failures, estimate,
    Wilson bounds and the analytic bound (empty for block sweeps)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["p", "p_ft", "trials", "failures", "estimate", "ci_lo", "ci_hi", "bound"]
    )
    for stats, bound in zip(sweep.points, sweep.bounds):
        lo, hi = stats.interval
        writer.writerow([
            repr(stats.p), repr(stats.p_ft), stats.trials, stats.failures,
            repr(stats.estimate), repr(lo), repr(hi),
            repr(bound) if include_bound else "",
        ])
    return buf.getvalue()


def make_manifest(command: str, config: dict) -> str:
    doc = {"tool": "cutcat", "format": "cutcat-manifest-v1",
           "command": command, "config": config}
    return json.dumps(doc, indent=1, sort_keys=True)


def load_manifest(text: str) -> tuple[str, dict]:
    doc = json.loads(text)
    if doc.get("format") != "cutcat-manifest-v1":
        raise ValueError("unknown manifest format")
    return doc["command"], doc["config"]
