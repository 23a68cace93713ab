"""Monte-Carlo validation harnesses: one run path for gadget failure
rates and block-level logical error rates, slope fits and run manifests.

``run_mc`` runs a point and ``sweep_mc`` a sweep of either engine,
``GadgetMonteCarlo`` or ``block.BlockSimulator``, each with its own
``run_batch``, default ``batch_size``, ``extraction_rate`` and ``bound``.
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
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .circuit import GadgetCircuit
from .gadgets import GadgetSpec, build_cut_cat
from .sim import FaultTable
from .verify import (DENSE_BITS, KeyCache, coset_weights, decoder_cache, eval_upper_bound,
                     follow_rereads)


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
    if len({p for p, _ in points}) < 2:
        raise ValueError("slope fit requires at least two distinct rates")
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


def _follow_split(reads: np.ndarray, corrections: np.ndarray, rows: np.ndarray,
                  frame: np.ndarray | None, hits, m: int, noiseless) -> np.ndarray:
    """The corrections of ``follow_rereads(reads, corrections, rows,
    frame, noise, m)``, step i's noise being ``hits[i]``, the trials of
    one ``FaultTable.sample_words`` over the runs and its words unpacked,
    ``(trials, (anc, cats))``, split as ``GadgetMonteCarlo`` says (tables
    with no read column need no frame).  The runs without noise take their
    correction from ``noiseless``, a ``KeyCache`` of (row << m | frame) pairs."""
    corr = corrections[rows, 0]
    if not reads.shape[-1]:
        return corr
    live, met = reads[rows, 0, 0] >= 0, np.zeros(len(rows), bool)
    for trials, _ in hits:
        met[trials] = True
    noisy, quiet = np.flatnonzero(met), np.flatnonzero(live & ~met)
    # each hit trial's place among the noisy runs
    at, noise = np.cumsum(met) - 1, []
    for trials, cols in hits:
        noise.append([np.zeros(len(noisy), np.uint64) for _ in cols])
        for dense, col in zip(noise[-1], cols):
            dense[at[trials]] = col
    corr[noisy], _ = follow_rereads(reads, corrections, rows[noisy], frame[noisy], noise, m)
    pairs = rows[quiet].astype(np.uint64) << np.uint64(m) | frame[quiet]
    corr[quiet] = noiseless.get(pairs)[0]
    return corr


class GadgetMonteCarlo:
    """Vectorized circuit-level noise sampler for one gadget + decoder.

    A batch draws from a ``FaultTable`` only the trials a fault hit,
    with their XORed effects packed in words (``sample_words``), so its
    cost follows the hits, not the batch size.  Of those, the trials with
    a residual or a ring syndrome, picked on the packed words, are
    unpacked and reach decoding, through a ``KeyCache`` of the decoder's
    tables per key (``decoder_cache``): one ``tables`` call per batch, for
    the keys the cache has not seen.  The decoder's answer for no key,
    made once, gives its number of re-reads s.  Each of the s re-reads draws
    its noise from a second table over the decoded trials, and
    ``_follow_split`` calls ``follow_rereads`` only where runs can differ:

    - a run hit in any re-read sample is followed with its own noise;
    - of the others, a run whose key re-reads nothing takes its table's
      first correction;
    - the rest take the correction of their (table, cat frame) pair from
      a second ``KeyCache``, beside the decoder's, which follows each pair
      with no noise once per engine (once per batch for pairs wider than
      ``DENSE_BITS``): at most (re-reading keys) · 2^m pairs, 11·m·2^m
      for ``RuleDecoderD7``.
    """

    batch_size = 1_000_000

    def __init__(self, g: GadgetCircuit, decoder):
        self.g, self.t = g, (g.distance - 1) // 2
        self._answers, self.steps = decoder_cache(g, decoder)
        self.faults = FaultTable.for_decoder(g, self.steps > 0)
        self.reread = FaultTable.for_reread(g) if self.steps else None
        # a pair's row is one of the decoder cache's, at most 2^n_slots
        self._noiseless = (KeyCache(g.n_slots + g.cat_count, self._follow_noiseless)
                           if self.steps else None)

    def _follow_noiseless(self, pairs: np.ndarray) -> tuple[np.ndarray]:
        """The corrections ``follow_rereads`` gives (row << m | frame) pairs with no noise."""
        m, zero = self.g.cat_count, np.zeros(len(pairs), np.uint64)
        return follow_rereads(*self._answers.values, (pairs >> np.uint64(m)).astype(np.intp),
                              pairs & np.uint64((1 << m) - 1), [(zero, zero)] * self.steps, m)[:1]

    def extraction_rate(self, p: float) -> float:
        """p itself, the rate of every op, after checking it is a probability."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p={p!r} is not a probability")
        return p

    def bound(self, p_ft: float) -> float:
        return eval_upper_bound(self.g.gamma, self.t, p_ft)

    def run_batch(self, p: float, seed: int, batch_index: int, size: int) -> int:
        """Returns the number of failing trials in the batch: those whose
        corrected residual has coset weight above t."""
        rng = np.random.default_rng([seed, 1, batch_index])
        _, words = self.faults.sample_words(rng, size, p)
        # of the trials a fault hit, those with a residual or a syndrome
        seen = self.faults.any_nonzero(words, 2)
        (data, keys, *persist), g = self.faults.unpack([w[seen] for w in words]), self.g
        rows = self._answers.index(keys)
        del keys  # a batch's peak holds each decoded trial's cache row, not also its key
        hits = [(trials, self.reread.unpack(words)) for trials, words in
                (self.reread.sample_words(rng, len(rows), p) for _ in range(self.steps))]
        noiseless = self._noiseless
        if noiseless and noiseless.bits > DENSE_BITS:  # a sorted index: one batch's pairs
            noiseless = KeyCache(noiseless.bits, self._follow_noiseless)
        corr = _follow_split(*self._answers.values, rows, persist[0] if persist else None,
                             hits, g.cat_count, noiseless)
        return int(np.count_nonzero(coset_weights(data ^ corr, g.gamma) > self.t))


# a pool worker's ``batch_fn``, handed over once when the worker starts,
# so its engine and caches live across the batches it runs
_worker_batch_fn: Callable[[int, int], int] | None = None


def _set_worker_batch_fn(batch_fn: Callable[[int, int], int]) -> None:
    global _worker_batch_fn
    _worker_batch_fn = batch_fn


def _run_worker_batch(batch_index: int, size: int) -> int:
    return _worker_batch_fn(batch_index, size)


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
    which is order-independent.  With ``jobs > 1`` each worker receives
    ``batch_fn`` once and then only (batch index, size) per batch.
    Returns (trials, failures).
    """
    if batch_size < 1:
        raise ValueError(f"batch_size={batch_size} must be positive")
    if jobs < 1:
        raise ValueError(f"jobs={jobs} must be positive")
    if trial_cap < 1:
        raise ValueError(f"trial_cap={trial_cap} must be positive")
    trials = 0
    failures = 0
    batch_index = 0
    if jobs == 1:
        while failures < min_failures and trials < trial_cap:
            size = min(batch_size, trial_cap - trials)
            failures += batch_fn(batch_index, size)
            trials += size
            batch_index += 1
        return trials, failures
    # imported here: the pool pulls in multiprocessing, socket and logging
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs, initializer=_set_worker_batch_fn,
                             initargs=(batch_fn,)) as pool:
        while failures < min_failures and trials < trial_cap:
            wave = []
            for _ in range(jobs):
                if trials >= trial_cap:
                    break
                size = min(batch_size, trial_cap - trials)
                wave.append(pool.submit(_run_worker_batch, batch_index, size))
                trials += size
                batch_index += 1
            for fut in wave:
                failures += fut.result()
    return trials, failures


def run_mc(engine, p: float, min_failures: int = 100, seed: int = 0,
           trial_cap: int = 10**8, batch_size: int | None = None,
           jobs: int = 1) -> TrialStats:
    """One point of ``engine`` at rate ``p``: batches (of
    ``engine.batch_size`` trials unless given) until ``min_failures``
    failures or the cap; a point short of its target is flagged censored."""
    if min_failures < 1:
        raise ValueError("min_failures must be positive")
    if seed < 0:
        raise ValueError(f"seed={seed} must be at least 0")
    p_ft = engine.extraction_rate(p)
    trials, failures = run_batches_until(
        partial(engine.run_batch, p, seed), min_failures, trial_cap,
        engine.batch_size if batch_size is None else batch_size, jobs)
    return TrialStats(p=p, p_ft=p_ft, trials=trials, failures=failures, seed=seed,
                      censored=failures < min_failures)


def sweep_mc(engine, p_values: Sequence[float], **point) -> SweepResult:
    """``run_mc(engine, p, **point)`` for each p in ascending order, every
    rate checked before the first point runs, with each point's bound.
    The slope fits the uncensored points with failures and p_ft > 0 when
    three or more of them span two or more rates; otherwise it is None."""
    for p in p_values:
        engine.extraction_rate(p)
    points = tuple(run_mc(engine, p, **point) for p in sorted(p_values))
    usable = [(s.p_ft, s.estimate) for s in points
              if not s.censored and s.failures > 0 and s.p_ft > 0]
    fit = (fit_slope(usable) if len(usable) >= 3 and len({p for p, _ in usable}) > 1
           else (None, None))
    return SweepResult(points, tuple(engine.bound(s.p_ft) for s in points), *fit)


def run_gadget_mc(
    spec: GadgetSpec, decoder, p_ft: float, min_failures: int = 100, seed: int = 0,
    trial_cap: int = 10**8, batch_size: int = GadgetMonteCarlo.batch_size, jobs: int = 1,
    engine: GadgetMonteCarlo | None = None,
) -> TrialStats:
    """``run_mc`` of a ``GadgetMonteCarlo`` of ``spec`` and ``decoder``,
    or of the given ``engine``."""
    if engine is None:
        engine = GadgetMonteCarlo(build_cut_cat(spec), decoder)
    return run_mc(engine, p_ft, min_failures, seed, trial_cap, batch_size, jobs)


def sweep_to_csv(sweep: SweepResult) -> str:
    """CSV with one row per point: p, p_ft, trials, failures, estimate,
    Wilson bounds and the analytic bound (empty where it is NaN, as for
    block sweeps)."""
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
            "" if math.isnan(bound) else repr(bound),
        ])
    return buf.getvalue()


# The format names the random stream a manifest replays: v5 draws one
# stream of geometric gaps over each sample's (trial, op) cells, and one
# block round sample (every generator) over the still-active trials.
MANIFEST_FORMAT = "cutcat-manifest-v5"


def make_manifest(command: str, config: dict) -> str:
    doc = {"tool": "cutcat", "format": MANIFEST_FORMAT,
           "command": command, "config": config}
    return json.dumps(doc, indent=1, sort_keys=True)


def load_manifest(text: str) -> tuple[str, dict]:
    """The command and config of a manifest; a ``ValueError`` names what
    a document lacks."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("manifest is not a JSON object")
    fmt = doc.get("format")
    if fmt in {f"cutcat-manifest-v{v}" for v in range(1, 5)}:
        raise ValueError(f"{fmt} used an older random stream and "
                         "cannot be replayed; re-run without --from-manifest")
    if fmt != MANIFEST_FORMAT:
        raise ValueError("unknown manifest format")
    if not isinstance(doc.get("command"), str) or not isinstance(doc.get("config"), dict):
        raise ValueError("manifest lacks a command string or a config object")
    return doc["command"], doc["config"]
