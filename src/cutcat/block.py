"""Whole-code simulation: noisy extraction of every generator with the
repeat-until-stable protocol and table decoding.

Generators of weight above six get the ring-checked gadget, the rest the
plain cat gadget.  All per-trial state is packed into uint64 vectors so
batches run through numpy; only ring decoding drops into Python, once
per syndrome key not met before (``KeyCache``).
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from .decoders import CodeLUT, RuleDecoderD3D5, build_code_lut
from .gadgets import GadgetSpec, build_cut_cat, build_full_cat
from .pauli import CssCode, bits_of
from .sim import CatSyndrome, FaultTable
from .experiments import SweepResult, TrialStats, _fit_sweep, run_batches_until
from .verify import KeyCache

CUT_CAT_WEIGHT_THRESHOLD = 6


class _GeneratorExtractor:
    """Noisy extraction machinery for one generator, global coordinates.

    The same effect tables serve X- and Z-type generators: the noise
    model is symmetric under swapping the Pauli frame components, so the
    sector only decides which data component receives residuals and
    which one the outcome reads.
    """

    def __init__(self, sector: str, support_mask: int, distance: int):
        self.sector = sector
        self.support_mask = np.uint64(support_mask)
        self.support = list(bits_of(support_mask))
        self.gamma = len(self.support)
        if self.gamma > CUT_CAT_WEIGHT_THRESHOLD:
            spec = GadgetSpec(gamma=self.gamma, distance=distance, adaptive=False)
            self.gadget = build_cut_cat(spec)
            self.decoder = RuleDecoderD3D5(self.gadget, spec.t)
        else:
            self.gadget = build_full_cat(self.gamma)
            self.decoder = None
        self.has_ring = self.gadget.n_slots > 0

        self.faults = FaultTable.from_gadget(
            self.gadget, ("data_x", "slot_flips", "gen_flip"), self._globalize,
        )
        self._ring = KeyCache()

    def _globalize(self, local_mask: int) -> int:
        out = 0
        for i in bits_of(local_mask):
            out |= 1 << self.support[i]
        return out

    def _ring_corrections(self, slots_keys: np.ndarray) -> tuple[np.ndarray]:
        m = self.gadget.cat_count
        return (np.array([self._globalize(self.decoder.decode(CatSyndrome(m, (key,))))
                          for key in slots_keys.tolist()], np.uint64),)

    def extract(self, rng: np.random.Generator, data_x: np.ndarray,
                data_z: np.ndarray, p_ft: float) -> np.ndarray:
        """Run one noisy extraction on every trial given; returns outcome bits.

        The incoming anticommuting error component sets the true parity;
        sampled gadget faults flip the readout and inject residuals onto
        the data in place (corrected by the ring decoder when present).
        """
        reads, writes = (data_z, data_x) if self.sector == "X" else (data_x, data_z)
        true = (np.bitwise_count(reads & self.support_mask) & np.uint64(1)).astype(np.uint64)
        acc_data, acc_slot, acc_gen = self.faults.sample(rng, len(reads), p_ft)

        if self.has_ring:
            cand = np.nonzero(acc_slot)[0]
            (corr,) = self._ring.get(acc_slot[cand], self._ring_corrections)
            acc_data[cand] ^= corr

        writes ^= acc_data
        return (true ^ acc_gen) & np.uint64(1)


class BlockSimulator:
    """Repeat-until-stable QEC cycle for a CSS code under circuit noise."""

    def __init__(self, code: CssCode, ratio: float, max_rounds: int | None = None):
        if not code.lx or not code.lz:
            raise ValueError("code file must supply LX/LZ rows for logical checks")
        if ratio <= 0:
            raise ValueError("ratio must be positive")
        self.code = code
        self.ratio = ratio
        self.t = code.t
        self.max_rounds = max_rounds if max_rounds is not None else max(25, 5 * (self.t + 1))
        if self.max_rounds < self.t + 1:
            raise ValueError("max_rounds below the acceptance run length")
        # data-qubit depolarizing: codes X, Y, Z per qubit
        self.data_noise = FaultTable(
            [3] * code.n,
            {"x": [[1 << q, 1 << q, 0] for q in range(code.n)],
             "z": [[0, 1 << q, 1 << q] for q in range(code.n)]},
        )
        self.code_lut: CodeLUT = build_code_lut(code)
        # correction and miss flag per syndrome; one the tables lack joins as a miss
        self._lut_caches = tuple(
            KeyCache(np.fromiter(t, np.uint64), (np.fromiter(t.values(), np.uint64),
                                                np.zeros(len(t), bool)))
            for t in (self.code_lut.z_table, self.code_lut.x_table))
        self.extractors = [
            _GeneratorExtractor("X", row, code.d) for row in code.hx
        ] + [
            _GeneratorExtractor("Z", row, code.d) for row in code.hz
        ]
        self.n_hx = len(code.hx)

    def run_batch(self, p: float, seed: int, batch_index: int, size: int) -> int:
        """Returns the number of logical failures in the batch."""
        rng = np.random.default_rng([seed, 3, batch_index])
        code = self.code
        data_x, data_z = self.data_noise.sample(rng, size, p)
        accepted = self.extract_until_stable(rng, p / self.ratio, data_x, data_z)

        n_hx = self.n_hx
        fail = self._correct(accepted & np.uint64((1 << n_hx) - 1),
                             accepted >> np.uint64(n_hx), data_x, data_z)
        # one ideal decoding pass: noiseless syndromes plus the tables
        fail |= self._correct(_parities(data_z, code.hx), _parities(data_x, code.hz),
                              data_x, data_z)
        fail |= (_parities(data_x, code.lz) | _parities(data_z, code.lx)) != 0
        return int(fail.sum())

    def extract_until_stable(self, rng: np.random.Generator, p_ft: float,
                             data_x: np.ndarray, data_z: np.ndarray) -> np.ndarray:
        """Repeat-until-stable over the batch; returns each trial's accepted
        syndrome (X rows in the low bits) and updates the data in place.

        Each round extracts only the trials still active, compacted in
        trial order, and scatters back those that finish.  The last round
        finishes the round-capped ones too: flagged unstable by the
        protocol, they are still decoded with their last syndrome.
        """
        size = len(data_x)
        # the active trials' indices, data frames (round one works on the
        # batch arrays), run lengths and last syndromes; a run length of 0
        # makes the first round's run 1 whatever it reads
        idx, dx, dz = np.arange(size), data_x, data_z
        run_len = np.zeros(size, dtype=np.int64)
        last_syn = np.zeros(size, dtype=np.uint64)
        accepted = np.zeros(size, dtype=np.uint64)
        for rnd in range(self.max_rounds):
            syn = np.zeros(len(idx), dtype=np.uint64)
            for gi, ext in enumerate(self.extractors):
                syn |= ext.extract(rng, dx, dz, p_ft) << np.uint64(gi)
            run_len = np.where(syn == last_syn, run_len + 1, 1)
            last_syn = syn
            done = (run_len >= self.t + 1) | (rnd == self.max_rounds - 1)
            fin = idx[done]
            accepted[fin], data_x[fin], data_z[fin] = syn[done], dx[done], dz[done]
            keep = ~done
            idx, dx, dz, run_len, last_syn = (
                a[keep] for a in (idx, dx, dz, run_len, last_syn))
            if idx.size == 0:
                break
        return accepted

    def _correct(self, sx: np.ndarray, sz: np.ndarray, data_x: np.ndarray,
                 data_z: np.ndarray) -> np.ndarray:
        """Applies the code-LUT corrections in place; returns the trials
        whose syndrome the tables miss."""
        z_corr, z_miss = self._lut_caches[0].get(sx, _misses)
        x_corr, x_miss = self._lut_caches[1].get(sz, _misses)
        data_z ^= z_corr
        data_x ^= x_corr
        return z_miss | x_miss


def _misses(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Code-LUT answers for syndromes the tables lack: no correction, a miss."""
    return np.zeros(len(keys), np.uint64), np.ones(len(keys), bool)


def _parities(data: np.ndarray, rows: Sequence[int]) -> np.ndarray:
    """Bit i of each entry: parity of that entry's mask on ``rows[i]``."""
    out = np.zeros(len(data), dtype=np.uint64)
    for i, row in enumerate(rows):
        out |= (np.bitwise_count(data & np.uint64(row)) & np.uint64(1)) << np.uint64(i)
    return out


def run_block_mc(
    code: CssCode,
    p: float,
    ratio: float = 20.0,
    min_failures: int = 100,
    seed: int = 0,
    trial_cap: int = 10**8,
    batch_size: int = 100_000,
    jobs: int = 1,
    max_rounds: int | None = None,
    simulator: BlockSimulator | None = None,
) -> TrialStats:
    """Logical failure rate of one full QEC cycle at data error rate ``p``
    and extraction noise p/ratio; a given ``simulator`` brings its own
    ratio."""
    if min_failures < 1:
        raise ValueError("min_failures must be positive")
    sim = simulator if simulator is not None else BlockSimulator(code, ratio, max_rounds)
    p_ft = _extraction_rate(p, sim.ratio)
    trials, failures = run_batches_until(
        partial(sim.run_batch, p, seed), min_failures, trial_cap, batch_size, jobs
    )
    return TrialStats(
        p=p, p_ft=p_ft, trials=trials, failures=failures, seed=seed,
        censored=failures < min_failures,
    )


def _extraction_rate(p: float, ratio: float) -> float:
    """p / ratio, after checking that both it and p are probabilities."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p!r} is not a probability")
    if p / ratio > 1.0:
        raise ValueError(f"extraction rate p/ratio={p / ratio!r} exceeds 1")
    return p / ratio


def sweep_block_mc(
    code: CssCode,
    p_list: Sequence[float],
    ratio: float = 20.0,
    min_failures: int = 100,
    seed: int = 0,
    trial_cap: int = 10**8,
    batch_size: int = 100_000,
    jobs: int = 1,
    max_rounds: int | None = None,
) -> SweepResult:
    sim = BlockSimulator(code, ratio, max_rounds)
    for p in p_list:
        _extraction_rate(p, ratio)
    points = []
    for p in sorted(p_list):
        points.append(
            run_block_mc(code, p, ratio, min_failures, seed, trial_cap,
                         batch_size, jobs=jobs, simulator=sim)
        )
    slope, stderr = _fit_sweep(points)
    return SweepResult(tuple(points), tuple(float("nan") for _ in points),
                       slope, stderr)

