"""Whole-code simulation: noisy extraction of every generator with the
repeat-until-stable protocol and table decoding.

Generators of weight above six get the ring-checked gadget, the rest the
plain cat gadget.  One ``FaultTable`` holds a round's noise: a trial it does
not hit reads its data syndrome, only hit ones run ``apply_round``, and
only ring decoding drops into Python, once per new syndrome key (``KeyCache``).
``experiments.run_mc`` and ``sweep_mc`` run a ``BlockSimulator`` as they
run a gadget's engine."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .decoders import CodeLUT, RuleDecoderD3D5, build_code_lut, table_lookup
from .gadgets import GadgetSpec, build_cut_cat, build_full_cat
from .pauli import CssCode, bits_of
from .sim import FaultTable, noisy_operations, op_code_effects
from .experiments import TrialStats, run_mc
from .verify import KeyCache

CUT_CAT_WEIGHT_THRESHOLD = 6


class _Generator:
    """One generator's gadget and ring decoder, in global coordinates.
    X- and Z-type generators build the same gadgets: the noise model is
    symmetric under swapping the Pauli frame components.  A ring gadget's
    ``ring`` caches its decoder's corrections per slot key."""

    def __init__(self, sector: str, support_mask: int, distance: int):
        self.sector = sector
        self.support = list(bits_of(support_mask))
        gamma = len(self.support)
        if gamma > CUT_CAT_WEIGHT_THRESHOLD:
            spec = GadgetSpec(gamma=gamma, distance=distance, adaptive=False)
            self.gadget = build_cut_cat(spec)
            self.decoder = RuleDecoderD3D5(self.gadget, spec.t)
            self.ring = KeyCache(self.gadget.n_slots, self.ring_corrections)
        else:
            self.gadget = build_full_cat(gamma)
            self.decoder = self.ring = None

    def _globalize(self, local: np.ndarray) -> np.ndarray:
        """Local data masks (bit i: the gadget's data qubit i) moved to
        the code's qubits."""
        bit = (np.asarray(local, np.uint64)[..., None]
               >> np.arange(len(self.support), dtype=np.uint64)) & np.uint64(1)
        return np.bitwise_or.reduce(bit << np.array(self.support, np.uint64), axis=-1)

    def ring_corrections(self, keys: np.ndarray) -> tuple[np.ndarray]:
        g = self.gadget
        _, corrections = self.decoder.tables(keys, g.cat_count, g.base_rounds)
        return (self._globalize(corrections[:, 0]),)


class BlockSimulator:
    """Repeat-until-stable QEC cycle for a CSS code under circuit noise."""

    batch_size = 100_000

    def __init__(self, code: CssCode, ratio: float, max_rounds: int | None = None):
        if not code.lx or not code.lz:
            raise ValueError("code file must supply LX/LZ rows for logical checks")
        if not ratio > 0:  # NaN included
            raise ValueError("ratio must be positive")
        self.code = code
        self.ratio = ratio
        self.t = code.t
        self.max_rounds = max_rounds if max_rounds is not None else max(25, 5 * (self.t + 1))
        if self.max_rounds < self.t + 1:
            raise ValueError("max_rounds below the acceptance run length")
        # data-qubit depolarizing: codes X, Y, Z per qubit
        self.data_noise = FaultTable([3] * code.n,
                                     {"x": [[1 << q, 1 << q, 0] for q in range(code.n)],
                                      "z": [[0, 1 << q, 1 << q] for q in range(code.n)]})
        self.code_lut: CodeLUT = build_code_lut(code)
        self._parity = tuple(_parity_tables(rows, code.n)
                             for rows in (code.hx, code.hz, code.lx, code.lz))
        self.generators = ([_Generator("X", row, code.d) for row in code.hx]
                           + [_Generator("Z", row, code.d) for row in code.hz])
        self._rings = [gen for gen in self.generators if gen.decoder is not None]
        self.n_hx = len(code.hx)
        self.round_faults = self._round_table()

    def _round_table(self) -> FaultTable:
        """The noise of one round: every generator's gadget ops in
        extraction order, one column per field.  ``wx`` and ``wz`` hold
        the global residuals of the X and the Z generators, ``outcomes``
        bit gi for generator gi's outcome flip, and ``ring{k}`` the slot
        flips of ring generator k; ``FaultTable`` packs them into words."""
        n_codes, parts = [], []
        for gi, gen in enumerate(self.generators):
            ops = noisy_operations(gen.gadget)
            n_codes += [op.n_codes for op in ops]
            eff = op_code_effects(gen.gadget, ops, ("data_x", "slot_flips", "gen_flip"))
            data, zero = gen._globalize(eff["data_x"]), np.zeros_like(eff["data_x"])
            slots = [eff["slot_flips"] if ring is gen else zero for ring in self._rings]
            wx, wz = (data, zero) if gen.sector == "X" else (zero, data)
            parts.append([wx, wz, eff["gen_flip"] << np.uint64(gi), *slots])
        width = math.lcm(*n_codes)
        names = ["wx", "wz", "outcomes"] + [f"ring{k}" for k in range(len(self._rings))]
        return FaultTable(n_codes, {
            name: np.concatenate([np.tile(p[k], (1, width // p[k].shape[1])) for p in parts])
            for k, name in enumerate(names)})

    def extraction_rate(self, p: float) -> float:
        """p / ratio, the rate of every extraction op, after checking that
        both it and p are probabilities."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p={p!r} is not a probability")
        if p / self.ratio > 1.0:
            raise ValueError(f"extraction rate p/ratio={p / self.ratio!r} exceeds 1")
        return p / self.ratio

    def bound(self, p_ft: float) -> float:
        return math.nan  # no analytic bound for a block

    def run_batch(self, p: float, seed: int, batch_index: int, size: int) -> int:
        """Returns the number of logical failures in the batch at data error
        rate p."""
        rng = np.random.default_rng([seed, 3, batch_index])
        data_x, data_z = self.data_noise.sample(rng, size, p)
        accepted = self.extract_until_stable(rng, p / self.ratio, data_x, data_z)
        hx, hz, lx, lz = self._parity
        fail = self._correct(accepted & np.uint64((1 << self.n_hx) - 1),
                             accepted >> np.uint64(self.n_hx), data_x, data_z)
        # one ideal decoding pass: noiseless syndromes plus the tables
        fail |= self._correct(_parities(data_z, hx), _parities(data_x, hz),
                              data_x, data_z)
        fail |= (_parities(data_x, lz) | _parities(data_z, lx)) != 0
        return int(fail.sum())

    def extract_until_stable(self, rng: np.random.Generator, p_ft: float,
                             data_x: np.ndarray, data_z: np.ndarray) -> np.ndarray:
        """Repeat-until-stable over the batch; returns each trial's accepted
        syndrome (X rows in the low bits) and updates the data in place.
        Each round draws hits over the active trials, in trial order: a trial
        no fault hits reads its data syndrome, only hit ones run ``apply_round``.
        Round-capped trials end with their last syndrome, though unstable."""
        size = len(data_x)
        (hx, hz, *_), n_hx = self._parity, np.uint64(self.n_hx)
        # the active trials' indices into the batch, whose arrays hold their
        # data frames, and their data syndromes, run lengths and last
        # syndromes; a run length of 0 makes the first round's run 1
        idx = np.arange(size)
        data_syn = _parities(data_z, hx) | _parities(data_x, hz) << n_hx
        run_len = np.zeros(size, dtype=np.int64)
        last_syn = np.zeros(size, dtype=np.uint64)
        accepted = np.zeros(size, dtype=np.uint64)
        for rnd in range(self.max_rounds):
            hit, faults = self.round_faults.sample_hits(rng, len(idx), p_ft)
            at = idx[hit]
            syn, x, z = data_syn.copy(), data_x[at], data_z[at]
            syn[hit], data_x[at], data_z[at] = self.apply_round(x, z, faults), x, z
            data_syn[hit] = _parities(z, hx) | _parities(x, hz) << n_hx
            run_len = np.where(syn == last_syn, run_len + 1, 1)
            last_syn = syn
            done = (run_len >= self.t + 1) | (rnd == self.max_rounds - 1)
            if not done.any():
                continue
            accepted[idx[done]] = syn[done]
            keep = ~done
            idx, data_syn, run_len, last_syn = (a[keep] for a in (idx, data_syn, run_len, last_syn))
            if idx.size == 0:
                break
        return accepted

    def apply_round(self, data_x: np.ndarray, data_z: np.ndarray,
                    faults: Sequence[np.ndarray]) -> np.ndarray:
        """One round of every generator's extraction from each trial's
        round-table columns (``wx`` and ``wz`` overwritten), each ring
        generator's slot keys decoded through its ``KeyCache``; returns
        the syndromes (X generators low) and updates the data in place.
        Z generators read ``data_x`` after every X residual and ring
        correction, as in extraction one generator at a time."""
        wx, wz, outcomes, *rings = faults
        syn = _parities(data_z, self._parity[0])
        for gen, keys in zip(self._rings, rings):
            if len(hit := np.flatnonzero(keys)):  # no cache call without keys
                (corr,) = gen.ring.get(keys[hit])
                (wx if gen.sector == "X" else wz)[hit] ^= corr
        data_x ^= wx
        syn |= _parities(data_x, self._parity[1]) << np.uint64(self.n_hx)
        data_z ^= wz
        return syn ^ outcomes

    def _correct(self, sx: np.ndarray, sz: np.ndarray, data_x: np.ndarray,
                 data_z: np.ndarray) -> np.ndarray:
        """Applies the code-LUT corrections in place; returns the trials
        whose syndrome the tables miss.  Only nonzero syndromes are looked
        up: zero takes no correction and is never a miss."""
        miss = np.zeros(len(sx), bool)
        for table, syn, data in zip((self.code_lut.z_table, self.code_lut.x_table),
                                    (sx, sz), (data_z, data_x)):
            if len(hit := np.flatnonzero(syn)):
                corr, found = table_lookup(table, syn[hit])
                data[hit] ^= corr
                miss[hit] |= ~found
        return miss


def _parity_tables(rows: Sequence[int], n: int) -> np.ndarray:
    """One 256-entry table per byte of an n-bit mask: entry v of table b
    has bit i set when v, as byte b of a mask, meets ``rows[i]`` oddly."""
    masks = np.arange(256, dtype=np.uint64)[None, :, None] << (
        np.uint64(8) * np.arange((n + 7) // 8, dtype=np.uint64))[:, None, None]
    odd = np.bitwise_count(masks & np.array(rows, np.uint64)) & np.uint64(1)
    return (odd << np.arange(len(rows), dtype=np.uint64)).sum(axis=2, dtype=np.uint64)


def _parities(data: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Bit i of each entry: parity of that entry's mask on row i of the
    rows ``tables`` was built from."""
    data = np.ascontiguousarray(data, "<u8").view(np.uint8)
    out = tables[0].take(data[::8].astype(np.intp))
    for b in range(1, len(tables)):
        out ^= tables[b].take(data[b::8].astype(np.intp))
    return out


def run_block_mc(
    code: CssCode, p: float, ratio: float = 20.0, min_failures: int = 100,
    seed: int = 0, trial_cap: int = 10**8, batch_size: int = BlockSimulator.batch_size,
    jobs: int = 1, max_rounds: int | None = None, simulator: BlockSimulator | None = None,
) -> TrialStats:
    """Logical failure rate of one full QEC cycle at data error rate ``p``
    and extraction noise p/ratio (``run_mc``); a given ``simulator`` brings
    its own ratio."""
    sim = simulator if simulator is not None else BlockSimulator(code, ratio, max_rounds)
    return run_mc(sim, p, min_failures, seed, trial_cap, batch_size, jobs)
