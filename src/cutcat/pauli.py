"""Binary-symplectic Pauli arithmetic and CSS code handling.

Errors are stored as packed bit masks with qubit id = bit index, so that
composing two errors is a single integer XOR and support tests are
bitwise AND.  All types are immutable and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def parity(mask: int) -> int:
    return mask.bit_count() & 1


def syndrome_images(rows: Sequence[int], n: int) -> list[int]:
    """The syndrome of each of n qubits under ``rows``: bit i of image q
    is set when row i has qubit q."""
    return [sum(((r >> q) & 1) << i for i, r in enumerate(rows)) for q in range(n)]


class MaskMap:
    """The GF(2)-linear map of bit masks sending bit j to ``images[j]``.

    Called on an array of masks (any shape, 0-d included, or a Python
    int), it returns their uint64 images in that shape: one 256-entry
    table per byte of the input width, each byte of a little-endian view
    of the masks gathering its table's entry, XORed.  Bits at or above
    ``len(images)`` are ignored."""

    def __init__(self, images: Sequence[int]):
        n_bytes = (len(images) + 7) // 8 or 1
        imgs = np.zeros(8 * n_bytes, np.uint64)
        imgs[:len(images)] = images
        bits = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(bool)
        self.tables = np.bitwise_xor.reduce(
            np.where(bits, imgs.reshape(-1, 1, 8), np.uint64(0)), axis=-1)

    def __call__(self, masks) -> np.ndarray:
        shape = np.shape(masks)
        data = np.ascontiguousarray(masks, "<u8").reshape(-1).view(np.uint8)
        out = self.tables[0].take(data[::8].astype(np.intp))
        for b in range(1, len(self.tables)):
            out ^= self.tables[b].take(data[b::8].astype(np.intp))
        return out.reshape(shape)


class CodeFormatError(ValueError):
    """Raised when a CSS code file or a LUT bit string is malformed, or a
    code fails validation."""


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank of a set of F2 row vectors given as bit masks."""
    pivots: list[int] = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
    return len(pivots)


@dataclass(frozen=True)
class CssCode:
    """A CSS stabilizer code: X-type and Z-type generator supports.

    ``hx`` rows anticommute with Z errors, ``hz`` rows with X errors.
    ``lx``/``lz`` optionally hold logical operator supports, needed only
    for logical-failure detection in block simulations; given, they must
    be k commuting pairs.
    """

    n: int
    k: int
    d: int
    hx: tuple[int, ...]
    hz: tuple[int, ...]
    lx: tuple[int, ...] = ()
    lz: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.n <= 0 or self.k < 0 or self.d < 1:
            raise CodeFormatError("bad code parameters")
        for row in (*self.hx, *self.hz, *self.lx, *self.lz):
            if row >> self.n:
                raise CodeFormatError("row length exceeds n")
        for i, rx in enumerate(self.hx):
            for j, rz in enumerate(self.hz):
                if parity(rx & rz):
                    raise CodeFormatError(
                        f"X row {i} anticommutes with Z row {j}"
                    )
        if len(self.hx) + len(self.hz) != self.n - self.k:
            raise CodeFormatError(
                f"expected n-k = {self.n - self.k} generators, "
                f"got {len(self.hx)}+{len(self.hz)}"
            )
        if gf2_rank(self.hx) + gf2_rank(self.hz) != self.n - self.k:
            raise CodeFormatError("generator rows are not independent")
        if self.lx or self.lz:
            self._check_logicals()

    def _check_logicals(self) -> None:
        """Raise unless ``lx`` and ``lz`` hold k rows each, commute with
        the stabilizers, and pair up: their parity matrix has rank k."""
        if not len(self.lx) == len(self.lz) == self.k:
            raise CodeFormatError(f"expected k={self.k} LX and LZ rows, "
                                  f"got {len(self.lx)} and {len(self.lz)}")
        for name, logicals, other, stabs in (("LX", self.lx, "Z", self.hz),
                                             ("LZ", self.lz, "X", self.hx)):
            for i, row in enumerate(logicals):
                for j, stab in enumerate(stabs):
                    if parity(row & stab):
                        raise CodeFormatError(
                            f"{name} row {i} anticommutes with {other} row {j}")
        pairing = [mask_of(j for j, rz in enumerate(self.lz) if parity(rx & rz))
                   for rx in self.lx]
        if gf2_rank(pairing) != self.k:
            raise CodeFormatError(
                f"LX and LZ rows do not pair up: their parity matrix has "
                f"rank {gf2_rank(pairing)}, not k={self.k}")

    @property
    def t(self) -> int:
        return (self.d - 1) // 2


def residual_weight_mod_generator(err_on_support: int, gamma: int) -> int:
    """Coset weight of an error restricted to a measured generator's support.

    The measured generator acts as the all-ones flip on its own support,
    so the error and its complement are equivalent; the metric is the
    smaller of the two weights.
    """
    w = (err_on_support & ((1 << gamma) - 1)).bit_count()
    return min(w, gamma - w)


def _parse_binary_row(token: str, n: int, where: str) -> int:
    if not isinstance(token, str) or len(token) != n or set(token) - {"0", "1"}:
        raise CodeFormatError(f"{where}: expected {n} binary digits, got {token!r}")
    # leftmost character is qubit 0
    mask = 0
    for i, ch in enumerate(token):
        if ch == "1":
            mask |= 1 << i
    return mask


_WORD = (1 << 64) - 1


def _format_binary_rows(masks: Sequence[int], n: int) -> list[str]:
    """Each mask as ``n`` binary digits, qubit 0 leftmost, through one
    numpy array of 64-bit words."""
    words = np.stack([np.fromiter(((m >> lo) & _WORD for m in masks), np.uint64, len(masks))
                      for lo in range(0, n, 64)], axis=1)
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    chars = bits[:, :n] + ord("0")
    return chars.view(f"S{n}").ravel().astype(str).tolist()


def parse_css_code(text: str) -> CssCode:
    """Parse a CSS code from its text form.

    Format: first line ``n k d``; then ``X r`` followed by r binary rows
    of length n; then ``Z s`` and s rows; optionally ``LX u`` / ``LZ v``
    blocks for logical operator supports.  ``#`` starts a comment line.
    """
    lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((lineno, stripped))
    if not lines:
        raise CodeFormatError("empty code file")

    cursor = 0

    def next_line() -> tuple[int, str]:
        nonlocal cursor
        if cursor >= len(lines):
            raise CodeFormatError("unexpected end of file")
        item = lines[cursor]
        cursor += 1
        return item

    lineno, header = next_line()
    parts = header.split()
    if len(parts) != 3:
        raise CodeFormatError(f"line {lineno}: expected 'n k d'")
    try:
        n, k, d = (int(p) for p in parts)
    except ValueError as exc:
        raise CodeFormatError(f"line {lineno}: non-integer header") from exc

    blocks: dict[str, list[int]] = {}
    expected = ["X", "Z"]
    optional = ["LX", "LZ"]
    while cursor < len(lines):
        lineno, head = next_line()
        parts = head.split()
        if len(parts) != 2 or parts[0] not in expected + optional:
            raise CodeFormatError(f"line {lineno}: expected block header")
        name = parts[0]
        if name in blocks:
            raise CodeFormatError(f"line {lineno}: duplicate {name} block")
        try:
            count = int(parts[1])
        except ValueError as exc:
            raise CodeFormatError(f"line {lineno}: bad row count") from exc
        rows = []
        for _ in range(count):
            row_lineno, row = next_line()
            rows.append(_parse_binary_row(row, n, f"line {row_lineno}"))
        blocks[name] = rows

    if "X" not in blocks or "Z" not in blocks:
        raise CodeFormatError("missing X or Z block")
    return CssCode(
        n=n,
        k=k,
        d=d,
        hx=tuple(blocks["X"]),
        hz=tuple(blocks["Z"]),
        lx=tuple(blocks.get("LX", ())),
        lz=tuple(blocks.get("LZ", ())),
    )


def serialize_css_code(code: CssCode) -> str:
    """Inverse of :func:`parse_css_code`; round-trips exactly."""
    out = [f"{code.n} {code.k} {code.d}"]
    for name, rows in (("X", code.hx), ("Z", code.hz),
                       ("LX", code.lx), ("LZ", code.lz)):
        if name in ("X", "Z") or rows:
            out.append(f"{name} {len(rows)}")
            out.extend(_format_binary_rows(rows, code.n))
    return "\n".join(out) + "\n"


STEANE_TEXT = """\
# [[7,1,3]] self-dual CSS code
7 1 3
X 3
0001111
0110011
1010101
Z 3
0001111
0110011
1010101
LX 1
1110000
LZ 1
1110000
"""


def steane_code() -> CssCode:
    return parse_css_code(STEANE_TEXT)
