"""Pauli frames and code syndromes for the tests: a plain reference for
CSS syndrome arithmetic, kept out of the package, which packs errors
into numpy arrays instead."""

from __future__ import annotations

from dataclasses import dataclass

from cutcat.pauli import CssCode, parity


@dataclass(frozen=True)
class PauliFrame:
    """An n-qubit Pauli error, split into X and Z bit masks.

    A Y on qubit q is represented as bit q set in both masks.  Frames
    compose by XOR per component, so compose(a, a) is the identity.
    """

    n: int
    x: int = 0
    z: int = 0

    def __post_init__(self) -> None:
        if self.x >> self.n or self.z >> self.n:
            raise ValueError("mask exceeds qubit count")

    @classmethod
    def identity(cls, n: int) -> "PauliFrame":
        return cls(n)

    @classmethod
    def single(cls, n: int, qubit: int, pauli: str) -> "PauliFrame":
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range")
        bit = 1 << qubit
        if pauli == "X":
            return cls(n, bit, 0)
        if pauli == "Z":
            return cls(n, 0, bit)
        if pauli == "Y":
            return cls(n, bit, bit)
        raise ValueError(f"unknown Pauli {pauli!r}")

    def compose(self, other: "PauliFrame") -> "PauliFrame":
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        return PauliFrame(self.n, self.x ^ other.x, self.z ^ other.z)

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0


@dataclass(frozen=True)
class Syndrome:
    """One bit per stabilizer generator, packed into an int."""

    bits: int
    n_bits: int

    def __post_init__(self) -> None:
        if self.bits >> self.n_bits:
            raise ValueError("syndrome bits exceed generator count")

    def __xor__(self, other: "Syndrome") -> "Syndrome":
        if other.n_bits != self.n_bits:
            raise ValueError("dimension mismatch")
        return Syndrome(self.bits ^ other.bits, self.n_bits)

    def as_tuple(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.n_bits))


def code_syndrome(code: CssCode, err: PauliFrame) -> Syndrome:
    """Syndrome of ``err``: X-generator bits first, then Z-generator bits.

    An X-type generator fires on the Z component of the error and vice
    versa; errors equal to a generator support are invisible.
    """
    if err.n != code.n:
        raise ValueError("dimension mismatch")
    bits = 0
    pos = 0
    for row in code.hx:
        bits |= parity(row & err.z) << pos
        pos += 1
    for row in code.hz:
        bits |= parity(row & err.x) << pos
        pos += 1
    return Syndrome(bits, pos)
