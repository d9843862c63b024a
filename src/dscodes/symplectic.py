"""Bit-packed GF(2) linear algebra and phase-free Pauli strings.

Vectors pack their F_2 entries into Python integers, one bit per
coordinate with index 0 at the least significant bit, so the
enumeration-heavy callers in this package work on whole words instead of
per-bit branches.  A set of rows is a plain sequence of such ints; its
span lives in a :class:`RowBasis`, the one elimination behind every rank,
membership and coset-word question.  An n-qubit Pauli operator is an
(x, z) pair of n-bit masks; overall phases are never tracked, which is all
that syndrome extraction and stabilizer-coset arguments need.

The error vector of a Pauli operator is the 2n-bit concatenation with the
x part in bits 0..n-1 and the z part in bits n..2n-1.  This layout is part
of the file and CLI contract and must not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

__all__ = [
    "BitVector",
    "DimensionError",
    "PauliParseError",
    "PauliString",
    "RowBasis",
    "format_pauli",
    "multiply",
    "parse_pauli",
    "symplectic_product",
]


class DimensionError(ValueError):
    """Operands have incompatible lengths."""


class PauliParseError(ValueError):
    """A Pauli string contains a character outside I, X, Y, Z."""

    def __init__(self, text: str, position: int) -> None:
        self.text = text
        self.position = position
        super().__init__(
            f"invalid Pauli character {text[position]!r} at position {position} in {text!r}"
        )


def _parity(word: int) -> int:
    return word.bit_count() & 1


@dataclass(frozen=True)
class BitVector:
    """A length-``n`` vector over F_2 packed into an int, bit i = entry i."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"negative length {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits 0x{self.bits:x} out of range for length {self.n}")

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(0, n)

    @classmethod
    def unit(cls, i: int, n: int) -> "BitVector":
        if not 0 <= i < n:
            raise IndexError(f"unit index {i} out of range for length {n}")
        return cls(1 << i, n)

    @classmethod
    def from01(cls, text: str) -> "BitVector":
        """Parse an unspaced 0/1 string, index 0 first."""
        if set(text) - {"0", "1"}:
            raise ValueError(f"{text!r} holds a character other than 0 and 1")
        return cls(int(text[::-1] or "0", 2), len(text))

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def bit(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"index {i} out of range for length {self.n}")
        return (self.bits >> i) & 1

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if (self.bits >> i) & 1)

    def to01(self) -> str:
        """Render as an unspaced 0/1 string, index 0 first."""
        return "".join(str((self.bits >> i) & 1) for i in range(self.n))

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise DimensionError(f"length mismatch: {self.n} vs {other.n}")
        return BitVector(self.bits ^ other.bits, self.n)

    def __iter__(self) -> Iterator[int]:
        return ((self.bits >> i) & 1 for i in range(self.n))

    def __str__(self) -> str:
        return self.to01()


class RowBasis:
    """Echelonized row-space basis over F_2 with cheap membership tests.

    Stored rows have distinct highest set bits, their pivots.  ``reduce``
    clears every pivot bit, so it is F_2-linear and canonical per coset,
    and zero exactly on the span.  All cost O(rank) word operations.
    """

    def __init__(self, rows: Iterable[int] = ()) -> None:
        self._pivot_rows: dict[int, int] = {}
        self._pivot_mask = 0
        for r in rows:
            self.add(r)

    @property
    def rank(self) -> int:
        return len(self._pivot_rows)

    @property
    def pivot_rows(self) -> Mapping[int, int]:
        """Read-only view of the stored rows, keyed by their highest set bit."""
        return MappingProxyType(self._pivot_rows)

    def reduce(self, word: int) -> int:
        """The representative of ``word``'s coset with no pivot bit set."""
        while hits := word & self._pivot_mask:
            word ^= self._pivot_rows[hits.bit_length() - 1]
        return word

    def add(self, word: int) -> bool:
        """Insert a row; returns True when it enlarged the span."""
        residue = self.reduce(word)
        if residue == 0:
            return False
        pivot = residue.bit_length() - 1
        self._pivot_rows[pivot] = residue
        self._pivot_mask |= 1 << pivot
        return True

    def contains(self, word: int) -> bool:
        return self.reduce(word) == 0


_LETTER_FOR_XZ = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_XZ_FOR_LETTER = {v: k for k, v in _LETTER_FOR_XZ.items()}


@dataclass(frozen=True)
class PauliString:
    """A phase-free n-qubit Pauli operator as x/z bit masks.

    Qubit i carries I, X, Y, or Z according to (x_i, z_i) being
    (0,0), (1,0), (1,1), or (0,1).  Qubits are indexed left to right in
    the text rendering, so ``parse_pauli("XZ").letter(0) == "X"``.
    """

    n: int
    x: int
    z: int

    def __post_init__(self) -> None:
        limit = 1 << self.n
        if not (0 <= self.x < limit and 0 <= self.z < limit):
            raise ValueError(f"x/z masks do not fit {self.n} qubits")

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    @classmethod
    def single(cls, letter: str, qubit: int, n: int) -> "PauliString":
        """One non-identity letter at ``qubit``, identity elsewhere."""
        xb, zb = _XZ_FOR_LETTER[letter]
        return cls(n, xb << qubit, zb << qubit)

    @classmethod
    def from_error_vector(cls, vec: BitVector) -> "PauliString":
        if vec.n % 2:
            raise DimensionError(f"error vector length {vec.n} is odd")
        n = vec.n // 2
        mask = (1 << n) - 1
        return cls(n, vec.bits & mask, vec.bits >> n)

    @property
    def weight(self) -> int:
        """Number of non-identity tensor factors."""
        return (self.x | self.z).bit_count()

    def letter(self, qubit: int) -> str:
        return _LETTER_FOR_XZ[(self.x >> qubit) & 1, (self.z >> qubit) & 1]

    def error_vector(self) -> BitVector:
        """The 2n-bit (x part, z part) encoding; x part in the low bits."""
        return BitVector(self.x | (self.z << self.n), 2 * self.n)

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)

    def __str__(self) -> str:
        return format_pauli(self)


def parse_pauli(text: str) -> PauliString:
    """Parse an uppercase I/X/Y/Z string into a PauliString."""
    if not text:
        raise ValueError("empty Pauli string")
    x = 0
    z = 0
    for i, c in enumerate(text):
        try:
            xb, zb = _XZ_FOR_LETTER[c]
        except KeyError:
            raise PauliParseError(text, i) from None
        x |= xb << i
        z |= zb << i
    return PauliString(len(text), x, z)


def format_pauli(p: PauliString) -> str:
    """Render as uppercase I/X/Y/Z text, qubit 0 first."""
    return "".join(p.letter(q) for q in range(p.n))


def symplectic_product(a: PauliString, b: PauliString) -> int:
    """0 if the operators commute as phase-free Paulis, 1 otherwise."""
    if a.n != b.n:
        raise DimensionError(f"qubit count mismatch: {a.n} vs {b.n}")
    return _parity((a.x & b.z) ^ (a.z & b.x))


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Phase-free product: componentwise XOR of the x and z masks."""
    if a.n != b.n:
        raise DimensionError(f"qubit count mismatch: {a.n} vs {b.n}")
    return PauliString(a.n, a.x ^ b.x, a.z ^ b.z)
