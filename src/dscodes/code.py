"""Stabilizer codes, check sets, syndrome extraction, distances, and code files.

A :class:`StabilizerCode` is identified by an independent commuting
generator list; a :class:`CheckSet` is an ordered, possibly redundant list
of stabilizer operators actually measured for syndrome extraction.  A
:class:`Fault` pairs a data error with a syndrome flip pattern.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .symplectic import (
    BitVector,
    DimensionError,
    PauliString,
    RowBasis,
    multiply,
    parse_pauli,
    symplectic_product,
)

__all__ = [
    "CheckSet",
    "CodeFileError",
    "Fault",
    "FIXTURES",
    "StabilizerCode",
    "ValidationError",
    "five_qubit",
    "iter_error_syndromes",
    "load_checkset",
    "load_code",
    "observed_syndrome",
    "save_checkset",
    "save_code",
    "scan_distances",
    "steane_alternative",
    "steane_css",
    "syndrome",
]

# Enumeration order shared by tables, syndrome-table construction, and
# witness reports: the identity, then X on qubits 0..n-1, then Y, then Z.
PAULI_TYPES = "XYZ"


class ValidationError(ValueError):
    """A generator or operator list violates a structural invariant."""


class CodeFileError(ValueError):
    """A code file could not be parsed."""

    def __init__(self, path: str, line_no: int, message: str) -> None:
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


def _swap_halves(word: int, n: int) -> int:
    """Swap the x and z halves of a 2n-bit error vector."""
    mask = (1 << n) - 1
    return (word >> n) | ((word & mask) << n)


@functools.cache
def _error_tables(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """``single_qubit_tables`` of n qubits with no checks: every syndrome is 0."""
    return tuple(tuple((PauliString.single(t, q, n).error_vector().bits, 0) for t in PAULI_TYPES)
                 for q in range(n))


@dataclass(frozen=True)
class StabilizerCode:
    """An [[n, k]] stabilizer code given by n-k independent commuting generators."""

    generators: tuple[PauliString, ...]

    def __post_init__(self) -> None:
        gens = self.generators
        if not gens:
            raise ValidationError("a stabilizer code needs at least one generator")
        n = gens[0].n
        for i, g in enumerate(gens):
            if g.n != n:
                raise ValidationError(f"generator {i} acts on {g.n} qubits, expected {n}")
        for i, j in itertools.combinations(range(len(gens)), 2):
            if symplectic_product(gens[i], gens[j]):
                raise ValidationError(f"generators {i} and {j} anticommute")
        basis = RowBasis()
        for i, g in enumerate(gens):
            if not basis.add(g.error_vector().bits):
                raise ValidationError(f"generator {i} depends on the previous ones")

    @classmethod
    def from_strings(cls, texts: Iterable[str]) -> "StabilizerCode":
        return cls(tuple(parse_pauli(t) for t in texts))

    @property
    def n(self) -> int:
        return self.generators[0].n

    @property
    def k(self) -> int:
        return self.n - len(self.generators)

    @functools.cached_property
    def row_basis(self) -> RowBasis:
        """Echelon basis of the generator row space, for membership tests."""
        return RowBasis(g.error_vector().bits for g in self.generators)

    def contains_vector(self, e: BitVector) -> bool:
        """True iff ``e`` is the error vector of a stabilizer element."""
        if e.n != 2 * self.n:
            raise DimensionError(f"vector length {e.n}, expected {2 * self.n}")
        return self.row_basis.contains(e.bits)

    def element(self, mask: int) -> PauliString:
        """Product of the generators selected by the set bits of ``mask``."""
        selected = (g for i, g in enumerate(self.generators) if (mask >> i) & 1)
        return functools.reduce(multiply, selected, PauliString.identity(self.n))

    def elements(self) -> Iterator[PauliString]:
        """All 2^(n-k) stabilizer elements, by generator subset."""
        return map(self.element, range(1 << len(self.generators)))


@dataclass(frozen=True)
class CheckSet:
    """An ordered list of m >= n-k stabilizer operators used for extraction."""

    code: StabilizerCode
    operators: tuple[PauliString, ...]

    def __post_init__(self) -> None:
        n = self.code.n
        if not self.operators:
            raise ValidationError("a check set needs at least one operator")
        for i, op in enumerate(self.operators):
            if op.n != n:
                raise ValidationError(f"operator {i} acts on {op.n} qubits, expected {n}")
            if not self.code.contains_vector(op.error_vector()):
                raise ValidationError(f"operator {i} is not a stabilizer element of the code")
        basis = RowBasis(op.error_vector().bits for op in self.operators)
        expected = n - self.code.k
        if basis.rank != expected:
            raise ValidationError(
                f"check set spans rank {basis.rank}, expected {expected}; information lost"
            )

    @classmethod
    def from_code(cls, code: StabilizerCode) -> "CheckSet":
        """The bare check set that measures exactly the generators."""
        return cls(code, code.generators)

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def m(self) -> int:
        return len(self.operators)

    @property
    def redundancy(self) -> int:
        return self.m - (self.n - self.code.k)

    @functools.cached_property
    def _partner_rows(self) -> tuple[int, ...]:
        # Bit i of the syndrome is parity(partner_i AND e): the symplectic
        # form reduces to a plain dot product once halves are swapped.
        return tuple(_swap_halves(op.error_vector().bits, self.n) for op in self.operators)

    def syndrome_int(self, e_bits: int) -> int:
        out = 0
        for i, p in enumerate(self._partner_rows):
            out |= ((p & e_bits).bit_count() & 1) << i
        return out

    @functools.cached_property
    def single_qubit_tables(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per (qubit, type) pairs of (error-vector bits, syndrome bits).

        ``tables[q][t]`` covers type t in the X, Y, Z order used by all
        enumeration loops; syndromes of heavier errors XOR these entries.
        """
        return tuple(tuple((e, self.syndrome_int(e)) for e, _ in row) for row in _error_tables(self.n))


@dataclass(frozen=True)
class Fault:
    """A joint error: data error vector in F_2^{2n} plus syndrome flips in F_2^m."""

    data: BitVector
    flips: BitVector

    @classmethod
    def from_ints(cls, e_bits: int, f_bits: int, n: int, m: int) -> "Fault":
        """Data bits ``e_bits`` on n qubits plus flip bits ``f_bits`` on m checks."""
        return cls(BitVector(e_bits, 2 * n), BitVector(f_bits, m))

    @property
    def data_weight(self) -> int:
        """Pauli weight (touched qubits) of the data part."""
        return self.data_pauli().weight

    @property
    def flip_weight(self) -> int:
        return self.flips.weight

    @property
    def combined_weight(self) -> int:
        return self.data_weight + self.flip_weight

    def data_pauli(self) -> PauliString:
        return PauliString.from_error_vector(self.data)

    def describe(self) -> str:
        return f"data={self.data_pauli()} flips={self.flips.to01()}"


def syndrome(checkset: CheckSet, e: BitVector) -> BitVector:
    """Syndrome of a data error: bit i is the symplectic product with row i."""
    if e.n != 2 * checkset.n:
        raise DimensionError(f"error vector length {e.n}, expected {2 * checkset.n}")
    return BitVector(checkset.syndrome_int(e.bits), checkset.m)


def observed_syndrome(checkset: CheckSet, fault: Fault) -> BitVector:
    """What the extraction hardware reports: syndrome of the data plus flips."""
    if fault.flips.n != checkset.m:
        raise DimensionError(f"flip vector length {fault.flips.n}, expected {checkset.m}")
    return syndrome(checkset, fault.data) ^ fault.flips


def iter_error_syndromes(
    checkset: CheckSet, min_weight: int, max_weight: int
) -> Iterator[tuple[int, int, int]]:
    """Yield (error bits, syndrome bits, weight) over all Pauli errors.

    Errors are enumerated by increasing Pauli weight between the given
    bounds, qubit subsets in combination order, types X before Y before Z.
    ``min_weight=0`` yields the identity ``(0, 0, 0)`` first.
    """
    if min_weight < 0:
        raise ValueError("min_weight must be nonnegative")
    return _walk_paulis(checkset.single_qubit_tables, min_weight, max_weight)


def _walk_paulis(tables, min_weight: int, max_weight: int) -> Iterator[tuple[int, int, int]]:
    """The walk of :func:`iter_error_syndromes` over any per-qubit (e, s) tables."""
    for w in range(min_weight, max_weight + 1):
        for qubits in itertools.combinations(range(len(tables)), w):
            rows = [tables[q] for q in qubits]
            for types in itertools.product(range(3), repeat=w):
                e = 0
                s = 0
                for row, t in zip(rows, types):
                    ev, sv = row[t]
                    e ^= ev
                    s ^= sv
                yield e, s, w


def scan_distances(code: StabilizerCode, cutoff: int) -> tuple[int | None, int | None]:
    """Exhaustive (d, d_pure) scan up to ``cutoff``; None means beyond it.

    d_pure is the least weight of a nontrivial operator commuting with the
    whole stabilizer; d additionally requires it to lie outside the
    stabilizer itself.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    if cutoff > code.n:
        raise ValueError(f"cutoff {cutoff} exceeds qubit count {code.n}")
    checks = CheckSet.from_code(code)
    basis = code.row_basis
    d = None
    d_pure = None
    for e, s, w in iter_error_syndromes(checks, 1, cutoff):
        if s == 0:
            if d_pure is None:
                d_pure = w
            if not basis.contains(e):
                d = w
                break
    return d, d_pure


# ---------------------------------------------------------------------------
# Built-in codes

_FIVE_QUBIT = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
_STEANE_CSS = ("XIIXIXX", "IXIXXIX", "IIXIXXX", "ZIIZIZZ", "IZIZZIZ", "IIZIZZZ")
_STEANE_ALT = ("YIIYIYY", "ZXIYXZY", "ZIXZXYY", "XYYZIZX", "YXYZZIX", "YYXIZZX")


def five_qubit() -> StabilizerCode:
    """The perfect [[5,1,3]] code."""
    return StabilizerCode.from_strings(_FIVE_QUBIT)


def steane_css() -> StabilizerCode:
    """The [[7,1,3]] CSS code with its usual X-type/Z-type generator split."""
    return StabilizerCode.from_strings(_STEANE_CSS)


def steane_alternative() -> StabilizerCode:
    """Alternative independent generators of the [[7,1,3]] code.

    The six operators are fixed products of the CSS generators
    (rows 0..2: S_i * S_3; rows 3..5: S_i * product of all six).  The
    transcribed strings are cross-checked against those products on every
    call; a mismatch raises instead of silently preferring one source.
    """
    css = steane_css().generators
    total = functools.reduce(multiply, css)
    products = tuple(
        [multiply(css[i], css[3]) for i in range(3)]
        + [multiply(css[i], total) for i in range(3, 6)]
    )
    transcribed = tuple(parse_pauli(t) for t in _STEANE_ALT)
    if products != transcribed:
        raise RuntimeError(
            "alternative Steane generator transcription disagrees with the "
            "defining products; refusing to pick one silently"
        )
    return StabilizerCode(transcribed)


FIXTURES = {
    "five_qubit": five_qubit,
    "steane_css": steane_css,
    "steane_alt": steane_alternative,
}


# ---------------------------------------------------------------------------
# Code files: one Pauli string per line, '#' comments, optional "n k" header.

_HEADER_RE = re.compile(r"^(\d+)\s+(\d+)$")


def _parse_operators(path: str | Path) -> tuple[tuple[int, int] | None, list[PauliString]]:
    """The optional "n k" header, accepted only before any operator, and the operators."""
    header = None
    ops: list[PauliString] = []
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _HEADER_RE.match(line)
        if m and header is None and not ops:
            header = (int(m.group(1)), int(m.group(2)))
            continue
        try:
            ops.append(parse_pauli(line))
        except ValueError as exc:
            raise CodeFileError(str(path), line_no, str(exc)) from None
    if not ops:
        raise CodeFileError(str(path), 0, "no operators found")
    if header is not None:
        n, k = header
        if any(op.n != n for op in ops):
            raise CodeFileError(str(path), 0, f"operator length disagrees with header n={n}")
    return header, ops


def load_code(path: str | Path) -> StabilizerCode:
    """Read a generator list; validates commutation and independence."""
    header, ops = _parse_operators(path)
    code = StabilizerCode(tuple(ops))
    if header is not None and header[1] != code.k:
        raise CodeFileError(str(path), 0, f"header k={header[1]} but generators give k={code.k}")
    return code


def _operator_text(header_comment: str | None, rows: Iterable[object]) -> str:
    """The operator format, for files and stdout alike: each header comment
    line behind "# ", then one row per line, newline-terminated."""
    comments = [f"# {line}" for line in (header_comment or "").splitlines()]
    return "\n".join(comments + [str(row) for row in rows]) + "\n"


def save_code(code: StabilizerCode, path: str | Path, header_comment: str | None = None) -> None:
    Path(path).write_text(_operator_text(header_comment, [f"{code.n} {code.k}", *code.generators]))


def load_checkset(path: str | Path, code: StabilizerCode | None = None) -> CheckSet:
    """Read an operator list as a check set.

    Without an explicit ``code``, the underlying code is recovered as the
    span of the listed operators: the first maximal independent subset
    serves as its generators.
    """
    _, ops = _parse_operators(path)
    if code is None:
        basis = RowBasis()
        gens = [op for op in ops if basis.add(op.error_vector().bits)]
        code = StabilizerCode(tuple(gens))
    return CheckSet(code, tuple(ops))


def save_checkset(checkset: CheckSet, path: str | Path, header_comment: str | None = None) -> None:
    Path(path).write_text(_operator_text(header_comment, checkset.operators))
