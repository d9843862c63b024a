"""Packing and existence bounds, evaluated in exact integer arithmetic.

Every predicate returns a :class:`BoundReport` with both sides of the
inequality so callers can print the margin rather than a bare verdict.
Right-hand sides grow like 2^(n-k+r), so everything stays in Python ints.
Parameters that would make a bound vacuous or non-integer (negative
weights or counts, d < 1, k outside 0..n) raise ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

__all__ = [
    "BoundReport",
    "gv_check",
    "hybrid_hamming",
    "singleton_check",
    "symmetric_hamming",
]


@dataclass(frozen=True)
class BoundReport:
    """lhs <= rhs packing/existence inequality, evaluated exactly."""

    lhs: int
    rhs: int

    @property
    def satisfied(self) -> bool:
        return self.lhs <= self.rhs

    def __str__(self) -> str:
        op = "<=" if self.satisfied else ">"
        return f"{self.lhs} {op} {self.rhs}"


def _refuse_negative(**counts: int) -> None:
    for name, value in counts.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


def _refuse_bad_code(n: int, k: int, d: int | None = None) -> None:
    if not 0 <= k <= n:
        raise ValueError(f"k = {k} outside 0..n = 0..{n}")
    if d is not None and d < 1:
        raise ValueError(f"distance must be at least 1, got {d}")


def singleton_check(n: int, k: int, d: int) -> bool:
    """n - k >= 2(d - 1), necessary for any [[n,k,d]] stabilizer code."""
    _refuse_bad_code(n, k, d)
    return n - k >= 2 * (d - 1)


def gv_check(n: int, k: int, d: int) -> BoundReport:
    """Existence guarantee: sum_{i=1}^{d-1} 3^i C(n,i) <= 2^(n-k).

    When satisfied, an [[n,k,d]] stabilizer code (nondegenerate, even)
    exists; codes can still exist when it fails.
    """
    _refuse_bad_code(n, k, d)
    lhs = sum(3**i * comb(n, i) for i in range(1, d))
    return BoundReport(lhs, 2 ** (n - k))


def hybrid_hamming(n_q: int, n_c: int, t_q: int, t_c: int, s: int) -> BoundReport:
    """Packing bound for s syndrome bits shared by qubit and bit errors.

    Counts all combinations of discretized errors on up to t_q of n_q
    qubits and plain flips on up to t_c of n_c bits against the 2^s
    distinguishable patterns.  n_q = 0 gives the classical Hamming bound,
    n_c = 0 the quantum one.
    """
    _refuse_negative(t_q=t_q, t_c=t_c, s=s)
    lhs = sum(
        3**i * comb(n_q, i) * comb(n_c, j)
        for i in range(t_q + 1)
        for j in range(t_c + 1)
    )
    return BoundReport(lhs, 2**s)


def symmetric_hamming(n: int, k: int, r: int, t: int) -> BoundReport:
    """Packing bound for combined t-error correction with r redundant checks.

    A scheme on an [[n,k]] code that extracts n-k+r syndrome bits and
    corrects any mix of data errors and syndrome flips of total weight at
    most t must satisfy

        sum_{j=0}^{t} sum_{i=0}^{t-j} 3^i C(n,i) C(n-k+r, j) <= 2^(n-k+r).
    """
    _refuse_bad_code(n, k)
    _refuse_negative(r=r, t=t)
    m = n - k + r
    lhs = sum(
        3**i * comb(n, i) * comb(m, j)
        for j in range(t + 1)
        for i in range(t - j + 1)
    )
    return BoundReport(lhs, 2**m)
