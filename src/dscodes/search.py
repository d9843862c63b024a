"""Randomized discovery of stabilizer codes with a target distance.

Uniformly random generator sets essentially never reach distance 5 at
useful block lengths (a random [[11,1]] code carries ~30 commuting
low-weight operators in expectation), so the search runs a seeded local
optimization instead.  The state is a commuting independent generator
set; the cost is the number of nonzero errors below the target weight
that no generator detects.  Three moves drive the cost to zero:

* plateau coordinate descent: rebuild one generator, ranking every
  option of its symplectic-orthogonal sidespace and keeping any that is no
  worse (equal-cost moves diffuse across plateaus);
* pair rebuild: for a pair of generators, enumerate candidates for the
  first and solve the linear system that makes the second detect every
  error the rest still miss; this either reaches cost zero or fails;
* kicks: re-randomize a few generators to hop basins.

Every vector is a Python int.  Error candidates are stored with their
halves swapped, so a row detects one exactly when their AND has odd
parity.  Detection is kept transposed, one bit per candidate, as in Stim
(Gidney 2021, arXiv:2103.02202): bit t of column b is bit b of candidate
t, and a row's *hits* (bit t set when it detects candidate t) are the XOR
of the columns its bits select.  Hits are linear in the row, so the hits
of a span's elements are the span of its basis's hits.  Moves rank
sidespace options by hits alone and build an option only when they try it.

Everything is driven by one seeded generator, so outcomes are
reproducible given (seed, budget parameters).
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .code import StabilizerCode, _error_tables, _swap_halves, _walk_paulis, scan_distances
from .symplectic import PauliString, RowBasis

__all__ = ["SearchOutcome", "find_distance_code"]

_MAX_SWEEPS = 25  # sweeps per descend call
_PAIR_TOP = 300  # pair_rebuild's ranking cut and equation margin,
_PAIR_SLACK = 40  # whose reasons its docstring gives
# A freed pair has a sidespace of dimension n + k + 2; _options lists 2^that hits.
_MAX_SIDESPACE_DIM = 20


@dataclass(frozen=True)
class SearchOutcome:
    code: StabilizerCode
    seed: int
    restarts_used: int
    certified: tuple[int | None, int | None]


def _error_candidates(n: int, max_weight: int) -> list[int]:
    """Partner-swapped error vectors of all weight 1..max_weight Paulis."""
    return [_swap_halves(e, n) for e, _, _ in _walk_paulis(_error_tables(n), 1, max_weight)]


def _set_bits(x: int) -> Iterator[int]:
    """Positions of the set bits of ``x``, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _combine(vectors: Sequence[int], mask: int) -> int:
    """XOR of the vectors that the set bits of ``mask`` select."""
    return functools.reduce(operator.xor, (vectors[i] for i in _set_bits(mask)), 0)


def _transpose(words: Sequence[int], width: int) -> list[int]:
    """Columns of ``words``: bit t of column b is bit b of ``words[t]``."""
    rev = words[::-1]
    return [int("0" + "".join("1" if w >> b & 1 else "0" for w in rev), 2) for b in range(width)]


def _solve_affine(equations: list[tuple[int, int]], width: int):
    """Solve <mask_i, v> = rhs_i over F_2.

    Each equation enters a :class:`RowBasis` as the row ``(mask << 1) | rhs``;
    the system is inconsistent once that span holds the row ``1`` (0 = 1).
    Returns (particular solution, nullspace basis) as ints, or None when
    the system is inconsistent.
    """
    rows = RowBasis()
    for mask, rhs in equations:
        if rows.add((mask << 1) | rhs) and 0 in rows.pivot_rows:
            return None
    pivots = sorted(rows.pivot_rows.items())
    free = [i for i in range(width) if i + 1 not in rows.pivot_rows]

    def back_substitute(free_word: int) -> int:
        # Bit 0 of u is 1, so row & u has the parity of rhs + <mask, v>.
        u = (free_word << 1) | 1
        for p, row in pivots:
            u |= ((row & u).bit_count() & 1) << p
        return u >> 1

    particular = back_substitute(0)
    return particular, [back_substitute(1 << f) ^ particular for f in free]


def _commuting_basis(others: list[int], n: int) -> list[int]:
    """Basis of the space of vectors commuting with every row in ``others``."""
    eqs = [(_swap_halves(row, n), 0) for row in others]
    solved = _solve_affine(eqs, 2 * n)
    assert solved is not None  # homogeneous systems are always consistent
    return solved[1]


def _span_elements(basis: list[int]) -> list[int]:
    """All 2^len(basis) combinations; only call for small bases."""
    out = [0] * (1 << len(basis))
    for mask in range(1, 1 << len(basis)):
        low = mask & -mask
        out[mask] = out[mask ^ low] ^ basis[low.bit_length() - 1]
    return out


class _Searcher:
    def __init__(self, n: int, k: int, target_d: int, rng: np.random.Generator) -> None:
        self.n = n
        self.r = n - k
        self.width = 2 * n
        self.rng = rng
        self.words = _error_candidates(n, target_d - 1)
        self.cols = _transpose(self.words, self.width)
        self.rows: list[int] = []
        self.hits: list[int] = []

    def cost(self) -> int:
        return len(self.words) - functools.reduce(operator.or_, self.hits, 0).bit_count()

    def _draw_row(self, others: list[int]) -> int:
        """Draw from the sidespace of ``others`` until independent of them;
        with j < n rows a draw fails with probability 2^(2j-2n) <= 1/4."""
        basis = _commuting_basis(others, self.n)
        span = RowBasis(others)
        while True:
            v = _combine(basis, int(self.rng.integers(0, 1 << len(basis))))
            if not span.contains(v):
                return v

    def _set_row(self, i: int, v: int) -> None:
        self.rows[i] = v
        self.hits[i] = _combine(self.cols, v)

    def randomize(self) -> None:
        self.rows = []
        for _ in range(self.r):
            self.rows.append(self._draw_row(self.rows))
        self.hits = [_combine(self.cols, v) for v in self.rows]

    def kick(self, count: int) -> None:
        for _ in range(count):
            i = int(self.rng.integers(self.r))
            self._set_row(i, self._draw_row(self.rows[:i] + self.rows[i + 1 :]))

    def _options(self, freed: tuple[int, ...]):
        """Every way to refill the slots ``freed`` while the other rows stay.

        Returns the kept rows, the candidate words they all miss, the basis
        of their sidespace, and the hits on those words and the miss count
        of each option ``idx``, the element ``_combine(basis, idx)``.
        """
        kept = [t for t in range(self.r) if t not in freed]
        others = [self.rows[t] for t in kept]
        seen = functools.reduce(operator.or_, (self.hits[t] for t in kept), 0)
        undetected = [self.words[t] for t in _set_bits(((1 << len(self.words)) - 1) ^ seen)]
        basis = _commuting_basis(others, self.n)
        cols = _transpose(undetected, self.width)
        hits = _span_elements([_combine(cols, b) for b in basis])
        missed = [len(undetected) - h.bit_count() for h in hits]
        return others, undetected, basis, hits, missed

    def descend(self) -> int:
        """Plateau coordinate descent; returns the reached cost.

        Row i itself is among its options, so the best option never costs
        more than the current state.
        """
        best = self.cost()
        stall = 0
        for _ in range(_MAX_SWEEPS):
            for i in self.rng.permutation(self.r).tolist():
                others, _, sidespace, _, missed = self._options((i,))
                floor = min(missed)
                pool = np.array([idx for idx, m in enumerate(missed) if m == floor])
                self.rng.shuffle(pool)
                span = RowBasis(others)
                for idx in pool.tolist():
                    v = _combine(sidespace, idx)
                    if not span.contains(v):
                        self._set_row(i, v)
                        break
            now = self.cost()
            if now == 0:
                return 0
            if now < best:
                best = now
                stall = 0
            else:
                stall += 1
                if stall >= 3:
                    break
        return self.cost()

    def pair_rebuild(self) -> bool:
        """Rebuild some generator pair to detect everything; all or nothing.

        For each pair, the ``_PAIR_TOP`` first-slot candidates that leave
        fewest of the currently undetected errors are tried; the second slot
        is then an exact linear solve.  Leftover systems more than
        ``_PAIR_SLACK`` equations past the second slot's free dimension are
        skipped; dependent equation sets stay solvable well past it, so the
        margin is generous.  Returns True when cost reached zero.
        """
        free_dim = self.width - (self.r - 1)
        pairs = list(itertools.combinations(range(self.r), 2))
        order = self.rng.permutation(len(pairs))
        for pair_idx in order.tolist():
            i, j = pairs[pair_idx]
            others, undetected, sidespace, hits, missed = self._options((i, j))
            ranked = sorted(range(len(missed)), key=missed.__getitem__)[:_PAIR_TOP]
            everything = (1 << len(undetected)) - 1
            span8 = RowBasis(others)
            commute_eqs = [(_swap_halves(row, self.n), 0) for row in others]
            for idx in ranked:
                if missed[idx] > free_dim + _PAIR_SLACK:
                    break
                vi = _combine(sidespace, idx)
                if span8.contains(vi):
                    continue
                eqs = commute_eqs + [(_swap_halves(vi, self.n), 0)]
                eqs += [(undetected[t], 1) for t in _set_bits(everything ^ hits[idx])]
                solved = _solve_affine(eqs, self.width)
                if solved is None:
                    continue
                particular, basis = solved
                span9 = RowBasis(others + [vi])
                for vj in [particular] + [particular ^ b for b in basis]:
                    if not span9.contains(vj):
                        self._set_row(i, vi)
                        self._set_row(j, vj)
                        return True
        return False


def find_distance_code(
    n: int,
    k: int,
    target_d: int,
    seed: int,
    max_restarts: int = 6,
    max_kicks: int = 20,
    deadline_s: float | None = None,
) -> SearchOutcome | None:
    """Search for an [[n, k]] code with no nonzero commuting operator of
    weight below ``target_d``; None when the budget runs out.

    ``deadline_s`` bounds wall time: the walk itself is deterministic in
    (seed, budget), but a deadline can cut it short between moves, so use
    it only where a None fallback is acceptable.  Any returned code has
    already been certified by the exhaustive distance scan at cutoff
    ``target_d``.
    """
    if target_d < 2:
        raise ValueError("target distance must be at least 2")
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k} for n={n}")
    if n + k + 2 > _MAX_SIDESPACE_DIM:
        raise ValueError(f"sidespace dimension n+k+2 = {n + k + 2} exceeds {_MAX_SIDESPACE_DIM}")
    started = time.perf_counter()

    def out_of_time() -> bool:
        return deadline_s is not None and time.perf_counter() - started > deadline_s

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    searcher = _Searcher(n, k, target_d, rng)
    for restart in range(1, max_restarts + 1):
        if out_of_time():
            return None
        searcher.randomize()
        cost = searcher.descend()
        kicks = 0
        while cost > 0 and kicks < max_kicks and not out_of_time():
            if searcher.pair_rebuild():
                cost = 0
                break
            searcher.kick(int(rng.integers(1, 4)))
            cost = searcher.descend()
            kicks += 1
        if cost == 0:
            mask = (1 << n) - 1
            gens = tuple(PauliString(n, row & mask, row >> n) for row in searcher.rows)
            code = StabilizerCode(gens)
            certified = scan_distances(code, target_d)
            d_pure = certified[1]  # at most d whenever d exists, so it decides alone
            if d_pure is not None and d_pure < target_d:
                raise AssertionError("zero-cost state failed certification; cost model bug")
            return SearchOutcome(code, seed, restart, certified)
    return None
