"""Exhaustive verifiers for joint data/syndrome error correction.

``iter_faults`` enumerates every fault a :class:`FaultBudget` admits; it
is the one fault loop behind the syndrome tables and the all-pairs mode of
``check_global``.  ``check_global`` demands that faults sharing an observed
syndrome have data parts that differ only by a stabilizer element
(identical action on the encoded state).  It decides this without listing
flips: two data errors from different cosets can be made to collide
exactly when their syndromes differ in at most as many bits as the budget
lets both flip, so one scan over pairs of data errors finds the canonical
witness, in memory linear in the number of data errors.
``lemma1_check`` tests the cheaper, equivalent condition for symmetric
budgets that low weight data errors either have heavy syndromes or are
stabilizer elements.
``oa_check`` verifies the uniform local-action statistics of a stabilizer.
The bound predicates live in :mod:`dscodes.bounds`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterator

from .code import CheckSet, Fault, StabilizerCode, iter_error_syndromes, scan_distances
from .symplectic import BitVector, DimensionError

__all__ = [
    "CandidateCapError",
    "CollisionReport",
    "FaultBudget",
    "check_global",
    "equivalent_data",
    "fault_count",
    "iter_faults",
    "lemma1_check",
    "oa_check",
]


class CandidateCapError(RuntimeError):
    """The requested enumeration exceeds the configured candidate cap."""


@dataclass(frozen=True)
class FaultBudget:
    """Admissible joint fault weights.

    ``symmetric(t)`` admits faults with data weight + flip weight <= t.
    ``asymmetric(a, b)`` admits data weight <= a and flip weight <= b
    independently, mixed faults included.  Negative weights are refused.
    """

    data_max: int
    flip_max: int
    combined_max: int | None = None

    def __post_init__(self) -> None:
        if min(self.data_max, self.flip_max, self.combined_max or 0) < 0:
            raise ValueError(f"fault budget {self} has a negative weight")

    @classmethod
    def symmetric(cls, t: int) -> "FaultBudget":
        return cls(t, t, t)

    @classmethod
    def asymmetric(cls, data_max: int, flip_max: int) -> "FaultBudget":
        return cls(data_max, flip_max, None)

    @classmethod
    def parse(cls, text: str) -> "FaultBudget":
        """Parse ``sym:t`` or ``asym:a,b``."""
        kind, _, arg = text.partition(":")
        try:
            weights = [int(w) for w in arg.split(",")]
        except ValueError:
            weights = []
        if kind == "sym" and len(weights) == 1:
            return cls.symmetric(*weights)
        if kind == "asym" and len(weights) == 2:
            return cls.asymmetric(*weights)
        raise ValueError(f"cannot parse fault budget {text!r}; want sym:t or asym:a,b")

    def admits(self, data_weight: int, flip_weight: int) -> bool:
        if data_weight > self.data_max or flip_weight > self.flip_max:
            return False
        return self.combined_max is None or data_weight + flip_weight <= self.combined_max

    @property
    def caps(self) -> tuple[int, ...]:
        """caps[w]: the largest flip weight admitted next to data weight w, or -1.

        ``admits`` only bounds the flip weight from above, so the flip
        weights admitted next to w are exactly 0..caps[w].
        """
        return tuple(
            max((fw for fw in range(self.flip_max + 1) if self.admits(w, fw)), default=-1)
            for w in range(self.data_max + 1)
        )

    def __str__(self) -> str:
        if self.combined_max is not None:
            return f"sym:{self.combined_max}"
        return f"asym:{self.data_max},{self.flip_max}"


@dataclass(frozen=True)
class CollisionReport:
    """Outcome of a distinguishability check.

    ``ok`` iff no two admissible faults with inequivalent data parts share
    an observed syndrome; otherwise ``witness`` holds the canonical least
    offending pair and ``syndrome`` their shared observation.
    """

    ok: bool
    witness: tuple[Fault, Fault] | None = None
    syndrome: BitVector | None = None
    reason: str | None = None
    faults_checked: int = 0


def fault_count(budget: FaultBudget, n: int, m: int) -> int:
    """Number of faults the budget admits on n qubits and m syndrome bits."""
    return sum(
        comb(n, dw) * 3**dw * comb(m, fw)
        for dw, cap in enumerate(budget.caps)
        for fw in range(cap + 1)
    )


def equivalent_data(code: StabilizerCode, e1: BitVector, e2: BitVector) -> bool:
    """True iff the two data errors act identically on the encoded state."""
    if e1.n != 2 * code.n or e2.n != 2 * code.n:
        raise DimensionError(f"expected vectors of length {2 * code.n}")
    return code.row_basis.contains(e1.bits ^ e2.bits)


def _zx_interleaved(e_bits: int, n: int) -> int:
    """Re-pack an (x|z) error vector qubit-major for canonical ordering.

    Qubit q occupies bits 2q (z) and 2q+1 (x).  Integer comparison thus
    ranks errors by the highest qubit on which they differ, and on that
    qubit I < Z < X < Y: IZI (4) sorts before ZZI (5), which sorts
    before IXI (8).
    """
    # Read as base-4 digits, the binary digits of z (or x) put bit q at 2q.
    x = e_bits & ((1 << n) - 1)
    z = e_bits >> n
    return int(f"{z:b}", 4) | int(f"{x:b}", 4) << 1


def iter_faults(
    checkset: CheckSet, budget: FaultBudget
) -> Iterator[tuple[int, int, int, tuple[int, ...]]]:
    """Yield (e_bits, syndrome_bits, data_weight, flip masks) within a budget.

    Data errors come in :func:`iter_error_syndromes` order, identity first.
    The flip masks are every mask whose weight the budget admits next to
    that data weight, by increasing weight and then combination order.
    """
    layers = [
        [sum(1 << i for i in bits) for bits in itertools.combinations(range(checkset.m), fw)]
        for fw in range(budget.flip_max + 1)
    ]
    admitted = [tuple(itertools.chain(*layers[: cap + 1])) for cap in budget.caps]
    for e, s, dw in iter_error_syndromes(checkset, 0, budget.data_max):
        yield e, s, dw, admitted[dw]


def _refuse_over_cap(budget, n: int, m: int, cap: int = 10**8, pairwise: bool = False) -> None:
    count = fault_count(budget, n, m)
    cost = count * count if pairwise else count
    if cost > cap:
        raise CandidateCapError(
            f"budget {budget} admits {count} faults "
            f"({'pairwise ' if pairwise else ''}cost {cost} > cap {cap})"
        )


def check_global(
    checkset: CheckSet,
    budget: FaultBudget,
    *,
    all_pairs: bool = False,
    candidate_cap: int = 10**8,
) -> CollisionReport:
    """Exhaustively test distinguishability of all faults within a budget.

    The default mode never lists flips.  Let cap(e) be the largest flip
    weight the budget admits next to the data error e.  Faults (e1, f1)
    and (e2, f2) collide iff e1 and e2 lie in different stabilizer cosets
    and f1 ^ f2 = d, where d = s(e1) ^ s(e2); such flips exist iff
    wt(d) <= cap1 + cap2, and then e1 and e2 are partners.  The data
    errors are sorted by the canonical key below and scanned for the
    first e1 with a later partner; the relation is symmetric, so no
    earlier error has one.  The witness's lesser fault is e1 with the
    least, over its partners, of the lowest wt(d) - cap2 bits of d (a
    flip meeting e2 holds at least that many bits of d, and the lowest
    make the least integer).  Its greater fault is the first later e2
    from another coset within cap2 flips of that observed syndrome.
    Cosets are reduced only for pairs with near syndromes.  Memory is
    linear in the number N of admitted data errors; a passing budget
    costs N^2/2 syndrome XOR-popcounts and a failing one stops at its
    witness.  ``faults_checked`` is :func:`fault_count`.

    ``all_pairs=True`` enumerates every fault and compares every pair
    directly (differential-testing aid, cost quadratic in the fault
    count).  Budgets whose fault count exceeds ``candidate_cap``
    (counting pairs in all-pairs mode) are refused.

    The reported witness is canonical, the least colliding pair, in
    both modes: faults carrying a data error order before pure flip
    patterns, data parts compare as :func:`_zx_interleaved` integers
    (by the highest qubit on which they differ, I < Z < X < Y there),
    and flip patterns compare as integers (by the highest bit in which
    they differ, so flips {1} < {0, 2}).
    """
    n = checkset.n
    m = checkset.m
    _refuse_over_cap(budget, n, m, candidate_cap, pairwise=all_pairs)
    reduce = checkset.code.row_basis.reduce

    if all_pairs:
        faults = []
        for e, s, _, flips in iter_faults(checkset, budget):
            coset = reduce(e)
            flips_only, zx = e == 0, _zx_interleaved(e, n)
            faults.extend(((flips_only, zx, f), e, f, s ^ f, coset) for f in flips)
        best = None
        for a, b in itertools.combinations(faults, 2):
            if a[3] != b[3] or a[4] == b[4]:
                continue
            lo, hi = (a, b) if a[0] <= b[0] else (b, a)
            cand = (lo[0], hi[0], lo, hi)
            if best is None or cand[:2] < best[:2]:
                best = cand
        if best is None:
            return CollisionReport(ok=True, faults_checked=len(faults))
        lo, hi = best[2], best[3]
        return _collision((lo[1], lo[2]), (hi[1], hi[2]), lo[3], len(faults), n, m)

    caps = budget.caps
    # (key, e, s, cap) per admitted data error, in canonical key order.
    scan = sorted(
        ((e == 0, _zx_interleaved(e, n)), e, s, caps[w])
        for e, s, w in iter_error_syndromes(checkset, 0, budget.data_max)
        if caps[w] >= 0
    )
    checked = fault_count(budget, n, m)
    for i, (_, e1, s1, cap1) in enumerate(scan):
        near = [x for x in scan[i + 1 :] if (s1 ^ x[2]).bit_count() - x[3] <= cap1]
        if not near:
            continue
        coset1 = reduce(e1)
        partners = [(e2, s2, cap2) for _, e2, s2, cap2 in near if reduce(e2) != coset1]
        if not partners:
            continue
        f1 = min(_lowest_bits(s1 ^ s2, (s1 ^ s2).bit_count() - cap2) for _, s2, cap2 in partners)
        observed = s1 ^ f1
        e2, s2 = next((e2, s2) for e2, s2, cap2 in partners if (observed ^ s2).bit_count() <= cap2)
        return _collision((e1, f1), (e2, observed ^ s2), observed, checked, n, m)
    return CollisionReport(ok=True, faults_checked=checked)


def _lowest_bits(word: int, count: int) -> int:
    """The lowest ``count`` set bits of word (none if count <= 0)."""
    out = 0
    for _ in range(count):
        low = word & -word
        out, word = out | low, word ^ low
    return out


def _collision(lo, hi, observed: int, checked: int, n: int, m: int) -> CollisionReport:
    # lo and hi are the (e, f) bits of the least offending pair.
    return CollisionReport(
        ok=False,
        witness=(Fault.from_ints(*lo, n, m), Fault.from_ints(*hi, n, m)),
        syndrome=BitVector(observed, m),
        reason="two admissible faults with different encoded effects share a syndrome",
        faults_checked=checked,
    )


def lemma1_check(checkset: CheckSet, d: int) -> CollisionReport:
    """Data-syndrome distance at least d; for d = 2t+1, exactly ``sym:t`` correction.

    Every nonzero data error on w <= d-1 qubits must either have syndrome
    weight at least d-w or be a stabilizer element with zero syndrome; a
    zero syndrome outside the stabilizer is reported as an undetected
    logical error.  The condition is exact: two colliding ``sym:t`` faults
    differ by an e outside the stabilizer with wt(e) + wt(s(e)) <= 2t, and
    any such e splits into two colliding ``sym:t`` faults.

    The first failing e in enumeration order is reported by one witness
    rule: (e, no flips) against (no data error, flips s(e)), which collide
    at s(e).  Only the reason tells a zero syndrome from a light one.
    """
    if d < 1:
        raise ValueError(f"distance parameter must be positive, got {d}")
    n = checkset.n
    m = checkset.m
    basis = checkset.code.row_basis
    checked = 0
    for e, s, w in iter_error_syndromes(checkset, 1, d - 1):
        checked += 1
        weight = s.bit_count()
        if weight >= d - w or (s == 0 and basis.contains(e)):
            continue
        if s == 0:
            reason = (f"weight-{w} error below distance {d} has zero syndrome "
                      "but is not a stabilizer element")
        else:
            reason = f"weight-{w} error has syndrome weight {weight} < {d - w}"
        return CollisionReport(
            ok=False,
            witness=(Fault.from_ints(e, 0, n, m), Fault.from_ints(0, s, n, m)),
            syndrome=BitVector(s, m),
            reason=reason,
            faults_checked=checked,
        )
    return CollisionReport(ok=True, faults_checked=checked)


def oa_check(code: StabilizerCode, l: int) -> bool:
    """Check uniform l-local statistics of the stabilizer elements.

    For every set L of l qubits and every length-l pattern over I, X, Y, Z,
    exactly 2^(n-k)/4^l of the 2^(n-k) stabilizer elements must act as that
    pattern on L.  Requires l below the pure distance; l = 0 is trivially
    true.
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    if l == 0:
        return True
    if l > code.n:
        raise ValueError(f"l={l} exceeds qubit count {code.n}")
    if scan_distances(code, min(l, code.n))[1] is not None:
        raise ValueError(f"l={l} is not below the pure distance")
    r = code.n - code.k
    if r < 2 * l:
        return False
    expected = 1 << (r - 2 * l)
    elements = [(p.x, p.z) for p in code.elements()]
    for qubits in itertools.combinations(range(code.n), l):
        counts: dict[tuple[int, ...], int] = {}
        for x, z in elements:
            pattern = tuple(((x >> q) & 1) | (((z >> q) & 1) << 1) for q in qubits)
            counts[pattern] = counts.get(pattern, 0) + 1
        if len(counts) != 4**l or any(c != expected for c in counts.values()):
            return False
    return True
