"""Constructions that buy syndrome-error correction with redundant checks.

Four routes from a code to a check set that also tolerates flipped
syndrome bits: appending the product of all generators (one extra parity
check), appending per-type products for CSS codes (two extra checks),
a deterministic hash-family construction for distance-5 codes (about
2 log2(n-k) + 3 extra checks), and a randomized draw whose size follows
from the binary entropy of the tolerated flip fraction.  A fifth route
searches for an alternative generating set that needs no redundancy at
all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .code import CheckSet, StabilizerCode, iter_error_syndromes, scan_distances
from .symplectic import RowBasis
from .verify import FaultBudget, check_global

__all__ = [
    "RandomAugmentResult",
    "RandomSearchConfig",
    "ResynthesisResult",
    "SearchFailure",
    "binary_entropy",
    "css_parity_pair",
    "double_construction",
    "generator_resynthesis",
    "parity_augment",
    "phf_matrix",
    "random_augment",
    "transform_generators",
]


class SearchFailure(RuntimeError):
    """A randomized search exhausted its attempt budget."""

    def __init__(self, message: str, attempts: int, stats: dict | None = None) -> None:
        self.attempts = attempts
        self.stats = dict(stats or {})
        super().__init__(f"{message} (after {attempts} attempts)")


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2 (1-x) for 0 < x < 1."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"binary entropy needs 0 < x < 1, got {x}")
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def parity_augment(code: StabilizerCode) -> CheckSet:
    """Append the product of all generators as one redundant check.

    The extra bit equals the parity of the other n-k syndrome bits for any
    data-only error, so a data error never produces a weight-1 observed
    syndrome and single syndrome flips (which do) stay distinguishable.
    """
    extra = code.element((1 << len(code.generators)) - 1)
    return CheckSet(code, code.generators + (extra,))


def css_parity_pair(code: StabilizerCode) -> CheckSet:
    """Append per-type parity checks, keeping every operator CSS-type.

    Requires each generator to be X-type (z mask zero) or Z-type (x mask
    zero).  The two extra operators are the product of all X-type and the
    product of all Z-type generators, in that order.
    """
    x_mask = z_mask = 0
    for i, g in enumerate(code.generators):
        if g.z == 0:
            x_mask |= 1 << i
        elif g.x == 0:
            z_mask |= 1 << i
        else:
            raise TypeError(f"generator {i} ({g}) mixes X and Z; not CSS-type")
    return CheckSet(code, code.generators + (code.element(x_mask), code.element(z_mask)))


def phf_matrix(w: int) -> tuple[int, ...]:
    """Row masks of the smallest separating-column matrix on w columns.

    There are m = ceil(log2 w) rows, each a w-bit mask with column j at
    bit j.  Column j is the m-bit binary representation of j, most
    significant bit in row 0, so any two columns differ in at least one row.
    """
    if w < 2:
        raise ValueError(f"need at least 2 columns, got {w}")
    m = (w - 1).bit_length()
    rows = []
    for i in range(m):
        row = 0
        for j in range(w):
            row |= ((j >> (m - 1 - i)) & 1) << j
        rows.append(row)
    return tuple(rows)


def double_construction(code: StabilizerCode) -> CheckSet:
    """Check set correcting any two combined data/syndrome errors.

    Requires a code of distance at least 5 (caller-verified; the row count
    arithmetic needs n-k >= 8, which such codes always satisfy).  Stacks,
    in order: the n-k generators H, three identical rows each equal to the
    product of all generators, and two copies of the block N whose row i
    multiplies out the generators selected by row i of the separating
    matrix on n-k columns.  Total: (n-k) + 3 + 2*ceil(log2(n-k)) rows.
    """
    r = code.n - code.k
    if r < 8:
        raise ValueError(
            f"construction refused: n-k = {r} < 8, impossible for a distance-5 code"
        )
    gens = code.generators
    total = code.element((1 << r) - 1)
    selector = phf_matrix(r)
    n_block = tuple(map(code.element, selector))
    operators = gens + (total, total, total) + n_block + n_block
    checkset = CheckSet(code, operators)
    assert checkset.m == r + 3 + 2 * len(selector)
    return checkset


@dataclass(frozen=True)
class RandomSearchConfig:
    """Parameters for the randomized redundant-check draw.

    ``delta`` is the tolerated flip fraction and must lie in (0, 1/2);
    the draw size is m = ceil((n-k) / (1 - H2(delta))).
    """

    delta: float
    seed: int
    max_attempts: int = 100

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 0.5:
            raise ValueError(f"delta must be in (0, 1/2), got {self.delta}")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")


@dataclass(frozen=True)
class RandomAugmentResult:
    checkset: CheckSet
    m: int
    t: int
    attempts: int
    seed: int


_MAX_MASK_BITS = 64  # generator masks are drawn as numpy uint64


def _mask_bits(code: StabilizerCode) -> int:
    """n - k, the width of a drawn generator mask; refused above 64 bits."""
    r = code.n - code.k
    if r > _MAX_MASK_BITS:
        raise ValueError(
            f"n-k = {r} exceeds the {_MAX_MASK_BITS}-bit limit of the random generator-mask draw"
        )
    return r


def _draw_masks(seed: int, attempt: int, count: int, r: int) -> tuple[int, ...] | None:
    """``count`` uniform r-bit generator masks, or None if they span less than rank r.

    The generators are independent, so the masks have the rank of the
    operators they select.
    """
    # Per-attempt streams keyed by (seed, attempt) so attempt i is the same
    # whether attempts run sequentially or in parallel.
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, attempt))))
    masks = tuple(rng.integers(0, 1 << r, size=count, dtype=np.uint64).tolist())
    return masks if RowBasis(masks).rank == r else None


def random_augment(
    code: StabilizerCode, cfg: RandomSearchConfig, pure_dist: int | None = None
) -> RandomAugmentResult:
    """Draw m uniform stabilizer elements and verify flip tolerance.

    Samples m = ceil((n-k)/(1 - H2(delta))) uniform F_2 combinations of the
    generators (identity allowed, repetition allowed) and accepts the draw
    when every nonzero data error on fewer than ``pure_dist`` qubits has
    syndrome weight at least t = ceil(delta * m); then no combination of
    such an error with fewer than t flips can masquerade as no error.  The
    draw must also span the full generator row space.  Retries with fresh
    per-attempt streams up to ``cfg.max_attempts``.

    ``pure_dist`` defaults to an exhaustive scan for the code's pure
    distance, which the caller can pass in to skip.  A ``pure_dist`` below
    1 is refused: it would accept a draw without checking any error.
    """
    r = _mask_bits(code)
    m = math.ceil(r / (1.0 - binary_entropy(cfg.delta)))
    t = math.ceil(cfg.delta * m)
    if pure_dist is None:
        pure_dist = scan_distances(code, code.n)[1]
        if pure_dist is None:
            raise ValueError("code has no nontrivial commuting operator; not supported")
    elif pure_dist < 1:
        raise ValueError(f"pure_dist must be at least 1, got {pure_dist}")
    rejections = {"rank": 0, "light_syndrome": 0}
    for attempt in range(cfg.max_attempts):
        masks = _draw_masks(cfg.seed, attempt, m, r)
        if masks is None:
            rejections["rank"] += 1
            continue
        checkset = CheckSet(code, tuple(map(code.element, masks)))
        ok = True
        for _, s, _ in iter_error_syndromes(checkset, 1, pure_dist - 1):
            if s.bit_count() < t:
                ok = False
                break
        if ok:
            return RandomAugmentResult(checkset, m, t, attempt + 1, cfg.seed)
        rejections["light_syndrome"] += 1
    raise SearchFailure(
        f"no draw of {m} stabilizer elements reached syndrome weight {t} "
        f"on all sub-distance errors",
        cfg.max_attempts,
        rejections,
    )


@dataclass(frozen=True)
class ResynthesisResult:
    checkset: CheckSet
    transform: tuple[int, ...]
    attempts: int
    seed: int


def transform_generators(code: StabilizerCode, transform: tuple[int, ...]) -> CheckSet:
    """Check set measuring T * H: row i multiplies the generators in mask i.

    ``transform`` must be an invertible (n-k) x (n-k) bit matrix given as
    row masks; the identity transform reproduces the bare check set.
    """
    r = code.n - code.k
    if len(transform) != r:
        raise ValueError(f"transform needs {r} rows, got {len(transform)}")
    if RowBasis(transform).rank != r:
        raise ValueError("transform is singular")
    return CheckSet(code, tuple(map(code.element, transform)))


def generator_resynthesis(
    code: StabilizerCode,
    budget: FaultBudget,
    attempts: int,
    seed: int,
) -> ResynthesisResult:
    """Search for an alternative generating set meeting a budget unaided.

    Samples uniformly invertible (n-k) x (n-k) bit matrices T by rejection,
    measures T * H as the check set (no redundancy: m = n-k), and returns
    the first transform whose check set passes ``check_global`` at the
    budget.  Some codes admit none; the pigeonhole then exhausts the
    attempt budget.
    """
    if attempts < 1:
        raise ValueError("attempts must be positive")
    r = _mask_bits(code)
    tried = 0
    singular = 0
    for attempt in range(attempts):
        rows = _draw_masks(seed, attempt, r, r)
        if rows is None:
            singular += 1
            continue
        tried += 1
        checkset = transform_generators(code, rows)
        if check_global(checkset, budget).ok:
            return ResynthesisResult(checkset, rows, attempt + 1, seed)
    raise SearchFailure(
        f"no invertible transform of {r} generators met budget {budget}",
        attempts,
        {"invertible_tried": tried, "singular_skipped": singular},
    )
