"""Syndrome-table and maximum-likelihood decoding over joint faults.

The noise model is the abstract one where data qubits depolarize before
extraction and each extracted syndrome bit then flips independently; no
errors land on data qubits during extraction itself.  Decoding success is
always judged modulo stabilizer equivalence of the data part: the flip
part never touches the encoded state.  Sampled faults come from one block
sampler, which XORs per-qubit (error, syndrome) tables over the noisy qubits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .code import CheckSet, Fault, _error_tables, iter_error_syndromes
from .symplectic import BitVector, DimensionError
from .verify import FaultBudget, _refuse_over_cap, check_global, iter_faults

__all__ = [
    "NoiseModel",
    "SyndromeTable",
    "TrialStats",
    "UncorrectableBudgetError",
    "build_table",
    "decode",
    "ml_decode",
    "run_trials",
    "sample_fault",
]


class UncorrectableBudgetError(ValueError):
    """The check set cannot distinguish all faults in the requested budget."""

    def __init__(self, report) -> None:
        self.report = report
        w = report.witness
        detail = ""
        if w is not None:
            detail = f": {w[0].describe()} vs {w[1].describe()} share syndrome {report.syndrome}"
        super().__init__(f"budget not decodable{detail}")


def _reversed_bits(word: int, width: int) -> int:
    return int(f"{word:0{width}b}"[::-1], 2)


def _table_key(e_bits: int, f_bits: int, dw: int, fw: int, n: int, m: int):
    # Minimal combined weight wins; ties break lexicographically on the
    # rendered (data vector, flip vector) bit strings, index 0 first.
    return (dw + fw, _reversed_bits(e_bits, 2 * n), _reversed_bits(f_bits, m))


@dataclass(frozen=True)
class SyndromeTable:
    """Observed syndrome -> minimal representative fault, for one budget.

    Every in-budget fault's observed syndrome is a key; the stored fault
    has minimal combined weight, ties broken lexicographically on the
    (data vector, flip vector) bit strings.  Correctness of lookups modulo
    stabilizer equivalence is guaranteed by the coset check
    :func:`build_table` makes on every fault.
    """

    checkset: CheckSet
    budget: FaultBudget
    entries: dict[int, Fault]

    def __len__(self) -> int:
        return len(self.entries)


def build_table(checkset: CheckSet, budget: FaultBudget) -> SyndromeTable:
    """Tabulate minimal faults by observed syndrome; refuses bad budgets.

    One :func:`iter_faults` pass keeps each syndrome's least fault and its
    coset.  A second coset at one syndrome raises :class:`UncorrectableBudgetError`
    with the witness of :func:`check_global`, which runs only on that path.
    """
    n = checkset.n
    m = checkset.m
    _refuse_over_cap(budget, n, m)
    reduce = checkset.code.row_basis.reduce
    best: dict[int, tuple[tuple, int, int, int]] = {}
    for e, s, dw, flips in iter_faults(checkset, budget):
        coset = reduce(e)
        for f in flips:
            key = _table_key(e, f, dw, f.bit_count(), n, m)
            observed = s ^ f
            held = best.get(observed)
            if held is not None and held[3] != coset:
                raise UncorrectableBudgetError(check_global(checkset, budget))
            if held is None or key < held[0]:
                best[observed] = (key, e, f, coset)
    entries = {observed: Fault.from_ints(e, f, n, m) for observed, (_, e, f, _) in best.items()}
    return SyndromeTable(checkset, budget, entries)


def decode(table: SyndromeTable, observed: BitVector) -> Fault | None:
    """Exact lookup; None marks a detected-uncorrectable syndrome."""
    if observed.n != table.checkset.m:
        raise DimensionError(f"syndrome length {observed.n}, expected {table.checkset.m}")
    return table.entries.get(observed.bits)


@dataclass(frozen=True)
class NoiseModel:
    """Independent depolarizing data noise plus independent syndrome flips.

    Each qubit suffers X, Y, or Z with probability p/3 each; each extracted
    bit flips with probability q.
    """

    p: float
    q: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            raise ValueError(f"probabilities out of range: p={self.p}, q={self.q}")

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))


def _sample_block(model: NoiseModel, u: np.ndarray, tables) -> tuple[list[int], ...]:
    """(errors, syndromes, flips) of each row of uniforms, as lists of ints.

    A row holds n qubit uniforms, then m flip uniforms.  Qubit q takes the
    ``tables[q][t]`` (error bits, syndrome bits) of type t = X, Y, Z when
    its uniform is below p/3, 2p/3, p; bit i flips when its uniform is below q.
    """
    n = len(tables)
    third = model.p / 3.0
    trials, qubits = np.nonzero(u[:, :n] < model.p)
    hit = u[trials, qubits]
    kinds = (hit >= third).astype(np.intp) + (hit >= 2 * third)
    errors = [0] * len(u)
    syndromes = [0] * len(u)
    for r, q, t in zip(trials.tolist(), qubits.tolist(), kinds.tolist()):
        e, s = tables[q][t]
        errors[r] ^= e
        syndromes[r] ^= s
    flips = [0] * len(u)
    trials, bits = np.nonzero(u[:, n:] < model.q)
    for r, i in zip(trials.tolist(), bits.tolist()):
        flips[r] |= 1 << i
    return errors, syndromes, flips


def sample_fault(
    model: NoiseModel, n: int, m: int, rng: np.random.Generator | None = None
) -> Fault:
    """Draw one joint fault; n + m uniforms are consumed in index order."""
    if rng is None:
        rng = model.rng()
    errors, _, flips = _sample_block(model, rng.random((1, n + m)), _error_tables(n))
    return Fault.from_ints(errors[0], flips[0], n, m)


def ml_decode(
    checkset: CheckSet,
    observed: BitVector,
    model: NoiseModel,
    budget_cap: int,
) -> Fault | None:
    """Most likely fault class consistent with an observed syndrome.

    Enumerates every fault of combined weight at most ``budget_cap`` whose
    observed syndrome matches, merges data parts that differ by a
    stabilizer element by summing their probabilities (the flip part is
    determined by the data part), and returns the minimal representative
    of the best class.  Ties break like syndrome-table entries.  None
    means nothing within the cap explains the observation.
    """
    if observed.n != checkset.m:
        raise DimensionError(f"syndrome length {observed.n}, expected {checkset.m}")
    if not (0.0 < model.p < 1.0 and 0.0 < model.q < 1.0):
        raise ValueError("maximum-likelihood weighting needs p, q strictly inside (0, 1)")
    if budget_cap < 0:
        raise ValueError(f"budget cap must be nonnegative, got {budget_cap}")
    n = checkset.n
    m = checkset.m
    reduce = checkset.code.row_basis.reduce
    p3 = model.p / 3.0
    one_p = 1.0 - model.p
    q = model.q
    one_q = 1.0 - model.q

    classes: dict[int, float] = {}
    reps: dict[int, tuple[tuple, int, int]] = {}
    for e, s, dw in iter_error_syndromes(checkset, 0, budget_cap):
        f = s ^ observed.bits
        fw = f.bit_count()
        if dw + fw > budget_cap:
            continue
        weight = (p3**dw) * (one_p ** (n - dw)) * (q**fw) * (one_q ** (m - fw))
        coset = reduce(e)
        classes[coset] = classes.get(coset, 0.0) + weight
        key = _table_key(e, f, dw, fw, n, m)
        held = reps.get(coset)
        if held is None or key < held[0]:
            reps[coset] = (key, e, f)
    if not classes:
        return None
    best_coset = min(classes, key=lambda c: (-classes[c], reps[c][0]))
    _, e, f = reps[best_coset]
    return Fault.from_ints(e, f, n, m)


@dataclass(frozen=True)
class TrialStats:
    """Outcome counts of a simulation run.

    Every trial is exactly one of: success, logical error (a correction
    was applied but acts differently on the encoded state), or flagged
    uncorrectable (the decoder declined).  ``decoding_failures`` is the
    sum of the last two.
    """

    trials: int
    logical_errors: int
    flagged_uncorrectable: int

    @property
    def decoding_failures(self) -> int:
        return self.logical_errors + self.flagged_uncorrectable

    @property
    def successes(self) -> int:
        return self.trials - self.decoding_failures


_DRAW_BLOCK = 4096  # trials whose uniforms run_trials draws at once


def run_trials(
    checkset: CheckSet,
    decoder: Callable[[BitVector], Fault | None],
    model: NoiseModel,
    trials: int,
) -> TrialStats:
    """Monte Carlo estimate of decoder performance under the noise model.

    Reproducible bit for bit: trial i consumes the same uniforms as the
    i-th of a run of :func:`sample_fault` calls on one generator, drawn in
    blocks of ``_DRAW_BLOCK`` trials, which bounds memory in the trial
    count.  The decoder must be a deterministic function of the observed
    syndrome: each block asks it once per distinct syndrome and keeps the
    coset word (``RowBasis.reduce``) of its answer, or None if it flags; a
    trial is a logical error when its data error's word differs.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    m = checkset.m
    rng = model.rng()
    reduce = checkset.code.row_basis.reduce
    logical = 0
    flagged = 0
    for start in range(0, trials, _DRAW_BLOCK):
        block = rng.random((min(_DRAW_BLOCK, trials - start), checkset.n + m))
        decided: dict[int, int | None] = {}
        for e, s, f in zip(*_sample_block(model, block, checkset.single_qubit_tables)):
            if (observed := s ^ f) not in decided:
                correction = decoder(BitVector(observed, m))
                decided[observed] = None if correction is None else reduce(correction.data.bits)
            coset = decided[observed]
            if coset is None:
                flagged += 1
            elif coset != reduce(e):
                logical += 1
    return TrialStats(trials, logical, flagged)
