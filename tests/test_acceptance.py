"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines;
each test also enforces the criterion's runtime limit.
"""

import io
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from dscodes.bounds import gv_check, hybrid_hamming, symmetric_hamming
from dscodes.cli import main as cli_main
from dscodes.code import (
    CheckSet,
    StabilizerCode,
    iter_error_syndromes,
    load_code,
)
from dscodes.decode import NoiseModel, build_table, decode, run_trials
from dscodes.redundancy import (
    RandomSearchConfig,
    SearchFailure,
    css_parity_pair,
    double_construction,
    generator_resynthesis,
    parity_augment,
    random_augment,
)
from dscodes.search import find_distance_code
from dscodes.symplectic import BitVector, multiply
from dscodes.verify import FaultBudget, check_global, lemma1_check, oa_check

from reference_tables import (
    FIVE_QUBIT_AUGMENTED_TABLE,
    FIVE_QUBIT_TABLE,
    STEANE_TABLE,
)

BUNDLED_D5_CODE = Path(__file__).parent.parent / "src" / "dscodes" / "data" / "code_11_1_5.txt"
D5_SEARCH_SEED = 2
SYM1 = FaultBudget.symmetric(1)


@contextmanager
def criterion(number, name, limit_s):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} ({name}): FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - started
    verdict = "PASS" if elapsed < limit_s else "FAIL (over time limit)"
    print(f"criterion {number:02d} ({name}): {verdict} [{elapsed:.2f}s < {limit_s}s]", flush=True)
    assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s ({elapsed:.2f}s)"


def _cli(argv):
    out = io.StringIO()
    status = cli_main(argv, out=out)
    return status, out.getvalue()


def test_criterion_01_table_reproduction():
    with criterion(1, "table reproduction", 1.0):
        status, text = _cli(["tables", "I"])
        assert status == 0
        assert text.splitlines() == [f"{e}\t{s}" for e, s in FIVE_QUBIT_TABLE]
        assert len(FIVE_QUBIT_TABLE) == 16

        status, text = _cli(["tables", "II"])
        assert status == 0
        assert text.splitlines() == [f"{e}\t{s}" for e, s in FIVE_QUBIT_AUGMENTED_TABLE]
        assert len(FIVE_QUBIT_AUGMENTED_TABLE) == 21

        status, text = _cli(["tables", "III"])
        assert status == 0
        assert text.splitlines() == [f"{e}\t{a}\t{b}" for e, a, b in STEANE_TABLE]
        assert len(STEANE_TABLE) == 34


def test_criterion_02_failure_witnesses(bare_five, steane):
    with criterion(2, "bare-set collision witnesses", 1.0):
        report = check_global(bare_five, SYM1)
        assert not report.ok
        a, b = report.witness
        assert str(a.data_pauli()) == "XIIII" and a.flips.weight == 0
        assert b.data.weight == 0 and b.flips.support() == (3,)

        report = check_global(CheckSet.from_code(steane), SYM1)
        assert not report.ok
        a, b = report.witness
        assert str(a.data_pauli()) == "ZIIIIII" and a.flips.weight == 0
        assert b.data.weight == 0 and b.flips.support() == (0,)


def test_criterion_03_parity_augmentation(five, steane):
    with criterion(3, "parity augmentation", 1.0):
        for code in (five, steane):
            checkset = parity_augment(code)
            assert check_global(checkset, SYM1).ok
            for _, s, _ in iter_error_syndromes(checkset, 1, 1):
                assert s.bit_count() != 1


def test_criterion_04_css_penalty(steane):
    with criterion(4, "css pair necessity", 10.0):
        assert check_global(css_parity_pair(steane), SYM1).ok
        tried = 0
        for element in steane.elements():
            if element.x != 0 and element.z != 0:
                continue  # not CSS-type
            candidate = CheckSet(steane, steane.generators + (element,))
            assert not check_global(candidate, SYM1).ok
            tried += 1
        assert tried == 15  # 8 X-type and 8 Z-type combos share the identity


def test_criterion_05_alternative_generators(five, steane, steane_alt):
    with criterion(5, "alternative generators", 30.0):
        alt_set = CheckSet.from_code(steane_alt)
        assert check_global(alt_set, SYM1).ok
        table = build_table(alt_set, SYM1)
        assert len(table) == 28
        expected = {
            cell: label for label, _, cell in STEANE_TABLE if cell != "N/A"
        }
        for observed, fault in table.entries.items():
            cell = ",".join(str(b) for b in BitVector(observed, 6))
            assert cell in expected

        import functools

        css = steane.generators
        total = functools.reduce(multiply, css)
        products = [multiply(css[i], css[3]) for i in range(3)]
        products += [multiply(css[i], total) for i in range(3, 6)]
        assert list(steane_alt.generators) == products

        with pytest.raises(SearchFailure):
            generator_resynthesis(five, SYM1, attempts=200, seed=11)


def test_criterion_06_lemma1_cross_validation(five, steane, steane_alt):
    with criterion(6, "sufficient condition vs exhaustive check", 10.0):
        fixtures = [
            CheckSet.from_code(five),
            CheckSet.from_code(steane),
            CheckSet.from_code(steane_alt),
            parity_augment(five),
            parity_augment(steane),
            css_parity_pair(steane),
        ]
        for checkset in fixtures:
            if lemma1_check(checkset, 3).ok:
                assert check_global(checkset, SYM1).ok
            fast = check_global(checkset, SYM1)
            slow = check_global(checkset, SYM1, all_pairs=True)
            assert (fast.ok, fast.witness, fast.syndrome) == (slow.ok, slow.witness, slow.syndrome)


def test_criterion_07_distance5_double_construction():
    with criterion(7, "hash-family double construction", 60.0):
        outcome = find_distance_code(11, 1, 5, seed=D5_SEARCH_SEED, max_restarts=1, max_kicks=6)
        assert outcome is not None
        assert outcome.certified == (5, 5)
        code = outcome.code
        assert code.generators == load_code(BUNDLED_D5_CODE).generators
        assert (code.n, code.k) == (11, 1)

        checkset = double_construction(code)
        assert checkset.m == 21  # 10 + 3 + 2*4
        assert lemma1_check(checkset, 5).ok
        assert check_global(checkset, FaultBudget.symmetric(2)).ok


def test_criterion_08_local_uniformity(five):
    with criterion(8, "stabilizer local uniformity", 1.0):
        assert oa_check(five, 1)
        assert oa_check(five, 2)
        from collections import Counter

        elements = list(five.elements())
        assert len(elements) == 16
        for q in range(5):
            assert Counter(p.letter(q) for p in elements) == {
                "I": 4, "X": 4, "Y": 4, "Z": 4,
            }
        import itertools as it

        for qa, qb in it.combinations(range(5), 2):
            pairs = Counter((p.letter(qa), p.letter(qb)) for p in elements)
            assert len(pairs) == 16 and set(pairs.values()) == {1}


def test_criterion_09_random_augmentation(five):
    with criterion(9, "random redundant draw", 30.0):
        successes = 0
        for seed in range(100):
            cfg = RandomSearchConfig(delta=0.25, seed=seed, max_attempts=100)
            try:
                result = random_augment(five, cfg, pure_dist=3)
            except SearchFailure:
                continue
            assert (result.m, result.t) == (22, 6)
            for _, s, _ in iter_error_syndromes(result.checkset, 1, 2):
                assert s.bit_count() >= 6
            successes += 1
        assert successes >= 95, f"only {successes}/100 seeds produced a verified draw"


def test_criterion_10_bound_arithmetic():
    with criterion(10, "bound arithmetic", 1.0):
        r = symmetric_hamming(5, 1, 1, 1)
        assert (r.lhs, r.rhs, r.satisfied) == (21, 32, True)
        r = symmetric_hamming(7, 1, 0, 1)
        assert (r.lhs, r.rhs, r.satisfied) == (28, 64, True)
        r = symmetric_hamming(5, 1, 0, 1)
        assert (r.lhs, r.rhs, r.satisfied) == (20, 16, False)
        # classical reduction: the [7,4] single-error-correcting code is tight
        r = hybrid_hamming(0, 7, 0, 1, 3)
        assert (r.lhs, r.rhs, r.satisfied) == (8, 8, True)
        # quantum reduction: the five-qubit code is tight
        r = hybrid_hamming(5, 0, 1, 0, 4)
        assert (r.lhs, r.rhs, r.satisfied) == (16, 16, True)
        assert not gv_check(5, 1, 3).satisfied and gv_check(5, 1, 3).lhs == 105


def test_criterion_11_decoder_correctness(five, bare_five, augmented_five):
    with criterion(11, "decoder correctness and noise comparison", 60.0):
        table = build_table(augmented_five, SYM1)
        corrected = 0
        for e, s, _ in iter_error_syndromes(augmented_five, 1, 1):
            fault = decode(table, BitVector(s, 5))
            assert fault is not None
            assert five.row_basis.contains(fault.data.bits ^ e)
            corrected += 1
        for i in range(5):
            fault = decode(table, BitVector.unit(i, 5))
            assert fault is not None and fault.data.weight == 0
            corrected += 1
        assert corrected == 20

        model = NoiseModel(p=0.01, q=0.005, seed=424242)
        augmented_stats = run_trials(
            augmented_five, lambda s: decode(table, s), model, 100_000
        )
        rerun = run_trials(augmented_five, lambda s: decode(table, s), model, 100_000)
        assert augmented_stats == rerun

        bare_table = build_table(bare_five, FaultBudget.asymmetric(1, 0))
        bare_stats = run_trials(
            bare_five, lambda s: decode(bare_table, s), model, 100_000
        )
        assert augmented_stats.logical_errors < bare_stats.logical_errors
