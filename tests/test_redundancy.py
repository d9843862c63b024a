import functools
import itertools
import math

import pytest

from dscodes.code import CheckSet, StabilizerCode, iter_error_syndromes, steane_css
from dscodes.redundancy import (
    RandomSearchConfig,
    SearchFailure,
    binary_entropy,
    css_parity_pair,
    double_construction,
    generator_resynthesis,
    parity_augment,
    phf_matrix,
    random_augment,
    transform_generators,
)
from dscodes.symplectic import multiply, parse_pauli
from dscodes.verify import FaultBudget, check_global

from reference_tables import FIVE_QUBIT_AUGMENTED_TABLE


class TestParityAugment:
    def test_row_count_and_last_row(self, five, augmented_five):
        assert augmented_five.m == 5
        assert str(augmented_five.operators[-1]) == "ZZXIX"
        assert augmented_five.operators[:4] == five.generators

    def test_reproduces_reference_table(self, augmented_five):
        from dscodes.code import observed_syndrome, Fault
        from dscodes.symplectic import BitVector

        rows = iter(FIVE_QUBIT_AUGMENTED_TABLE)
        assert next(rows) == ("No error", "0,0,0,0,0")
        for label, cell in rows:
            if label.endswith("flip"):
                bit = int(label[1])
                fault = Fault(BitVector.zeros(10), BitVector.unit(bit, 5))
            else:
                fault = Fault(parse_pauli(label).error_vector(), BitVector.zeros(5))
            got = observed_syndrome(augmented_five, fault)
            assert ",".join(str(b) for b in got) == cell, label

    def test_data_errors_never_give_weight_one(self, augmented_five):
        for _, s, _ in iter_error_syndromes(augmented_five, 1, 1):
            assert s.bit_count() != 1

    def test_extra_bit_is_parity(self, augmented_five):
        for e, s, _ in iter_error_syndromes(augmented_five, 1, 2):
            base = s & 0b1111
            assert (s >> 4) == (base.bit_count() & 1)

    def test_steane_parity_augment_separates_flips(self, steane):
        checkset = parity_augment(steane)
        assert checkset.m == 7
        data_syndromes = {s for _, s, _ in iter_error_syndromes(checkset, 1, 1)}
        flip_syndromes = {1 << i for i in range(7)}
        assert not data_syndromes & flip_syndromes
        assert check_global(checkset, FaultBudget.symmetric(1)).ok


class TestCssParityPair:
    def test_steane_pair(self, steane):
        checkset = css_parity_pair(steane)
        assert checkset.m == 8
        assert str(checkset.operators[6]) == "XXXIIIX"
        assert str(checkset.operators[7]) == "ZZZIIIZ"
        x123 = functools.reduce(multiply, steane.generators[:3])
        assert checkset.operators[6] == x123
        assert check_global(checkset, FaultBudget.symmetric(1)).ok

    def test_rows_stay_css(self, steane):
        for op in css_parity_pair(steane).operators:
            assert op.x == 0 or op.z == 0

    def test_non_css_rejected(self, five):
        with pytest.raises(TypeError, match="generator 0"):
            css_parity_pair(five)


class TestPhfMatrix:
    def test_w4(self):
        rows = phf_matrix(4)
        assert len(rows) == 2
        cols = [tuple((rows[i] >> j) & 1 for i in range(2)) for j in range(4)]
        assert cols == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_w10_needs_four_rows(self):
        assert len(phf_matrix(10)) == 4

    def test_w2(self):
        assert phf_matrix(2) == (0b10,)

    def test_w1_rejected(self):
        with pytest.raises(ValueError):
            phf_matrix(1)

    @pytest.mark.parametrize("w", [2, 3, 5, 8, 10, 17])
    def test_separation_invariant(self, w):
        rows = phf_matrix(w)
        assert len(rows) == math.ceil(math.log2(w))
        assert all(0 <= row < 1 << w for row in rows)
        for a, b in itertools.combinations(range(w), 2):
            assert any(((row >> a) ^ (row >> b)) & 1 for row in rows), (a, b)


class TestRandomAugment:
    def test_five_qubit_quarter(self, five):
        cfg = RandomSearchConfig(delta=0.25, seed=20240, max_attempts=100)
        result = random_augment(five, cfg)
        assert (result.m, result.t) == (22, 6)
        assert result.checkset.m == 22
        # exhaustive recheck of the accepted draw
        for _, s, _ in iter_error_syndromes(result.checkset, 1, 2):
            assert s.bit_count() >= 6

    def test_delta_bounds(self):
        with pytest.raises(ValueError):
            RandomSearchConfig(delta=0.5, seed=0)
        with pytest.raises(ValueError):
            RandomSearchConfig(delta=0.0, seed=0)

    def test_deterministic_per_seed(self, five):
        cfg = RandomSearchConfig(delta=0.25, seed=7, max_attempts=100)
        a = random_augment(five, cfg)
        b = random_augment(five, cfg)
        assert a.checkset.operators == b.checkset.operators
        assert a.attempts == b.attempts

    def test_failure_reports_attempt_statistics(self, five):
        # Seed 7's first draw misses the weight demand, so a one-attempt
        # budget fails deterministically.
        cfg = RandomSearchConfig(delta=0.25, seed=7, max_attempts=1)
        with pytest.raises(SearchFailure) as err:
            random_augment(five, cfg)
        assert err.value.attempts == 1
        assert err.value.stats == {"rank": 0, "light_syndrome": 1}

    def test_rank_rejections_are_counted(self, five):
        # At delta = 0.01 the draw has m = 5 rows for r = 4; seed 1 draws
        # two rank-deficient sets in a row.
        with pytest.raises(SearchFailure) as err:
            random_augment(five, RandomSearchConfig(0.01, 1, 2))
        assert err.value.attempts == 2
        assert err.value.stats == {"rank": 2, "light_syndrome": 0}

    def test_accepted_after_a_rank_rejection(self, five):
        with pytest.raises(SearchFailure) as err:
            random_augment(five, RandomSearchConfig(0.01, 3, 1))
        assert err.value.stats == {"rank": 1, "light_syndrome": 0}
        result = random_augment(five, RandomSearchConfig(0.01, 3, 2))
        assert (result.attempts, result.m, result.t) == (2, 5, 1)
        assert [str(op) for op in result.checkset.operators] == [
            "ZZXIX", "XIXZZ", "YYZIZ", "XXYIY", "YXXYI"
        ]

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            RandomSearchConfig(delta=0.25, seed=0, max_attempts=0)

    @pytest.mark.parametrize("pure_dist", [0, -2])
    def test_vacuous_pure_distance_refused(self, five, pure_dist):
        # Weights 1..pure_dist-1 are empty, so the first full-rank draw
        # would be accepted without checking a single error.
        with pytest.raises(ValueError, match="pure_dist"):
            random_augment(five, RandomSearchConfig(0.25, 1), pure_dist=pure_dist)

    def test_entropy_values(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-15)


class TestGeneratorResynthesis:
    STEANE_ALT_TRANSFORM = (0b001001, 0b001010, 0b001100, 0b110111, 0b101111, 0b011111)

    def test_identity_transform_reproduces_generators(self, steane):
        identity = tuple(1 << i for i in range(6))
        checkset = transform_generators(steane, identity)
        assert checkset.operators == steane.generators

    def test_known_transform_is_accepted(self, steane, steane_alt):
        checkset = transform_generators(steane, self.STEANE_ALT_TRANSFORM)
        assert checkset.operators == steane_alt.generators
        assert check_global(checkset, FaultBudget.symmetric(1)).ok

    def test_singular_transform_rejected(self, steane):
        with pytest.raises(ValueError, match="singular"):
            transform_generators(steane, (1, 1, 4, 8, 16, 32))

    def test_search_succeeds_on_steane(self, steane):
        result = generator_resynthesis(steane, FaultBudget.symmetric(1), attempts=2000, seed=5)
        assert result.checkset.m == 6
        assert check_global(result.checkset, FaultBudget.symmetric(1)).ok

    def test_search_fails_on_perfect_code(self, five):
        # 16 syndrome patterns cannot separate 16 data cases plus 4 flips.
        with pytest.raises(SearchFailure) as err:
            generator_resynthesis(five, FaultBudget.symmetric(1), attempts=120, seed=9)
        assert err.value.stats["invertible_tried"] > 0

    def test_singular_draws_are_counted(self, five):
        with pytest.raises(SearchFailure) as err:
            generator_resynthesis(five, FaultBudget.symmetric(1), attempts=200, seed=11)
        assert err.value.attempts == 200
        assert err.value.stats == {"invertible_tried": 63, "singular_skipped": 137}


class TestMaskWidthLimit:
    # 65 single-qubit Z generators on 66 qubits: n-k = 65 generator masks
    # do not fit the uint64 draw.
    CODE = StabilizerCode.from_strings("I" * i + "Z" + "I" * (65 - i) for i in range(65))

    def test_random_augment_refused(self):
        with pytest.raises(ValueError, match="n-k = 65 exceeds the 64-bit limit"):
            random_augment(self.CODE, RandomSearchConfig(delta=0.25, seed=0), pure_dist=2)

    def test_generator_resynthesis_refused(self):
        with pytest.raises(ValueError, match="n-k = 65 exceeds the 64-bit limit"):
            generator_resynthesis(self.CODE, FaultBudget.symmetric(1), attempts=1, seed=0)


class TestDoubleConstruction:
    def test_small_codes_refused(self, five):
        with pytest.raises(ValueError, match="refused"):
            double_construction(five)

    def test_structure_on_bundled_distance5_code(self):
        from pathlib import Path

        from dscodes.code import load_code

        code = load_code(
            Path(__file__).parent.parent / "src" / "dscodes" / "data" / "code_11_1_5.txt"
        )
        checkset = double_construction(code)
        r = 10
        selector = phf_matrix(r)
        assert checkset.m == r + 3 + 2 * len(selector) == 21
        gens = checkset.operators[:r]
        assert gens == code.generators
        total = functools.reduce(multiply, code.generators)
        assert checkset.operators[r] == checkset.operators[r + 1] == checkset.operators[r + 2] == total
        first_copy = checkset.operators[r + 3 : r + 3 + len(selector)]
        second_copy = checkset.operators[r + 3 + len(selector) :]
        assert first_copy == second_copy
        for i, row in enumerate(first_copy):
            expected = functools.reduce(
                multiply,
                (g for j, g in enumerate(code.generators) if (selector[i] >> j) & 1),
                parse_pauli("I" * 11),
            )
            assert row == expected
