from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dscodes.code import _swap_halves, iter_error_syndromes, load_code, scan_distances
from dscodes.search import (
    _combine,
    _commuting_basis,
    _error_candidates,
    _solve_affine,
    _span_elements,
    _transpose,
    find_distance_code,
)
from dscodes.symplectic import PauliString, symplectic_product

BUNDLED = Path(__file__).parent.parent / "src" / "dscodes" / "data" / "code_11_1_5.txt"


@st.composite
def affine_systems(draw):
    """Up to 10 random equations <mask, v> = rhs on at most 8 bits."""
    width = draw(st.integers(1, 8))
    equation = st.tuples(st.integers(0, (1 << width) - 1), st.integers(0, 1))
    return width, draw(st.lists(equation, max_size=10))


class TestAffineSolver:
    def test_unique_solution(self):
        # v0 = 1, v0 + v1 = 0 over 2 bits
        solved = _solve_affine([(0b01, 1), (0b11, 0)], 2)
        particular, basis = solved
        assert particular == 0b11 and basis == []

    def test_inconsistent(self):
        assert _solve_affine([(0b01, 0), (0b01, 1)], 2) is None

    def test_underdetermined_space(self):
        particular, basis = _solve_affine([(0b100, 1)], 3)
        assert (particular >> 2) & 1 == 1
        assert len(basis) == 2
        for b in basis:
            assert ((particular ^ b) >> 2) & 1 == 1

    def test_span_enumeration(self):
        elements = _span_elements([0b01, 0b10])
        assert sorted(elements) == [0, 1, 2, 3]

    @given(affine_systems())
    def test_agrees_with_brute_force(self, system):
        width, equations = system
        solutions = {
            v for v in range(1 << width)
            if all((mask & v).bit_count() & 1 == rhs for mask, rhs in equations)
        }
        solved = _solve_affine(equations, width)
        assert (solved is None) == (not solutions)
        if solved is not None:
            particular, basis = solved
            assert particular in solutions
            assert {particular ^ e for e in _span_elements(basis)} == solutions


class TestCandidates:
    def test_counts(self, bare_five):
        assert len(_error_candidates(5, 2)) == 15 + 90
        assert len(_error_candidates(11, 4)) == 33 + 495 + 4455 + 26730
        walked = [_swap_halves(e, 5) for e, _, _ in iter_error_syndromes(bare_five, 1, 2)]
        assert Counter(_error_candidates(5, 2)) == Counter(walked)

    def test_commuting_basis_is_orthogonal(self):
        gens = ["XZZXI", "IXZZX"]
        from dscodes.symplectic import parse_pauli

        rows = [parse_pauli(g).error_vector().bits for g in gens]
        basis = _commuting_basis(rows, 5)
        assert len(basis) == 10 - 2
        for b in basis:
            p = PauliString(5, b & 0b11111, b >> 5)
            for g in gens:
                assert symplectic_product(p, parse_pauli(g)) == 0


@st.composite
def detection_systems(draw):
    """Random words of up to 14 bits, rows and a (possibly dependent) basis."""
    width = draw(st.integers(1, 14))
    vectors = st.integers(0, (1 << width) - 1)
    words = draw(st.lists(vectors, max_size=40))
    rows = draw(st.lists(vectors, max_size=5))
    basis = draw(st.lists(vectors, max_size=6))
    return width, words, rows, basis


class TestTransposedDetection:
    @given(detection_systems())
    def test_combined_columns_are_row_parities(self, system):
        width, words, rows, _ = system
        cols = _transpose(words, width)
        for row in rows:
            hits = _combine(cols, row)
            assert hits >> len(words) == 0
            for t, word in enumerate(words):
                assert (hits >> t) & 1 == (word & row).bit_count() & 1

    @given(detection_systems())
    def test_span_of_hits_is_hits_of_span(self, system):
        width, words, _, basis = system
        cols = _transpose(words, width)
        expected = [_combine(cols, v) for v in _span_elements(basis)]
        assert _span_elements([_combine(cols, b) for b in basis]) == expected


class TestFindDistanceCode:
    def test_small_instance_reaches_distance_three(self):
        outcome = find_distance_code(5, 1, 3, seed=0, max_restarts=3, max_kicks=5)
        assert outcome is not None
        assert outcome.certified == (3, 3)
        assert (outcome.code.n, outcome.code.k) == (5, 1)

    def test_deterministic_per_seed(self):
        a = find_distance_code(5, 1, 3, seed=1, max_restarts=2, max_kicks=3)
        b = find_distance_code(5, 1, 3, seed=1, max_restarts=2, max_kicks=3)
        assert a is not None and b is not None
        assert a.code == b.code

    def test_target_distance_validated(self):
        with pytest.raises(ValueError):
            find_distance_code(5, 1, 1, seed=0)

    @pytest.mark.parametrize("k", [-1, 5])
    def test_logical_count_validated(self, k):
        with pytest.raises(ValueError, match="0 <= k < n"):
            find_distance_code(5, k, 3, seed=0)

    @pytest.mark.parametrize("n, k", [(31, 1), (19, 0)])
    def test_sidespace_size_limit(self, n, k):
        with pytest.raises(ValueError, match="exceeds 20"):
            find_distance_code(n, k, 2, seed=0)

    def test_bundled_fixture_is_certified(self):
        code = load_code(BUNDLED)
        assert (code.n, code.k) == (11, 1)
        assert scan_distances(code, 5) == (5, 5)
