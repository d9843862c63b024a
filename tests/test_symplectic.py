import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dscodes.symplectic import (
    BitVector,
    DimensionError,
    PauliParseError,
    PauliString,
    RowBasis,
    format_pauli,
    multiply,
    parse_pauli,
    symplectic_product,
)

paulis = st.integers(2, 8).flatmap(
    lambda n: st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)).map(
        lambda xz: PauliString(n, xz[0], xz[1])
    )
)


def same_n_paulis(count):
    return st.integers(2, 8).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)).map(
                lambda xz: PauliString(n, xz[0], xz[1])
            ),
            min_size=count,
            max_size=count,
        )
    )


class TestParse:
    def test_five_qubit_generator(self):
        p = parse_pauli("XZZXI")
        assert p.x == 0b01001 and p.z == 0b00110
        assert (p.error_vector().bits, p.error_vector().n) == (0b00110_01001, 10)

    def test_identity(self):
        p = parse_pauli("IIIII")
        assert p.x == 0 and p.z == 0 and p.weight == 0

    def test_y_sets_both_parts(self):
        p = parse_pauli("YIIII")
        assert p.x == 1 and p.z == 1 and p.weight == 1

    def test_bad_character_position(self):
        with pytest.raises(PauliParseError) as err:
            parse_pauli("XZQXI")
        assert err.value.position == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_pauli("")

    @given(paulis)
    def test_roundtrip(self, p):
        assert parse_pauli(format_pauli(p)) == p

    def test_roundtrip_exhaustive_small(self):
        import itertools

        for n in range(1, 6):
            for letters in itertools.product("IXYZ", repeat=n):
                text = "".join(letters)
                assert format_pauli(parse_pauli(text)) == text


class TestSymplecticProduct:
    def test_x_z_anticommute(self):
        assert symplectic_product(parse_pauli("X"), parse_pauli("Z")) == 1

    def test_first_generator_commutes_with_x0(self):
        assert symplectic_product(parse_pauli("XIIII"), parse_pauli("XZZXI")) == 0

    def test_last_generator_anticommutes_with_x0(self):
        assert symplectic_product(parse_pauli("XIIII"), parse_pauli("ZXIXZ")) == 1

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            symplectic_product(parse_pauli("XX"), parse_pauli("X"))

    @given(same_n_paulis(2))
    def test_symmetry(self, pair):
        a, b = pair
        assert symplectic_product(a, b) == symplectic_product(b, a)

    @given(same_n_paulis(3))
    def test_biadditive(self, triple):
        a, b, c = triple
        lhs = symplectic_product(a, multiply(b, c))
        rhs = symplectic_product(a, b) ^ symplectic_product(a, c)
        assert lhs == rhs


class TestMultiply:
    def test_self_inverse(self):
        p = parse_pauli("XZYIX")
        assert multiply(p, p) == PauliString.identity(5)

    def test_five_qubit_generator_product(self):
        # XOR of the four generator error vectors, checked by hand.
        import functools

        gens = [parse_pauli(s) for s in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")]
        assert format_pauli(functools.reduce(multiply, gens)) == "ZZXIX"

    def test_steane_product_row(self):
        s0 = parse_pauli("XIIXIXX")
        s3 = parse_pauli("ZIIZIZZ")
        assert format_pauli(multiply(s0, s3)) == "YIIYIYY"

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            multiply(parse_pauli("X"), parse_pauli("XX"))

    @given(same_n_paulis(2))
    def test_weight_subadditive(self, pair):
        a, b = pair
        assert multiply(a, b).weight <= a.weight + b.weight

    @given(same_n_paulis(2))
    def test_commutative(self, pair):
        a, b = pair
        assert multiply(a, b) == multiply(b, a)


class TestRank:
    def test_zero_matrix(self):
        assert RowBasis((0, 0, 0)).rank == 0

    def test_identity(self):
        assert RowBasis(1 << i for i in range(6)).rank == 6

    def test_five_qubit_generators(self):
        gens = [parse_pauli(s) for s in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")]
        assert RowBasis(g.error_vector().bits for g in gens).rank == 4

    @given(
        st.lists(st.integers(0, 2**10 - 1), min_size=2, max_size=8),
        st.data(),
    )
    @settings(max_examples=50)
    def test_invariant_under_row_operations(self, rows, data):
        base = RowBasis(rows).rank
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(rows) - 1))
        swapped = list(rows)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert RowBasis(swapped).rank == base
        if i != j:
            added = list(rows)
            added[i] ^= added[j]
            assert RowBasis(added).rank == base


class TestRowSpace:
    def test_zero_vector_always_member(self):
        assert RowBasis((0b1010, 0b0110)).contains(0)

    def test_product_of_rows_is_member(self):
        gens = [parse_pauli(s) for s in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")]
        basis = RowBasis(g.error_vector().bits for g in gens)
        assert basis.contains(multiply(gens[0], gens[2]).error_vector().bits)

    def test_single_x_not_member(self):
        gens = [parse_pauli(s) for s in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")]
        basis = RowBasis(g.error_vector().bits for g in gens)
        assert not basis.contains(parse_pauli("XIIII").error_vector().bits)

    def test_row_basis_incremental(self):
        basis = RowBasis()
        assert basis.add(0b101)
        assert not basis.add(0b101)
        assert basis.add(0b011)
        assert basis.contains(0b110)
        assert not basis.contains(0b001)
        assert basis.rank == 2

    def test_steane_cosets_reduce_canonically(self):
        # Steane errors of weight <= 2 meet 169 cosets, and reduce must give
        # each exactly one representative.
        from dscodes.code import CheckSet, iter_error_syndromes, steane_css

        code = steane_css()
        reps = {}
        for e, _, _ in iter_error_syndromes(CheckSet.from_code(code), 0, 2):
            reps.setdefault(code.row_basis.reduce(e), e)
        assert len(reps) == 169
        pairs = itertools.combinations(reps.values(), 2)
        assert not any(code.row_basis.contains(a ^ b) for a, b in pairs)


words_and_rows = st.integers(1, 12).flatmap(
    lambda w: st.tuples(
        st.lists(st.integers(0, 2**w - 1), max_size=8),
        st.integers(0, 2**w - 1),
        st.integers(0, 2**w - 1),
    )
)


class TestReduce:
    @given(words_and_rows)
    @settings(max_examples=100)
    def test_one_word_per_coset(self, case):
        rows, a, b = case
        basis = RowBasis(rows)
        assert (basis.reduce(a) == basis.reduce(b)) == basis.contains(a ^ b)
        assert basis.contains(basis.reduce(a) ^ a)

    @given(words_and_rows)
    @settings(max_examples=100)
    def test_linear(self, case):
        rows, a, b = case
        basis = RowBasis(rows)
        assert basis.reduce(a ^ b) == basis.reduce(a) ^ basis.reduce(b)
        assert all(basis.reduce(a) >> p & 1 == 0 for p in basis.pivot_rows)


class TestBitVector:
    def test_render_index_zero_first(self):
        v = BitVector.from01("0110")
        assert v.to01() == "0110"
        assert v.bit(1) == 1 and v.bit(3) == 0
        assert v.support() == (1, 2)

    def test_xor_is_addition(self):
        v = BitVector.from01("0110")
        assert (v ^ v).weight == 0

    def test_unit(self):
        assert BitVector.unit(2, 4).to01() == "0010"

    @pytest.mark.parametrize("text", ["012", "01a", "0 1", "-1", "0_1"])
    def test_from01_refuses_other_characters(self, text):
        with pytest.raises(ValueError):
            BitVector.from01(text)

    def test_from01_empty_and_iteration(self):
        assert BitVector.from01("") == BitVector(0, 0)
        assert list(BitVector.from01("1101")) == [1, 1, 0, 1]
