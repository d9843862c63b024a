import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dscodes.code import (
    CheckSet,
    CodeFileError,
    Fault,
    StabilizerCode,
    ValidationError,
    five_qubit,
    load_checkset,
    load_code,
    observed_syndrome,
    save_checkset,
    save_code,
    scan_distances,
    steane_alternative,
    steane_css,
    syndrome,
)
from dscodes.symplectic import BitVector, DimensionError, PauliString, multiply, parse_pauli

from reference_tables import FIVE_QUBIT_TABLE


class TestFixtures:
    def test_five_qubit_generators(self, five):
        assert [str(g) for g in five.generators] == ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
        assert (five.n, five.k) == (5, 1)

    def test_steane_generators(self, steane):
        assert [str(g) for g in steane.generators] == [
            "XIIXIXX", "IXIXXIX", "IIXIXXX", "ZIIZIZZ", "IZIZZIZ", "IIZIZZZ",
        ]
        assert (steane.n, steane.k) == (7, 1)

    def test_alternative_rows_are_the_stated_products(self, steane, steane_alt):
        import functools

        css = steane.generators
        total = functools.reduce(multiply, css)
        expected = [multiply(css[i], css[3]) for i in range(3)]
        expected += [multiply(css[i], total) for i in range(3, 6)]
        assert list(steane_alt.generators) == expected
        assert str(steane_alt.generators[0]) == "YIIYIYY"

    def test_alternative_spans_same_code(self, steane, steane_alt):
        for g in steane_alt.generators:
            assert steane.contains_vector(g.error_vector())


class TestValidation:
    def test_anticommuting_rejected(self):
        with pytest.raises(ValidationError, match="0 and 1"):
            StabilizerCode.from_strings(["XX", "ZI"])

    def test_anticommuting_extra_rows_rejected(self):
        rows = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ", "XXXXX", "ZZZZZ"]
        with pytest.raises(ValidationError, match="anticommute"):
            StabilizerCode.from_strings(rows)

    @given(st.integers(1, 4), st.booleans(), st.data())
    def test_more_rows_than_qubits_never_construct(self, n, z_only, data):
        """n+1 commuting independent rows would span an isotropic space above
        dimension n; Z-only rows all commute, so they reach the independence test."""
        masks = st.integers(0, 2**n - 1)
        rows = data.draw(st.lists(st.tuples(masks, masks), min_size=n + 1, max_size=n + 1))
        with pytest.raises(ValidationError):
            StabilizerCode(tuple(PauliString(n, 0 if z_only else x, z) for x, z in rows))

    def test_dependent_rejected(self):
        with pytest.raises(ValidationError, match="depends"):
            StabilizerCode.from_strings(["XX", "XX"])

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValidationError):
            StabilizerCode.from_strings(["XX", "ZZZ"])

    def test_checkset_rows_must_be_stabilizer_elements(self, five):
        with pytest.raises(ValidationError, match="not a stabilizer"):
            CheckSet(five, (parse_pauli("XIIII"),))

    def test_checkset_must_span(self, five):
        with pytest.raises(ValidationError, match="rank"):
            CheckSet(five, five.generators[:3])


class TestSyndrome:
    def test_matches_reference_table(self, bare_five):
        for label, cell in FIVE_QUBIT_TABLE[1:]:
            s = syndrome(bare_five, parse_pauli(label).error_vector())
            assert ",".join(str(b) for b in s) == cell, label

    def test_zero_error(self, bare_five):
        assert syndrome(bare_five, BitVector.zeros(10)).weight == 0

    def test_augmented_single_z(self, augmented_five):
        s = syndrome(augmented_five, parse_pauli("IIZII").error_vector())
        assert s.to01() == "00101"

    def test_all_sixteen_syndromes_distinct(self, bare_five):
        seen = {0}
        for label, _ in FIVE_QUBIT_TABLE[1:]:
            s = syndrome(bare_five, parse_pauli(label).error_vector())
            seen.add(s.bits)
        assert len(seen) == 16

    @given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
    def test_linearity(self, a, b):
        checks = CheckSet.from_code(five_qubit())
        va, vb = BitVector(a, 10), BitVector(b, 10)
        assert syndrome(checks, va ^ vb) == syndrome(checks, va) ^ syndrome(checks, vb)

    @given(st.integers(0, 2**4 - 1), st.integers(0, 2**10 - 1))
    def test_stabilizer_offsets_share_syndromes(self, mask, bits):
        code = five_qubit()
        checks = CheckSet.from_code(code)
        offset = 0
        for i in range(4):
            if (mask >> i) & 1:
                offset ^= code.generators[i].error_vector().bits
        e = BitVector(bits, 10)
        shifted = BitVector(bits ^ offset, 10)
        assert syndrome(checks, e) == syndrome(checks, shifted)

    def test_dimension_mismatch(self, bare_five):
        with pytest.raises(DimensionError):
            syndrome(bare_five, BitVector.zeros(8))


class TestObservedSyndrome:
    def test_flip_only(self, bare_five):
        f = Fault(BitVector.zeros(10), BitVector.unit(3, 4))
        assert observed_syndrome(bare_five, f).to01() == "0001"

    def test_data_only_reduces_to_syndrome(self, bare_five):
        e = parse_pauli("IIXII").error_vector()
        f = Fault(e, BitVector.zeros(4))
        assert observed_syndrome(bare_five, f) == syndrome(bare_five, e)

    def test_mixed(self, augmented_five):
        f = Fault(parse_pauli("XIIII").error_vector(), BitVector.unit(4, 5))
        assert observed_syndrome(augmented_five, f).to01() == "00010"

    def test_fault_weights(self):
        f = Fault(parse_pauli("YIIZI").error_vector(), BitVector.from01("0110"))
        assert f.data_weight == 2
        assert f.flip_weight == 2
        assert f.combined_weight == 4


class TestDistance:
    def test_five_qubit(self, five):
        assert scan_distances(five, 5) == (3, 3)

    def test_steane(self, steane):
        assert scan_distances(steane, 7)[0] == 3

    def test_single_generator_toy_code(self):
        code = StabilizerCode.from_strings(["ZZ"])
        d, d_pure = scan_distances(code, 2)
        assert d_pure == 1
        assert d == 1

    def test_cutoff_reported(self, five):
        assert scan_distances(five, 2)[0] is None

    def test_cutoff_beyond_n_rejected(self, five):
        with pytest.raises(ValueError):
            scan_distances(five, 6)


class TestCodeFiles:
    def test_roundtrip(self, tmp_path, five):
        path = tmp_path / "five.code"
        save_code(five, path, header_comment="demo")
        loaded = load_code(path)
        assert loaded == five

    def test_fixture_format(self, tmp_path):
        path = tmp_path / "c.code"
        path.write_text("# comment\n5 1\nXZZXI\nIXZZX\nXIXZZ\nZXIXZ\n")
        assert load_code(path) == five_qubit()

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.code"
        path.write_text("XZZXI\nIXQZX\n")
        with pytest.raises(CodeFileError, match="bad.code:2"):
            load_code(path)

    def test_anticommuting_file_rejected(self, tmp_path):
        path = tmp_path / "anti.code"
        path.write_text("XX\nZI\n")
        with pytest.raises(ValidationError, match="anticommute"):
            load_code(path)

    def test_duplicate_rows_rejected(self, tmp_path):
        path = tmp_path / "dup.code"
        path.write_text("XX\nXX\n")
        with pytest.raises(ValidationError, match="depends"):
            load_code(path)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "head.code"
        path.write_text("5 2\nXZZXI\nIXZZX\nXIXZZ\nZXIXZ\n")
        with pytest.raises(CodeFileError, match="k=2"):
            load_code(path)

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("# c\n5 1\n\n# more\nXZZXI\nXQ\n", 6),  # bad operator after header and comments
            ("# c\nXZZXI\n5 1\n", 3),  # an "n k" line after an operator is no header
        ],
    )
    def test_bad_line_number(self, tmp_path, text, line_no):
        path = tmp_path / "bad.code"
        path.write_text(text)
        with pytest.raises(CodeFileError) as err:
            load_code(path)
        assert err.value.line_no == line_no

    # Exact file contents for each way of giving (or omitting) a comment.
    FIVE_ROWS = "XZZXI\nIXZZX\nXIXZZ\nZXIXZ\n"

    @pytest.mark.parametrize(
        "comment, prefix", [(None, ""), ("", ""), ("a\nb", "# a\n# b\n")]
    )
    def test_saved_code_bytes(self, tmp_path, five, comment, prefix):
        path = tmp_path / "five.code"
        save_code(five, path, header_comment=comment)
        assert path.read_bytes() == (prefix + "5 1\n" + self.FIVE_ROWS).encode()

    @pytest.mark.parametrize(
        "comment, prefix", [(None, ""), ("", ""), ("a\nb", "# a\n# b\n")]
    )
    def test_saved_checkset_bytes(self, tmp_path, augmented_five, comment, prefix):
        path = tmp_path / "aug.checks"
        save_checkset(augmented_five, path, header_comment=comment)
        assert path.read_bytes() == (prefix + self.FIVE_ROWS + "ZZXIX\n").encode()

    def test_checkset_roundtrip(self, tmp_path, augmented_five):
        path = tmp_path / "aug.checks"
        save_checkset(augmented_five, path, header_comment="redundant row appended")
        loaded = load_checkset(path)
        assert [str(op) for op in loaded.operators] == [
            str(op) for op in augmented_five.operators
        ]
        assert loaded.code.k == 1
        assert loaded.redundancy == 1
