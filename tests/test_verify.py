import itertools
import tracemalloc
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dscodes.bounds import gv_check, hybrid_hamming, singleton_check, symmetric_hamming
from dscodes.code import (
    CheckSet,
    Fault,
    StabilizerCode,
    five_qubit,
    iter_error_syndromes,
    load_code,
    observed_syndrome,
    scan_distances,
    steane_css,
)
from dscodes.decode import UncorrectableBudgetError, _table_key, build_table
from dscodes.redundancy import css_parity_pair, double_construction, parity_augment
from dscodes.search import find_distance_code
from dscodes.symplectic import BitVector, parse_pauli
from dscodes.verify import (
    CandidateCapError,
    FaultBudget,
    _zx_interleaved,
    check_global,
    equivalent_data,
    fault_count,
    iter_faults,
    lemma1_check,
    oa_check,
)

from reference_tables import bucketed_check_global

CODE_11_1_5 = load_code(Path(__file__).parent.parent / "src" / "dscodes" / "data" / "code_11_1_5.txt")


@pytest.fixture(scope="module")
def d5_double():
    """The 21-row double construction on the bundled [[11,1,5]] code."""
    return double_construction(CODE_11_1_5)


class TestFaultBudget:
    def test_symmetric_admits_combined(self):
        b = FaultBudget.symmetric(2)
        assert b.admits(1, 1) and b.admits(2, 0) and b.admits(0, 2)
        assert not b.admits(2, 1)

    def test_asymmetric_admits_product(self):
        b = FaultBudget.asymmetric(1, 2)
        assert b.admits(1, 2)
        assert not b.admits(2, 0)

    def test_parse_roundtrip(self):
        assert FaultBudget.parse("sym:2") == FaultBudget.symmetric(2)
        assert FaultBudget.parse("asym:1,0") == FaultBudget.asymmetric(1, 0)
        with pytest.raises(ValueError):
            FaultBudget.parse("both:3")

    def test_negative_weights_refused(self):
        for text in ("sym:-1", "asym:-1,0", "asym:0,-1"):
            with pytest.raises(ValueError, match="negative weight"):
                FaultBudget.parse(text)
        with pytest.raises(ValueError, match="negative weight"):
            FaultBudget(1, 1, -1)

    def test_fault_count(self):
        # no error + 15 single data + 4 flips on the bare five-qubit set
        assert fault_count(FaultBudget.symmetric(1), 5, 4) == 20
        assert fault_count(FaultBudget.asymmetric(1, 0), 5, 4) == 16


class TestEquivalentData:
    def test_reflexive(self, five):
        e = parse_pauli("XIIII").error_vector()
        assert equivalent_data(five, e, e)

    def test_stabilizer_offset(self, five):
        e = parse_pauli("XIIII").error_vector()
        assert equivalent_data(five, e, e ^ five.generators[0].error_vector())

    def test_distinct_single_errors(self, five):
        assert not equivalent_data(
            five,
            parse_pauli("XIIII").error_vector(),
            parse_pauli("IXIII").error_vector(),
        )


class TestCheckGlobal:
    def test_bare_five_qubit_witness(self, bare_five):
        report = check_global(bare_five, FaultBudget.symmetric(1))
        assert not report.ok
        a, b = report.witness
        assert str(a.data_pauli()) == "XIIII" and a.flip_weight == 0
        assert b.data_weight == 0 and b.flips.support() == (3,)
        assert report.syndrome.to01() == "0001"

    def test_bare_steane_witness(self, steane):
        report = check_global(CheckSet.from_code(steane), FaultBudget.symmetric(1))
        assert not report.ok
        a, b = report.witness
        assert str(a.data_pauli()) == "ZIIIIII" and a.flip_weight == 0
        assert b.data_weight == 0 and b.flips.support() == (0,)
        assert report.syndrome.to01() == "100000"

    def test_augmented_five_qubit_passes(self, augmented_five):
        report = check_global(augmented_five, FaultBudget.symmetric(1))
        assert report.ok and report.faults_checked == 21

    def test_alternative_steane_passes(self, steane_alt):
        report = check_global(CheckSet.from_code(steane_alt), FaultBudget.symmetric(1))
        assert report.ok and report.faults_checked == 28

    def test_monotone_in_budget(self, augmented_five):
        assert check_global(augmented_five, FaultBudget.symmetric(1)).ok
        assert check_global(augmented_five, FaultBudget.asymmetric(1, 0)).ok
        assert check_global(augmented_five, FaultBudget.asymmetric(0, 1)).ok

    @pytest.mark.parametrize("budget", [FaultBudget.symmetric(1), FaultBudget.asymmetric(1, 1)])
    def test_bucketing_matches_all_pairs(self, bare_five, augmented_five, steane, budget):
        for checkset in (bare_five, augmented_five, CheckSet.from_code(steane)):
            fast = check_global(checkset, budget)
            slow = check_global(checkset, budget, all_pairs=True)
            assert fast.ok == slow.ok
            if not fast.ok:
                assert fast.witness == slow.witness
                assert fast.syndrome == slow.syndrome

    def test_candidate_cap(self, bare_five):
        with pytest.raises(CandidateCapError):
            check_global(bare_five, FaultBudget.symmetric(3), candidate_cap=10)


# The 21-row double construction's reports as (ok, witness, syndrome,
# faults_checked), as recorded in perfbench/golden.json.
_D5_DOUBLE_REPORTS = {
    "sym:2": (True, None, None, 1453),
    "sym:3": (
        False,
        ("data=ZIIIIIIIIII flips=010100000000000000000", "data=IXIIIIIIIII flips=000010100000000000000"),
        "001000000100010011001",
        24563,
    ),
    "asym:2,2": (
        False,
        ("data=ZIIIIIIIIII flips=110000000000000000000", "data=IZIIIIIZIII flips=000000000000000010001"),
        "101100000100010011001",
        122728,
    ),
    "asym:2,3": (
        False,
        ("data=ZIIIIIIIIII flips=100000000000000000000", "data=XIIIIIZIIII flips=000110010000000000000"),
        "111100000100010011001",
        826298,
    ),
}


class TestDoubleConstructionReports:
    @pytest.mark.parametrize("budget", sorted(_D5_DOUBLE_REPORTS))
    def test_pinned_report(self, d5_double, budget):
        report = check_global(d5_double, FaultBudget.parse(budget))
        witness = report.witness and tuple(f.describe() for f in report.witness)
        syndrome = report.syndrome and report.syndrome.to01()
        assert (report.ok, witness, syndrome, report.faults_checked) == _D5_DOUBLE_REPORTS[budget]

    def test_memory_does_not_grow_with_flips(self, d5_double):
        # 826,298 faults; bucketing them by syndrome peaked at about 100 MiB.
        budget = FaultBudget.parse("asym:2,3")
        tracemalloc.start()
        try:
            check_global(d5_double, budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


_CODES = (five_qubit(), steane_css())


@st.composite
def small_checksets(draw):
    """Five-qubit or Steane generators plus up to three stabilizer elements."""
    code = draw(st.sampled_from(_CODES))
    masks = draw(st.lists(st.integers(0, (1 << len(code.generators)) - 1), max_size=3))
    return CheckSet(code, code.generators + tuple(map(code.element, masks)))


small_budgets = st.one_of(
    st.integers(0, 2).map(FaultBudget.symmetric),
    st.tuples(st.integers(0, 2), st.integers(0, 2)).map(lambda ab: FaultBudget.asymmetric(*ab)),
)


@st.composite
def code_11_1_5_extensions(draw):
    """The bundled [[11,1,5]] generators plus up to three stabilizer elements."""
    r = len(CODE_11_1_5.generators)
    masks = draw(st.lists(st.integers(0, (1 << r) - 1), max_size=3))
    return CheckSet(CODE_11_1_5, CODE_11_1_5.generators + tuple(map(CODE_11_1_5.element, masks)))


wide_budgets = st.one_of(
    st.integers(0, 3).map(FaultBudget.symmetric),
    st.tuples(st.integers(0, 2), st.integers(0, 3)).map(lambda ab: FaultBudget.asymmetric(*ab)),
)


budget_grid = st.one_of(
    st.integers(0, 4).map(FaultBudget.symmetric),
    st.tuples(st.integers(0, 3), st.integers(0, 4)).map(lambda ab: FaultBudget.asymmetric(*ab)),
)


class TestBudgetRule:
    @given(budget_grid)
    def test_caps_are_largest_admitted_flip_weight(self, budget):
        assert len(budget.caps) == budget.data_max + 1
        for w, cap in enumerate(budget.caps):
            admitted = [fw for fw in range(budget.flip_max + 1) if budget.admits(w, fw)]
            assert cap == max(admitted, default=-1)

    @given(small_checksets(), budget_grid)
    @settings(max_examples=40, deadline=None)
    def test_fault_count_and_flip_masks(self, checkset, budget):
        # Reference flips: every mask whose weight the budget admits next to
        # the data weight, by weight and then combination order.
        m = checkset.m
        layers = [
            [sum(1 << i for i in bits) for bits in itertools.combinations(range(m), fw)]
            for fw in range(budget.flip_max + 1)
        ]
        expected = {
            dw: tuple(f for fw, layer in enumerate(layers) if budget.admits(dw, fw) for f in layer)
            for dw in range(budget.data_max + 1)
        }
        total = 0
        for _, _, dw, flips in iter_faults(checkset, budget):
            assert flips == expected[dw]
            total += len(flips)
        assert fault_count(budget, checkset.n, m) == total


class TestCanonicalOrder:
    def test_data_parts_rank_by_highest_differing_qubit(self):
        paulis = ["IZI", "ZZI", "IXI", "IYI", "IIZ"]
        keys = [_zx_interleaved(parse_pauli(p).error_vector().bits, 3) for p in paulis]
        assert keys == [4, 5, 8, 12, 16]

    @given(st.integers(1, 70).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 4**n - 1))))
    @settings(max_examples=60)
    def test_interleaving_matches_per_qubit_packing(self, n_and_bits):
        n, e = n_and_bits
        expected = sum(
            ((e >> (n + q)) & 1) << (2 * q) | ((e >> q) & 1) << (2 * q + 1) for q in range(n)
        )
        assert _zx_interleaved(e, n) == expected

    def test_flip_masks_compare_as_integers(self, d5_double):
        # ZIIIIIIIIII collides with flips {1} and with {0, 1, 3}; as integers
        # 0b10 < 0b1011, though {0, 1, 3} has the lower lowest flipped bit.
        budget = FaultBudget.asymmetric(1, 3)
        lo = check_global(d5_double, budget).witness[0]
        assert str(lo.data_pauli()) == "ZIIIIIIIIII" and lo.flips.support() == (1,)
        reduce = d5_double.code.row_basis.reduce
        rival = observed_syndrome(d5_double, Fault(lo.data, BitVector(0b1011, d5_double.m))).bits
        assert any(
            (rival ^ s).bit_count() <= 3 and reduce(e) != reduce(lo.data.bits)
            for e, s, _ in iter_error_syndromes(d5_double, 0, 1)
        )


class TestFaultEnumeration:
    @given(small_checksets(), small_budgets)
    @settings(max_examples=60, deadline=None)
    def test_bucketed_matches_all_pairs(self, checkset, budget):
        count = fault_count(budget, checkset.n, checkset.m)
        assume(count <= 500)  # all-pairs cost is quadratic
        fast = check_global(checkset, budget)
        slow = check_global(checkset, budget, all_pairs=True)
        assert (fast.ok, fast.witness, fast.syndrome, fast.faults_checked) == (
            slow.ok,
            slow.witness,
            slow.syndrome,
            slow.faults_checked,
        )
        assert fast.faults_checked == count
        if not fast.ok:
            a, b = fast.witness
            assert not equivalent_data(checkset.code, a.data, b.data)

    @given(small_checksets(), wide_budgets)
    @settings(max_examples=80, deadline=None)
    def test_scan_matches_bucketed_reference(self, checkset, budget):
        # The reference is linear in the fault count, so budgets reach past
        # the all-pairs oracle's 500 faults.
        assert check_global(checkset, budget) == bucketed_check_global(checkset, budget)

    @pytest.mark.parametrize("budget", ["sym:2", "sym:3", "asym:1,3", "asym:2,2", "asym:2,3"])
    @given(checkset=code_11_1_5_extensions())
    @settings(max_examples=6, deadline=None)
    def test_scan_matches_bucketed_reference_on_11_qubits(self, checkset, budget):
        budget = FaultBudget.parse(budget)
        assert check_global(checkset, budget) == bucketed_check_global(checkset, budget)

    @given(small_checksets(), small_budgets)
    @settings(max_examples=60, deadline=None)
    def test_build_table_matches_check_then_tabulate(self, checkset, budget):
        # Reference: check_global first, then the least fault by _table_key
        # per observed syndrome over a second enumeration.
        report = check_global(checkset, budget)
        if not report.ok:
            with pytest.raises(UncorrectableBudgetError) as err:
                build_table(checkset, budget)
            assert err.value.report == report
            return
        n, m = checkset.n, checkset.m
        best = {}
        for e, s, dw, flips in iter_faults(checkset, budget):
            for f in flips:
                key = _table_key(e, f, dw, f.bit_count(), n, m)
                if s ^ f not in best or key < best[s ^ f][0]:
                    best[s ^ f] = (key, e, f)
        expected = {o: Fault(BitVector(e, 2 * n), BitVector(f, m)) for o, (_, e, f) in best.items()}
        assert build_table(checkset, budget).entries == expected

    @given(small_checksets(), st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_error_syndromes_from_identity(self, checkset, w):
        items = list(iter_error_syndromes(checkset, 0, w))
        assert items[0] == (0, 0, 0)
        assert len(items) == sum(comb(checkset.n, i) * 3**i for i in range(w + 1))

    def test_negative_min_weight_refused(self, bare_five):
        with pytest.raises(ValueError):
            iter_error_syndromes(bare_five, -1, 1)


class TestLemma1:
    def test_augmented_five_qubit_ok(self, augmented_five):
        report = lemma1_check(augmented_five, 3)
        assert report.ok
        assert report.faults_checked == 15 + 90

    def test_bare_five_qubit_fails_at_single_errors(self, bare_five):
        report = lemma1_check(bare_five, 3)
        assert not report.ok
        assert report.witness[0].data_weight == 1
        assert "syndrome weight 1" in report.reason

    def test_zero_syndrome_logical_report(self):
        # Z on qubit 0 commutes with the bit-flip code's checks but is no
        # stabilizer element: the report pairs it with the empty fault.
        checkset = CheckSet.from_code(StabilizerCode.from_strings(["ZZI", "IZZ"]))
        report = lemma1_check(checkset, 2)
        assert (report.ok, report.faults_checked, report.syndrome.to01()) == (False, 3, "00")
        assert [w.describe() for w in report.witness] == ["data=ZII flips=00", "data=III flips=00"]
        assert report.reason == (
            "weight-1 error below distance 2 has zero syndrome but is not a stabilizer element"
        )

    def test_vacuous_at_d1(self, bare_five):
        assert lemma1_check(bare_five, 1).ok

    def test_witnesses_share_observed_syndrome(self, bare_five):
        from dscodes.code import observed_syndrome

        report = lemma1_check(bare_five, 3)
        a, b = report.witness
        assert observed_syndrome(bare_five, a) == observed_syndrome(bare_five, b)
        assert not equivalent_data(bare_five.code, a.data, b.data)

    def test_implies_check_global(self, five, steane, steane_alt):
        # On the distance-3 fixtures, the syndrome-weight condition is
        # sufficient for single-fault distinguishability.
        sets = [
            parity_augment(five),
            parity_augment(steane),
            css_parity_pair(steane),
            CheckSet.from_code(steane_alt),
            CheckSet.from_code(five),
            CheckSet.from_code(steane),
        ]
        for checkset in sets:
            if lemma1_check(checkset, 3).ok:
                assert check_global(checkset, FaultBudget.symmetric(1)).ok

    @given(small_checksets(), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_exact_for_symmetric_budgets(self, checkset, t):
        exact = check_global(checkset, FaultBudget.symmetric(t)).ok
        assert lemma1_check(checkset, 2 * t + 1).ok == exact


class TestOaCheck:
    def test_five_qubit_single_sites(self, five):
        assert oa_check(five, 1)

    def test_five_qubit_pairs(self, five):
        assert oa_check(five, 2)

    def test_trivial_empty_pattern(self, five):
        assert oa_check(five, 0)

    def test_precondition_enforced(self, five):
        with pytest.raises(ValueError, match="pure distance"):
            oa_check(five, 3)

    def test_counts_are_exact(self, five):
        # 16 elements, l=1: each letter exactly 4 times per coordinate.
        from collections import Counter

        for q in range(5):
            counts = Counter(p.letter(q) for p in five.elements())
            assert counts == {"I": 4, "X": 4, "Y": 4, "Z": 4}

    def test_all_l_below_pure_distance(self, steane):
        for l in (1, 2):
            assert oa_check(steane, l)

    @given(
        st.sampled_from([(4, 1, 2), (5, 1, 2), (5, 1, 3), (6, 2, 2), (7, 1, 2), (7, 1, 3)]),
        st.integers(0, 50),
    )
    @settings(max_examples=25, deadline=None)
    def test_uniform_below_pure_distance_on_searched_codes(self, nkd, seed):
        outcome = find_distance_code(*nkd, seed)
        assume(outcome is not None)
        code = outcome.code
        d_pure = scan_distances(code, code.n)[1]
        for l in range(1, d_pure):
            assert oa_check(code, l)
        with pytest.raises(ValueError, match="pure distance"):
            oa_check(code, d_pure)


class TestBounds:
    def test_singleton(self):
        assert singleton_check(5, 1, 3)
        assert not singleton_check(4, 1, 3)
        assert singleton_check(11, 1, 5)

    def test_gv_values(self):
        assert (gv_check(5, 1, 3).lhs, gv_check(5, 1, 3).rhs) == (105, 16)
        assert not gv_check(5, 1, 3).satisfied
        assert gv_check(11, 1, 3).lhs == 528 and gv_check(11, 1, 3).satisfied
        assert gv_check(9, 1, 1).lhs == 0 and gv_check(9, 1, 1).satisfied

    def test_symmetric_values(self):
        r = symmetric_hamming(5, 1, 1, 1)
        assert (r.lhs, r.rhs, r.satisfied) == (21, 32, True)
        r = symmetric_hamming(7, 1, 0, 1)
        assert (r.lhs, r.rhs, r.satisfied) == (28, 64, True)
        r = symmetric_hamming(5, 1, 0, 1)
        assert (r.lhs, r.rhs, r.satisfied) == (20, 16, False)

    def test_perfect_code_saturates_data_only_count(self):
        r = hybrid_hamming(5, 0, 1, 0, 4)
        assert r.lhs == 16 and r.rhs == 16

    def test_hybrid_reduces_to_classical(self):
        # [7,4] Hamming code: 1 + 7 = 8 = 2^3.
        r = hybrid_hamming(0, 7, 0, 1, 3)
        assert r.lhs == 8 and r.rhs == 8 and r.satisfied

    def test_hybrid_reduces_to_quantum(self):
        r = hybrid_hamming(5, 0, 1, 0, 4)
        classical_free = hybrid_hamming(5, 9, 1, 0, 4)
        assert r.lhs == classical_free.lhs

    def test_hybrid_asymmetric_example(self):
        r = hybrid_hamming(5, 5, 1, 1, 5)
        assert (r.lhs, r.rhs, r.satisfied) == (96, 32, False)

    @pytest.mark.parametrize(
        "bound, args",
        [
            pytest.param(symmetric_hamming, (5, 1, 1, -1), id="symmetric-t"),
            pytest.param(symmetric_hamming, (5, 1, -1, 1), id="symmetric-r"),
            pytest.param(symmetric_hamming, (5, 6, 1, 1), id="symmetric-k"),
            pytest.param(hybrid_hamming, (5, 5, -1, 1, 5), id="hybrid-tq"),
            pytest.param(hybrid_hamming, (5, 5, 1, -1, 5), id="hybrid-tc"),
            pytest.param(hybrid_hamming, (5, 5, 1, 1, -1), id="hybrid-s"),
            pytest.param(gv_check, (5, 7, 3), id="gv-k-above-n"),
            pytest.param(gv_check, (5, -1, 3), id="gv-k-negative"),
            pytest.param(gv_check, (9, 1, 0), id="gv-d"),
            pytest.param(singleton_check, (5, 1, -3), id="singleton-d"),
            pytest.param(singleton_check, (5, 6, 3), id="singleton-k"),
        ],
    )
    def test_vacuous_inputs_refused(self, bound, args):
        with pytest.raises(ValueError):
            bound(*args)

    @given(st.floats(0.01, 0.99))
    @settings(max_examples=30)
    def test_entropy_symmetry(self, x):
        from dscodes.redundancy import binary_entropy

        assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-12)
