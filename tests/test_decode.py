import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dscodes.code import (
    CheckSet,
    Fault,
    StabilizerCode,
    five_qubit,
    iter_error_syndromes,
    observed_syndrome,
    steane_css,
)
from dscodes.decode import (
    _DRAW_BLOCK,
    NoiseModel,
    _reversed_bits,
    _sample_block,
    _table_key,
    UncorrectableBudgetError,
    build_table,
    decode,
    ml_decode,
    run_trials,
    sample_fault,
)
from dscodes.redundancy import css_parity_pair, parity_augment
from dscodes.symplectic import BitVector, parse_pauli
from dscodes.verify import CandidateCapError, FaultBudget, equivalent_data

_STEANE_SETS = (
    CheckSet.from_code(steane_css()),
    parity_augment(steane_css()),
    css_parity_pair(steane_css()),
)


@pytest.fixture(scope="module")
def table_ii(augmented_five):
    return build_table(augmented_five, FaultBudget.symmetric(1))


@pytest.fixture(scope="module")
def data_only_table(bare_five):
    return build_table(bare_five, FaultBudget.asymmetric(1, 0))


@st.composite
def words_with_width(draw):
    width = draw(st.integers(0, 70))
    return draw(st.integers(0, (1 << width) - 1)), width


@st.composite
def distinct_faults(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    pairs = st.tuples(st.integers(0, 4**n - 1), st.integers(0, 2**m - 1))
    return n, m, draw(st.lists(pairs, min_size=2, max_size=16, unique=True))


class TestTableKey:
    @given(words_with_width())
    @settings(max_examples=300)
    def test_reversed_bits_reverses_each_bit(self, case):
        word, width = case
        expected = sum(((word >> i) & 1) << (width - 1 - i) for i in range(width))
        assert _reversed_bits(word, width) == expected

    @given(distinct_faults())
    @settings(max_examples=200)
    def test_order_is_the_documented_tie_rule(self, case):
        """Least combined weight, then the data and flip bit strings, index 0 first."""
        n, m, pairs = case
        faults = [Fault.from_ints(e, f, n, m) for e, f in pairs]

        def key(fault):
            e, f = fault.data.bits, fault.flips.bits
            return _table_key(e, f, fault.data_weight, fault.flip_weight, n, m)

        def documented(fault):
            return (fault.combined_weight, fault.data.to01(), fault.flips.to01())

        assert sorted(faults, key=key) == sorted(faults, key=documented)


class TestBuildTable:
    def test_augmented_five_has_21_entries(self, table_ii):
        assert len(table_ii) == 21

    def test_bare_five_refused_with_witness(self, bare_five):
        with pytest.raises(UncorrectableBudgetError) as err:
            build_table(bare_five, FaultBudget.symmetric(1))
        a, b = err.value.report.witness
        assert str(a.data_pauli()) == "XIIII"
        assert b.flips.support() == (3,)

    def test_alternative_steane_has_28_entries(self, steane_alt):
        table = build_table(CheckSet.from_code(steane_alt), FaultBudget.symmetric(1))
        assert len(table) == 28

    def test_over_cap_budget_refused(self):
        # 40 single-qubit Z checks at sym:5 admit about 1.6e8 faults, over the
        # default cap of check_global.
        code = StabilizerCode.from_strings("I" * i + "Z" + "I" * (39 - i) for i in range(40))
        with pytest.raises(CandidateCapError):
            build_table(CheckSet.from_code(code), FaultBudget.symmetric(5))

    def test_entries_are_minimal_weight(self, table_ii):
        for observed, fault in table_ii.entries.items():
            assert fault.combined_weight <= 1
            got = observed_syndrome(table_ii.checkset, fault)
            assert got.bits == observed

    def test_data_only_table_covers_all_syndromes(self, data_only_table):
        assert len(data_only_table) == 16


class TestDecode:
    def test_table_lookup(self, table_ii):
        fault = decode(table_ii, BitVector.from01("00011"))
        assert str(fault.data_pauli()) == "XIIII" and fault.flip_weight == 0

    def test_zero_syndrome_is_no_error(self, table_ii):
        fault = decode(table_ii, BitVector.zeros(5))
        assert fault.combined_weight == 0

    def test_out_of_table(self, table_ii):
        assert decode(table_ii, BitVector.from01("11010")) is None

    def test_every_single_fault_corrects(self, augmented_five, table_ii, five):
        # all 15 single data errors
        for e, s, _ in iter_error_syndromes(augmented_five, 1, 1):
            got = decode(table_ii, BitVector(s, 5))
            assert got is not None
            assert equivalent_data(five, got.data, BitVector(e, 10))
        # all 5 single flips
        for i in range(5):
            got = decode(table_ii, BitVector.unit(i, 5))
            assert got is not None
            assert equivalent_data(five, got.data, BitVector.zeros(10))


class TestMlDecode:
    def test_prefers_data_when_flips_rare(self, augmented_five):
        model = NoiseModel(p=1e-2, q=1e-3, seed=0)
        fault = ml_decode(augmented_five, BitVector.from01("00011"), model, 2)
        assert str(fault.data_pauli()) == "XIIII" and fault.flip_weight == 0

    def test_prefers_flips_when_data_rare(self, augmented_five):
        model = NoiseModel(p=1e-4, q=1e-1, seed=0)
        fault = ml_decode(augmented_five, BitVector.from01("00011"), model, 2)
        assert fault.data_weight == 0 and fault.flips.support() == (3, 4)

    def test_zero_syndrome_decodes_to_identity(self, augmented_five):
        model = NoiseModel(p=0.3, q=0.3, seed=0)
        fault = ml_decode(augmented_five, BitVector.zeros(5), model, 2)
        assert fault.combined_weight == 0

    def test_matches_table_on_in_table_syndromes(self, augmented_five, table_ii, five):
        model = NoiseModel(p=1e-6, q=1e-6, seed=0)
        for observed, entry in table_ii.entries.items():
            got = ml_decode(augmented_five, BitVector(observed, 5), model, 1)
            assert equivalent_data(five, got.data, entry.data)

    def test_no_explanation_within_cap(self, augmented_five):
        model = NoiseModel(p=1e-2, q=1e-3, seed=0)
        # weight-3 observations are unreachable with combined weight <= 1
        # only when no single fault hits them; pick one not in the table.
        assert ml_decode(augmented_five, BitVector.from01("11010"), model, 0) is None

    def test_negative_cap_refused(self, augmented_five):
        model = NoiseModel(p=1e-2, q=1e-3, seed=0)
        with pytest.raises(ValueError, match="budget cap must be nonnegative"):
            ml_decode(augmented_five, BitVector.from01("00000"), model, -1)

    @pytest.mark.parametrize("observed, expected", [("101110", "IIIIXYI"), ("011110", "IIIIYXI")])
    def test_tied_classes_on_bare_steane(self, observed, expected):
        # Three classes tie exactly here; the least representative wins.
        checkset = _STEANE_SETS[0]
        model = NoiseModel(p=0.01, q=0.005)
        got = ml_decode(checkset, BitVector.from01(observed), model, 3)
        assert got == _ml_reference(checkset, BitVector.from01(observed), model, 3)
        assert str(got.data_pauli()) == expected and got.flip_weight == 0

    @given(st.sampled_from(_STEANE_SETS), st.data(), st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_classes(self, checkset, data, cap):
        observed = BitVector(data.draw(st.integers(0, 2**checkset.m - 1)), checkset.m)
        model = NoiseModel(p=0.01, q=0.005)
        expected = _ml_reference(checkset, observed, model, cap)
        assert ml_decode(checkset, observed, model, cap) == expected


def _ml_reference(checkset, observed, model, cap):
    """ml_decode by its definition: classes grouped by ``contains``, not by a key."""
    n, m = checkset.n, checkset.m
    basis = checkset.code.row_basis
    classes = []  # [member, probability, (table key, e, f)]
    for e, s, dw in iter_error_syndromes(checkset, 0, cap):
        f = s ^ observed.bits
        fw = f.bit_count()
        if dw + fw > cap:
            continue
        p3, q = model.p / 3.0, model.q
        weight = (p3**dw) * ((1.0 - model.p) ** (n - dw)) * (q**fw) * ((1.0 - q) ** (m - fw))
        rep = (_table_key(e, f, dw, fw, n, m), e, f)
        cls = next((c for c in classes if basis.contains(c[0] ^ e)), None)
        if cls is None:
            classes.append([e, weight, rep])
        else:
            cls[1] += weight
            cls[2] = min(cls[2], rep)
    if not classes:
        return None
    _, _, (_, e, f) = min(classes, key=lambda c: (-c[1], c[2][0]))
    return Fault(BitVector(e, 2 * n), BitVector(f, m))


class TestSampling:
    def test_zero_rates_sample_nothing(self):
        model = NoiseModel(p=0.0, q=0.0, seed=3)
        fault = sample_fault(model, 5, 4)
        assert fault.combined_weight == 0

    def test_deterministic_given_seed(self):
        model = NoiseModel(p=0.3, q=0.3, seed=11)
        assert sample_fault(model, 6, 3) == sample_fault(model, 6, 3)

    def test_rates_roughly_respected(self):
        model = NoiseModel(p=0.5, q=0.25, seed=1)
        rng = model.rng()
        data = 0
        flips = 0
        trials = 4000
        for _ in range(trials):
            f = sample_fault(model, 4, 4, rng)
            data += f.data_weight
            flips += f.flip_weight
        assert data / (4 * trials) == pytest.approx(0.5, abs=0.03)
        assert flips / (4 * trials) == pytest.approx(0.25, abs=0.03)


def _scalar_fault(model, row, checkset):
    """Reference for one row of uniforms: the per-qubit if/elif chain."""
    n = checkset.n
    x = z = 0
    third = model.p / 3.0
    for qb, v in enumerate(row[:n]):
        if v < third:
            x |= 1 << qb
        elif v < 2 * third:
            x |= 1 << qb
            z |= 1 << qb
        elif v < model.p:
            z |= 1 << qb
    flips = sum(1 << i for i, v in enumerate(row[n:]) if v < model.q)
    e = x | (z << n)
    return e, checkset.syndrome_int(e), flips


@st.composite
def noise_blocks(draw):
    """A check set, a noise model, and a block of rows that hit every threshold."""
    checkset = draw(st.sampled_from((parity_augment(five_qubit()),) + _STEANE_SETS))
    p = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    q = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    edges = [p / 3.0, 2 * (p / 3.0), p, q]
    values = st.one_of(
        st.sampled_from(edges + [float(np.nextafter(x, 0.0)) for x in edges]),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    width = checkset.n + checkset.m
    rows = draw(st.lists(st.lists(values, min_size=width, max_size=width), min_size=1, max_size=4))
    return checkset, NoiseModel(p, q), np.array(rows)


class TestSampleBlock:
    @given(noise_blocks())
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_reference(self, case):
        checkset, model, block = case
        got = list(zip(*_sample_block(model, block, checkset.single_qubit_tables)))
        assert got == [_scalar_fault(model, row, checkset) for row in block.tolist()]


class TestRunTrials:
    def test_noiseless_runs_clean(self, augmented_five, table_ii):
        model = NoiseModel(p=0.0, q=0.0, seed=5)
        stats = run_trials(augmented_five, lambda s: decode(table_ii, s), model, 500)
        assert stats.logical_errors == 0 and stats.flagged_uncorrectable == 0

    def test_bit_reproducible(self, augmented_five, table_ii):
        model = NoiseModel(p=0.01, q=0.005, seed=42)
        decoder = lambda s: decode(table_ii, s)
        assert run_trials(augmented_five, decoder, model, 3000) == run_trials(
            augmented_five, decoder, model, 3000
        )

    def test_flips_break_data_only_decoding(self, bare_five, data_only_table):
        model = NoiseModel(p=0.01, q=0.05, seed=8)
        decoder = lambda s: decode(data_only_table, s)
        stats = run_trials(bare_five, decoder, model, 20000)
        assert stats.logical_errors > 0
        assert stats.flagged_uncorrectable == 0  # every syndrome is in the table

    def test_monotone_in_noise_with_common_randomness(self, augmented_five, table_ii):
        decoder = lambda s: decode(table_ii, s)
        low = run_trials(augmented_five, decoder, NoiseModel(p=0.002, q=0.001, seed=77), 20000)
        high = run_trials(augmented_five, decoder, NoiseModel(p=0.02, q=0.01, seed=77), 20000)
        assert low.logical_errors <= high.logical_errors

    def test_counts_partition(self, augmented_five, table_ii):
        model = NoiseModel(p=0.05, q=0.05, seed=2)
        stats = run_trials(augmented_five, lambda s: decode(table_ii, s), model, 5000)
        assert stats.successes + stats.logical_errors + stats.flagged_uncorrectable == 5000

    @pytest.mark.parametrize("trials", [400, 2 * _DRAW_BLOCK + 7])
    def test_vectorized_stream_matches_per_trial_sampling(self, augmented_five, table_ii, trials):
        # run_trials must consume the same uniforms as a manual loop of
        # sample_fault calls over one shared generator, across draw blocks.
        model = NoiseModel(p=0.08, q=0.04, seed=13)
        decoder = lambda s: decode(table_ii, s)
        stats = run_trials(augmented_five, decoder, model, trials)
        rng = model.rng()
        logical = 0
        flagged = 0
        for _ in range(trials):
            fault = sample_fault(model, 5, 5, rng)
            observed = observed_syndrome(augmented_five, fault)
            got = decoder(observed)
            if got is None:
                flagged += 1
            elif not equivalent_data(augmented_five.code, got.data, fault.data):
                logical += 1
        assert (stats.logical_errors, stats.flagged_uncorrectable) == (logical, flagged)

    @staticmethod
    def _per_trial(checkset, decoder, model, trials):
        """(logical, flagged) from a sample_fault loop that decodes every trial."""
        rng = model.rng()
        logical = 0
        flagged = 0
        for _ in range(trials):
            fault = sample_fault(model, checkset.n, checkset.m, rng)
            got = decoder(observed_syndrome(checkset, fault))
            if got is None:
                flagged += 1
            elif not equivalent_data(checkset.code, got.data, fault.data):
                logical += 1
        return logical, flagged

    def test_ml_counts_match_per_trial_decoding(self, augmented_five):
        model = NoiseModel(p=0.08, q=0.04, seed=21)
        decoder = lambda s: ml_decode(augmented_five, s, model, 2)
        stats = run_trials(augmented_five, decoder, model, 400)
        reference = self._per_trial(augmented_five, decoder, model, 400)
        assert (stats.logical_errors, stats.flagged_uncorrectable) == reference
        assert reference[0] > 0

    def test_decoder_asked_once_per_distinct_syndrome_per_block(self, augmented_five, table_ii):
        model = NoiseModel(p=0.08, q=0.04, seed=13)
        trials = 2 * _DRAW_BLOCK + 7
        asked = []

        def decoder(observed):
            asked.append(observed.bits)
            return decode(table_ii, observed)

        run_trials(augmented_five, decoder, model, trials)
        rng = model.rng()
        observed = [
            observed_syndrome(augmented_five, sample_fault(model, 5, 5, rng)).bits
            for _ in range(trials)
        ]
        expected = []
        for start in range(0, trials, _DRAW_BLOCK):
            expected.extend(dict.fromkeys(observed[start : start + _DRAW_BLOCK]))
        assert asked == expected
        assert len(expected) < trials

    def test_flagging_decoder_matches_per_trial_counts(self, augmented_five, table_ii):
        model = NoiseModel(p=0.08, q=0.04, seed=5)
        decoder = lambda s: None if s.bits % 3 == 0 else decode(table_ii, s)
        stats = run_trials(augmented_five, decoder, model, 3000)
        logical, flagged = self._per_trial(augmented_five, decoder, model, 3000)
        assert (stats.logical_errors, stats.flagged_uncorrectable) == (logical, flagged)
        assert flagged > 0 and logical > 0
