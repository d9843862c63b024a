"""Stabilizer check sets that correct data and syndrome errors together.

The package models phase-free stabilizer codes over a binary symplectic
representation, builds redundant check sets whose syndromes survive
flipped bits, verifies their correction power exhaustively, evaluates the
relevant packing and existence bounds exactly, and simulates decoding
under joint depolarizing/flip noise.
"""

from .bounds import BoundReport, gv_check, hybrid_hamming, singleton_check, symmetric_hamming
from .code import (
    CheckSet,
    Fault,
    StabilizerCode,
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
from .decode import (
    NoiseModel,
    SyndromeTable,
    TrialStats,
    build_table,
    decode,
    ml_decode,
    run_trials,
    sample_fault,
)
from .redundancy import (
    RandomSearchConfig,
    binary_entropy,
    css_parity_pair,
    double_construction,
    generator_resynthesis,
    parity_augment,
    phf_matrix,
    random_augment,
)
from .search import find_distance_code
from .symplectic import (
    BitVector,
    PauliString,
    format_pauli,
    multiply,
    parse_pauli,
    symplectic_product,
)
from .verify import (
    CollisionReport,
    FaultBudget,
    check_global,
    equivalent_data,
    lemma1_check,
    oa_check,
)

__version__ = "0.1.0"
