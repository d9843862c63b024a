"""Golden single-fault syndrome tables for the bundled codes, and a
reference ``check_global`` that enumerates every fault.

Rows are in the canonical enumeration order (no error, then X, Y, Z
sweeps over the qubits, then per-bit flips) and use the TSV rendering of
the ``tables`` command.  Values were fixed by hand-evaluating commutation
against the generator strings and are the reference the implementation
must hit cell for cell.

:func:`bucketed_check_global` is the syndrome-bucketed pass that decided
``check_global`` before the pair scan over data errors.  It is linear in
the fault count, so it reaches budgets the all-pairs oracle cannot.
"""

from dscodes.code import CheckSet
from dscodes.verify import (
    CollisionReport,
    FaultBudget,
    _collision,
    _zx_interleaved,
    iter_faults,
)

FIVE_QUBIT_TABLE = [
    ("No error", "0,0,0,0"),
    ("XIIII", "0,0,0,1"),
    ("IXIII", "1,0,0,0"),
    ("IIXII", "1,1,0,0"),
    ("IIIXI", "0,1,1,0"),
    ("IIIIX", "0,0,1,1"),
    ("YIIII", "1,0,1,1"),
    ("IYIII", "1,1,0,1"),
    ("IIYII", "1,1,1,0"),
    ("IIIYI", "1,1,1,1"),
    ("IIIIY", "0,1,1,1"),
    ("ZIIII", "1,0,1,0"),
    ("IZIII", "0,1,0,1"),
    ("IIZII", "0,0,1,0"),
    ("IIIZI", "1,0,0,1"),
    ("IIIIZ", "0,1,0,0"),
]

FIVE_QUBIT_AUGMENTED_TABLE = [
    ("No error", "0,0,0,0,0"),
    ("XIIII", "0,0,0,1,1"),
    ("IXIII", "1,0,0,0,1"),
    ("IIXII", "1,1,0,0,0"),
    ("IIIXI", "0,1,1,0,0"),
    ("IIIIX", "0,0,1,1,0"),
    ("YIIII", "1,0,1,1,1"),
    ("IYIII", "1,1,0,1,1"),
    ("IIYII", "1,1,1,0,1"),
    ("IIIYI", "1,1,1,1,0"),
    ("IIIIY", "0,1,1,1,1"),
    ("ZIIII", "1,0,1,0,0"),
    ("IZIII", "0,1,0,1,0"),
    ("IIZII", "0,0,1,0,1"),
    ("IIIZI", "1,0,0,1,0"),
    ("IIIIZ", "0,1,0,0,1"),
    ("s0 flip", "1,0,0,0,0"),
    ("s1 flip", "0,1,0,0,0"),
    ("s2 flip", "0,0,1,0,0"),
    ("s3 flip", "0,0,0,1,0"),
    ("s4 flip", "0,0,0,0,1"),
]

# (error label, syndrome by the CSS generators, syndrome by the
# alternative generators); "N/A" where a flip row does not apply.
STEANE_TABLE = [
    ("No error", "0,0,0,0,0,0", "0,0,0,0,0,0"),
    ("XIIIIII", "0,0,0,1,0,0", "1,1,1,0,1,1"),
    ("IXIIIII", "0,0,0,0,1,0", "0,0,0,1,0,1"),
    ("IIXIIII", "0,0,0,0,0,1", "0,0,0,1,1,0"),
    ("IIIXIII", "0,0,0,1,1,0", "1,1,1,1,1,0"),
    ("IIIIXII", "0,0,0,0,1,1", "0,0,0,0,1,1"),
    ("IIIIIXI", "0,0,0,1,0,1", "1,1,1,1,0,1"),
    ("IIIIIIX", "0,0,0,1,1,1", "1,1,1,0,0,0"),
    ("YIIIIII", "1,0,0,1,0,0", "0,1,1,1,0,0"),
    ("IYIIIII", "0,1,0,0,1,0", "0,1,0,0,1,0"),
    ("IIYIIII", "0,0,1,0,0,1", "0,0,1,0,0,1"),
    ("IIIYIII", "1,1,0,1,1,0", "0,0,1,1,1,0"),
    ("IIIIYII", "0,1,1,0,1,1", "0,1,1,0,1,1"),
    ("IIIIIYI", "1,0,1,1,0,1", "0,1,0,1,0,1"),
    ("IIIIIIY", "1,1,1,1,1,1", "0,0,0,1,1,1"),
    ("ZIIIIII", "1,0,0,0,0,0", "1,0,0,1,1,1"),
    ("IZIIIII", "0,1,0,0,0,0", "0,1,0,1,1,1"),
    ("IIZIIII", "0,0,1,0,0,0", "0,0,1,1,1,1"),
    ("IIIZIII", "1,1,0,0,0,0", "1,1,0,0,0,0"),
    ("IIIIZII", "0,1,1,0,0,0", "0,1,1,0,0,0"),
    ("IIIIIZI", "1,0,1,0,0,0", "1,0,1,0,0,0"),
    ("IIIIIIZ", "1,1,1,0,0,0", "1,1,1,1,1,1"),
    ("s0 flip", "1,0,0,0,0,0", "N/A"),
    ("s1 flip", "0,1,0,0,0,0", "N/A"),
    ("s2 flip", "0,0,1,0,0,0", "N/A"),
    ("s3 flip", "0,0,0,1,0,0", "N/A"),
    ("s4 flip", "0,0,0,0,1,0", "N/A"),
    ("s5 flip", "0,0,0,0,0,1", "N/A"),
    ("s'0 flip", "N/A", "1,0,0,0,0,0"),
    ("s'1 flip", "N/A", "0,1,0,0,0,0"),
    ("s'2 flip", "N/A", "0,0,1,0,0,0"),
    ("s'3 flip", "N/A", "0,0,0,1,0,0"),
    ("s'4 flip", "N/A", "0,0,0,0,1,0"),
    ("s'5 flip", "N/A", "0,0,0,0,0,1"),
]


def bucketed_check_global(checkset: CheckSet, budget: FaultBudget) -> CollisionReport:
    """``check_global`` by one pass over every fault, bucketed by syndrome.

    ``least[o]`` is the least fault observed as o, as (e == 0, zx, f, e,
    coset), whose first three fields are its canonical key; ``other[o]``
    is the least one at o from another coset, so only ambiguous o have
    one.  The witness is the ambiguous o with the least such pair.
    """
    n, m = checkset.n, checkset.m
    reduce = checkset.code.row_basis.reduce
    least = {}
    other = {}
    checked = 0
    for e, s, _, flips in iter_faults(checkset, budget):
        coset = reduce(e)
        checked += len(flips)
        flips_only, zx = e == 0, _zx_interleaved(e, n)
        for f in flips:
            fault = (flips_only, zx, f, e, coset)
            observed = s ^ f
            held = least.get(observed)
            if held is None or fault < held:
                least[observed] = fault
                if held is not None and held[4] != coset:
                    other[observed] = held
            elif held[4] != coset:
                rival = other.get(observed)
                if rival is None or fault < rival:
                    other[observed] = fault
    if not other:
        return CollisionReport(ok=True, faults_checked=checked)
    observed = min(other, key=lambda o: (least[o], other[o]))
    lo, hi = least[observed], other[observed]
    return _collision((lo[3], lo[2]), (hi[3], hi[2]), observed, checked, n, m)
