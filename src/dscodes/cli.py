"""Command-line surface: tables, verifiers, bounds, constructions, simulation.

All data goes to stdout and is byte-identical across runs for identical
inputs and seeds; the run report (command echo, seed, wall time, verdict)
goes to stderr.  Exit status is 0 for ok/satisfied, 1 when a witness was
found, a bound is violated, or a search failed, and 2 for usage or
validation errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import bounds, code as code_mod, redundancy, verify
from .code import CheckSet, FIXTURES, StabilizerCode, load_checkset, load_code
from .decode import NoiseModel, build_table, decode, ml_decode, run_trials
from .symplectic import BitVector, PauliString
from .verify import FaultBudget

__all__ = ["main"]


class _UsageError(ValueError):
    pass


def _load_code_arg(name_or_path: str) -> StabilizerCode:
    if name_or_path in FIXTURES:
        return FIXTURES[name_or_path]()
    path = Path(name_or_path)
    if not path.exists():
        raise _UsageError(f"unknown code {name_or_path!r}: not a fixture name or file")
    return load_code(path)


def _load_checkset_arg(name_or_path: str, code_arg: str | None) -> CheckSet:
    base = _load_code_arg(code_arg) if code_arg else None
    if name_or_path in FIXTURES:
        fixture = FIXTURES[name_or_path]()
        return CheckSet(base, fixture.generators) if base else CheckSet.from_code(fixture)
    path = Path(name_or_path)
    if not path.exists():
        raise _UsageError(f"unknown check set {name_or_path!r}: not a fixture name or file")
    return load_checkset(path, base)


def _syndrome_cell(bits: BitVector) -> str:
    return ",".join(str(b) for b in bits)


def _single_fault_rows(checkset: CheckSet) -> list[tuple[str, BitVector]]:
    """(label, observed syndrome) rows in canonical table order."""
    n = checkset.n
    tables = checkset.single_qubit_tables
    return [("No error", BitVector.zeros(checkset.m))] + [
        (str(PauliString.single(letter, q, n)), BitVector(tables[q][t][1], checkset.m))
        for t, letter in enumerate(code_mod.PAULI_TYPES)
        for q in range(n)
    ]


def _cmd_tables(args) -> int:
    which = args.which
    out = args.out
    if which in ("I", "II"):
        code = code_mod.five_qubit()
        checkset = redundancy.parity_augment(code) if which == "II" else CheckSet.from_code(code)
        for label, syn in _single_fault_rows(checkset):
            print(f"{label}\t{_syndrome_cell(syn)}", file=out)
        for i in range(checkset.m if which == "II" else 0):
            print(f"s{i} flip\t{_syndrome_cell(BitVector.unit(i, checkset.m))}", file=out)
        return 0
    css = CheckSet.from_code(code_mod.steane_css())
    alt = CheckSet.from_code(code_mod.steane_alternative())
    css_rows = _single_fault_rows(css)
    alt_rows = _single_fault_rows(alt)
    for (label, s_css), (_, s_alt) in zip(css_rows, alt_rows):
        print(f"{label}\t{_syndrome_cell(s_css)}\t{_syndrome_cell(s_alt)}", file=out)
    for i in range(css.m):
        print(f"s{i} flip\t{_syndrome_cell(BitVector.unit(i, css.m))}\tN/A", file=out)
    for i in range(alt.m):
        print(f"s'{i} flip\tN/A\t{_syndrome_cell(BitVector.unit(i, alt.m))}", file=out)
    return 0


def _cmd_distance(args) -> int:
    code = _load_code_arg(args.code)
    cutoff = args.cutoff if args.cutoff is not None else code.n
    d, d_pure = code_mod.scan_distances(code, cutoff)
    d_text = str(d) if d is not None else f">{cutoff}"
    dp_text = str(d_pure) if d_pure is not None else f">{cutoff}"
    print(f"d={d_text} d_pure={dp_text}", file=args.out)
    return 0


def _verdict(report, ok_line: str, out) -> int:
    """Print ``ok_line`` and return 0 on a pass, else the witness lines and 1."""
    if report.ok:
        print(ok_line, file=out)
        return 0
    a, b = report.witness
    print(f"collision: {a.describe()} | {b.describe()} | syndrome={_syndrome_cell(report.syndrome)}", file=out)
    if report.reason:
        print(f"reason: {report.reason}", file=out)
    return 1


def _cmd_verify_global(args) -> int:
    checkset = _load_checkset_arg(args.checkset, args.code)
    budget = FaultBudget.parse(args.budget)
    report = verify.check_global(
        checkset, budget, all_pairs=args.all_pairs, candidate_cap=args.cap
    )
    ok_line = f"ok: {report.faults_checked} faults within {budget} all distinguishable"
    return _verdict(report, ok_line, args.out)


def _cmd_verify_lemma1(args) -> int:
    checkset = _load_checkset_arg(args.checkset, args.code)
    report = verify.lemma1_check(checkset, args.d)
    ok_line = f"ok: {report.faults_checked} errors below weight {args.d} all safely detected"
    return _verdict(report, ok_line, args.out)


def _cmd_verify_oa(args) -> int:
    code = _load_code_arg(args.code)
    ok = verify.oa_check(code, args.l)
    print(f"local patterns of size {args.l}: {'uniform' if ok else 'not uniform'}", file=args.out)
    return 0 if ok else 1


# family: (function, its integer flags in argument order, help)
_BOUNDS = {
    "symmetric": (bounds.symmetric_hamming, ("n", "k", "r", "t"), "combined t-error packing bound"),
    "hybrid": (bounds.hybrid_hamming, ("nq", "nc", "tq", "tc", "s"), "mixed qubit/bit packing bound"),
    "gv": (bounds.gv_check, ("n", "k", "d"), "existence guarantee"),
    "singleton": (bounds.singleton_check, ("n", "k", "d"), "n-k >= 2(d-1) necessary condition"),
}


def _cmd_bound(args) -> int:
    function, flags, _ = _BOUNDS[args.family]
    result = function(*(getattr(args, flag) for flag in flags))
    if args.family == "singleton":
        print(f"{args.n - args.k} {'>=' if result else '<'} {2 * (args.d - 1)}", file=args.out)
        return 0 if result else 1
    print(str(result), file=args.out)
    return 0 if result.satisfied else 1


def _provenance(args, extra: str = "") -> str:
    bits = [f"generated by: dscodes augment --method {args.method}"]
    if getattr(args, "seed", None) is not None:
        bits.append(f"seed: {args.seed}")
    if extra:
        bits.append(extra)
    return "\n".join(bits)


def _emit_checkset(checkset: CheckSet, args, extra: str = "") -> None:
    header = _provenance(args, extra)
    if args.output:
        code_mod.save_checkset(checkset, args.output, header)
    else:
        args.out.write(code_mod._operator_text(header, checkset.operators))


def _random_draw(code: StabilizerCode, args) -> tuple[CheckSet, str]:
    cfg = redundancy.RandomSearchConfig(delta=args.delta, seed=args.seed, max_attempts=args.attempts)
    result = redundancy.random_augment(code, cfg)
    return result.checkset, f"m: {result.m}\nflip tolerance t: {result.t}\nattempts: {result.attempts}"


def _resynthesis(code: StabilizerCode, args) -> tuple[CheckSet, str]:
    budget = FaultBudget.parse(args.budget)
    result = redundancy.generator_resynthesis(code, budget, args.attempts, args.seed)
    return result.checkset, f"attempts: {result.attempts}"


# --method: construction(code, args) -> (check set, extra provenance lines)
_CONSTRUCTIONS = {
    "parity": lambda code, args: (redundancy.parity_augment(code), ""),
    "css-pair": lambda code, args: (redundancy.css_parity_pair(code), ""),
    "phf-double": lambda code, args: (redundancy.double_construction(code), ""),
    "random": _random_draw,
    "resynth": _resynthesis,
}


def _cmd_augment(args) -> int:
    code = _load_code_arg(args.code)
    try:
        checkset, extra = _CONSTRUCTIONS[args.method](code, args)
    except redundancy.SearchFailure as exc:
        print(f"search failed: {exc}", file=sys.stderr)
        return 1
    _emit_checkset(checkset, args, extra)
    return 0


def _cmd_simulate(args) -> int:
    checkset = _load_checkset_arg(args.checkset, args.code)
    budget = FaultBudget.parse(args.budget)
    model = NoiseModel(p=args.p, q=args.q, seed=args.seed)
    if args.ml:
        cap = args.cap if args.cap is not None else budget.data_max + budget.flip_max

        def decoder(observed):
            return ml_decode(checkset, observed, model, cap)

    else:
        table = build_table(checkset, budget)

        def decoder(observed):
            return decode(table, observed)

    stats = run_trials(checkset, decoder, model, args.trials)
    print(
        f"{args.p:.6f}\t{args.q:.6f}\t{stats.trials}\t{stats.decoding_failures}"
        f"\t{stats.logical_errors}\t{stats.flagged_uncorrectable}\t{args.seed}",
        file=args.out,
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dscodes",
        description="Redundant stabilizer check sets that also correct syndrome errors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="emit the single-fault syndrome tables of the built-in codes")
    p.add_argument("which", choices=["I", "II", "III"])
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("distance", help="exhaustive distance and pure distance")
    p.add_argument("--code", required=True, help="fixture name or code file")
    p.add_argument("--cutoff", type=int, default=None, help="max weight to scan (default: n)")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("verify-global", help="exhaustive joint-fault distinguishability")
    p.add_argument("--checkset", required=True)
    p.add_argument("--code", default=None, help="underlying code (default: span of the check set)")
    p.add_argument("--budget", required=True, help="sym:t or asym:a,b")
    p.add_argument("--all-pairs", action="store_true", help="compare every pair (differential mode)")
    p.add_argument("--cap", type=int, default=10**8, help="refuse enumerations above this size")
    p.set_defaults(func=_cmd_verify_global)

    p = sub.add_parser("verify-lemma1", help="syndrome-weight condition, exact for sym:t at d=2t+1")
    p.add_argument("--checkset", required=True)
    p.add_argument("--code", default=None)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_verify_lemma1)

    p = sub.add_parser("verify-oa", help="uniform local-action statistics of the stabilizer")
    p.add_argument("--code", required=True)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=_cmd_verify_oa)

    p = sub.add_parser("bound", help="packing and existence bounds, exact arithmetic")
    bsub = p.add_subparsers(dest="family", required=True)
    for family, (_, flags, help_text) in _BOUNDS.items():
        b = bsub.add_parser(family, help=help_text)
        for flag in flags:
            b.add_argument(f"--{flag}", type=int, required=True)
        b.set_defaults(func=_cmd_bound)

    p = sub.add_parser("augment", help="build a redundant check set")
    p.add_argument("--code", required=True)
    p.add_argument("--method", required=True, choices=list(_CONSTRUCTIONS))
    p.add_argument("--delta", type=float, default=0.25, help="flip fraction for --method random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attempts", type=int, default=100)
    p.add_argument("--budget", default="sym:1", help="target budget for --method resynth")
    p.add_argument("--output", default=None, help="write the check set to a file instead of stdout")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("resynth", help="alternative generators meeting a budget without redundancy")
    p.add_argument("--code", required=True)
    p.add_argument("--budget", default="sym:1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attempts", type=int, default=100)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_augment, method="resynth")

    p = sub.add_parser("simulate", help="Monte Carlo decoding under joint noise")
    p.add_argument("--checkset", required=True)
    p.add_argument("--code", default=None)
    p.add_argument("--budget", default="sym:1")
    p.add_argument("--p", type=float, required=True, help="per-qubit depolarizing rate")
    p.add_argument("--q", type=float, required=True, help="per-bit syndrome flip rate")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ml", action="store_true", help="maximum-likelihood instead of table lookup")
    p.add_argument("--cap", type=int, default=None, help="combined-weight cap for --ml")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args.out = out if out is not None else sys.stdout
    started = time.perf_counter()
    try:
        status = args.func(args)
    except (_UsageError, ValueError, TypeError, OSError, verify.CandidateCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    seed = getattr(args, "seed", None)
    echo = " ".join(["dscodes"] + argv)
    print(
        f"# {echo}\n# seed: {seed if seed is not None else 'n/a'}"
        f"\n# wall_s: {elapsed:.6f}\n# exit: {status}",
        file=sys.stderr,
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
