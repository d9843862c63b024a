"""The four benchmark workloads, built from one seed.

Each workload is a list of :class:`Op`: a call into ``dscodes`` whose
output is checked after it returns.  Outputs that do not depend on the seed
(or any output, on the default seed) must equal the golden value recorded
in ``golden.json``; on other seeds the randomized outputs are held to
invariants instead.  The default seed reproduces the seeds of the
acceptance suite and the README examples.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from dscodes.cli import main as cli_main
from dscodes.code import (
    CheckSet,
    five_qubit,
    iter_error_syndromes,
    load_code,
    scan_distances,
    steane_alternative,
    steane_css,
)
from dscodes.decode import NoiseModel, build_table, decode, ml_decode, run_trials
from dscodes.redundancy import (
    RandomSearchConfig,
    SearchFailure,
    binary_entropy,
    css_parity_pair,
    double_construction,
    generator_resynthesis,
    parity_augment,
    random_augment,
)
from dscodes.search import find_distance_code
from dscodes.symplectic import parse_pauli
from dscodes.verify import FaultBudget, check_global, lemma1_check

ROOT = Path(__file__).resolve().parent.parent
BUNDLED_D5_CODE = ROOT / "src" / "dscodes" / "data" / "code_11_1_5.txt"
DEFAULT_SEED = 0
SYM1 = FaultBudget.symmetric(1)
SYM2 = FaultBudget.symmetric(2)


class Seeds:
    """Sub-seeds drawn in a fixed order; the default seed keeps the defaults."""

    def __init__(self, seed: int) -> None:
        self.default = seed == DEFAULT_SEED
        self._rng = random.Random(seed)

    def pick(self, default: int) -> int:
        return default if self.default else self._rng.randrange(1, 2**31)


@dataclass
class Op:
    """One checked call.  ``run`` is timed; everything else is not."""

    name: str
    run: Callable[[], object]
    canon: Callable[[object], object]
    check: Callable[[object], list[str]] = lambda out: []
    golden: Callable[[], bool] = lambda: True
    repeat: int = 1
    items: Callable[[object], int] | None = None
    span: str | None = None


# ---------------------------------------------------------------------------
# canonical forms and invariants


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def report_json(r) -> list:
    witness = [r.witness[0].describe(), r.witness[1].describe()] if r.witness else None
    syn = r.syndrome.to01() if r.syndrome is not None else None
    return [r.ok, witness, syn, r.faults_checked]


def stats_json(s) -> list:
    return [s.trials, s.logical_errors, s.flagged_uncorrectable]


def stats_problems(trials: int):
    def check(s) -> list[str]:
        if s.trials != trials or min(s.logical_errors, s.flagged_uncorrectable) < 0:
            return [f"bad counts {stats_json(s)}"]
        if s.logical_errors + s.flagged_uncorrectable > s.trials:
            return [f"failures exceed trials {stats_json(s)}"]
        return []

    return check


def table_json(table) -> list:
    entries = sorted(
        (obs, f.data.to01(), f.flips.to01()) for obs, f in table.entries.items()
    )
    return [len(table), digest(entries)]


def single_faults_decode(table, budget: FaultBudget) -> list[str]:
    """Every in-budget single fault must decode into its own coset."""
    cs = table.checkset
    basis = cs.code.row_basis
    problems = []
    if budget.admits(1, 0):
        for e, s, _ in iter_error_syndromes(cs, 1, 1):
            f = table.entries.get(s)
            if f is None or not basis.contains(f.data.bits ^ e):
                problems.append(f"single data error {e:#x} misdecoded")
    if budget.admits(0, 1):
        for i in range(cs.m):
            f = table.entries.get(1 << i)
            if f is None or not basis.contains(f.data.bits):
                problems.append(f"single flip {i} misdecoded")
    return problems


def checkset_json(cs) -> list[str]:
    return [str(op) for op in cs.operators]


def cli_op(name: str, argv: list[str], seeded: bool, seeds: Seeds, check=None) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stderr(err):
            status = cli_main(list(argv), out=out)
        return status, out.getvalue()

    default = seeds.default
    return Op(
        name=name,
        run=run,
        canon=lambda r: list(r),
        check=check or (lambda r: [] if r[0] == 0 else [f"exit {r[0]}"]),
        golden=lambda: not seeded or default,
        span=f"cli.{argv[0]}",
    )


def operator_lines(stdout: str) -> list[str]:
    return [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]


def fixtures() -> dict[str, CheckSet]:
    five, steane, alt = five_qubit(), steane_css(), steane_alternative()
    code11 = load_code(BUNDLED_D5_CODE)
    return {
        "five": CheckSet.from_code(five),
        "five_parity": parity_augment(five),
        "steane": CheckSet.from_code(steane),
        "steane_parity": parity_augment(steane),
        "steane_css_pair": css_parity_pair(steane),
        "steane_alt": CheckSet.from_code(alt),
        "d5_double": double_construction(code11),
    }


# ---------------------------------------------------------------------------
# d5-search


def d5_search(seeds: Seeds, tracer) -> list[Op]:
    bundled = load_code(BUNDLED_D5_CODE)
    bundled_gens = [str(g) for g in bundled.generators]
    search_seed = seeds.pick(2)
    state: dict = {}

    def search():
        out = find_distance_code(
            11, 1, 5, seed=search_seed, max_restarts=1, max_kicks=6, deadline_s=None
        )
        state["outcome"] = out
        state["code"] = out.code if out is not None else bundled
        return out

    def search_check(out) -> list[str]:
        if out is None:
            return ["default seed no longer finds the bundled code"] if seeds.default else []
        problems = []
        if out.certified != (5, 5) or (out.code.n, out.code.k) != (11, 1):
            problems.append(f"found code certifies to {out.certified}")
        if seeds.default and [str(g) for g in out.code.generators] != bundled_gens:
            problems.append("default seed found a code other than data/code_11_1_5.txt")
        return problems

    def certify():
        # A found code was certified inside the search; the fallback is
        # certified here, as the acceptance suite does.
        if state["outcome"] is not None:
            return state["outcome"].certified
        return scan_distances(state["code"], 5)

    def uses_bundled() -> bool:
        return [str(g) for g in state["code"].generators] == bundled_gens

    def construct():
        state["set"] = double_construction(state["code"])
        return state["set"]

    ops = [
        Op(
            "find_distance_code",
            search,
            lambda out: None
            if out is None
            else [[str(g) for g in out.code.generators], list(out.certified), out.restarts_used],
            search_check,
            golden=lambda: seeds.default,
            items=lambda out: 1,
        ),
        Op(
            "certify",
            certify,
            list,
            lambda c: [] if tuple(c) == (5, 5) else [f"certified {c}"],
            golden=uses_bundled,
        ),
        Op(
            "double_construction",
            construct,
            checkset_json,
            lambda cs: [] if cs.m == 21 else [f"m={cs.m}"],
            golden=uses_bundled,
            repeat=10,
        ),
        Op(
            "lemma1_check d=5",
            lambda: lemma1_check(state["set"], 5),
            report_json,
            lambda r: [] if r.ok else ["lemma 1 fails"],
            golden=uses_bundled,
            repeat=10,
        ),
        Op(
            "check_global sym:2",
            lambda: check_global(state["set"], SYM2),
            report_json,
            lambda r: [] if r.ok else ["sym:2 collision"],
            golden=uses_bundled,
            repeat=10,
        ),
    ]
    return ops


# ---------------------------------------------------------------------------
# verify-sweep


def _augment_op(name, code, delta, seed_list, pure_dist, default: bool) -> Op:
    r = code.n - code.k
    m = math.ceil(r / (1.0 - binary_entropy(delta)))
    t = math.ceil(delta * m)

    def run():
        out = []
        for s in seed_list:
            try:
                out.append(random_augment(code, RandomSearchConfig(delta, s, 100), pure_dist))
            except SearchFailure as exc:
                out.append(exc)
        return out

    def canon(results):
        return [
            ["fail", x.attempts, x.stats]
            if isinstance(x, SearchFailure)
            else ["ok", x.m, x.t, x.attempts, digest(checkset_json(x.checkset))]
            for x in results
        ]

    def check(results) -> list[str]:
        problems = []
        for s, x in zip(seed_list, results):
            if isinstance(x, SearchFailure):
                continue
            if (x.m, x.t) != (m, t) or not 1 <= x.attempts <= 100:
                problems.append(f"seed {s}: (m, t, attempts) = {(x.m, x.t, x.attempts)}")
            elif any(sy.bit_count() < t for _, sy, _ in iter_error_syndromes(x.checkset, 1, pure_dist - 1)):
                problems.append(f"seed {s}: light syndrome in an accepted draw")
        return problems

    return Op(name, run, canon, check, golden=lambda: default)


def verify_sweep(seeds: Seeds, tracer) -> list[Op]:
    sets = fixtures()
    code11 = sets["d5_double"].code
    state: dict = {}
    five = sets["five"].code
    steane = sets["steane"].code

    augment_seed = seeds.pick(7)
    resynth_seed = seeds.pick(5)

    def augment_cli_check(r) -> list[str]:
        lines = operator_lines(r[1])
        return [] if r[0] == 0 and len(lines) == 22 else [f"augment random: exit {r[0]}, {len(lines)} operators"]

    def resynth_cli_check(r) -> list[str]:
        lines = operator_lines(r[1])
        if r[0] != 0 or len(lines) != 6:
            return [f"resynth: exit {r[0]}, {len(lines)} operators"]
        cs = CheckSet(steane, tuple(parse_pauli(ln) for ln in lines))
        return [] if check_global(cs, SYM1).ok else ["resynthesized set fails sym:1"]

    ops = [
        cli_op("cli tables II", ["tables", "II"], False, seeds),
        cli_op("cli distance", ["distance", "--code", "steane_css", "--cutoff", "7"], False, seeds),
        cli_op("cli verify-global", ["verify-global", "--checkset", "five_qubit", "--budget", "sym:1"], False, seeds,
               check=lambda r: [] if r[0] == 1 else [f"exit {r[0]}"]),
        cli_op("cli verify-lemma1", ["verify-lemma1", "--checkset", "five_qubit", "--d", "3"], False, seeds,
               check=lambda r: [] if r[0] == 1 else [f"exit {r[0]}"]),
        cli_op("cli verify-oa", ["verify-oa", "--code", "five_qubit", "--l", "2"], False, seeds),
        cli_op("cli bound", ["bound", "symmetric", "--n", "5", "--k", "1", "--r", "1", "--t", "1"], False, seeds),
        cli_op("cli augment parity", ["augment", "--code", "five_qubit", "--method", "parity"], False, seeds),
        cli_op("cli augment random",
               ["augment", "--code", "five_qubit", "--method", "random", "--delta", "0.25", "--seed", str(augment_seed)],
               True, seeds, check=augment_cli_check),
        cli_op("cli resynth",
               ["resynth", "--code", "steane_css", "--budget", "sym:1", "--attempts", "2000", "--seed", str(resynth_seed)],
               True, seeds, check=resynth_cli_check),
    ]

    def global_op(label: str, budget: FaultBudget, all_pairs: bool = False) -> Op:
        cs = sets[label]
        key = f"{label} {budget}"

        def check(r) -> list[str]:
            if not all_pairs:
                state[key] = report_json(r)[:3]
                return []
            bucketed = state.get(key)
            return [] if report_json(r)[:3] == bucketed else [f"{key}: all-pairs disagrees with bucketed"]

        return Op(
            f"check_global {key}{' all_pairs' if all_pairs else ''}",
            lambda: check_global(cs, budget, all_pairs=all_pairs),
            report_json,
            check,
            items=lambda r: r.faults_checked,
        )

    small = ["five", "five_parity", "steane", "steane_parity"]
    ops += [global_op(label, SYM1) for label in small + ["steane_css_pair", "steane_alt"]]
    ops += [global_op(label, SYM1, all_pairs=True) for label in small]
    ops += [global_op("steane_parity", SYM2)]
    ops += [global_op("d5_double", FaultBudget.parse(b)) for b in ("sym:2", "sym:3", "asym:2,2", "asym:2,3")]
    ops.append(
        Op(
            "lemma1_check d5_double d=5",
            lambda: lemma1_check(sets["d5_double"], 5),
            report_json,
            lambda r: [] if r.ok else ["lemma 1 fails"],
            items=lambda r: r.faults_checked,
        )
    )

    base5, base11 = seeds.pick(0), seeds.pick(0)
    default = seeds.default
    ops += [
        _augment_op("random_augment five", five, 0.25, range(base5, base5 + 100), 3, default),
        _augment_op("random_augment code_11_1_5", code11, 0.2, range(base11, base11 + 20), 5, default),
    ]

    steane_seed, five_seed = seeds.pick(5), seeds.pick(11)

    def resynth(code, attempts, seed):
        def run():
            try:
                return generator_resynthesis(code, SYM1, attempts, seed)
            except SearchFailure as exc:
                return exc

        return run

    def resynth_canon(x):
        if isinstance(x, SearchFailure):
            return ["fail", x.attempts, x.stats]
        return ["ok", x.attempts, list(x.transform), checkset_json(x.checkset)]

    def steane_check(x) -> list[str]:
        if isinstance(x, SearchFailure):
            return [f"Steane resynthesis failed: {x}"]
        return [] if check_global(x.checkset, SYM1).ok else ["resynthesized set fails sym:1"]

    def five_check(x) -> list[str]:
        if isinstance(x, SearchFailure) and x.attempts == 200:
            return []
        return ["five-qubit resynthesis did not exhaust its 200 attempts"]

    ops += [
        Op("generator_resynthesis steane", resynth(steane, 2000, steane_seed), resynth_canon,
           steane_check, golden=lambda: default),
        Op("generator_resynthesis five", resynth(five, 200, five_seed), resynth_canon,
           five_check, golden=lambda: default),
    ]
    return ops


# ---------------------------------------------------------------------------
# mc-table and mc-ml


NOISE = ((0.01, 0.005), (0.03, 0.015))
CRITERION_NOISE_SEED = 424242


def _trials_op(name, cs, decoder_factory, p, q, seed, trials, tracer, seeds) -> Op:
    model = NoiseModel(p=p, q=q, seed=seed)

    def run():
        return run_trials(cs, tracer.callback(decoder_factory(model)), model, trials)

    default = seeds.default
    return Op(name, run, stats_json, stats_problems(trials), golden=lambda: default,
              items=lambda s: s.trials)


def mc_table(seeds: Seeds, tracer) -> list[Op]:
    sets = fixtures()
    constructions = [
        ("five", FaultBudget.asymmetric(1, 0)),
        ("five_parity", SYM1),
        ("steane_css_pair", SYM1),
        ("steane_alt", SYM1),
        ("d5_double", SYM2),
    ]
    state: dict = {}
    ops: list[Op] = []
    for label, budget in constructions:
        cs = sets[label]
        key = f"{label} {budget}"

        def build(cs=cs, budget=budget, key=key):
            state[key] = build_table(cs, budget)
            return state[key]

        ops.append(Op(f"build_table {key}", build, table_json,
                      lambda t, budget=budget: single_faults_decode(t, budget)))
        for p, q in NOISE:
            ops.append(
                _trials_op(
                    f"run_trials table {key} p={p} q={q}",
                    cs,
                    lambda model, key=key: lambda o: decode(state[key], o),
                    p, q, seeds.pick(CRITERION_NOISE_SEED), 100_000, tracer, seeds,
                )
            )

    sim_seed = seeds.pick(42)

    def simulate_check(r) -> list[str]:
        fields = r[1].split("\t")
        if r[0] != 0 or len(fields) != 7:
            return [f"simulate: exit {r[0]}, output {r[1]!r}"]
        trials, failures, logical, flagged = (int(x) for x in fields[2:6])
        if trials != 100_000 or failures != logical + flagged or failures > trials:
            return [f"simulate counts do not add up: {r[1]!r}"]
        return []

    ops.append(
        cli_op(
            "cli simulate",
            ["simulate", "--checkset", "five_qubit", "--budget", "asym:1,0", "--p", "0.01",
             "--q", "0.005", "--trials", "100000", "--seed", str(sim_seed)],
            True, seeds, check=simulate_check,
        )
    )
    return ops


def mc_ml(seeds: Seeds, tracer) -> list[Op]:
    sets = fixtures()
    p, q = NOISE[0]
    ops = []
    for label, cap, trials in (("five_parity", 2, 5000), ("steane_alt", 2, 2000), ("d5_double", 4, 100)):
        cs = sets[label]
        ops.append(
            _trials_op(
                f"run_trials ml {label} cap={cap}",
                cs,
                lambda model, cs=cs, cap=cap: lambda o: ml_decode(cs, o, model, cap),
                p, q, seeds.pick(CRITERION_NOISE_SEED), trials, tracer, seeds,
            )
        )
    return ops


WORKLOADS = {
    "d5-search": d5_search,
    "verify-sweep": verify_sweep,
    "mc-table": mc_table,
    "mc-ml": mc_ml,
}
