"""What the traced run wraps, and how its spans become per-layer metrics.

Layers are the ``dscodes`` modules.  Each metric below names the
end-to-end metric and workload it is expected to move:

=====================================  ==========================================
per-layer metric                       moves
=====================================  ==========================================
search.*, code.scan_distances.s        wall_s and items_per_s on d5-search
code.iter_error_syndromes.s/.items     items_per_s on verify-sweep and mc-ml
code.CheckSet.syndrome_int.s/.calls    items_per_s on mc-table
symplectic.RowBasis.reduce.s/.calls    items_per_s on mc-table and mc-ml
verify.*                               wall_s, items_per_s, peak_rss_mb on
                                       verify-sweep
redundancy.*                           wall_s on verify-sweep
decode.build_table.*                   wall_s on mc-table
decode.run_trials.sample_s             items_per_s on mc-table
decode.decoder.*, decode.ml_decode.*   items_per_s on mc-ml
cli.*                                  wall_s on verify-sweep and mc-table
=====================================  ==========================================

``bounds`` runs in microseconds and is covered only by ``cli.bound.s``.
"""

from __future__ import annotations

from tracing import Target, Tracer, distinct_per_parent

CLI_COMMANDS = (
    "tables", "distance", "verify-global", "verify-lemma1", "verify-oa",
    "bound", "augment", "resynth", "simulate",
)


def _count(key: str, value):
    def hook(tracer, i, args, kwargs, result, exc):
        if exc is None:
            tracer.counts[key] += value(result)

    return hook


def _ml_hook(tracer: Tracer, i, args, kwargs, result, exc) -> None:
    tracer.seen["decode.ml_decode"].add((id(args[0]), args[1].bits))


def _check_global_hook(tracer: Tracer, i, args, kwargs, result, exc) -> None:
    if exc is None and not kwargs.get("all_pairs"):
        tracer.counts["verify.check_global.faults"] += result.faults_checked
        tracer.counts["verify.check_global.witnesses"] += not result.ok


def _attempts(key: str, accepted: str | None = None):
    def hook(tracer, i, args, kwargs, result, exc):
        source = exc if exc is not None else result
        tracer.counts[key] += getattr(source, "attempts", 0)
        if accepted and exc is None:
            tracer.counts[accepted] += 1

    return hook


TARGETS = [
    Target("dscodes.search", "find_distance_code", "search.find_distance_code"),
    Target("dscodes.search", "_Searcher.descend", "search.descend"),
    Target("dscodes.search", "_Searcher.pair_rebuild", "search.pair_rebuild",
           hook=_count("search.pair_rebuild.successes", bool)),
    Target("dscodes.search", "_Searcher.kick", "search.kick"),
    Target("dscodes.search", "_solve_affine", "search.solve_affine",
           hook=_count("search.solve_affine.inconsistent", lambda r: r is None)),
    Target("dscodes.code", "scan_distances", "code.scan_distances"),
    Target("dscodes.code", "iter_error_syndromes", "code.iter_error_syndromes", generator=True),
    Target("dscodes.code", "CheckSet.syndrome_int", "code.CheckSet.syndrome_int"),
    Target("dscodes.symplectic", "RowBasis.reduce", "symplectic.RowBasis.reduce"),
    Target("dscodes.verify", "check_global",
           lambda a, kw: "verify.check_global_all_pairs" if kw.get("all_pairs") else "verify.check_global",
           hook=_check_global_hook),
    Target("dscodes.verify", "lemma1_check", "verify.lemma1_check",
           hook=_count("verify.lemma1_check.errors", lambda r: r.faults_checked)),
    Target("dscodes.redundancy", "random_augment", "redundancy.random_augment",
           hook=_attempts("redundancy.random_augment.attempts", "redundancy.random_augment.accepts")),
    Target("dscodes.redundancy", "generator_resynthesis", "redundancy.generator_resynthesis",
           hook=_attempts("redundancy.generator_resynthesis.attempts")),
    Target("dscodes.decode", "build_table", "decode.build_table",
           hook=_count("decode.build_table.entries", len)),
    Target("dscodes.decode", "run_trials", "decode.run_trials",
           hook=_count("decode.run_trials.trials", lambda r: r.trials)),
    Target("dscodes.decode", "ml_decode", "decode.ml_decode", hook=_ml_hook),
    # The CLI's own table-decoder callback, so that `simulate` splits
    # run_trials the same way the benchmark's callbacks do.
    Target("dscodes.cli", "decode", "decode.decoder", hook=distinct_per_parent, only_module=True),
]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer: Tracer, missing: list[str], untraced_s: float, traced_s: float) -> dict[str, float]:
    """Every per-layer metric; 0 where the workload does not reach the layer."""
    summary = tracer.summary()
    counts = tracer.counts

    def s(name: str) -> float:
        return summary.get(name, {}).get("s", 0.0)

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    m: dict[str, float] = {}
    for name in ("search.find_distance_code", "search.descend", "search.pair_rebuild",
                 "search.solve_affine", "code.scan_distances", "code.iter_error_syndromes",
                 "code.CheckSet.syndrome_int", "symplectic.RowBasis.reduce",
                 "verify.check_global", "verify.check_global_all_pairs", "verify.lemma1_check",
                 "redundancy.random_augment", "redundancy.generator_resynthesis",
                 "decode.build_table", "decode.run_trials", "decode.decoder", "decode.ml_decode"):
        m[f"{name}.s"] = s(name)
    for name in ("search.descend", "search.pair_rebuild", "search.solve_affine", "search.kick",
                 "code.CheckSet.syndrome_int", "symplectic.RowBasis.reduce",
                 "verify.check_global", "decode.ml_decode"):
        m[f"{name}.calls"] = calls(name)

    m["search.pair_rebuild.success_ratio"] = _ratio(
        counts["search.pair_rebuild.successes"], calls("search.pair_rebuild"))
    m["search.solve_affine.inconsistent_ratio"] = _ratio(
        counts["search.solve_affine.inconsistent"], calls("search.solve_affine"))
    m["code.iter_error_syndromes.items"] = counts["code.iter_error_syndromes.items"]
    m["verify.check_global.faults"] = counts["verify.check_global.faults"]
    m["verify.check_global.witnesses"] = counts["verify.check_global.witnesses"]
    m["verify.check_global.self_s"] = self_s("verify.check_global")
    m["verify.lemma1_check.errors"] = counts["verify.lemma1_check.errors"]

    # Draws that passed the rank test are exactly those whose syndromes
    # random_augment went on to enumerate.
    attempts = counts["redundancy.random_augment.attempts"]
    accepts = counts["redundancy.random_augment.accepts"]
    light_checked = tracer.children_named("redundancy.random_augment", "code.iter_error_syndromes")
    m["redundancy.random_augment.attempts"] = attempts
    m["redundancy.random_augment.accept_ratio"] = _ratio(accepts, attempts)
    m["redundancy.random_augment.reject_rank"] = attempts - light_checked
    m["redundancy.random_augment.reject_light_syndrome"] = light_checked - accepts
    m["redundancy.generator_resynthesis.attempts"] = counts["redundancy.generator_resynthesis.attempts"]

    m["decode.build_table.entries"] = counts["decode.build_table.entries"]
    m["decode.run_trials.trials"] = counts["decode.run_trials.trials"]
    m["decode.run_trials.sample_s"] = self_s("decode.run_trials")
    decoded = calls("decode.decoder")
    m["decode.decoder.repeat_share"] = _ratio(decoded - len(tracer.seen["decode.decoder"]), decoded)
    ml_distinct = len(tracer.seen["decode.ml_decode"])
    m["decode.ml_decode.distinct_syndromes"] = ml_distinct
    m["decode.ml_decode.repeat_share"] = _ratio(calls("decode.ml_decode") - ml_distinct,
                                               calls("decode.ml_decode"))

    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = s(f"cli.{command}")
    m["cli.stdout_mismatches"] = counts["cli.stdout_mismatches"]
    m["trace.overhead_ratio"] = traced_s / untraced_s
    m["trace.untraced_wall_s"] = untraced_s
    m["trace.missing_spans"] = len(missing)
    return m
