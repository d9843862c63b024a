"""Benchmark of the paper's experiments on ``dscodes``.

    python3 perfbench/run.py --workload d5-search --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Each invocation runs one workload (see ``workloads.py``) in this fresh
process, in a closed loop: one call after the next, no threads or process
pools.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  On a shared
2-core host the same work runs up to 1.6x slower for seconds to minutes at a
time, so each pass's times are scaled to a fixed host speed measured while
the pass runs (see :class:`HostSpeed`); raw times are kept in
``perfbench/out/``.

* ``wall_s``: median over the passes that fit in ``--seconds`` of the pass's
  total call time, scaled; set-up and output checks are excluded.  A call
  repeated within a pass counts with its median.
* ``setup_s``: median over several fresh processes of the scaled time to
  import ``dscodes`` and build the workload's codes, fixtures and check sets.
* ``peak_rss_mb``: peak resident set of this process.
* ``items_per_s``: the workload's unit of work per second, median over
  passes of the scaled rate: searches through ``find_distance_code``
  (d5-search), faults through ``check_global`` and ``lemma1_check``
  (verify-sweep), Monte Carlo trials through ``run_trials`` (mc-table,
  mc-ml).

The share of failed checks, ``failed / attempted``, is 0 on a correct
program, so it is carried by those two fields rather than as a metric.

``--trace 1`` makes untraced passes for half of ``--seconds``, then one
traced pass, and reports the per-layer metrics of BENCHMARK.json (see
``layers.py``) plus ``trace.overhead_ratio``, traced over untraced wall
time.  Spans are written to ``perfbench/out/``.

``--tamper`` corrupts one golden value before checking, to show that a
wrong output is counted as failed.  ``--record-golden`` rewrites
``golden.json`` from one pass on the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"
WORKLOAD_NAMES = ("d5-search", "verify-sweep", "mc-table", "mc-ml")
SETUP_SAMPLES = 7
# The reference loop's time on an uncontended core of the 2-core box of the
# first baseline, so that scaled times read as seconds at that speed.
REF_NOMINAL_S = 0.0045
SAMPLE_EVERY_S = 0.4
MIN_OP_SAMPLES = 3
# Workload processes never use the distance worker pool.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "DSCODES_THREADS"}


def environment() -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def build(workload: str, seed: int):
    """Import dscodes and set the workload up; returns (ops, tracer, seconds)."""
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    ops = workloads.WORKLOADS[workload](workloads.Seeds(seed), tracer)
    return ops, tracer, time.perf_counter() - started


def setup_samples(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, env=CHILD_ENV, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


class HostSpeed:
    """Times a fixed loop while the workload runs, to scale out host speed.

    The loop is pure-Python bit arithmetic on a small dict, like the code
    under test, and does not touch ``dscodes``.  Slow spells of the host
    stretch it as much as they stretch the workload (1.5x on both in one
    observed spell), so ``t * scale()`` compares across spells.  Inside
    :meth:`sampling` a timer signal runs the loop every ``SAMPLE_EVERY_S``
    seconds, also in the middle of a 30-second search call, so the samples
    follow the host through the whole run; the time they take is kept in
    ``stolen`` and left out of the calls' times.  Each sample times the
    second of two back-to-back runs, so that it sees warm caches.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stolen = 0.0

    @staticmethod
    def _loop() -> int:
        acc = 0
        table = {}
        for i in range(20000):
            w = (i * 0x9E3779B1) & 0xFFFFFFFF
            acc ^= (w & 0x5555AAAA).bit_count() & 1
            table[w & 1023] = acc
        return acc

    def sample(self, *_signal) -> None:
        started = time.perf_counter()
        self._loop()
        warm = time.perf_counter()
        self._loop()
        done = time.perf_counter()
        self.samples.append(done - warm)
        self.stolen += done - started

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, first: int = 0, last: int | None = None) -> float:
        """Factor to nominal speed, from the samples taken in [first, last).

        The mean, not the median: a call's time sums the host's slow and
        fast moments, and evenly spaced samples see them in proportion.
        """
        taken = self.samples[first:last] or self.samples
        return REF_NOMINAL_S / statistics.fmean(taken)


class Checker:
    """Compares outputs with golden values and invariants; counts failures."""

    def __init__(self, golden: dict, tracer, record: bool) -> None:
        self.golden = golden
        self.tracer = tracer
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.mismatches = 0

    def __call__(self, op, out, exc) -> None:
        self.attempted += 1
        with self.tracer.paused():
            if exc is not None:
                problems = [f"raised {exc!r}"]
            else:
                problems = list(op.check(out))
                if op.golden():
                    value = json.loads(json.dumps(op.canon(out)))
                    if self.record:
                        self.golden[op.name] = value
                    elif self.golden.get(op.name, None) != value:
                        problems.append("differs from golden value")
                        if op.span and op.span.startswith("cli."):
                            self.mismatches += 1
        if problems:
            self.failed += 1
            self.problems += [f"{op.name}: {p}" for p in problems[:3]]


def run_pass(ops, tracer, check, speed: HostSpeed):
    """One pass over the workload.

    Returns each op's median time in seconds, and the range of host-speed
    samples taken while the op ran.
    """
    times = {}
    sampled = {}
    for op in ops:
        samples = []
        first = len(speed.samples)
        for _ in range(op.repeat):
            out = exc = None
            with tracer.span(op.span) if op.span else contextlib.nullcontext():
                stolen = speed.stolen
                started = time.perf_counter()
                try:
                    out = op.run()
                except Exception as e:  # a failed call is counted, not fatal
                    exc = e
                samples.append(time.perf_counter() - started - (speed.stolen - stolen))
            check(op, out, exc)
        times[op.name] = statistics.median(samples)
        sampled[op.name] = (first, len(speed.samples))
    return times, sampled


def measure(ops, tracer, check, speed: HostSpeed, seconds: float):
    """Passes while another one fits in ``seconds`` (at least one).

    Returns each pass's raw op times and its op times scaled to nominal host
    speed: by the samples taken during the op when there are at least
    ``MIN_OP_SAMPLES``, else by those taken during the whole pass.
    """
    raw: list[dict[str, float]] = []
    scaled: list[dict[str, float]] = []
    started = time.perf_counter()
    with speed.sampling():
        while True:
            pass_started = time.perf_counter()
            first = len(speed.samples)
            times, sampled = run_pass(ops, tracer, check, speed)
            pass_scale = speed.scale(first, len(speed.samples))
            raw.append(times)
            scaled.append({
                name: t * (speed.scale(*sampled[name])
                           if sampled[name][1] - sampled[name][0] >= MIN_OP_SAMPLES else pass_scale)
                for name, t in times.items()
            })
            now = time.perf_counter()
            if (now - started) + (now - pass_started) > seconds:
                break
    return raw, scaled


def op_medians(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-golden", action="store_true")
    parser.add_argument("--tamper", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "dscodes" / "__init__.py").is_file():
        print(f"error: no dscodes sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("DSCODES_THREADS", None)
    if args.workload == "all":
        return run_all(args)

    ops, tracer, setup_s = build(args.workload, args.seed)
    speed = HostSpeed()
    if args.setup_only:
        for _ in range(SETUP_SAMPLES):
            speed.sample()
        print(setup_s * speed.scale())
        return 0

    golden = json.loads(GOLDEN.read_text()).get(args.workload, {}) if GOLDEN.exists() else {}
    if args.tamper and golden:
        first = next(iter(golden))
        golden[first] = ["tampered", golden[first]]
    check = Checker(golden, tracer, args.record_golden)
    items: dict[str, int] = {}

    def counting_check(op, out, exc):
        check(op, out, exc)
        if op.items is not None and exc is None:
            items[op.name] = op.items(out)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    if args.trace == 0:
        passes, scaled = measure(ops, tracer, counting_check, speed, args.seconds)
        computed = {
            "wall_s": statistics.median(sum(p.values()) for p in scaled),
            "setup_s": statistics.median(setup_samples(args.workload, args.seed)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "items_per_s": statistics.median(
                sum(items.values()) / (sum(p[name] for name in items) or math.inf) for p in scaled
            ),
        }
        wanted = spec["end_to_end"]
    else:
        import layers
        from tracing import install

        passes, scaled = measure(ops, tracer, counting_check, speed, args.seconds / 2)
        bindings, missing = install(tracer, layers.TARGETS, extra_modules=("workloads",))
        check.mismatches = 0  # count the traced pass alone
        tracer.enabled = True
        traced, _ = run_pass(ops, tracer, counting_check, speed)
        tracer.enabled = False
        untraced = statistics.median(sum(p.values()) for p in passes)
        computed = layers.per_layer(tracer, missing, untraced, sum(traced.values()))
        computed["cli.stdout_mismatches"] = check.mismatches
        wanted = spec["per_layer"]
        record.update(bindings=bindings, missing=missing, traced_op_s=traced)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.npz")

    if args.record_golden:
        current = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        current[args.workload] = golden
        GOLDEN.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }
    record.update(
        passes=len(passes),
        op_median_s=op_medians(passes),
        raw_pass_s=[sum(p.values()) for p in passes],
        scaled_pass_s=[sum(p.values()) for p in scaled],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        problems=check.problems,
        result=result,
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} env={json.dumps(env)}", file=sys.stderr)
    for p in check.problems[:20]:
        print(f"# FAILED {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    ok = True
    print(f"{'workload':<14} {'metric':<42} {'value':>14}  unit")
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, env=CHILD_ENV, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload:<14} exited {proc.returncode}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        share = result["failed"] / result["attempted"]
        print(f"{workload:<14} {'failed_share':<42} {share:>14.6g}  ratio")
        for name, m in result["metrics"].items():
            print(f"{workload:<14} {name:<42} {m['value']:>14.6g}  {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
