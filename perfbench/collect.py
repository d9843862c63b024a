"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 perfbench/collect.py --tag a --workloads mc-table --seeds 1 2 3 4 5
    python3 perfbench/collect.py --tag b --compare a      # medians of b against a
    python3 perfbench/collect.py --tag a t --baseline perfbench/baseline.json

Runs go one after another, each in its own process, and their result lines
are appended to ``perfbench/out/collect-<tag>.jsonl``; several tags are
summarized together.  For every metric the
summary shows the median, the quartiles from ``statistics.quantiles(n=4)``,
and the spread (q3 - q1) / median next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def run(tag: str, workloads: list[str], seeds: list[int], trace: int) -> None:
    path = HERE / "out" / f"collect-{tag}.jsonl"
    path.parent.mkdir(exist_ok=True)
    for workload in workloads:
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with path.open("a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed, "trace": trace, **result}) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)


def load(tags: list[str]) -> dict[str, dict[str, list[float]]]:
    values: dict[str, dict[str, list[float]]] = {}
    for tag in tags:
        for line in (HERE / "out" / f"collect-{tag}.jsonl").read_text().splitlines():
            row = json.loads(line)
            for name, m in row["metrics"].items():
                values.setdefault(row["workload"], {}).setdefault(name, []).append(m["value"])
    return values


def summarize(values: dict[str, dict[str, list[float]]]) -> dict:
    out = {}
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            med = statistics.median(vals)
            out.setdefault(workload, {})[name] = {
                "runs": len(vals), "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
            }
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--tag", nargs="+", required=True, help="new runs go to the first")
    parser.add_argument("--workloads", nargs="*", default=[])
    parser.add_argument("--seeds", nargs="*", type=int, default=[])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--compare", default=None, help="tag of an earlier set")
    parser.add_argument("--baseline", default=None, help="write the summary to this file")
    args = parser.parse_args()

    if args.workloads:
        run(args.tag[0], args.workloads, args.seeds, args.trace)
    summary = summarize(load(args.tag))
    first = summarize(load([args.compare])) if args.compare else {}
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            bound = BOUNDS.get(name)
            line = (f"{workload:<13} {name:<40} n={s['runs']:<2} median={s['median']:<12.6g} "
                    f"spread={s['spread']:.4f}")
            if bound is not None:
                line += f" bound={bound} spread/bound={s['spread'] / bound:.2f}"
            before = first.get(workload, {}).get(name)
            if before:
                line += f" vs {args.compare}: {s['median'] / before['median'] - 1:+.4f}"
            print(line)
    if args.baseline:
        import numpy

        env = {"python": sys.version.split()[0], "numpy": numpy.__version__,
               "nproc": len(os.sched_getaffinity(0)), "run_seconds": SPEC["run_seconds"]}
        baseline = {"env": env, "tags": args.tag, "workloads": summary}
        Path(args.baseline).write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
