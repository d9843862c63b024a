#!/usr/bin/env python3
"""Sweep joint noise rates and compare decoders on the five-qubit code.

Emits one TSV row per (p, q) point for two decoders: the bare generator
set with a data-only lookup table (blind to syndrome flips), and the
parity-augmented set whose table covers single joint faults.

Example:
    python scripts/noise_sweep.py --trials 20000 --seed 1 > sweep.tsv
"""

import argparse
import sys

from dscodes.code import CheckSet, five_qubit
from dscodes.decode import NoiseModel, build_table, decode, run_trials
from dscodes.redundancy import parity_augment
from dscodes.verify import FaultBudget


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rates", default="0.001,0.002,0.005,0.01,0.02,0.05",
                        help="comma-separated p values; q = p/2 at each point")
    args = parser.parse_args()

    try:
        if args.trials < 1:
            raise ValueError(f"--trials must be at least 1, got {args.trials}")
        models = [NoiseModel(p=p, q=p / 2.0, seed=args.seed)
                  for p in map(float, args.rates.split(","))]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    five = five_qubit()
    bare = CheckSet.from_code(five)
    augmented = parity_augment(five)
    bare_table = build_table(bare, FaultBudget.asymmetric(1, 0))
    augmented_table = build_table(augmented, FaultBudget.symmetric(1))

    print("decoder\tp\tq\ttrials\tfailures\tlogical\tflagged\tseed")
    for model in models:
        for name, checkset, table in (
            ("bare-data-only", bare, bare_table),
            ("parity-augmented", augmented, augmented_table),
        ):
            stats = run_trials(checkset, lambda s: decode(table, s), model, args.trials)
            print(
                f"{name}\t{model.p:.6f}\t{model.q:.6f}\t{stats.trials}"
                f"\t{stats.decoding_failures}\t{stats.logical_errors}"
                f"\t{stats.flagged_uncorrectable}\t{args.seed}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
