#!/usr/bin/env python3
"""Search for an [[n,1,5]] code and write it as a code file.

Example:
    python scripts/find_d5_code.py --n 11 --seed 7 --out eleven.code
"""

import argparse
import sys
import time

from dscodes.code import save_code
from dscodes.search import find_distance_code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=11)
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--d", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--restarts", type=int, default=6)
    parser.add_argument("--kicks", type=int, default=20)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    started = time.perf_counter()
    try:
        outcome = find_distance_code(
            args.n, args.k, args.d, seed=args.seed,
            max_restarts=args.restarts, max_kicks=args.kicks,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    if outcome is None:
        print(f"no [[{args.n},{args.k},{args.d}]] code found in {elapsed:.1f}s", file=sys.stderr)
        return 1
    d, d_pure = outcome.certified
    print(f"found in {elapsed:.1f}s after {outcome.restarts_used} restart(s): "
          f"d={d} d_pure={d_pure}")
    for g in outcome.code.generators:
        print(f"  {g}")
    if args.out:
        save_code(
            outcome.code,
            args.out,
            header_comment=(
                f"[[{args.n},{args.k},{args.d}]] code from seeded search\n"
                f"seed: {outcome.seed}\n"
                f"certified: d={d} d_pure={d_pure}"
            ),
        )
        print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
