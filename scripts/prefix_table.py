#!/usr/bin/env python3
"""Print the cardinalities of the complete two-layer prefix sets.

Counts come from the closed-form convolution over one cached word pool, so
the whole table to n = 26 takes about 0.8 s on 2 vCPUs; add --check to
cross-validate against actual enumeration (practical to n ~ 18).

Usage:
    python scripts/prefix_table.py [--max-n 26] [--check]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sortnetsat.words import count_prefixes, generate_prefixes

VARIANTS = ("H", "T", "T'", "G")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--min-n", type=int, default=3)
    ap.add_argument("--max-n", type=int, default=26)
    ap.add_argument("--check", action="store_true",
                    help="also enumerate and compare (slow for n > 18)")
    args = ap.parse_args()

    header = "n".rjust(4) + "".join(f"|R({v}_n)|".rjust(12) for v in VARIANTS)
    print(header)
    print("-" * len(header))
    for n in range(args.min_n, args.max_n + 1):
        counts = [count_prefixes(n, v) for v in VARIANTS]
        print(f"{n:4d}" + "".join(f"{c:12,d}" for c in counts))
        if args.check:
            for v, c in zip(VARIANTS, counts):
                got = len(generate_prefixes(n, v))
                if got != c:
                    print(f"  MISMATCH {v}: enumerated {got}", file=sys.stderr)
                    return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
