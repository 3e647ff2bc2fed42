#!/usr/bin/env python3
"""Run the heavyweight depth-restricted size proofs over complete prefix sets.

Each job solves one (n, d, s) level for every prefix in R(T'_n), reporting
per-prefix status in prefix order and the aggregate verdict (SAT = some prefix
extends, UNSAT = none does, which proves the bound).  Progress is checkpointed
in the catalog so the scan can be interrupted and resumed; on resume, the line
of a prefix answered before reads "from catalog".  A prefix that a
record at other bounds already settles (an UNSAT at bounds no smaller, a
witness that fits) is not solved again; its line reads "implied by d=D s=S".
A level that cannot be scanned (d < 2, s < 1, an empty T'_n, --jobs not
positive, a --timeout not positive and finite), a --catalog that is a
directory or lies in a missing one, or a SORTNETSAT_SOLVER that names no
program, is an argument error, reported before any solver starts.  A solver
that crashes or whose output cannot be read ends the scan with one error
line and exit code 1.

Examples:
    python scripts/theorem_scan.py 10 7 30            # 56 s on 2 cores at d17253d
    python scripts/theorem_scan.py 10 7 29            # after 10 7 30: no solve
    python scripts/theorem_scan.py 11 8 35 --jobs 2   # hours
    python scripts/theorem_scan.py 11 9 34 --timeout 86400   # days
"""

import argparse
import itertools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sortnetsat.cli import UsageError, _check_output
from sortnetsat.catalog import ResultCatalog
from sortnetsat.search import run_level
from sortnetsat.solving import SAT, UNKNOWN, UNSAT, SolverBackendError, default_config
from sortnetsat.words import format_sentence, generate_prefixes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("n", type=int)
    ap.add_argument("d", type=int)
    ap.add_argument("s", type=int)
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--timeout", type=float, default=7200.0, help="per instance")
    ap.add_argument("--catalog", default="theorem_scan.jsonl")
    args = ap.parse_args()
    if args.d < 2:
        ap.error(f"a prefix pins two layers, so d must be at least 2, got {args.d}")
    if args.s < 1:
        ap.error(f"s must be positive, got {args.s}")
    if args.jobs < 1:
        ap.error(f"--jobs must be at least 1, got {args.jobs}")
    if not 0 < args.timeout < float("inf"):
        ap.error(f"--timeout must be positive and finite, got {args.timeout:g}")
    try:
        _check_output(args.catalog)
    except UsageError as exc:
        ap.error(str(exc))
    if args.n < 1:
        ap.error(f"n must be positive, got {args.n}")
    prefixes = generate_prefixes(args.n, "T'").sentences
    if not prefixes:
        ap.error(f"T'_{args.n} is empty: there is no prefix to scan")
    try:
        config = default_config(timeout=args.timeout)
    except ValueError as exc:  # a SORTNETSAT_SOLVER that cannot run
        ap.error(str(exc))

    print(f"(n={args.n}, d={args.d}, s={args.s}) over {len(prefixes)} prefixes, "
          f"solver {config.name}")

    done = itertools.count(1)
    start = time.monotonic()

    def report(res):
        k = next(done)
        eta = (time.monotonic() - start) / k * (len(prefixes) - k)
        print(f"[{k}/{len(prefixes)}] {format_sentence(res.prefix)}: {res.status} "
              f"({res.how(1)}, eta {eta:.0f}s)", flush=True)

    try:
        level = run_level(args.n, args.d, args.s, prefixes, config=config,
                          catalog=ResultCatalog(args.catalog), jobs=args.jobs,
                          stop_on_sat=False, on_result=report)
    except SolverBackendError as exc:  # a solver that crashed or that we cannot read
        ap.exit(1, f"{ap.prog}: error: {exc}\n")

    statuses = [r.status for r in level.results]
    implied = sum(r.implied_by is not None for r in level.results)
    print(f"\ntotal {time.monotonic() - start:.0f}s: "
          f"{statuses.count(SAT)} SAT, {statuses.count(UNSAT)} UNSAT, "
          f"{statuses.count(UNKNOWN)} UNKNOWN; {implied} implied by other records")
    if level.witnesses():
        print("witness prefixes:")
        for r in level.witnesses():
            print(" ", format_sentence(r.prefix))
    if level.status == UNKNOWN:
        print("verdict: NOT PROVEN (unknowns remain)")
        return 3
    print("verdict:", "SAT (a network exists)" if level.status == SAT
          else "UNSAT (bound proven over the complete prefix set)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
