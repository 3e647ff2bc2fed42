#!/usr/bin/env python3
"""Reproduce the jointly optimal (depth, size) pairs for small channel counts.

For every n in the requested range this runs the pareto search and prints the
proven frontier; with default settings n up to 8 finishes in a few minutes on
the bundled solver.  Results are cached in a JSON-lines catalog so reruns are
instant.

Bad arguments (--min-n below 2, --max-n below --min-n, a --timeout that is
not positive and finite, a --catalog that is a directory or lies in a
missing one, a SORTNETSAT_SOLVER that names no program) are reported before
the solver is built.  A bundled solver that does not compile, a solver that
crashes or one whose output cannot be read ends the run with one error line
and exit code 1.

Usage:
    python scripts/reproduce_small_optima.py [--max-n 8] [--catalog results.jsonl]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sortnetsat.cli import UsageError, _check_output, _solver_config
from sortnetsat.catalog import ResultCatalog
from sortnetsat.csolver import BuildError
from sortnetsat.search import optimize
from sortnetsat.solving import SolverBackendError


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--min-n", type=int, default=2)
    ap.add_argument("--max-n", type=int, default=8)
    ap.add_argument("--catalog", default="small_optima.jsonl")
    ap.add_argument("--timeout", type=float, default=1800.0)
    args = ap.parse_args()
    if args.min_n < 2:
        ap.error(f"--min-n must be at least 2, got {args.min_n}")
    if args.max_n < args.min_n:
        ap.error(f"--max-n must be at least --min-n ({args.min_n}), got {args.max_n}")
    try:
        _check_output(args.catalog)
        config = _solver_config(args)
    except UsageError as exc:  # a bad --catalog or --timeout, a SORTNETSAT_SOLVER that cannot run
        ap.error(str(exc))
    except BuildError as exc:
        ap.exit(1, f"{ap.prog}: error: {exc}\n")

    catalog = ResultCatalog(args.catalog)
    print(f"solver: {config.name}")
    for n in range(args.min_n, args.max_n + 1):
        t0 = time.monotonic()
        try:
            claim = optimize(n, "pareto", config=config, catalog=catalog)
        except SolverBackendError as exc:  # a solver that crashed or that we cannot read
            ap.exit(1, f"{ap.prog}: error: {exc}\n")
        dt = time.monotonic() - t0
        print(f"n={n}: {claim.note} [{'proven' if claim.proven else 'NOT PROVEN'}] "
              f"({dt:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
