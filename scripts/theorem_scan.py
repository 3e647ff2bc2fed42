#!/usr/bin/env python3
"""Run ``sortnetsat scan`` from a checkout without installing the package:

    python scripts/theorem_scan.py N D S [--jobs J] [--timeout T] [--catalog FILE]

takes the arguments, prints the output and exits with the status of
``sortnetsat scan N D S ...`` (see the README).

The benchmark's level workload (perfbench/workloads.py) loads this file,
replaces its ``generate_prefixes`` with a fixed slice of T'_9 and calls
``main``, so the scan reads its prefix set from that name.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sortnetsat import cli
from sortnetsat.words import generate_prefixes


def main() -> int:
    return cli.main(["scan", *sys.argv[1:]], scan_prefixes=generate_prefixes)


if __name__ == "__main__":
    sys.exit(main())
