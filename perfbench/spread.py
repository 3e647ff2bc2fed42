#!/usr/bin/env python3
"""Median and quartile spread of a metric over several benchmark runs.

    python3 perfbench/spread.py RESULT...

Each RESULT file holds the output of one ``run.py`` call; its last line is
the result object.  For every metric this prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, next to the metric's bound from ``BENCHMARK.json`` when
one is given there.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def main(paths: list[str]) -> int:
    runs = [json.loads(Path(p).read_text().strip().splitlines()[-1]) for p in paths]
    bounds = {}
    spec = Path("BENCHMARK.json")
    if spec.exists():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
    print(f"{len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
          f"failed {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = f"  bound {bounds[name]}" if name in bounds else ""
        print(f"{name:36s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:.4f}{bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
