"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --tmp DIR --out FILE [--trace]
    python3 perfbench/rep.py --setup-only --out FILE

Times the set-up (import of the package and ``default_config()``, with the
solver binary already compiled), then the entry call, then checks the outputs
outside the timed region and writes one JSON record to ``--out``.  ``run.py``
starts this script with ``PYTHONPATH``, ``TMPDIR`` and ``XDG_CACHE_HOME``
pointing into the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tmp", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import sortnetsat.cli  # noqa: F401  (the entry module pulls in every layer)
    from sortnetsat.solving import default_config

    config = default_config()
    setup_s = time.perf_counter() - t0
    record: dict = {"setup_s": setup_s, "backend": config.backend}
    if args.setup_only:
        args.out.write_text(json.dumps(record))
        return 0

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](Path.cwd(), args.seed)
    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)

    self0, kids0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    raised = None
    try:
        rc, out = workload.run(args.tmp)
    except Exception:  # a raising entry point is a failed repetition, checked below
        raised = traceback.format_exc(limit=-3)
        rc, out = None, ""
    wall_s = time.perf_counter() - t0
    self_cpu = _cpu(resource.RUSAGE_SELF) - self0
    kids_cpu = _cpu(resource.RUSAGE_CHILDREN) - kids0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        # taken before the checks below, which call traced functions again
        record.update(
            layers=tracer.metrics(),
            dimacs_sha256=tracer.dimacs_sha256(),
            spans=list(tracer.spans),
        )
    check = workload.check(args.tmp, rc, out)
    if raised:
        check.problems.append(raised)
    if tracer is not None:
        from sortnetsat import csolver

        layers = record["layers"]
        layers["csolver.cpu_s"] = kids_cpu
        layers["sortnetsat.cpu_s"] = self_cpu
        layers["trace.wall_s"] = wall_s
        hits = layers["search.catalog_hits"]
        if workload.catalog_hits is not None and hits != workload.catalog_hits:
            check.problems.append(f"{hits} catalog hits, expected {workload.catalog_hits}")
        # a cold compile into an empty cache, paid once per machine
        os.environ["XDG_CACHE_HOME"] = str(args.tmp / "cold-cache")
        t0 = time.perf_counter()
        csolver.ensure_built()
        layers["csolver.ensure_built.cold_s"] = time.perf_counter() - t0
    record.update(
        inputs=workload.inputs(),
        wall_s=wall_s,
        cpu_s=self_cpu + kids_cpu,
        peak_rss_mb=peak_rss_mb,
        attempted=check.attempted,
        failed=min(check.failed, check.attempted),
        problems=check.problems,
    )
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
