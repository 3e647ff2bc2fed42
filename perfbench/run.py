#!/usr/bin/env python3
"""sortnetsat benchmark: whole workloads through the program's own entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads (see ``workloads.py``):

* ``level-9-7-25-tenth`` -- ``scripts/theorem_scan.py 9 7 25 --jobs 2`` over
  the tenth T'_9[2::10]: solver-heavy UNSAT prefixes, level runner.
* ``mono-10-7-31`` -- ``sortnetsat solve 10 7 31``: one instance of 2.2M
  clauses; encoder and model check at scale, no prefixes and no level loop.
* ``optimize-7-d6`` -- ``sortnetsat optimize 7 --mode size --depth 6
  --prefixes tprime --jobs 2``: many tiny instances, catalog reads and writes.

Each repetition runs in a fresh interpreter (``rep.py``) with its own catalog,
solver work directory and temp directory, deleted afterwards.  Repetitions
follow each other (a closed loop with one client; the level and optimize
workloads use two worker threads) until the next one would overrun
``--seconds``; at least one always runs.  The solver binary is compiled once
into ``.perfbench/cache`` before anything is timed.

``--trace 0`` prints the end-to-end metrics, medians over the repetitions:
wall and CPU time of the entry call, the interpreter's peak RSS, the share of
instances answered and checked, and the set-up time (median of several fresh
interpreters).  ``--trace 1`` wraps the public functions of every layer from
outside (``layertrace.py``) and prints the per-layer metrics instead, after a
line with the DIMACS digest and the environment.  The last line of standard
output is always one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import DETERMINISTIC, PER_LAYER_UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN_LIMIT = 170.0  # seconds; a run must end within 180
SETUP_PROBES = 20  # half before the repetitions, half after
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


class ChildFailed(RuntimeError):
    pass


def child(args: list[str], env: dict, out: Path, deadline: float) -> dict:
    """Run ``rep.py`` in its own process group; kill the group on overrun."""
    cmd = [sys.executable, str(HERE / "rep.py"), *args, "--out", str(out)]
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise ChildFailed(f"{' '.join(args)}: killed at the {RUN_LIMIT:.0f} s limit") from None
    if proc.returncode != 0 or not out.exists():
        raise ChildFailed(f"{' '.join(args)}: exit {proc.returncode}\n{err[-2000:]}")
    return json.loads(out.read_text())


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    files = sorted([*(root / "src" / "sortnetsat").rglob("*.py"),
                    *(root / "src" / "sortnetsat").rglob("*.c"),
                    *(root / "scripts").glob("*.py")])
    for path in files:
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True, text=True,
                            timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        cc = "unavailable"
    c_source = root / "src" / "sortnetsat" / "csolver" / "minicdcl.c"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cc": cc,
        "minicdcl_tag": hashlib.sha256(c_source.read_bytes()).hexdigest()[:16],
        "source_sha256": source_digest(root),
    }


def check_determinism(state: Path, name: str, reps: list[dict], env: dict) -> list[str]:
    """Exact counts must repeat between runs of the same code on the same inputs.

    Compares the repetitions of this run with each other, and with the last
    traced run of the same source in this checkout.
    """
    keep = [{"counts": {k: r["layers"][k] for k in DETERMINISTIC},
             "dimacs_sha256": r["dimacs_sha256"]} for r in reps]
    problems = [f"repetition {i} differs: {k}" for i, k in enumerate(keep) if k != keep[0]]
    inputs = hashlib.sha256(reps[0]["inputs"].encode()).hexdigest()[:12]
    path = state / "out" / f"counts-{name}-{inputs}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before["source_sha256"] == env["source_sha256"] and before["run"] != keep[0]:
            problems.append(f"counts differ from an earlier run of the same code: "
                            f"{before['run']} then {keep[0]}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"source_sha256": env["source_sha256"], "run": keep[0]}))
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "sortnetsat" / "__init__.py").is_file() or not (
        root / "scripts" / "theorem_scan.py"
    ).is_file():
        print("perfbench: run from the root of a sortnetsat checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT
    state = root / ".perfbench"
    work = state / "tmp" / str(os.getpid())
    work.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "XDG_CACHE_HOME": str(state / "cache"), "TMPDIR": str(work)}
    env.pop("SORTNETSAT_SOLVER", None)  # always the bundled solver
    try:
        return measure(args, root, state, work, env, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root: Path, state: Path, work: Path, env: dict, deadline: float) -> int:
    # the first set-up compiles the solver and the bytecode; it is not timed
    probe = work / "probe.json"
    if child(["--setup-only"], env, probe, deadline)["backend"] != "external":
        raise ChildFailed("the bundled solver did not build (no C compiler?)")

    def setup_probes(count: int) -> list[float]:
        # a single import time swings by a third between processes, so the
        # median needs many of them, taken at both ends of the run
        return [child(["--setup-only"], env, probe, deadline)["setup_s"]
                for _ in range(0 if args.trace else count)]

    setups = setup_probes(SETUP_PROBES // 2)

    reps: list[dict] = []
    problems: list[str] = []
    start, longest = time.monotonic(), 0.0
    while True:
        t0 = time.monotonic()
        tmp = work / f"rep{len(reps)}"
        tmp.mkdir()
        rep_args = ["--workload", args.workload, "--seed", str(args.seed), "--tmp", str(tmp)]
        rep = child(rep_args + ["--trace"] * args.trace,
                    {**env, "TMPDIR": str(tmp)}, work / "rep.json", deadline)
        shutil.rmtree(tmp)
        reps.append(rep)
        problems += rep["problems"]
        now = time.monotonic()
        longest = max(longest, now - t0)
        if now - start + longest > args.seconds or now + longest > deadline:
            break

    setups += setup_probes(SETUP_PROBES - SETUP_PROBES // 2)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.trace:
        env_info = environment(root)
        problems += check_determinism(state, args.workload, reps, env_info)
        metrics = {name: statistics.median(r["layers"][name] for r in reps)
                   for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
        out = state / "out" / f"spans-{args.workload}.jsonl"
        out.write_text("".join(json.dumps(s) + "\n" for s in reps[0]["spans"]))
        print(json.dumps({"workload": args.workload, "inputs": reps[0]["inputs"],
                          "repetitions": len(reps),
                          "dimacs_sha256": reps[0]["dimacs_sha256"], **env_info}))
    else:
        metrics = {name: statistics.median(r[name] for r in reps)
                   for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups + [r["setup_s"] for r in reps])
        metrics["ok_frac"] = 1 - failed / attempted
        units = END_TO_END_UNITS
    for line in problems:
        print(f"perfbench: {args.workload}: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
