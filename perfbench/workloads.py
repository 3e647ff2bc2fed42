"""The benchmark's workloads, each a call of one user-facing entry point, and
the checks of their outputs against the benchmark's own reference.

Every workload writes a fresh result catalog; the checks read it back as JSON
and re-check each witness with ``sorts`` below, a plain 0/1 evaluator that
shares no code with ``sortnetsat.networks``.  Verdicts are compared with
hand-written tables.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

TIMEOUT = "600"  # per instance; far above the slowest one, so UNKNOWN is a defect

# (9,7,25) over T'_9: the prefixes that extend to a 25-comparator depth-7
# network; the other 122 of the 127 refuse
LEVEL_SAT = {
    "(0,1221,1221c)",
    "(0,1221c,1221c)",
    "(01221,1221c)",
    "(012211212)",
    "(012211221)",
}
# The whole level takes about 145 s at 2 jobs, more than a run can hold, so the
# level workload runs the fixed tenth T'_9[2::10]: 13 prefixes, 2 of them SAT,
# about 11 s, so that a run holds two or three repetitions and their median.
LEVEL_SLICE = slice(2, None, 10)
TPRIME_7 = 36  # |T'_7|: prefixes that must all refuse (7,6,15)


def sorts(n: int, layers: list) -> bool:
    """Zero-one principle, one input vector at a time."""
    for x in range(1 << n):
        bits = [(x >> k) & 1 for k in range(n)]
        for layer in layers:
            for i, j in layer:
                a, b = bits[i - 1], bits[j - 1]
                bits[i - 1], bits[j - 1] = min(a, b), max(a, b)
        if any(bits[k] > bits[k + 1] for k in range(n - 1)):
            return False
    return True


def witness_problem(rec: dict) -> str | None:
    """Why a catalog record's answer is wrong, or None when it checks out."""
    status = rec.get("status")
    if status == "UNSAT":
        return None
    if status != "SAT":
        return f"status {status}"
    net = rec.get("network")
    if not net or net.get("n") != rec["n"]:
        return "SAT without a witness on n channels"
    layers = net["layers"]
    for layer in layers:
        used = [c for pair in layer for c in pair]
        if len(used) != len(set(used)) or any(
            not 1 <= i < j <= rec["n"] for i, j in layer
        ):
            return "witness layer is not a valid comparator layer"
    size = sum(len(layer) for layer in layers)
    depth = sum(1 for layer in layers if layer)
    if size > rec["s"] or depth > rec["d"]:
        return f"witness size {size} depth {depth} exceeds ({rec['d']}, {rec['s']})"
    if not sorts(rec["n"], layers):
        return "witness does not sort"
    return None


def read_catalog(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


@dataclass
class Check:
    attempted: int
    failed: int
    problems: list[str]


def _check_records(records: list[dict], problems: list[str]) -> int:
    failed = 0
    for rec in records:
        why = witness_problem(rec)
        if why:
            failed += 1
            problems.append(f"({rec['n']},{rec['d']},{rec['s']}) {rec.get('prefix')}: {why}")
    return failed


def _call(fn, *args) -> tuple[int, str]:
    out = StringIO()
    with redirect_stdout(out):
        rc = fn(*args)
    return rc, out.getvalue()


class Workload:
    name: str
    catalog_hits: int | None  # what the traced run must count, None for any

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed


class Level(Workload):
    """``scripts/theorem_scan.py 9 7 25 --jobs 2`` over a tenth of T'_9."""

    name = "level-9-7-25-tenth"
    catalog_hits = 0  # a fresh catalog: every prefix is solved

    def inputs(self) -> str:
        return "T'_9[2::10]"

    def run(self, tmp: Path) -> tuple[int, str]:
        script = self.root / "scripts" / "theorem_scan.py"
        spec = importlib.util.spec_from_file_location("theorem_scan", script)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        generate = mod.generate_prefixes

        def tenth(n, variant="T'"):
            full = generate(n, variant)
            return type(full)(full.n, full.variant, full.sentences[LEVEL_SLICE])

        mod.generate_prefixes = tenth
        argv = ["9", "7", "25", "--jobs", "2", "--timeout", TIMEOUT,
                "--catalog", str(tmp / "catalog.jsonl")]
        saved, sys.argv = sys.argv, [str(script), *argv]
        try:
            return _call(mod.main)
        finally:
            sys.argv = saved

    def check(self, tmp: Path, rc: int, out: str) -> Check:
        from sortnetsat.words import format_sentence, generate_prefixes

        wanted = {
            format_sentence(s)
            for s in generate_prefixes(9, "T'").sentences[LEVEL_SLICE]
        }
        records = read_catalog(tmp / "catalog.jsonl")
        problems: list[str] = []
        failed = _check_records(records, problems)
        got = {rec["prefix"] for rec in records}
        if got != wanted or len(records) != len(wanted):
            problems.append(f"catalog holds {len(records)} records, not the {len(wanted)} prefixes")
            failed += len(wanted ^ got) or 1
        for rec in records:
            if rec["status"] in ("SAT", "UNSAT") and (rec["status"] == "SAT") != (
                rec["prefix"] in LEVEL_SAT
            ):
                failed += 1
                problems.append(f"{rec['prefix']}: {rec['status']} against the table")
        verdict = "SAT" if wanted & LEVEL_SAT else "UNSAT"
        if rc != 0 or f"verdict: {verdict}" not in out:
            failed += 1
            problems.append(f"exit code {rc}, expected verdict {verdict}")
        return Check(len(wanted), failed, problems)


class Mono(Workload):
    """``sortnetsat solve 10 7 31`` with no prefix: one large instance."""

    name = "mono-10-7-31"
    catalog_hits = 0

    def inputs(self) -> str:
        return "(10,7,31)"

    def run(self, tmp: Path) -> tuple[int, str]:
        from sortnetsat import cli

        return _call(cli.main, ["solve", "10", "7", "31", "--timeout", TIMEOUT,
                                "--catalog", str(tmp / "catalog.jsonl")])

    def check(self, tmp: Path, rc: int, out: str) -> Check:
        records = read_catalog(tmp / "catalog.jsonl")
        problems: list[str] = []
        failed = _check_records(records, problems)
        if rc != 0 or [r["status"] for r in records] != ["SAT"]:
            failed = 1
            problems.append(f"exit code {rc}, expected one SAT record")
        return Check(1, min(failed, 1), problems)


class Optimize(Workload):
    """``sortnetsat optimize 7 --mode size --depth 6 --prefixes tprime --jobs 2``."""

    name = "optimize-7-d6"
    catalog_hits = None  # the rerun of the optimal level reads the catalog

    def inputs(self) -> str:
        return "n=7 d=6 T'_7"

    def run(self, tmp: Path) -> tuple[int, str]:
        from sortnetsat import cli

        return _call(cli.main, ["optimize", "7", "--mode", "size", "--depth", "6",
                                "--prefixes", "tprime", "--jobs", "2", "--timeout", TIMEOUT,
                                "--catalog", str(tmp / "catalog.jsonl")])

    def check(self, tmp: Path, rc: int, out: str) -> Check:
        records = read_catalog(tmp / "catalog.jsonl")
        problems: list[str] = []
        failed = _check_records(records, problems)
        below = [r["status"] for r in records if (r["d"], r["s"]) == (6, 15)]
        at = [r["status"] for r in records if (r["d"], r["s"]) == (6, 16)]
        if below != ["UNSAT"] * TPRIME_7 or "SAT" not in at:
            failed += 1
            problems.append(f"(7,6,15) answers {below}, (7,6,16) answers {at}")
        if rc != 0 or "min_size_given_depth(6) = 16 [proven]" not in out:
            failed += 1
            problems.append(f"exit code {rc}, claim not 'proven 16': {out[:200]!r}")
        return Check(max(len(records), 1), failed, problems)


WORKLOADS = {w.name: w for w in (Level, Mono, Optimize)}
