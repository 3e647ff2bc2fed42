"""Search orchestration: solve tasks, cache results, aggregate optimality claims.

A claim is only marked proven when every required instance returned a real
answer; any UNKNOWN (timeout) downgrades it to an unproven bound, never to
evidence.  With a prefix set, SAT means "some prefix extends", UNSAT means
"every prefix refuses" -- which is a proof because the set is complete.

An instance (n, d, s, prefix, options) is satisfiable exactly when some
network with at most d layers and at most s comparators extends the prefix
(the optional constraint families never change that).  So one UNSAT settles
every instance with smaller bounds, and one witness every instance with larger
ones; the catalog answers a task from any record that settles it.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from sortnetsat.encoding import EncodeOptions, build_instance
from sortnetsat.networks import Network, is_sorting_network
from sortnetsat.solving import SAT, UNKNOWN, UNSAT, SolveOutcome, SolverConfig, decode_network, solve
from sortnetsat.words import Sentence, format_sentence, generate_prefixes, parse_sentence

if TYPE_CHECKING:
    from concurrent.futures import Executor


@dataclass(frozen=True)
class SearchTask:
    """One (n, d, s) instance; ``options.prefix`` is its prefix, if any."""

    n: int
    d: int
    s: int
    options: EncodeOptions = field(default_factory=EncodeOptions)
    config: SolverConfig = field(default_factory=SolverConfig)


@dataclass
class SearchResult:
    n: int
    d: int
    s: int
    prefix: Sentence | None
    options_key: str
    status: str
    network: Network | None
    solver: str = ""
    # seconds per stage of the solve that produced this result: encode_s,
    # solve_s, verify_s, and the parts of solve_s the solver reports (emit_s,
    # solver_s, check_s; see ``SolveOutcome``); empty for records written
    # before they were kept and for derived answers.  Older records also carry
    # the solve time on its own; it is not loaded.
    timings: dict[str, float] = field(default_factory=dict)
    # (d, s) of the catalog record that settled this task without a solve
    implied_by: tuple[int, int] | None = None
    # the solver's counters (``SolveOutcome.stats``), e.g. conflicts; empty
    # when it printed none, for derived answers and for older records
    stats: dict[str, int] = field(default_factory=dict)
    # read from a catalog file, not produced by this process; not recorded
    from_catalog: bool = False

    def how(self, places: int) -> str:
        """How the answer was reached: "from catalog" for a record read from a
        catalog file, "implied by d=D s=S" for an answer derived now, else the
        solve seconds to ``places`` decimals."""
        if self.from_catalog:
            return "from catalog"
        if self.implied_by:
            return "implied by d={} s={}".format(*self.implied_by)
        return f"{self.timings.get('solve_s', 0.0):.{places}f}s"

    def record(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "s": self.s,
            "prefix": format_sentence(self.prefix) if self.prefix else None,
            "options": self.options_key,
            "status": self.status,
            "network": json.loads(self.network.to_json()) if self.network else None,
            "solver": self.solver,
            "timings": {k: round(v, 4) for k, v in self.timings.items()},
            "implied_by": list(self.implied_by) if self.implied_by else None,
            "stats": self.stats,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "SearchResult":
        """The result a catalog record holds, its witness without trailing
        empty layers.  ValueError for a record that is not a JSON object, has a
        field of the wrong type or an unknown status, or is a SAT record whose
        witness does not fit its own (n, d, s) or does not sort."""
        if not isinstance(rec, dict):
            raise ValueError("not a JSON object")
        _check_field_types(rec)
        net = None
        if rec.get("network"):
            net = Network.make(rec["network"]["n"], rec["network"]["layers"]).trimmed()
        prefix = parse_sentence(rec["prefix"]) if rec.get("prefix") else None
        implied_by = tuple(rec["implied_by"]) if rec.get("implied_by") else None
        res = cls(
            rec["n"], rec["d"], rec["s"], prefix, rec["options"], rec["status"],
            net, rec.get("solver", ""), rec.get("timings", {}), implied_by,
            rec.get("stats", {}), from_catalog=True,
        )
        if res.status == SAT and not (_fits(net, res.n, res.d, res.s) and is_sorting_network(net)):
            raise ValueError(
                f"SAT witness does not fit (n={res.n}, d={res.d}, s={res.s}) or does not sort"
            )
        return res


def _is_int(value: object) -> bool:
    # JSON true and false load as bools, which Python counts as ints
    return isinstance(value, int) and not isinstance(value, bool)


def _check_field_types(rec: dict) -> None:
    """ValueError unless each field of a catalog record has its type and the
    status is one of SAT, UNSAT and UNKNOWN."""
    if not all(_is_int(rec[k]) for k in ("n", "d", "s")):
        raise ValueError("n, d and s must be integers")
    if not isinstance(rec.get("prefix"), (str, type(None))):
        raise ValueError("prefix must be a string or null")
    if not isinstance(rec["options"], str) or not isinstance(rec.get("solver", ""), str):
        raise ValueError("options and solver must be strings")
    if rec["status"] not in (SAT, UNSAT, UNKNOWN):
        raise ValueError(f"unknown status {rec['status']!r}")
    timings = rec.get("timings", {})
    if not isinstance(timings, dict) or not all(
        _is_int(t) or isinstance(t, float) for t in timings.values()
    ):
        raise ValueError("timings must be an object of numbers")
    stats = rec.get("stats", {})
    if not isinstance(stats, dict) or not all(map(_is_int, stats.values())):
        raise ValueError("stats must be an object of integers")
    implied_by = rec.get("implied_by")
    is_pair = isinstance(implied_by, list) and len(implied_by) == 2
    if implied_by is not None and not (is_pair and all(map(_is_int, implied_by))):
        raise ValueError("implied_by must be null or two integers")


def _fits(net: Network | None, n: int, d: int, s: int) -> bool:
    """Whether ``net`` is an n-channel network within d layers and s comparators."""
    return net is not None and net.n == n and net.size <= s and net.depth <= d


def _settles(rec: SearchResult, d: int, s: int) -> bool:
    """Whether ``rec`` answers its instance at bounds (d, s): an UNSAT at
    bounds no smaller, or a SAT whose witness fits them.  UNKNOWN settles
    nothing."""
    if rec.status == UNSAT:
        return rec.d >= d and rec.s >= s
    return rec.status == SAT and _fits(rec.network, rec.n, d, s)


class ResultCatalog:
    """Append-only JSON-lines store of answered tasks, indexed by instance:
    (n, options key), in catalog order; the key names the prefix.  With
    ``path`` None the records are kept in memory only."""

    def __init__(self, path: str | Path | None):
        self.path = Path(path) if path is not None else None
        self._index: dict[tuple, list[SearchResult]] = {}
        if self.path is not None and self.path.exists():
            for lineno, line in enumerate(self.path.read_text().splitlines(), 1):
                if not line.strip():
                    continue
                try:
                    res = SearchResult.from_record(json.loads(line))
                except (KeyError, TypeError, ValueError) as exc:
                    warnings.warn(f"{self.path}:{lineno}: skipping corrupt record ({exc})")
                    continue
                self._index.setdefault(self._key(res), []).append(res)

    @staticmethod
    def _key(res: SearchResult) -> tuple:
        return (res.n, res.options_key)

    def get(self, task: SearchTask) -> SearchResult | None:
        """The catalog's answer to ``task``; None when no record settles it
        (see ``_settles``).  That is the task's own record when one settles
        it, else the answer derived from the first settling record in catalog
        order: for the task's own (d, s), with ``implied_by`` set, no timings
        and the record's witness unchanged."""
        records = self._index.get((task.n, task.options.key()), [])
        own = [r for r in records if (r.d, r.s) == (task.d, task.s)]
        hit = next((r for r in own + records if _settles(r, task.d, task.s)), None)
        if hit is None or (hit.d, hit.s) == (task.d, task.s):
            return hit
        return SearchResult(
            task.n, task.d, task.s, task.options.prefix, hit.options_key, hit.status,
            hit.network, hit.solver, {}, (hit.d, hit.s),
        )

    def put(self, res: SearchResult) -> None:
        """Record ``res``; a record the catalog already holds (a reused answer)
        is not recorded again."""
        records = self._index.setdefault(self._key(res), [])
        if any(r is res for r in records):
            return
        if self.path is not None:
            self._append(res)
        records.append(res)

    def _append(self, res: SearchResult) -> None:
        # one write of the whole line on an O_APPEND descriptor: processes
        # sharing the file never interleave parts of their records
        line = (json.dumps(res.record()) + "\n").encode()
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            written = os.write(fd, line)
        finally:
            os.close(fd)
        if written != len(line):
            raise OSError(f"{self.path}: wrote {written} of {len(line)} bytes of a record")


def run_task(
    task: SearchTask,
    catalog: ResultCatalog | None = None,
    solve_fn: Callable[..., SolveOutcome] = solve,
) -> SearchResult:
    """Solve one (n, d, s, prefix) instance, reusing catalog answers
    (see ``ResultCatalog.get``) and recording the answer, solved or derived,
    in the catalog."""
    hit = catalog.get(task) if catalog is not None else None
    if hit is not None:
        catalog.put(hit)  # writes a derived answer; a reused record stays as it is
        return hit
    t0 = time.perf_counter()
    formula, vm = build_instance(task.n, task.d, task.s, task.options)
    t1 = time.perf_counter()
    outcome = solve_fn(formula, task.config)
    t2 = time.perf_counter()
    network = None
    if outcome.status == SAT:
        network = decode_network(outcome.model, vm)
        if not (_fits(network, task.n, task.d, task.s) and is_sorting_network(network)):
            raise RuntimeError(
                f"decoded witness for (n={task.n}, d={task.d}, s={task.s}) does not fit "
                "or does not sort"
            )
    timings = {"encode_s": t1 - t0, "solve_s": t2 - t1, **outcome.timings,
               "verify_s": time.perf_counter() - t2}
    result = SearchResult(
        task.n, task.d, task.s, task.options.prefix, task.options.key(),
        outcome.status, network, outcome.solver, timings, stats=outcome.stats,
    )
    if catalog is not None:
        catalog.put(result)
    return result


@dataclass
class LevelOutcome:
    """All per-prefix results for one (d, s) level."""

    d: int
    s: int
    results: list[SearchResult]

    @property
    def status(self) -> str:
        statuses = {r.status for r in self.results}
        if SAT in statuses:
            return SAT
        if statuses == {UNSAT}:
            return UNSAT
        return UNKNOWN

    def witnesses(self) -> list[SearchResult]:
        return [r for r in self.results if r.status == SAT]


@dataclass
class OptimalityClaim:
    n: int
    mode: str
    parameter: int | None
    value: int | None
    proven: bool
    witnesses: list[SearchResult] = field(default_factory=list)
    evidence: list[SearchResult] = field(default_factory=list)
    note: str = ""

    def summary(self) -> str:
        status = "proven" if self.proven else "bound not proven"
        return (
            f"n={self.n} {self.mode}"
            + (f"({self.parameter})" if self.parameter is not None else "")
            + f" = {self.value} [{status}]"
        )


def _worker_pool(jobs: int) -> Executor:
    """A pool of ``jobs`` worker processes for the levels of one
    ``run_level`` or ``optimize`` call; ValueError when ``jobs`` is below 1.
    Its workers are forked at its first submit, and ``shutdown`` (the end of
    its ``with`` block) joins them.

    Fork, not spawn: a spawned worker re-imports the package, about 0.13 s of
    CPU each on a 2-vCPU machine against under 0.01 s for a forked one.  The
    workers are forked before the pool starts its own thread."""
    # imported here, so that commands that run no level (``solve``,
    # ``encode``) do not pay for importing the process-pool machinery
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return ProcessPoolExecutor(jobs, mp_context=get_context("fork"))


def run_level(
    n: int,
    d: int,
    s: int,
    prefixes: Sequence[Sentence] | None,
    config: SolverConfig | None = None,
    catalog: ResultCatalog | None = None,
    solve_fn: Callable[..., SolveOutcome] = solve,
    jobs: int = 1,
    stop_on_sat: bool = True,
    on_result: Callable[[SearchResult], None] | None = None,
) -> LevelOutcome:
    """Solve (n, d, s) with the default encoding once per prefix (once without
    a prefix when ``prefixes`` is None) in ``jobs`` worker processes;
    ValueError when ``jobs`` is below 1.  The workers are reaped before this
    returns or raises.

    The calling process answers what it can from ``catalog`` (see
    ``ResultCatalog.get``) and sends the other tasks to the workers, which
    encode, solve, decode and verify them; only the calling process writes
    the catalog, one record per solved or derived answer in task order.
    Without a ``catalog`` the answers are kept in memory.  With
    ``stop_on_sat`` the tasks run in consecutive batches of ``jobs`` and the
    level stops after the first batch that holds a SAT, so which tasks get
    solved does not depend on timing; without it every task is solved.
    ``on_result`` sees each result in the calling thread, in task order.
    ``solve_fn`` is sent to the workers, so it must be picklable: a
    module-level function or an instance of a module-level class.
    """
    if catalog is None:
        catalog = ResultCatalog(None)
    with _worker_pool(jobs) as pool:
        return _run_level(pool, jobs, n, d, s, prefixes, config, catalog, solve_fn,
                          stop_on_sat, on_result)


def _run_level(
    pool: Executor,
    jobs: int,
    n: int,
    d: int,
    s: int,
    prefixes: Sequence[Sentence] | None,
    config: SolverConfig | None,
    catalog: ResultCatalog,
    solve_fn: Callable[..., SolveOutcome],
    stop_on_sat: bool,
    on_result: Callable[[SearchResult], None] | None,
) -> LevelOutcome:
    """``run_level`` in ``pool``, which ``_worker_pool(jobs)`` opened and its
    caller shuts down: ``optimize`` runs all its levels in one pool, so that
    per-process caches such as the counter templates stay warm."""
    config = config or SolverConfig()
    tasks = [
        SearchTask(n, d, s, EncodeOptions().with_prefix(p), config)
        for p in ([None] if prefixes is None else prefixes)
    ]
    batch = jobs if stop_on_sat else max(len(tasks), 1)
    results: list[SearchResult] = []
    for start in range(0, len(tasks), batch):
        chunk = tasks[start:start + batch]
        hits = [catalog.get(t) for t in chunk]
        misses = [t for t, hit in zip(chunk, hits) if hit is None]
        solved = pool.map(run_task, misses, repeat(None), repeat(solve_fn))
        for hit in hits:
            res = hit if hit is not None else next(solved)
            catalog.put(res)
            results.append(res)
            if on_result is not None:
                on_result(res)
        if stop_on_sat and any(r.status == SAT for r in results[start:]):
            break
    return LevelOutcome(d, s, results)


def _prefix_pool(n: int, prefixes: str) -> list[Sentence] | None:
    """The prefixes each level of depth >= 2 runs over; None for a level
    without prefixes, also when T' is empty (n <= 2).  ValueError for a
    ``prefixes`` other than "auto", "none" and "tprime"."""
    if prefixes not in ("auto", "none", "tprime"):
        raise ValueError(f"unknown prefixes {prefixes!r}")
    if prefixes == "tprime" or (prefixes == "auto" and n >= 11):
        return list(generate_prefixes(n, "T'").sentences) or None
    return None


def max_size(n: int, d: int) -> int:
    return d * (n // 2)


def optimize(
    n: int,
    mode: str,
    depth: int | None = None,
    size: int | None = None,
    config: SolverConfig | None = None,
    prefixes: str = "auto",
    catalog: ResultCatalog | None = None,
    solve_fn: Callable[..., SolveOutcome] = solve,
    jobs: int = 1,
) -> OptimalityClaim:
    """Prove joint size/depth optima.

    * ``min_size_given_depth``: smallest s admitting a depth-``depth`` sorting
      network, descending from the first witness, UNSAT at s-1 required.
    * ``min_depth_given_size``: smallest d admitting one with at most ``size``
      comparators, ascending to d = ``size``, where UNSAT proves none exists.
    * ``pareto``: the (d, s) frontier: the smallest size at each depth from
      the minimal feasible one, until extra depth stops helping.

    A prefix pins two layers, so levels of depth 1 run without prefixes.
    Without a ``catalog`` the answers are kept in memory, so that later
    levels still reuse them.  Every level runs in one pool of ``jobs`` worker
    processes, which is shut down and its workers reaped before this returns
    or raises.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    prefix_pool = _prefix_pool(n, prefixes)
    if catalog is None:
        catalog = ResultCatalog(None)

    with _worker_pool(jobs) as workers:

        def level(d: int, s: int, stop_on_sat: bool = True) -> LevelOutcome:
            prefixes = prefix_pool if d >= 2 else None
            return _run_level(workers, jobs, n, d, s, prefixes, config, catalog, solve_fn,
                              stop_on_sat, None)

        if mode == "min_size_given_depth":
            if depth is None:
                raise ValueError("min_size_given_depth needs depth=")
            if depth < 1:
                raise ValueError(f"depth must be at least 1, got {depth}")
            return _min_size_at_depth(n, depth, level)
        if mode == "min_depth_given_size":
            if size is None:
                raise ValueError("min_depth_given_size needs size=")
            return _min_depth_at_size(n, size, level)
        if mode == "pareto":
            return _pareto(n, level)
        raise ValueError(f"unknown mode {mode!r}")


def _min_size_at_depth(n: int, d: int, level) -> OptimalityClaim:
    claim = OptimalityClaim(n, "min_size_given_depth", d, None, False)
    s = max_size(n, d)
    best: int | None = None  # size of the smallest witness found so far
    while s >= 1:
        out = level(d, s)
        claim.evidence.extend(out.results)
        if out.status == SAT:
            best = min(r.network.size for r in out.witnesses())
            s = best - 1
        elif out.status == UNSAT:
            if best is None:
                claim.note = f"no sorting network of depth {d} with any size"
                claim.proven = True
                return claim
            break
        else:
            claim.note = f"UNKNOWN at s={s}; bound not proven"
            claim.value = best
            return claim
    if best is not None:
        # rerun the optimal level without short-circuiting so every witness
        # prefix is identified
        final = level(d, best, stop_on_sat=False)
        claim.evidence.extend(final.results)
        claim.value = best
        claim.witnesses = final.witnesses()
        claim.proven = True
    return claim


def _min_depth_at_size(n: int, s: int, level) -> OptimalityClaim:
    # a network with at most s comparators has at most s non-empty layers, so
    # the climb ends at d = s: UNSAT there proves that no network has s (d = 1
    # always runs, so that the encoder rejects an s below 1)
    claim = OptimalityClaim(n, "min_depth_given_size", s, None, True)
    for d in range(1, max(s, 1) + 1):
        out = level(d, min(s, max_size(n, d)))
        claim.evidence.extend(out.results)
        if out.status == SAT:
            claim.value = d
            claim.witnesses = out.witnesses()
            return claim
        if out.status == UNKNOWN:
            claim.proven = False
            claim.note = f"UNKNOWN at d={d}"
    claim.note = claim.note or f"no network with {s} comparators"
    return claim


def _pareto(n: int, level) -> OptimalityClaim:
    claim = OptimalityClaim(n, "pareto", None, None, True)
    frontier: list[tuple[int, int]] = []
    for d in range(1, 2 * n + 1):
        sub = _min_size_at_depth(n, d, level)
        claim.evidence.extend(sub.evidence)
        if not sub.proven:
            claim.proven = False
            claim.note = f"depth {d}: {sub.note}"
            return claim
        if sub.value is None:
            continue  # no sorting network this shallow
        if frontier and sub.value >= frontier[-1][1]:
            break  # extra depth stopped helping: frontier closed
        frontier.append((d, sub.value))
        claim.witnesses.extend(sub.witnesses)
    claim.note = "frontier " + ", ".join(f"(d={a}, s={b})" for a, b in frontier)
    claim.value = frontier[-1][1] if frontier else None
    claim.parameter = frontier[0][0] if frontier else None
    return claim
