"""Search orchestration: solve tasks and aggregate optimality claims.

A claim is only marked proven when every required instance returned a real
answer; any UNKNOWN (timeout) downgrades it to an unproven bound, never to
evidence.  With a prefix set, SAT means "some prefix extends", UNSAT means
"every prefix refuses" -- which is a proof because the set is complete.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Sequence

from sortnetsat.catalog import ResultCatalog, SearchResult, _fits
from sortnetsat.encoding import EncodeOptions, build_instance
from sortnetsat.networks import is_sorting_network
from sortnetsat.solving import SAT, UNKNOWN, UNSAT, SolveOutcome, SolverConfig, decode_network, solve
from sortnetsat.words import Sentence, generate_prefixes

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
