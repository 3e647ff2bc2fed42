"""Outside-in tracing of the sortnetsat layers for the benchmark's traced run.

Spans are recorded around the public functions of each module, patched in the
module namespace where callers look them up.  Nothing inside the program is
edited.  ``install`` must run before ``scripts/theorem_scan.py`` is loaded,
because that script (like ``cli``) binds ``run_task`` by name at import time.

Each span keeps its wall time and its thread's CPU time (``time.thread_time``);
the gap between the two is time spent waiting, for the interpreter lock or for
the solver process.  Parent stacks are per thread because level runs use two
worker threads.  Every ``run_task`` call opens a new task id that its child
spans inherit.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# per-layer metric name -> unit, in report order; every traced run reports all
# of them, with zeros for layers the workload does not enter
PER_LAYER_UNITS = {
    "words.generate_prefixes.s": "s",
    "words.prefixes": "count",
    "networks.unsorted_outputs.s": "s",
    "networks.unsorted_outputs.calls": "count",
    "networks.is_sorting_network.s": "s",
    "networks.is_sorting_network.calls": "count",
    "cardinality.build_atmost.s": "s",
    "cardinality.build_atmost.cpu_s": "s",
    "encoding.build_instance.s": "s",
    "encoding.build_instance.cpu_s": "s",
    "encoding.build_instance.calls": "count",
    "encoding.vars": "count",
    "encoding.clauses": "count",
    "solving.emit_dimacs.s": "s",
    "solving.emit_dimacs.cpu_s": "s",
    "solving.dimacs_bytes": "bytes",
    "solving.solve.self_s": "s",
    "solving.parse_solver_output.s": "s",
    "solving.check_model.s": "s",
    "solving.decode_network.s": "s",
    "solving.sat": "count",
    "solving.unsat": "count",
    "solving.unknown": "count",
    "csolver.cpu_s": "s",
    "csolver.ensure_built.cold_s": "s",
    "search.run_task.p50_s": "s",
    "search.run_task.p90_s": "s",
    "search.run_task.calls": "count",
    "search.run_task.self_s": "s",
    "search.run_task.wait_s": "s",
    "search.catalog_get.s": "s",
    "search.catalog_put.s": "s",
    "search.catalog_hits": "count",
    "search.solve_calls": "count",
    "sortnetsat.cpu_s": "s",
    "trace.wall_s": "s",
}

# counts that must repeat exactly between two runs of the same code
DETERMINISTIC = (
    "search.solve_calls",
    "solving.sat",
    "solving.unsat",
    "solving.unknown",
    "encoding.vars",
    "encoding.clauses",
    "solving.dimacs_bytes",
)


class Tracer:
    def __init__(self) -> None:
        # (span id, task id, parent span id, name, start, end, thread cpu)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.dimacs_digests: list[str] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._tasks = itertools.count(1)
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, new_task: bool = False):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            sid = next(self._ids)
            task = next(self._tasks) if new_task else (stack[-1][1] if stack else 0)
        parent = stack[-1][0] if stack else None
        stack.append((sid, task))
        t0, c0 = time.perf_counter(), time.thread_time()
        try:
            yield
        finally:
            t1, c1 = time.perf_counter(), time.thread_time()
            stack.pop()
            with self._lock:
                self.spans.append((sid, task, parent, name, t0, t1, c1 - c0))

    def wrap(self, fn, name: str, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                with self._lock:
                    on_result(result)
            return result

        return traced

    def dimacs_sha256(self) -> str:
        """One digest over every emitted DIMACS text, independent of the
        order in which worker threads emitted them."""
        return hashlib.sha256("\n".join(sorted(self.dimacs_digests)).encode()).hexdigest()

    def metrics(self) -> dict[str, float]:
        total, cpu, calls, self_s = Counter(), Counter(), Counter(), Counter()
        child_s: Counter = Counter()
        for _sid, _task, parent, _name, t0, t1, _cpu in self.spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        run_task_s, run_task_wait = [], 0.0
        for sid, _task, _parent, name, t0, t1, c in self.spans:
            total[name] += t1 - t0
            cpu[name] += c
            calls[name] += 1
            self_s[name] += t1 - t0 - child_s[sid]
            if name == "search.run_task":
                run_task_s.append(t1 - t0)
                run_task_wait += t1 - t0 - c
        c = self.counts
        return {
            "words.generate_prefixes.s": total["words.generate_prefixes"],
            "words.prefixes": c["prefixes"],
            "networks.unsorted_outputs.s": total["networks.unsorted_outputs"],
            "networks.unsorted_outputs.calls": calls["networks.unsorted_outputs"],
            "networks.is_sorting_network.s": total["networks.is_sorting_network"],
            "networks.is_sorting_network.calls": calls["networks.is_sorting_network"],
            "cardinality.build_atmost.s": total["cardinality.build_atmost"],
            "cardinality.build_atmost.cpu_s": cpu["cardinality.build_atmost"],
            "encoding.build_instance.s": total["encoding.build_instance"],
            "encoding.build_instance.cpu_s": cpu["encoding.build_instance"],
            "encoding.build_instance.calls": calls["encoding.build_instance"],
            "encoding.vars": c["vars"],
            "encoding.clauses": c["clauses"],
            "solving.emit_dimacs.s": total["solving.emit_dimacs"],
            "solving.emit_dimacs.cpu_s": cpu["solving.emit_dimacs"],
            "solving.dimacs_bytes": c["dimacs_bytes"],
            "solving.solve.self_s": self_s["solving.solve"],
            "solving.parse_solver_output.s": total["solving.parse_solver_output"],
            "solving.check_model.s": total["solving.check_model"],
            "solving.decode_network.s": total["solving.decode_network"],
            "solving.sat": c["SAT"],
            "solving.unsat": c["UNSAT"],
            "solving.unknown": c["UNKNOWN"],
            "search.run_task.p50_s": percentile(run_task_s, 50),
            "search.run_task.p90_s": percentile(run_task_s, 90),
            "search.run_task.calls": calls["search.run_task"],
            "search.run_task.self_s": self_s["search.run_task"],
            "search.run_task.wait_s": run_task_wait,
            "search.catalog_get.s": total["search.catalog_get"],
            "search.catalog_put.s": total["search.catalog_put"],
            "search.catalog_hits": c["catalog_hits"],
            "search.solve_calls": calls["solving.solve"],
        }


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def install(tracer: Tracer) -> None:
    """Patch every traced public function where its callers look it up."""
    from sortnetsat import cardinality, cli, encoding, search, solving, words

    count = tracer.counts

    def on_prefixes(ps):
        count["prefixes"] += len(ps)

    def on_instance(result):
        formula, _vm = result
        count["vars"] += formula.num_vars
        count["clauses"] += len(formula.clauses)

    def on_dimacs(text):
        count["dimacs_bytes"] += len(text)
        tracer.dimacs_digests.append(hashlib.sha256(text.encode()).hexdigest())

    def on_outcome(outcome):
        count[outcome.status] += 1

    def on_get(hit):
        count["catalog_hits"] += hit is not None

    gen = tracer.wrap(words.generate_prefixes, "words.generate_prefixes", on_prefixes)
    words.generate_prefixes = search.generate_prefixes = gen
    encoding.unsorted_outputs = tracer.wrap(
        encoding.unsorted_outputs, "networks.unsorted_outputs"
    )
    cardinality.build_atmost = tracer.wrap(
        cardinality.build_atmost, "cardinality.build_atmost"
    )
    search.build_instance = tracer.wrap(
        search.build_instance, "encoding.build_instance", on_instance
    )
    search.decode_network = tracer.wrap(search.decode_network, "solving.decode_network")
    search.is_sorting_network = tracer.wrap(
        search.is_sorting_network, "networks.is_sorting_network"
    )
    solving.emit_dimacs = tracer.wrap(solving.emit_dimacs, "solving.emit_dimacs", on_dimacs)
    solving.parse_solver_output = tracer.wrap(
        solving.parse_solver_output, "solving.parse_solver_output"
    )
    solving.check_model = tracer.wrap(solving.check_model, "solving.check_model")
    catalog = search.ResultCatalog
    catalog.get = tracer.wrap(catalog.get, "search.catalog_get", on_get)
    catalog.put = tracer.wrap(catalog.put, "search.catalog_put")

    # run_task binds solve_fn=solve when it is defined, so patching solving.solve
    # would miss it: the timed solve goes in through the public parameter
    plain_solve = solving.solve
    timed_solve = tracer.wrap(plain_solve, "solving.solve", on_outcome)
    plain_run_task = search.run_task

    @functools.wraps(plain_run_task)
    def run_task(task, catalog=None, solve_fn=plain_solve):
        if solve_fn is plain_solve:
            solve_fn = timed_solve
        with tracer.span("search.run_task", new_task=True):
            return plain_run_task(task, catalog, solve_fn)

    search.run_task = cli.run_task = run_task
