import json
import multiprocessing
import threading
import warnings
from pathlib import Path

import pytest

from sortnetsat.encoding import EncodeOptions
from sortnetsat.networks import Network
from sortnetsat.search import (
    OptimalityClaim,
    ResultCatalog,
    SearchResult,
    SearchTask,
    optimize,
    run_level,
    run_task,
)
from sortnetsat.solving import SAT, UNKNOWN, UNSAT, SolveOutcome, SolverConfig, solve
from sortnetsat.words import format_sentence, generate_prefixes


class CountingSolver:
    """Counts its calls in a file, one line per call, so that the calls made
    in the level runner's worker processes count too."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.write_text("")

    @property
    def calls(self):
        return len(self.path.read_text().splitlines())

    def __call__(self, formula, config):
        with self.path.open("a") as fh:
            fh.write("call\n")
        return solve(formula, config)


class AlwaysUnknown:
    def __call__(self, formula, config):
        return SolveOutcome(UNKNOWN, None, "stub", 0.0)


class EmptyNetworkLiar:
    """Claims SAT with the all-false model, which decodes to a network with no
    comparators."""

    def __call__(self, formula, config):
        model = {v: False for v in range(1, formula.num_vars + 1)}
        return SolveOutcome(SAT, model, "liar", 0.0)


@pytest.fixture
def catalog(tmp_path):
    return ResultCatalog(tmp_path / "catalog.jsonl")


def test_run_task_round_trip(builtin_cfg, catalog):
    task = SearchTask(2, 1, 1, config=builtin_cfg)
    res = run_task(task, catalog)
    assert res.status == SAT and res.network is not None
    again = catalog.get(task)
    assert again is not None and again.network == res.network


def test_catalog_persists_and_reloads(tmp_path, builtin_cfg):
    path = tmp_path / "cat.jsonl"
    task = SearchTask(3, 3, 3, config=builtin_cfg)
    first = run_task(task, ResultCatalog(path))
    reloaded = ResultCatalog(path).get(task)
    assert reloaded is not None and reloaded.status == first.status
    assert reloaded.network == first.network


def test_solved_record_keeps_stage_timings(tmp_path, builtin_cfg):
    path = tmp_path / "cat.jsonl"
    task = SearchTask(3, 3, 3, config=builtin_cfg)
    res = run_task(task, ResultCatalog(path))
    rec = json.loads(path.read_text())
    for timings in (res.timings, rec["timings"], ResultCatalog(path).get(task).timings):
        assert set(timings) == {"encode_s", "solve_s", "verify_s"}
        assert all(v >= 0 for v in timings.values())


def test_record_without_timings_loads():
    rec = SearchResult(2, 1, 1, None, "k", UNSAT, None, 0.1).record()
    del rec["timings"]
    assert SearchResult.from_record(rec).timings == {}


def test_catalog_skips_corrupt_lines(tmp_path):
    path = tmp_path / "cat.jsonl"
    rec = SearchResult(2, 1, 1, None, "k", UNSAT, None, 0.1).record()
    path.write_text("this is not json\n" + json.dumps(rec) + "\n{\"n\": 1}\n")
    with pytest.warns(UserWarning):
        cat = ResultCatalog(path)
    assert len(cat._index) == 1


def _append_records(path, offset, count):
    catalog = ResultCatalog(path)
    for s in range(offset, offset + count):
        # longer than a pipe buffer or a stdio buffer, so that a split write shows
        catalog.put(SearchResult(2, 1, s, None, "k", UNSAT, None, 0.1, "x" * 9000))


def test_two_processes_append_whole_records_to_one_catalog(tmp_path):
    path = tmp_path / "cat.jsonl"
    ctx = multiprocessing.get_context("fork")
    writers = [ctx.Process(target=_append_records, args=(path, k * 300, 300)) for k in (0, 1)]
    for w in writers:
        w.start()
    for w in writers:
        w.join()
    assert [w.exitcode for w in writers] == [0, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        catalog = ResultCatalog(path)
    assert len(path.read_text().splitlines()) == 600
    assert {res.s for res in catalog._index.values()} == set(range(600))


def test_warm_catalog_skips_solver_calls(builtin_cfg, catalog, tmp_path):
    counter = CountingSolver(tmp_path / "calls")
    claim = optimize(
        4, "pareto", config=builtin_cfg, catalog=catalog, solve_fn=counter
    )
    assert claim.proven
    warm_calls = counter.calls
    assert warm_calls > 0
    claim2 = optimize(
        4, "pareto", config=builtin_cfg, catalog=catalog, solve_fn=counter
    )
    assert counter.calls == warm_calls  # every instance answered from the catalog
    assert claim2.proven and claim2.note == claim.note


def test_unknown_is_never_evidence(builtin_cfg, catalog, tmp_path):
    claim = optimize(
        3, "min_size_given_depth", depth=3,
        config=builtin_cfg, catalog=catalog, solve_fn=AlwaysUnknown(),
    )
    assert not claim.proven
    assert claim.value is None
    # and the unknowns were recorded but will not satisfy future lookups
    assert all(r.status == UNKNOWN for r in claim.evidence)
    task = SearchTask(3, 3, 3, config=builtin_cfg)
    hit = catalog.get(task)
    assert hit is not None and hit.status == UNKNOWN
    counter = CountingSolver(tmp_path / "calls")
    run_task(task, catalog, counter)
    assert counter.calls == 1  # UNKNOWN cache entries get re-solved


def test_optimize_pareto_small(builtin_cfg):
    claim = optimize(4, "pareto", config=builtin_cfg)
    assert claim.proven
    assert "(d=3, s=5)" in claim.note
    assert all(net.trimmed().depth <= 3 and net.size <= 5 for net in claim.witnesses[:1])


def test_optimize_min_size_given_depth(builtin_cfg):
    claim = optimize(3, "min_size_given_depth", depth=3, config=builtin_cfg)
    assert claim.proven and claim.value == 3


def test_optimize_min_depth_given_size(builtin_cfg):
    claim = optimize(4, "min_depth_given_size", size=5, config=builtin_cfg)
    assert claim.proven and claim.value == 3


def test_optimize_infeasible_depth(builtin_cfg):
    claim = optimize(4, "min_size_given_depth", depth=2, config=builtin_cfg)
    assert claim.proven and claim.value is None
    assert "no sorting network" in claim.note


def test_prefixed_level_uses_all_prefixes(builtin_cfg, catalog):
    # at n=4 the T' set has 6 prefixes; UNSAT needs every one of them
    claim = optimize(
        4, "min_size_given_depth", depth=3,
        config=builtin_cfg, prefixes="tprime", catalog=catalog,
    )
    assert claim.proven and claim.value == 5
    unsat_prefixes = {r.prefix for r in claim.evidence if r.status == UNSAT and r.s == 4}
    assert len(unsat_prefixes) == 6


@pytest.mark.parametrize("jobs", [1, 2])
def test_min_size_witnesses_are_optimal(builtin_cfg, jobs):
    claim = optimize(
        4, "min_size_given_depth", depth=3,
        config=builtin_cfg, prefixes="tprime", jobs=jobs,
    )
    assert claim.proven and claim.value == 5
    assert claim.witnesses
    assert all(net.size == claim.value for net in claim.witnesses)


def test_run_level_stops_after_the_batch_holding_the_first_sat(builtin_cfg, tmp_path):
    # over T'_4, (4, 3, 6) is first SAT at the fourth prefix, the end of the
    # second batch of two
    prefixes = generate_prefixes(4, "T'").sentences
    runs, seen, threads = [], [], set()

    def on_result(res):
        seen.append(res)
        threads.add(threading.current_thread())

    for run in range(2):
        counter = CountingSolver(tmp_path / f"calls{run}")
        out = run_level(4, 3, 6, prefixes, config=builtin_cfg, solve_fn=counter,
                        jobs=2, on_result=on_result)
        first_sat = [r.status for r in out.results].index(SAT)
        assert len(out.results) == (first_sat // 2 + 1) * 2 < len(prefixes)
        assert counter.calls == len(out.results)
        runs.append([r.prefix for r in out.results])
    assert runs[0] == runs[1]
    assert [r.prefix for r in seen] == runs[0] + runs[1]  # task order
    assert threads == {threading.current_thread()}


def test_worker_failure_raises_in_the_caller_and_writes_nothing(builtin_cfg, catalog):
    prefixes = generate_prefixes(4, "T'").sentences
    with pytest.raises(RuntimeError, match="does not sort"):
        run_level(4, 3, 6, prefixes, config=builtin_cfg, catalog=catalog,
                  solve_fn=EmptyNetworkLiar(), jobs=2, stop_on_sat=False)
    reloaded = ResultCatalog(catalog.path)
    assert all(reloaded.get(SearchTask(4, 3, 6, p, config=builtin_cfg)) is None
               for p in prefixes)


def test_level_catalog_holds_one_line_per_solved_task_in_task_order(builtin_cfg, catalog):
    prefixes = generate_prefixes(4, "T'").sentences
    out = run_level(4, 3, 5, prefixes, config=builtin_cfg, catalog=catalog,
                    jobs=2, stop_on_sat=False)
    assert len(out.results) == len(prefixes)
    records = [json.loads(line) for line in catalog.path.read_text().splitlines()]
    assert [r["prefix"] for r in records] == [format_sentence(p) for p in prefixes]
    assert [r["status"] for r in records] == [r.status for r in out.results]
    assert all(set(r["timings"]) == {"encode_s", "solve_s", "verify_s"} for r in records)


def test_claim_summary_format():
    claim = OptimalityClaim(10, "min_size_given_depth", 7, 31, True)
    assert "n=10" in claim.summary() and "31" in claim.summary()
    assert "proven" in claim.summary()
