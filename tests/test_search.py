import json
import multiprocessing
import os
import threading
import warnings
from pathlib import Path

import pytest

from sortnetsat import csolver
from sortnetsat.catalog import ResultCatalog, SearchResult
from sortnetsat.encoding import ENCODER_VERSION, EncodeOptions, build_instance
from sortnetsat.networks import Network, is_sorting_network
from sortnetsat.search import OptimalityClaim, SearchTask, optimize, run_level, run_task
from sortnetsat.solving import SAT, UNKNOWN, UNSAT, SolveOutcome, SolverConfig, solve
from sortnetsat.words import format_sentence, generate_prefixes, parse_sentence


class CountingSolver:
    """Counts its calls in a file, one line per call holding the caller's
    pid, so that the calls made in the level runner's worker processes count
    too."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.write_text("")

    @property
    def calls(self):
        return len(self.path.read_text().splitlines())

    def __call__(self, formula, config):
        with self.path.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return solve(formula, config)


class AlwaysUnknown:
    def __call__(self, formula, config):
        return SolveOutcome(UNKNOWN, None, "stub")


class EmptyNetworkLiar:
    """Claims SAT with the all-false model, which decodes to a network with no
    comparators."""

    def __call__(self, formula, config):
        model = {v: False for v in range(1, formula.num_vars + 1)}
        return SolveOutcome(SAT, model, "liar")


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


STAGES = {"encode_s", "solve_s", "emit_s", "solver_s", "check_s", "verify_s"}


def test_solved_record_keeps_stage_timings(tmp_path, builtin_cfg):
    path = tmp_path / "cat.jsonl"
    task = SearchTask(3, 3, 3, config=builtin_cfg)
    res = run_task(task, ResultCatalog(path))
    rec = json.loads(path.read_text())
    for timings in (res.timings, rec["timings"], ResultCatalog(path).get(task).timings):
        assert set(timings) == STAGES
        assert all(v >= 0 for v in timings.values())
    assert res.timings["emit_s"] == 0.0  # the builtin solver reads no DIMACS
    assert res.stats == {} and rec["stats"] == {}


def test_bundled_solver_record_splits_the_solve_and_keeps_counters(tmp_path, external_cfg):
    path = tmp_path / "cat.jsonl"
    task = SearchTask(4, 3, 5, config=external_cfg)
    res = run_task(task, ResultCatalog(path))
    assert res.status == SAT and set(res.timings) == STAGES
    parts = [res.timings[k] for k in ("emit_s", "solver_s", "check_s")]
    assert all(t > 0 for t in parts) and sum(parts) <= res.timings["solve_s"]
    assert set(res.stats) == {"conflicts", "decisions", "propagations", "learnts", "restarts"}
    assert res.stats["propagations"] > 0
    rec = json.loads(path.read_text())
    assert rec["stats"] == res.stats and set(rec["timings"]) == STAGES
    assert ResultCatalog(path).get(task).stats == res.stats
    # the record names the solver by the binary's file name, not its host path
    assert rec["solver"] == res.solver == Path(csolver.binary_path()).name
    assert rec["solver"].startswith("minicdcl-") and "/" not in rec["solver"]


def test_record_without_timings_loads():
    rec = SearchResult(2, 1, 1, None, "k", UNSAT, None).record()
    del rec["timings"], rec["stats"]
    res = SearchResult.from_record(rec)
    assert res.timings == {} and res.stats == {}


def test_catalog_skips_corrupt_lines(tmp_path):
    path = tmp_path / "cat.jsonl"
    rec = SearchResult(2, 1, 1, None, "k", UNSAT, None).record()
    bad_layers = rec | {"status": SAT, "network": {"n": 2, "layers": 5}}
    mistyped = [{"prefix": 5}, {"prefix": [1]}, {"prefix": "(21)"}, {"d": None}, {"s": True},
                {"options": 3}, {"solver": None}, {"status": "MAYBE"}, {"implied_by": [1]},
                {"timings": 5}, {"timings": {"solve_s": "1"}}, {"stats": [1]},
                {"stats": {"conflicts": 1.5}}, {"stats": {"conflicts": True}}]
    lines = ["this is not json", json.dumps(rec), '{"n": 1}', "[1, 2]", "null", "42",
             json.dumps(bad_layers), *(json.dumps(rec | field) for field in mistyped)]
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.warns(UserWarning, match="skipping corrupt record") as caught:
        cat = ResultCatalog(path)
    assert len(caught) == len(lines) - 1
    assert len(cat._index) == 1


def _append_records(path, offset, count):
    catalog = ResultCatalog(path)
    for s in range(offset, offset + count):
        # longer than a pipe buffer or a stdio buffer, so that a split write shows
        catalog.put(SearchResult(2, 1, s, None, "k", UNSAT, None, "x" * 9000))


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
    loaded = [res.s for records in catalog._index.values() for res in records]
    assert sorted(loaded) == list(range(600))


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


@pytest.mark.parametrize(
    "mode, bound, levels, note",
    [
        ("min_size_given_depth", {"depth": 3}, [(3, 3)], "UNKNOWN at s=3; bound not proven"),
        # the climb goes on past an UNKNOWN level, and stops at d = size
        ("min_depth_given_size", {"size": 3}, [(1, 1), (2, 2), (3, 3)], "UNKNOWN at d=3"),
        ("pareto", {}, [(1, 1)], "depth 1: UNKNOWN at s=1; bound not proven"),
    ],
    ids=["min-size", "min-depth", "pareto"],
)
def test_unknown_is_never_evidence(builtin_cfg, catalog, tmp_path, mode, bound, levels, note):
    claim = optimize(
        3, mode, **bound,
        config=builtin_cfg, catalog=catalog, solve_fn=AlwaysUnknown(),
    )
    assert not claim.proven
    assert claim.value is None and claim.note == note
    # and the unknowns were recorded but will not satisfy future lookups
    assert all(r.status == UNKNOWN for r in claim.evidence)
    task = SearchTask(3, *levels[-1], config=builtin_cfg)
    records = [json.loads(line) for line in catalog.path.read_text().splitlines()]
    assert [(r["d"], r["s"], r["status"]) for r in records] == [
        (d, s, UNKNOWN) for d, s in levels
    ]
    assert catalog.get(task) is None
    assert ResultCatalog(catalog.path).get(task) is None
    counter = CountingSolver(tmp_path / "calls")
    run_task(task, catalog, counter)
    assert counter.calls == 1  # UNKNOWN cache entries get re-solved


def test_optimize_pareto_small(builtin_cfg):
    claim = optimize(4, "pareto", config=builtin_cfg)
    assert claim.proven
    assert "(d=3, s=5)" in claim.note
    assert all(r.network.trimmed().depth <= 3 and r.network.size <= 5
               for r in claim.witnesses[:1])


def test_optimize_min_size_given_depth(builtin_cfg):
    claim = optimize(3, "min_size_given_depth", depth=3, config=builtin_cfg)
    assert claim.proven and claim.value == 3


def test_optimize_min_depth_given_size(builtin_cfg):
    claim = optimize(4, "min_depth_given_size", size=5, config=builtin_cfg)
    assert claim.proven and claim.value == 3


@pytest.mark.parametrize(
    "n, mode, bound, note, value",
    [
        (4, "pareto", {}, "frontier (d=3, s=5)", 5),
        (4, "min_depth_given_size", {"size": 5}, "", 3),
        (2, "pareto", {}, "frontier (d=1, s=1)", 1),
        (3, "pareto", {}, "frontier (d=3, s=3)", 3),
    ],
    ids=["pareto-4", "min-depth-4", "pareto-2", "pareto-3"],
)
def test_prefixed_claims_run_shallow_levels_without_prefixes(builtin_cfg, n, mode, bound,
                                                             note, value):
    # a prefix pins two layers: depth-1 levels, and every level at n=2 where
    # T' is empty, run without one
    claim = optimize(n, mode, config=builtin_cfg, prefixes="tprime", **bound)
    assert claim.proven and claim.value == value and claim.note == note
    assert all(r.prefix is None for r in claim.evidence if r.d < 2)
    # the witnesses are the SAT results, each with the prefix it extends
    assert claim.witnesses
    for r in claim.witnesses:
        assert r.status == SAT and is_sorting_network(r.network)
        assert (r.prefix is None) == (n == 2)


@pytest.mark.parametrize(
    "n, prefixes, cfg, calls",
    [(4, "auto", "builtin_cfg", 6), (5, "none", "external_cfg", 7)],
)
def test_pareto_solver_calls(request, tmp_path, n, prefixes, cfg, calls):
    # an infeasible depth costs one solve, the first level of its descent
    counter = CountingSolver(tmp_path / "calls")
    config = request.getfixturevalue(cfg)
    claim = optimize(n, "pareto", config=config, prefixes=prefixes, solve_fn=counter)
    assert claim.proven and counter.calls == calls


@pytest.mark.parametrize(
    "n, d, jobs, calls, value, witnesses",
    [
        # 14 solves at s=18, 17 at s=16 (16 at --jobs 1), 8 at s=15 (the
        # catalog refutes the other 28 prefixes from above), then the 6 (7)
        # that complete s=16
        (7, 6, 1, 45, 16, ["(012,1221c)", "(012,2112)", "(0122112)"]),
        (7, 6, 2, 45, 16, ["(012,1221c)", "(012,2112)", "(0122112)"]),
        # two levels whose smallest witness has exactly s comparators, s=13
        # and the optimal s=12: each stops at its first SAT batch, and only
        # s=12 is completed, after s=11 is refuted
        (6, 7, 2, 50, 12, [
            "(0,0,0,012)", "(0,0,0120)", "(0,0,1212)", "(0,0,1221)", "(0,0,1221c)", "(0,012,12)",
            "(0,01221)", "(012,012)", "(012,021)", "(0120,12)", "(012210)", "(12,1212)",
            "(12,1221)", "(12,1221c)", "(121221)", "(121221c)", "(122112)"]),
    ],
    ids=["7-d6-jobs1", "7-d6-jobs2", "6-d7-jobs2"],
)
def test_prefixed_descent_solver_calls(external_cfg, tmp_path, n, d, jobs, calls, value,
                                       witnesses):
    counter = CountingSolver(tmp_path / "calls")
    catalog = ResultCatalog(tmp_path / "catalog.jsonl")
    claim = optimize(n, "min_size_given_depth", depth=d, config=external_cfg,
                     prefixes="tprime", catalog=catalog, solve_fn=counter, jobs=jobs)
    assert claim.summary() == f"n={n} min_size_given_depth({d}) = {value} [proven]"
    assert counter.calls == calls
    assert [format_sentence(r.prefix) for r in claim.witnesses] == witnesses
    records = [json.loads(line) for line in catalog.path.read_text().splitlines()]
    below = [r["status"] for r in records if (r["d"], r["s"]) == (d, value - 1)]
    assert below == [UNSAT] * len(generate_prefixes(n, "T'").sentences)


class FailingSolver:
    def __call__(self, formula, config):
        raise RuntimeError("solver failed")


def test_optimize_runs_every_level_in_one_pool_and_reaps_it(builtin_cfg, tmp_path):
    for jobs in (1, 2):
        counter = CountingSolver(tmp_path / f"calls{jobs}")
        claim = optimize(4, "min_size_given_depth", depth=3, config=builtin_cfg,
                         prefixes="tprime", solve_fn=counter, jobs=jobs)
        assert claim.proven and len({r.s for r in claim.evidence}) > 1
        assert 1 <= len(set(counter.path.read_text().split())) <= jobs
        assert multiprocessing.active_children() == []
    with pytest.raises(RuntimeError, match="solver failed"):
        optimize(4, "pareto", config=builtin_cfg, prefixes="tprime", solve_fn=FailingSolver(),
                 jobs=2)
    assert multiprocessing.active_children() == []
    # a level run on its own opens its own pool and closes it
    run_level(4, 3, 5, None, config=builtin_cfg, jobs=2)
    assert multiprocessing.active_children() == []
    with pytest.raises(RuntimeError, match="solver failed"):
        run_level(4, 3, 5, None, config=builtin_cfg, solve_fn=FailingSolver(), jobs=2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "mode, bound, note, calls",
    [
        ("min_size_given_depth", {"depth": 2}, "no sorting network", 1),
        # a network with 4 comparators has at most 4 layers: UNSAT at
        # d = 1 ... 4 proves that there is none
        ("min_depth_given_size", {"size": 4}, "no network with 4 comparators", 4),
    ],
    ids=["size-at-depth-2", "depth-at-size-4"],
)
def test_optimize_infeasible_depth(builtin_cfg, tmp_path, mode, bound, note, calls):
    counter = CountingSolver(tmp_path / "calls")
    claim = optimize(4, mode, **bound, config=builtin_cfg, solve_fn=counter)
    assert claim.proven and claim.value is None
    assert note in claim.note
    assert counter.calls == calls


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
    assert all(r.network.size == claim.value for r in claim.witnesses)


def test_level_runs_refuse_fewer_than_one_job(builtin_cfg, catalog):
    with pytest.raises(ValueError, match="jobs must be at least 1, got 0"):
        run_level(4, 3, 5, None, config=builtin_cfg, catalog=catalog, jobs=0)
    with pytest.raises(ValueError, match="jobs must be at least 1, got 0"):
        optimize(4, "min_size_given_depth", depth=3, config=builtin_cfg, catalog=catalog,
                 jobs=0)
    # and the other arguments that optimize cannot run with
    for n, mode, bound, message in [
        (1, "pareto", {}, "need n >= 2"),
        (4, "min_size_given_depth", {}, "min_size_given_depth needs depth="),
        (4, "min_depth_given_size", {}, "min_depth_given_size needs size="),
        (4, "min_size_given_depth", {"depth": 0}, "depth must be at least 1, got 0"),
        (4, "size", {}, "unknown mode 'size'"),
        (4, "pareto", {"prefixes": "tprim"}, "unknown prefixes 'tprim'"),
    ]:
        with pytest.raises(ValueError, match=message):
            optimize(n, mode, **bound, config=builtin_cfg, catalog=catalog)
    assert not catalog.path.exists()  # nothing was solved


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
    assert all(reloaded.get(SearchTask(4, 3, 6, EncodeOptions().with_prefix(p), builtin_cfg))
               is None for p in prefixes)


class OversizedSorter:
    """Claims SAT with a model that decodes to the 5-comparator SORTER_4."""

    def __call__(self, formula, config):
        _, vm = build_instance(4, 3, 4)
        model = {v: False for v in range(1, formula.num_vars + 1)}
        for k, layer in enumerate(SORTER_4.layers, 1):
            model.update((vm.g(k, i, j), True) for i, j in layer)
        return SolveOutcome(SAT, model, "liar")


def test_fresh_witness_over_the_size_bound_raises_and_writes_nothing(catalog):
    with pytest.raises(RuntimeError, match="does not fit"):
        run_task(SearchTask(4, 3, 4), catalog, OversizedSorter())
    assert not catalog.path.exists()


def test_level_catalog_holds_one_line_per_solved_task_in_task_order(builtin_cfg, catalog):
    prefixes = generate_prefixes(4, "T'").sentences
    out = run_level(4, 3, 5, prefixes, config=builtin_cfg, catalog=catalog,
                    jobs=2, stop_on_sat=False)
    assert len(out.results) == len(prefixes)
    records = [json.loads(line) for line in catalog.path.read_text().splitlines()]
    assert [r["prefix"] for r in records] == [format_sentence(p) for p in prefixes]
    assert [r["status"] for r in records] == [r.status for r in out.results]
    assert all(set(r["timings"]) == STAGES for r in records)
    # a task built by hand for one prefix reads the record the level wrote for it
    reloaded = ResultCatalog(catalog.path)
    for p, res in zip(prefixes, out.results):
        assert catalog.get(SearchTask(4, 3, 5, EncodeOptions().with_prefix(p))) is res
        parsed = EncodeOptions().with_prefix(parse_sentence(format_sentence(p)))
        assert reloaded.get(SearchTask(4, 3, 5, parsed)).status == res.status


def test_claim_summary_format():
    claim = OptimalityClaim(10, "min_size_given_depth", 7, 31, True)
    assert "n=10" in claim.summary() and "31" in claim.summary()
    assert "proven" in claim.summary()


# a 4-channel sorting network of depth 3 and size 5, the (4,3,5) optimum
SORTER_4 = Network.make(4, [[(1, 2), (3, 4)], [(1, 3), (2, 4)], [(2, 3)]])
# the same comparators one layer deeper
DEEP_SORTER_4 = Network.make(4, [[(1, 2), (3, 4)], [(1, 3)], [(2, 4)], [(2, 3)]])
SORTER_3 = Network.make(3, [[(1, 2)], [(2, 3)], [(1, 2)]])
P0, P1, P2, P3 = generate_prefixes(4, "T'").sentences[:4]


def _task(d, s, prefix=P0, config=None):
    return SearchTask(4, d, s, EncodeOptions().with_prefix(prefix), config or SolverConfig())


def _record(d, s, status=UNSAT, network=None, prefix=P0, key=None):
    key = key or EncodeOptions().with_prefix(prefix).key()
    return SearchResult(4, d, s, prefix, key, status, network, "hand")


def _memory_catalog(*records):
    catalog = ResultCatalog(None)
    for rec in records:
        catalog.put(rec)
    return catalog


def _file_catalog(path, *records):
    path.write_text("".join(json.dumps(rec.record()) + "\n" for rec in records))
    return path


def _check_misfiled_sat_hit(config, tmp_path, record, task, status):
    """In memory ``record`` settles nothing; in a file it is skipped at load.
    Either way ``task`` is solved once, to ``status``."""
    path = _file_catalog(tmp_path / "cat.jsonl", record)
    with pytest.warns(UserWarning, match="skipping corrupt record.*does not fit"):
        loaded = ResultCatalog(path)
    task = SearchTask(*task, config=config)
    for catalog in (_memory_catalog(record), loaded):
        counter = CountingSolver(tmp_path / "calls")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_task(task, catalog, counter)
        assert counter.calls == 1 and res.status == status and res.implied_by is None
        assert catalog.get(task) is res  # the new answer settles the next lookup
    return res


def test_catalog_sat_hit_is_checked_against_the_task_bounds(builtin_cfg, tmp_path):
    # a valid 5-comparator sorter filed as the answer to (4,3,4)
    _check_misfiled_sat_hit(builtin_cfg, tmp_path, _record(3, 4, SAT, SORTER_4, prefix=None),
                            (4, 3, 4), UNSAT)


def test_catalog_sat_hit_is_checked_against_the_task_channels(builtin_cfg, tmp_path):
    # a 3-channel sorter fits the bounds of (4,3,5) but sorts too few channels
    res = _check_misfiled_sat_hit(builtin_cfg, tmp_path,
                                  _record(3, 5, SAT, SORTER_3, prefix=None), (4, 3, 5), SAT)
    assert res.network.n == 4


def test_catalog_sat_record_that_does_not_sort_is_skipped_at_load(builtin_cfg, tmp_path):
    # two layers of SORTER_4 fit (4,3,5) but leave channels 2 and 3 unsorted
    broken = Network(4, SORTER_4.layers[:2])
    path = _file_catalog(tmp_path / "cat.jsonl", _record(3, 5, SAT, broken, prefix=None))
    with pytest.warns(UserWarning, match="skipping corrupt record.*does not sort"):
        catalog = ResultCatalog(path)
    counter = CountingSolver(tmp_path / "calls")
    res = run_task(SearchTask(4, 3, 5, config=builtin_cfg), catalog, counter)
    assert counter.calls == 1 and res.status == SAT and is_sorting_network(res.network)


def test_optimize_without_a_catalog_reuses_its_own_answers(builtin_cfg, tmp_path):
    calls = []
    for catalog in (None, ResultCatalog(tmp_path / "cat.jsonl")):
        counter = CountingSolver(tmp_path / "calls")
        claim = optimize(4, "min_size_given_depth", depth=3, config=builtin_cfg,
                         prefixes="tprime", catalog=catalog, solve_fn=counter)
        assert claim.proven and claim.value == 5
        calls.append(counter.calls)
    assert calls[0] == calls[1]


def test_dominating_unsat_answers_once_and_is_recorded(catalog, tmp_path):
    catalog.put(_record(4, 6))
    counter = CountingSolver(tmp_path / "calls")
    task = _task(3, 4)
    res = run_task(task, catalog, counter)
    assert counter.calls == 0
    assert (res.d, res.s, res.status, res.implied_by) == (3, 4, UNSAT, (4, 6))
    assert res.timings == {}
    assert run_task(task, catalog, counter) is res  # the exact record now
    reloaded = ResultCatalog(catalog.path).get(task)
    assert (reloaded.d, reloaded.s, reloaded.implied_by) == (3, 4, (4, 6))
    assert len(catalog.path.read_text().splitlines()) == 2


@pytest.mark.parametrize(
    "record, task",
    [
        (_record(5, 9, UNKNOWN), _task(3, 4)),
        (_record(4, 3), _task(3, 4)),  # UNSAT at a smaller s
        (_record(2, 9), _task(3, 4)),  # UNSAT at a smaller d
        (_record(3, 5, SAT, SORTER_4, prefix=None), _task(3, 4, prefix=None)),
        (_record(4, 5, SAT, DEEP_SORTER_4, prefix=None), _task(3, 6, prefix=None)),
        (_record(5, 9, key=EncodeOptions(sigma1=False).with_prefix(P0).key()), _task(3, 4)),
        (_record(5, 9, prefix=P1), _task(3, 4)),
        (_record(5, 9, key=EncodeOptions().with_prefix(P0).key().replace(
            f"encoder={ENCODER_VERSION},", f"encoder={ENCODER_VERSION - 1},")), _task(3, 4)),
    ],
    ids=["unknown", "smaller-s", "smaller-d", "witness-too-large", "witness-too-deep",
         "other-options", "other-prefix", "other-encoder"],
)
def test_records_that_do_not_settle_a_task(record, task):
    assert _memory_catalog(record).get(task) is None


def test_derived_answer_carries_the_hit_network_unchanged():
    hit = _record(3, 5, SAT, SORTER_4, prefix=None)
    res = _memory_catalog(hit).get(_task(5, 7, prefix=None))
    assert (res.status, res.implied_by) == (SAT, (3, 5))
    assert res.network is hit.network


def test_padded_witness_in_an_older_catalog_loads_trimmed_and_settles(tmp_path):
    # older catalogs wrote witnesses padded with empty layers to the task's d
    padded = Network(4, SORTER_4.layers + ((), ()))
    path = _file_catalog(tmp_path / "cat.jsonl", _record(5, 9, SAT, padded, prefix=None))
    catalog = ResultCatalog(path)
    counter = CountingSolver(tmp_path / "calls")
    own = run_task(_task(5, 9, prefix=None), catalog, counter)
    assert (own.status, own.implied_by, own.network) == (SAT, None, SORTER_4)
    derived = run_task(_task(3, 5, prefix=None), catalog, counter)
    assert (derived.status, derived.implied_by, derived.network) == (SAT, (5, 9), SORTER_4)
    assert counter.calls == 0


def test_first_settling_record_in_catalog_order_wins():
    deep, wide = _record(4, 6), _record(3, 5)
    assert _memory_catalog(deep, wide).get(_task(3, 4)).implied_by == (4, 6)
    assert _memory_catalog(wide, deep).get(_task(3, 4)).implied_by == (3, 5)
    own = _record(3, 4)
    assert _memory_catalog(deep, own).get(_task(3, 4)) is own


def test_records_with_and_without_implied_by_survive_a_reload(catalog, tmp_path):
    solved = _record(4, 6)
    catalog.put(solved)
    derived = catalog.get(_task(3, 4))
    catalog.put(derived)
    old = _record(4, 6, prefix=P1).record()
    del old["implied_by"]
    # records as older catalogs wrote them, with the solve time also kept on
    # its own: next to the timings, and from before the timings were kept
    timings = {"encode_s": 0.1, "solve_s": 0.25, "verify_s": 0.0}
    timed = _record(4, 6, prefix=P2).record() | {"wall_time": 0.25, "timings": timings}
    untimed = _record(4, 6, prefix=P3).record() | {"wall_time": 0.25}
    del untimed["timings"], untimed["implied_by"]
    with catalog.path.open("a") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in (old, timed, untimed))
    lines = catalog.path.read_text()
    reloaded = ResultCatalog(catalog.path)
    assert [r.implied_by for r in reloaded._index[(4, solved.options_key)]] == [None, (4, 6)]
    assert reloaded.get(_task(4, 6, prefix=P1)).implied_by is None
    counter = CountingSolver(tmp_path / "calls")
    for prefix, kept in ((P2, timings), (P3, {})):
        res = run_task(_task(4, 6, prefix), reloaded, counter)
        assert (res.status, res.implied_by, res.timings) == (UNSAT, None, kept)
        assert "wall_time" not in res.record()
    assert counter.calls == 0 and catalog.path.read_text() == lines  # reused as they are


def test_derived_answers_match_direct_solves(builtin_cfg):
    """Every level of a sweep over T'_4, answered from one catalog where it
    can be, gives the statuses of solving each task on its own."""
    prefixes = generate_prefixes(4, "T'").sentences
    catalog = ResultCatalog(None)
    derived = 0
    for d, s in [(4, 6), (3, 6), (4, 5), (3, 5), (3, 4), (2, 6), (2, 4), (4, 4)]:
        out = run_level(4, d, s, prefixes, config=builtin_cfg, catalog=catalog,
                        stop_on_sat=False)
        for res in out.results:
            direct = run_task(SearchTask(4, d, s, EncodeOptions().with_prefix(res.prefix),
                                         builtin_cfg))
            assert res.status == direct.status, (d, s, res.prefix, res.implied_by)
            derived += res.implied_by is not None
            if res.status == SAT:
                assert res.network.depth <= d and res.network.size <= s
    assert derived > 0
