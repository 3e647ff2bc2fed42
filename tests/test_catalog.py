"""The checks a catalog record passes at load, and the one check across
records: no indexed witness refutes an indexed UNSAT."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from sortnetsat.catalog import ResultCatalog, SearchResult
from sortnetsat.encoding import EncodeOptions, prefix_network
from sortnetsat.search import run_task
from sortnetsat.solving import SAT, UNSAT
from tests.test_search import (
    DEEP_SORTER_4,
    P0,
    P1,
    SORTER_4,
    CountingSolver,
    _file_catalog,
    _memory_catalog,
    _record,
    _task,
)

REPO = Path(__file__).resolve().parents[1]

# the real (4,3,5) optimum, and an UNSAT at (4,3,6) that it refutes
WITNESS = _record(3, 5, SAT, SORTER_4, prefix=None)
FORGED = _record(3, 6, prefix=None)


def _refuted(path, unsat_line, witness_line):
    return (f"{path}:{unsat_line}: UNSAT at (4,3,6) is refuted by the witness at "
            f"{path}:{witness_line}; ignored")


def _run_task_quietly(task, catalog, solve_fn):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_task(task, catalog, solve_fn)


@pytest.mark.parametrize("witness_first", [True, False], ids=["witness-first", "unsat-first"])
def test_a_witness_refutes_a_forged_unsat_in_either_load_order(tmp_path, witness_first):
    records = (WITNESS, FORGED) if witness_first else (FORGED, WITNESS)
    path = _file_catalog(tmp_path / "catalog.jsonl", *records)
    with pytest.warns(UserWarning) as caught:
        catalog = ResultCatalog(path)
    lines = (2, 1) if witness_first else (1, 2)
    assert [str(w.message) for w in caught] == [_refuted(path, *lines)]
    counter = CountingSolver(tmp_path / "calls")
    res = _run_task_quietly(_task(3, 6, prefix=None), catalog, counter)
    assert counter.calls == 0  # the witness answers; the forged UNSAT settles nothing
    assert (res.status, res.implied_by, res.network) == (SAT, (3, 5), SORTER_4)


def test_get_answers_the_refuted_bounds_from_the_witness():
    with pytest.warns(UserWarning, match="catalog:1: UNSAT at .4,3,6. is refuted by the "
                                         "witness at catalog:2; ignored"):
        catalog = _memory_catalog(FORGED, WITNESS)
    res = catalog.get(_task(3, 6, prefix=None))
    assert (res.status, res.implied_by, res.network) == (SAT, (3, 5), SORTER_4)
    # the UNSAT's smaller bounds are left open too, not settled by it
    assert catalog.get(_task(2, 6, prefix=None)) is None
    assert catalog._index[(4, FORGED.options_key)] == [WITNESS]


def test_a_fresh_witness_refutes_a_loaded_unsat(tmp_path):
    path = _file_catalog(tmp_path / "catalog.jsonl", FORGED)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        catalog = ResultCatalog(path)
    assert catalog.get(_task(3, 6, prefix=None)).status == UNSAT
    # the witness a solve of (4,4,5) may return: one layer shallower than
    # its task, which the UNSAT at (4,3,6) does not settle
    fresh = SearchResult(4, 4, 5, None, FORGED.options_key, SAT, SORTER_4, "hand")
    with pytest.warns(UserWarning) as caught:
        catalog.put(fresh)
    assert [str(w.message) for w in caught] == [_refuted(path, 1, 2)]
    assert catalog.get(_task(3, 6, prefix=None)).implied_by == (4, 5)
    with pytest.warns(UserWarning) as caught:
        reloaded = ResultCatalog(path)
    assert [str(w.message) for w in caught] == [_refuted(path, 1, 2)]
    assert reloaded.get(_task(3, 6, prefix=None)).implied_by == (4, 5)


@pytest.mark.parametrize(
    "witness, unsat",
    [
        (WITNESS, _record(3, 4, prefix=None)),  # (4,3,4) is UNSAT
        (_record(4, 5, SAT, DEEP_SORTER_4, prefix=None), FORGED),  # one layer too deep
    ],
    ids=["larger-size", "larger-depth"],
)
def test_a_witness_that_needs_larger_bounds_refutes_nothing(tmp_path, witness, unsat):
    path = _file_catalog(tmp_path / "catalog.jsonl", unsat, witness)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        catalogs = [ResultCatalog(path), _memory_catalog(witness, unsat)]
    for catalog in catalogs:
        assert catalog.get(_task(unsat.d, unsat.s, prefix=None)).status == UNSAT
        assert catalog.get(_task(witness.d, witness.s, prefix=None)).status == SAT
        assert len(catalog._index[(4, unsat.options_key)]) == 2


def test_a_prefixed_witness_that_does_not_extend_its_prefix_is_skipped(builtin_cfg, tmp_path):
    # a real 4-channel sorter filed under the prefix (0,012), whose first
    # two layers it does not have, at bounds that some extension of it fits
    path = _file_catalog(tmp_path / "catalog.jsonl", _record(5, 9, SAT, SORTER_4, prefix=P0))
    with pytest.warns(UserWarning, match=r"skipping corrupt record \(SAT witness does not "
                                         r"extend the prefix \(0,012\)\)"):
        catalog = ResultCatalog(path)
    counter = CountingSolver(tmp_path / "calls")
    res = _run_task_quietly(_task(5, 9, config=builtin_cfg), catalog, counter)
    assert counter.calls == 1 and res.status == SAT
    assert res.network.layers[:2] == prefix_network(P0, 4).layers
    with pytest.warns(UserWarning, match="catalog.jsonl:1: skipping corrupt record"):
        reloaded = ResultCatalog(path)
    assert reloaded.get(_task(5, 9)).network == res.network  # the solved record loads


@pytest.mark.parametrize("prefix, filed_under", [(P1, P0), (None, P0), (P0, None)],
                         ids=["other-prefix", "no-prefix", "unprefixed-key"])
def test_a_record_whose_prefix_differs_from_its_key_is_skipped(builtin_cfg, tmp_path, prefix,
                                                                filed_under):
    key = EncodeOptions().with_prefix(filed_under).key()
    path = _file_catalog(tmp_path / "catalog.jsonl", _record(3, 4, prefix=prefix, key=key))
    with pytest.warns(UserWarning, match="skipping corrupt record .the prefix differs from "
                                         "the options key's"):
        catalog = ResultCatalog(path)
    counter = CountingSolver(tmp_path / "calls")
    res = _run_task_quietly(_task(3, 4, prefix=filed_under, config=builtin_cfg), catalog, counter)
    assert counter.calls == 1 and res.status == UNSAT


BOUNDARY = """
import sys
import sortnetsat.catalog
assert "sortnetsat.search" not in sys.modules, "catalog imports search"
assert "concurrent.futures" not in sys.modules, "catalog imports the process pool"
import sortnetsat.search
assert sortnetsat.search.ResultCatalog is sortnetsat.catalog.ResultCatalog
"""

# a command's set-up, which perfbench's setup_s times: ``search._worker_pool``
# imports the process pool only when a level runs, so the set-up never loads it
SETUP = """
import sys
import sortnetsat.cli
sortnetsat.cli.default_config()
for name in ("concurrent.futures", "multiprocessing"):
    assert name not in sys.modules, f"the set-up imports {name}"
"""


@pytest.mark.parametrize("script", [BOUNDARY, SETUP], ids=["catalog", "cli-set-up"])
def test_the_catalog_imports_neither_the_search_nor_the_process_pool(script):
    proc = subprocess.run([sys.executable, "-c", script], cwd=REPO,
                          env={**os.environ, "PYTHONPATH": "src"},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
