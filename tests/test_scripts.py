import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sortnetsat.solving import SOLVER_ENV_VAR
from tests.test_acceptance import PREFIX_TABLE

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(monkeypatch, capsys, name: str, *argv: str) -> tuple[int, str]:
    path = SCRIPTS / name
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr("sys.argv", [str(path), *argv])
    rc = mod.main()
    return rc, capsys.readouterr().out


def test_prefix_table_checks_its_counts_by_enumeration(monkeypatch, capsys):
    rc, out = _run(monkeypatch, capsys, "prefix_table.py", "--max-n", "8", "--check")
    assert rc == 0
    rows = [line.replace(",", "").split() for line in out.splitlines()]
    table = {int(r[0]): tuple(map(int, r[1:])) for r in rows if r and r[0].isdigit()}
    assert table == {n: PREFIX_TABLE[n] for n in range(3, 9)}


def test_reproduce_small_optima_proves_the_frontiers(external_cfg, tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)  # the bundled solver
    rc, out = _run(monkeypatch, capsys, "reproduce_small_optima.py", "--max-n", "4",
                   "--catalog", str(tmp_path / "optima.jsonl"))
    assert rc == 0
    frontiers = re.findall(r"^(n=\d: frontier .*) \(\d+\.\ds\)$", out, re.M)
    assert frontiers == [
        "n=2: frontier (d=1, s=1) [proven]",
        "n=3: frontier (d=3, s=3) [proven]",
        "n=4: frontier (d=3, s=5) [proven]",
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--min-n", "1"), "--min-n must be at least 2, got 1"),
        (("--min-n", "5", "--max-n", "4"), "--max-n must be at least --min-n (5), got 4"),
        (("--timeout", "0"), "--timeout must be positive and finite, got 0"),
        (("--timeout", "nan"), "--timeout must be positive and finite, got nan"),
        (("--timeout", "inf"), "--timeout must be positive and finite, got inf"),
        (("--catalog", "."), "cannot write .: it is a directory"),
        (("--catalog", "nodir/optima.jsonl"),
         "cannot write nodir/optima.jsonl: no directory nodir"),
        (("SORTNETSAT_SOLVER=nosuchsolver", "--max-n", "3"),
         "SORTNETSAT_SOLVER='nosuchsolver' names no program that can be found"),
        (("SORTNETSAT_SOLVER= ", "--max-n", "3"),
         "SORTNETSAT_SOLVER=' ' names no program that can be found"),
    ],
    ids=["one-channel", "empty-range", "no-timeout", "nan-timeout", "infinite-timeout",
         "catalog-is-a-directory", "catalog-dir", "missing-solver", "blank-solver"],
)
def test_reproduce_small_optima_rejects_bad_arguments(tmp_path, monkeypatch, capsys, argv,
                                                      message):
    def unreachable(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.chdir(tmp_path)
    var, _, value = argv[0].partition("=")
    if var == SOLVER_ENV_VAR:  # a leading NAME=VALUE word sets it, as in a shell
        monkeypatch.setenv(var, value)
        argv = argv[1:]
    else:  # every other argument is checked before the solver is looked up
        monkeypatch.setattr("sortnetsat.solving.default_config", unreachable)
    monkeypatch.setattr("sortnetsat.search.optimize", unreachable)
    with pytest.raises(SystemExit) as exc:
        _run(monkeypatch, capsys, "reproduce_small_optima.py", *argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"reproduce_small_optima.py: error: {message}" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())  # no catalog was written


# the benchmark's traced run patches the program's functions by name
# (perfbench/layertrace.py), and its level workload patches theorem_scan's
# ``generate_prefixes`` and calls its ``main``; a rename breaks only that run
HOOKS = """
import importlib.util, sys
sys.path.insert(0, "perfbench")
import layertrace
layertrace.install(layertrace.Tracer())
spec = importlib.util.spec_from_file_location("theorem_scan", "scripts/theorem_scan.py")
scan = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scan)
assert callable(scan.generate_prefixes) and callable(scan.main)
# the benchmark refuses to measure unless its set-up probe reads "external"
from sortnetsat import csolver
from sortnetsat.solving import default_config
backend = default_config().backend
assert backend == ("external" if csolver.compiler() else "builtin"), backend
"""


def test_the_benchmark_hooks_find_every_name_they_patch():
    # without SORTNETSAT_SOLVER, as the benchmark runs
    env = {k: v for k, v in os.environ.items() if k != SOLVER_ENV_VAR}
    proc = subprocess.run([sys.executable, "-c", HOOKS], cwd=SCRIPTS.parent,
                          env={**env, "PYTHONPATH": "src"},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_reproduce_small_optima_reports_a_solver_that_is_not_one(tmp_path, monkeypatch,
                                                                 capsys):
    # ``true`` runs and exits 0, but prints no status line
    monkeypatch.setenv(SOLVER_ENV_VAR, "true")
    with pytest.raises(SystemExit) as exc:
        _run(monkeypatch, capsys, "reproduce_small_optima.py", "--max-n", "3",
             "--catalog", str(tmp_path / "optima.jsonl"))
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err == ("reproduce_small_optima.py: error: no 's' status line in solver output "
                   "(exit code 0, stderr: '')\n")
