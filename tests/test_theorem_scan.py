"""``sortnetsat scan N D S``: one (n, d, s) level over the complete prefix
set T'_n, the scan behind each of the paper's lower bounds."""

import json
import re
from pathlib import Path

import pytest

from sortnetsat.cli import main
from sortnetsat.solving import SOLVER_ENV_VAR
from sortnetsat.words import format_sentence, generate_prefixes

PROGRESS = re.compile(
    r"\[(\d+)/(\d+)\] (\S+): (SAT|UNSAT|UNKNOWN) "
    r"\((?:\d+\.\d+s|implied by d=(\d+) s=(\d+)|(from catalog)), eta \d+s\)"
)


def _scan(capsys, catalog: Path, level=("4", "3", "4"), *flags: str) -> tuple[int, str]:
    rc = main(["scan", *level, "--jobs", "2", "--catalog", str(catalog), *flags])
    return rc, capsys.readouterr().out


def _progress(out: str) -> list[re.Match]:
    lines = [line for line in out.splitlines() if line.startswith("[")]
    matches = [PROGRESS.fullmatch(line) for line in lines]
    assert all(matches), lines
    return matches


def _prefixes(lines: list[str]) -> list[str]:
    return [json.loads(line)["prefix"] for line in lines]


def test_theorem_scan_proves_a_level_and_resumes(external_cfg, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)  # the bundled solver
    catalog = tmp_path / "scan.jsonl"
    rc, out = _scan(capsys, catalog)
    assert rc == 0 and "verdict: UNSAT" in out
    expected = [format_sentence(p) for p in generate_prefixes(4, "T'").sentences]
    lines = catalog.read_text().splitlines()
    assert sorted(_prefixes(lines)) == sorted(expected)
    progress = _progress(out)
    assert [(int(m[1]), int(m[2])) for m in progress] == [
        (k, len(expected)) for k in range(1, len(expected) + 1)
    ]
    assert [m[3] for m in progress] == expected  # in prefix order

    # an interrupted scan: the last two records never reached the catalog
    catalog.write_text("".join(line + "\n" for line in lines[:-2]))
    rc, out = _scan(capsys, catalog)
    assert rc == 0 and "verdict: UNSAT" in out
    resumed = catalog.read_text().splitlines()
    assert len(resumed) == len(lines)  # only the two missing prefixes were solved
    assert sorted(_prefixes(resumed[-2:])) == sorted(_prefixes(lines[-2:]))
    progress = _progress(out)
    assert len(progress) == len(expected)
    reused = {m[3] for m in progress if m[7]}  # read back, not solved again
    assert reused == set(_prefixes(lines[:-2]))
    assert "0 implied by other records" in out


def test_theorem_scan_solves_only_what_a_larger_level_leaves_open(
    external_cfg, tmp_path, monkeypatch, capsys
):
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)  # the bundled solver
    catalog = tmp_path / "scan.jsonl"
    rc, out = _scan(capsys, catalog, ("4", "3", "5"))
    assert rc == 0 and "verdict: SAT" in out
    above = [json.loads(line) for line in catalog.read_text().splitlines()]
    witnesses = {r["prefix"] for r in above if r["status"] == "SAT"}
    assert witnesses and len(witnesses) < len(above)

    rc, out = _scan(capsys, catalog, ("4", "3", "4"))
    assert rc == 0 and "verdict: UNSAT" in out
    below = [json.loads(line) for line in catalog.read_text().splitlines()][len(above):]
    assert len(below) == len(above)
    solved = {r["prefix"] for r in below if r["implied_by"] is None}
    assert solved == witnesses  # only the prefixes that were SAT at s=5
    assert all(r["implied_by"] == [3, 5] and not r["timings"]
               for r in below if r["prefix"] not in witnesses)
    implied = [m for m in _progress(out) if m[5] is not None]
    assert sorted(m[3] for m in implied) == sorted(set(r["prefix"] for r in above) - witnesses)
    assert all((m[5], m[6], m[4]) == ("3", "5", "UNSAT") for m in implied)
    assert f"{len(implied)} implied by other records" in out


@pytest.mark.parametrize(
    "level, flags, message",
    [
        (("5", "1", "3"), (), "a prefix pins two layers, so d must be at least 2, got 1"),
        (("4", "3", "0"), (), "s must be positive, got 0"),
        (("2", "3", "1"), (), "T'_2 is empty: there is no prefix to scan"),
        (("0", "3", "1"), (), "n must be positive, got 0"),
        (("4", "3", "4"), ("--jobs", "0"), "--jobs must be at least 1, got 0"),
        (("4", "3", "4"), ("--timeout", "0"), "--timeout must be positive and finite, got 0"),
        (("4", "3", "4"), ("--timeout", "nan"), "--timeout must be positive and finite, got nan"),
        (("4", "3", "4"), ("--timeout", "inf"), "--timeout must be positive and finite, got inf"),
        (("4", "3", "4"), ("--catalog", "."), "cannot write .: it is a directory"),
        (("4", "3", "4"), ("--catalog", "nodir/scan.jsonl"),
         "cannot write nodir/scan.jsonl: no directory nodir"),
        (("SORTNETSAT_SOLVER=nosuchsolver", "4", "3", "5"), (),
         "SORTNETSAT_SOLVER='nosuchsolver' names no program that can be found"),
        (("SORTNETSAT_SOLVER= ", "4", "3", "5"), (),
         "SORTNETSAT_SOLVER=' ' names no program that can be found"),
    ],
    ids=["one-layer", "no-comparators", "empty-prefix-set", "no-channels", "no-jobs", "no-timeout",
         "nan-timeout", "infinite-timeout", "catalog-is-a-directory", "catalog-dir",
         "missing-solver", "blank-solver"],
)
def test_theorem_scan_rejects_a_level_it_cannot_scan(tmp_path, monkeypatch, capsys,
                                                     level, flags, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("the scan started")

    monkeypatch.chdir(tmp_path)
    var, _, value = level[0].partition("=")
    if var == SOLVER_ENV_VAR:  # a leading NAME=VALUE word sets it, as in a shell
        monkeypatch.setenv(var, value)
        level = level[1:]
    else:  # every other argument is checked before the solver is looked up
        monkeypatch.setattr("sortnetsat.cli.default_config", unreachable)
    monkeypatch.setattr("sortnetsat.cli.run_level", unreachable)
    catalog = tmp_path / "scan.jsonl"
    with pytest.raises(SystemExit) as exc:
        _scan(capsys, catalog, level, *flags)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"sortnetsat: error: {message}" in err and "Traceback" not in err
    assert not catalog.exists()


def test_theorem_scan_reports_a_solver_that_is_not_one(tmp_path, monkeypatch, capsys):
    # ``true`` runs and exits 0, but prints no status line; the scan runs at
    # --jobs 2, so the error comes out of a worker
    monkeypatch.setenv(SOLVER_ENV_VAR, "true")
    with pytest.raises(SystemExit) as exc:
        _scan(capsys, tmp_path / "scan.jsonl", ("4", "3", "5"))
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err == ("sortnetsat: error: no 's' status line in solver output "
                   "(exit code 0, stderr: '')\n")


def test_theorem_scan_reports_a_bundled_solver_that_does_not_compile(
    uncompilable_source, tmp_path, monkeypatch, capsys
):
    def unreachable(*args, **kwargs):
        raise AssertionError("the scan started")

    monkeypatch.setattr("sortnetsat.cli.run_level", unreachable)
    catalog = tmp_path / "scan.jsonl"
    with pytest.raises(SystemExit) as exc:
        _scan(capsys, catalog, ("4", "3", "5"))
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("sortnetsat: error: solver build failed: ")
    assert err.count("\n") == 1
    assert not catalog.exists()
