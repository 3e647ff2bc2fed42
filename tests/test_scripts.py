import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from sortnetsat.solving import SOLVER_ENV_VAR
from sortnetsat.words import format_sentence, generate_prefixes
from tests.test_acceptance import PREFIX_TABLE

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    path = SCRIPTS / name
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _run(monkeypatch, capsys, name: str, *argv: str) -> tuple[int, str]:
    mod = _load(name)
    monkeypatch.setattr("sys.argv", [str(SCRIPTS / name), *argv])
    rc = mod.main()
    return rc, capsys.readouterr().out


def test_prefix_table_checks_its_counts_by_enumeration(monkeypatch, capsys):
    rc, out = _run(monkeypatch, capsys, "prefix_table.py", "--max-n", "8", "--check")
    assert rc == 0
    rows = [line.replace(",", "").split() for line in out.splitlines()]
    table = {int(r[0]): tuple(map(int, r[1:])) for r in rows if r and r[0].isdigit()}
    assert table == {n: PREFIX_TABLE[n] for n in range(3, 9)}


def test_theorem_scan_scans_only_what_its_generate_prefixes_returns(
    external_cfg, tmp_path, monkeypatch, capsys
):
    # as the benchmark's level workload does with a tenth of T'_9
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)  # the bundled solver
    mod = _load("theorem_scan.py")
    full = generate_prefixes(4, "T'")
    part = full.sentences[1::2]
    monkeypatch.setattr(mod, "generate_prefixes",
                        lambda n, variant: type(full)(n, variant, part))
    catalog = tmp_path / "scan.jsonl"
    monkeypatch.setattr("sys.argv", [mod.__file__, "4", "3", "4", "--catalog", str(catalog)])
    assert mod.main() == 0
    assert f"over {len(part)} prefixes" in capsys.readouterr().out
    records = [json.loads(line) for line in catalog.read_text().splitlines()]
    assert [r["prefix"] for r in records] == [format_sentence(s) for s in part]


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
