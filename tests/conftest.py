import json
import random
from pathlib import Path

import pytest

from sortnetsat import csolver, encoding
from sortnetsat.networks import Network
from sortnetsat.solving import SolverConfig

DATA = Path(__file__).parent / "data"

_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if "test_acceptance" in item.nodeid and rep.when in ("call", "setup"):
        if rep.when == "call" or rep.outcome == "skipped":
            _ACCEPTANCE_RESULTS.append((item.name, rep.outcome))


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for name, outcome in _ACCEPTANCE_RESULTS:
            tag = {"passed": "PASS", "failed": "FAIL"}.get(outcome, outcome.upper())
            terminalreporter.write_line(f"{tag}: {name}")


@pytest.fixture(scope="session")
def known_optima() -> dict:
    """Best known (and proven optimal) sorting networks, transcribed as
    fixtures; every record carries its (depth, size) and, for n >= 11, the
    canonical two-layer prefix it extends."""
    return json.loads((DATA / "known_optima.json").read_text())


def net_from_record(rec: dict) -> Network:
    return Network.make(rec["n"], rec["layers"])


@pytest.fixture(scope="session")
def bundled_solver() -> str:
    """The path of the bundled solver's binary."""
    if csolver.compiler() is None:
        pytest.skip("no C compiler available to build the bundled solver")
    return csolver.ensure_built()


@pytest.fixture
def uncompilable_source(tmp_path, monkeypatch) -> None:
    """The bundled solver's source with a line that is not C appended, built
    into a cache under tmp_path, and no SORTNETSAT_SOLVER set."""
    if csolver.compiler() is None:
        pytest.skip("no C compiler available to fail a build")
    source = tmp_path / "minicdcl.c"
    source.write_text(csolver._SOURCE.read_text() + "this is not C;\n")
    monkeypatch.setattr(csolver, "_SOURCE", source)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.delenv("SORTNETSAT_SOLVER", raising=False)


@pytest.fixture(scope="session")
def external_cfg(bundled_solver) -> SolverConfig:
    return SolverConfig(f"{bundled_solver} {{cnf}}", timeout=600)


@pytest.fixture
def builtin_cfg() -> SolverConfig:
    return SolverConfig(timeout=300)


@pytest.fixture
def chain_template():
    """A VarMap on 3 channels, depth 2, with four inputs registered and the
    first encoded, so every auxiliary its value chain names exists; the
    inputs; and the template of that chain (48 clauses)."""
    vm = encoding.VarMap(3, 2)
    xs = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 1)]
    for x in xs[:3]:
        vm.register_input(x)
    encoding.encode_sorts(vm, encoding.CnfFormula(), xs[0])
    vm.register_input(xs[3])  # after the auxiliaries: its block lies beyond them
    return vm, xs, encoding._Template.of(vm, encoding._encode_chain, xs[0])


def matchings(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Every layer on n channels: all matchings, sorted."""
    out: list[tuple[tuple[int, int], ...]] = []

    def rec(avail: list[int], acc: list[tuple[int, int]]) -> None:
        out.append(tuple(acc))
        if len(avail) < 2:
            return
        first, rest = avail[0], avail[1:]
        rec(rest, acc)
        for k, other in enumerate(rest):
            acc.append((first, other))
            rec(rest[:k] + rest[k + 1 :], acc)
            acc.pop()

    rec(list(range(1, n + 1)), [])
    return sorted(set(out))


def random_two_layer(rng: random.Random, n: int) -> Network:
    def matching() -> list[tuple[int, int]]:
        chans = list(range(1, n + 1))
        rng.shuffle(chans)
        comps = []
        while len(chans) >= 2 and rng.random() < 0.8:
            a, b = chans.pop(), chans.pop()
            comps.append((min(a, b), max(a, b)))
        return comps

    return Network.make(n, [matching(), matching()])


def random_network(rng: random.Random, n: int, depth: int) -> Network:
    def matching() -> list[tuple[int, int]]:
        chans = list(range(1, n + 1))
        rng.shuffle(chans)
        comps = []
        while len(chans) >= 2 and rng.random() < 0.7:
            a, b = chans.pop(), chans.pop()
            comps.append((min(a, b), max(a, b)))
        return comps

    return Network.make(n, [matching() for _ in range(depth)])
