import hashlib
import io
import os
import random
import re
import shlex
import subprocess
import tempfile
import threading
import time
from pathlib import Path

import pytest

from sortnetsat import csolver, encoding, solving
from sortnetsat.dpll import solve_clauses
from sortnetsat.encoding import CnfFormula, EncodeOptions, build_instance
from sortnetsat.networks import is_sorting_network
from sortnetsat.solving import (
    SAT,
    UNKNOWN,
    UNSAT,
    SolverBackendError,
    SolverConfig,
    check_model,
    decode_network,
    emit_dimacs,
    parse_solver_output,
    solve,
    write_dimacs,
    write_minicdcl,
)
from sortnetsat.words import generate_prefixes, parse_sentence


def formula(num_vars, clauses):
    f = CnfFormula(num_vars)
    for c in clauses:
        f.add(*c)
    return f


def test_emit_dimacs_trivia():
    assert emit_dimacs(formula(1, [(1,)])) == "p cnf 1 1\n1 0\n"
    assert emit_dimacs(CnfFormula(0)) == "p cnf 0 0\n"
    f = formula(3, [(1, -2), (2, 3)])
    assert emit_dimacs(f) == emit_dimacs(f)


@pytest.mark.parametrize("lit", [2, -2])
def test_emit_dimacs_rejects_literal_beyond_num_vars(lit):
    with pytest.raises(ValueError):
        emit_dimacs(formula(1, [(lit,)]))


def _reference_dimacs(f):
    return f"p cnf {f.num_vars} {len(f.clauses)}\n" + "".join(
        " ".join(map(str, c)) + " 0\n" for c in f.clauses
    )


def _random_formulas():
    rng = random.Random(4)
    for _ in range(200):
        nv = rng.randint(1, 40)
        clauses = [
            tuple(rng.choice([-1, 1]) * rng.randint(1, nv) for _ in range(rng.randint(1, 12)))
            for _ in range(rng.randint(0, 30))
        ]
        yield formula(nv, clauses)


def test_emit_dimacs_matches_reference_on_random_formulas():
    assert emit_dimacs(CnfFormula(5)) == _reference_dimacs(CnfFormula(5))
    for f in _random_formulas():
        assert emit_dimacs(f) == _reference_dimacs(f)


def _written(f, write=write_dimacs):
    out = io.StringIO()
    write(f, out)
    return out.getvalue()


def _run_sizes(f):
    """The lengths of the runs ``write_dimacs`` and ``check_model`` read, at
    the current ``encoding.CHUNK``."""
    table = list(range(f.num_vars + 1)) + list(range(-f.num_vars, 0))
    return [len(r) for r in f.runs(table, checked=False)]


def _templated(vm, xs, chain, num_vars):
    """Plain clauses around two applications of ``chain``, each longer than
    any of the run sizes tested."""
    f = CnfFormula(num_vars)
    f.add(-1, 2)
    f.add_template(chain, vm.block(xs[1]))
    f.add(-vm.v(xs[2], 2, 1))
    f.add(3, -4, 5)
    f.add_template(chain, vm.block(xs[2]))
    f.add(-6)
    return f


def test_write_dimacs_matches_reference_across_chunks(monkeypatch, chain_template):
    vm, xs, chain = chain_template
    for size in (1, 2, 3, 7):
        monkeypatch.setattr(encoding, "CHUNK", size)
        assert _written(CnfFormula(5)) == _reference_dimacs(CnfFormula(5))
        for f in _random_formulas():
            assert _written(f) == _reference_dimacs(f)
        # template applications straddle the run size
        f = _templated(vm, xs, chain, vm.num_vars)
        assert max(_run_sizes(f)) > 100
        assert _written(f) == _reference_dimacs(f)
    monkeypatch.setattr(encoding, "CHUNK", 3)
    # the later slices hold longer clauses than the first; the last clause is
    # longer than a whole slice
    f = formula(9, [(1,), (-2,), (3,), (1, 2), (-4, 5, 6), (7, -8, 9, 1, 2)])
    assert _run_sizes(f) == [4, 5, 4, 6]
    assert _written(f) == _reference_dimacs(f)


def test_write_dimacs_checks_the_last_chunk(monkeypatch):
    monkeypatch.setattr(encoding, "CHUNK", 2)
    f = formula(3, [(1, 2), (3,), (-1, -3), (2,), (-4, 1)])
    with pytest.raises(ValueError):
        _written(f)
    # the slices before the one holding the literal are written by then
    for clauses in ([(1,), (-2, 3), (3, 2, 1, -1, -2, 4)], [(1,), (-2, 3), (4, 2, 1, -1, -2, 3)]):
        f = formula(3, clauses)
        assert _run_sizes(f) == [2, 3, 7]  # the last is longer than a slice
        out = io.StringIO()
        with pytest.raises(ValueError, match="literal beyond num_vars"):
            write_dimacs(f, out)
        assert out.getvalue() == "p cnf 3 3\n1 0\n-2 3 0\n"


def test_write_dimacs_checks_each_template_application(chain_template):
    vm, xs, chain = chain_template
    # the chain's largest constant is the last channel-used flag, beyond the
    # blocks of the first three inputs
    assert chain.reach > vm.block(xs[2]).stop - 1
    # both writers check every application, also one written as an "r" line
    for write in (write_dimacs, write_minicdcl):
        text = _written(_templated(vm, xs, chain, chain.reach), write)
        assert text.startswith(f"p cnf {chain.reach} ")
        for num_vars in (chain.reach - 1, vm.block(xs[2]).stop - 2):
            with pytest.raises(ValueError, match="literal beyond num_vars"):
                _written(_templated(vm, xs, chain, num_vars), write)
        # a block beyond num_vars, though every constant is within it
        f = CnfFormula(chain.reach)
        f.add_template(chain, vm.block(xs[3]))
        with pytest.raises(ValueError, match="literal beyond num_vars"):
            _written(f, write)
        f.num_vars = vm.num_vars
        assert _expand(_written(f, write)) == _reference_dimacs(f)
        # only the second application, a repeat, reaches beyond num_vars
        f = CnfFormula(vm.num_vars - 1)
        f.add_template(chain, vm.block(xs[1]))
        f.add_template(chain, vm.block(xs[3]))
        with pytest.raises(ValueError, match="literal beyond num_vars"):
            _written(f, write)


def _expand(text):
    """The DIMACS text that ``write_minicdcl``'s text stands for, read
    without the solver: each "r K START" line becomes the clauses after the
    line "b K FIRST WIDTH N", with every variable of FIRST .. FIRST + WIDTH - 1
    moved by START - FIRST.  The "b" lines themselves go."""
    lines = text.splitlines(keepends=True)
    out, templates = [], {}
    at = 0
    while at < len(lines):
        words = lines[at].split()
        at += 1
        if words[0] == "b":
            k, first, width, count = map(int, words[1:])
            templates[k] = (first, width, lines[at:at + count])
        elif words[0] == "r":
            k, start = map(int, words[1:])
            first, width, clauses = templates[k]

            def moved(lit):
                var = abs(lit)
                var += start - first if first <= var < first + width else 0
                return var if lit > 0 else -var

            out += [" ".join(str(moved(int(w))) for w in c.split()[:-1]) + " 0\n"
                    for c in clauses]
        else:
            out.append(lines[at - 1])
    return "".join(out)


def test_write_minicdcl_stands_for_the_dimacs_text(chain_template):
    """Formulas that apply templates more than once, written with reference
    lines and expanded again by ``_expand``, give ``emit_dimacs``'s text: the
    chain template, an empty template (which may start one past num_vars), a
    block that ends at num_vars, a template whose first application holds one
    of its constants in its block, and encoder instances."""
    vm, xs, chain = chain_template
    f = _templated(vm, xs, chain, vm.num_vars)
    f.add_template(chain, vm.block(xs[3]))
    assert vm.block(xs[3]).stop == vm.num_vars + 1
    empty = encoding._Template([], range(1, 1))
    for block in (range(2, 2), range(vm.num_vars + 1, vm.num_vars + 1)):
        f.add_template(empty, block)
    text = _written(f, write_minicdcl)
    assert [line for line in text.splitlines() if line[0] in "br"] == [
        f"b 0 {vm.block(xs[1]).start} {len(vm.block(xs[1]))} {chain.num_clauses}",
        f"r 0 {vm.block(xs[2]).start}",
        f"r 0 {vm.block(xs[3]).start}",
        "b 1 2 0 0",
        f"r 1 {vm.num_vars + 1}",
    ]
    assert _expand(text) == emit_dimacs(f) == _reference_dimacs(f)
    # the constant 5 lies in the first block, so that application is spelled
    # out and the next one is the template's "b"
    shared = encoding._Template([1, -5, 0, 2, 0], range(1, 3))
    assert shared.constants == [-5, 0]
    f = CnfFormula(11)
    for start in (4, 7, 10):
        f.add_template(shared, range(start, start + 2))
    text = _written(f, write_minicdcl)
    assert text == "p cnf 11 6\n4 -5 0\n5 0\nb 0 7 2 2\n7 -5 0\n8 0\nr 0 10\n"
    assert _expand(text) == emit_dimacs(f) == _reference_dimacs(f)
    for n, d, s, prefix in [(4, 3, 5, None), (5, 5, 9, None), (6, 5, 12, "(0,0,1212)")]:
        options = EncodeOptions().with_prefix(parse_sentence(prefix) if prefix else None)
        f, _ = build_instance(n, d, s, options)
        text = _written(f, write_minicdcl)
        assert "\nr " in text and _expand(text) == emit_dimacs(f), (n, d, s, prefix)


def _satisfies(f, model):
    return all(any(model.get(abs(l), False) == (l > 0) for l in c) for c in f.clauses)


def test_check_model_scans_every_clause(monkeypatch, chain_template):
    f = formula(3, [(1, 2), (-1, 3), (2, -3), (-2, -3)])
    assert check_model(f, {1: False, 2: True, 3: False})
    assert not check_model(f, {1: True, 2: True, 3: False})  # breaks (-1, 3)
    assert not check_model(f, {1: True, 2: True, 3: True})  # breaks only the last clause
    assert check_model(CnfFormula(2), {})
    # two slices, (1, 2) (-1, 3) and (2, -3) (-2, -3): each model breaks one
    # clause only, the first or the last of a slice
    monkeypatch.setattr(encoding, "CHUNK", 5)
    assert _run_sizes(f) == [6, 6]
    assert not check_model(f, {1: False, 2: False, 3: False})  # first of the first
    assert not check_model(f, {1: True, 2: True, 3: False})  # last of the first
    assert not check_model(f, {1: True, 2: False, 3: True})  # first of the second
    assert not check_model(f, {1: True, 2: True, 3: True})  # last of the second
    assert check_model(f, {1: False, 2: True, 3: False})
    # a clause longer than a whole slice is read to its end
    monkeypatch.setattr(encoding, "CHUNK", 3)
    f = formula(6, [(1, 2, 3, 4, 5, 6), (-1, -2)])
    assert _run_sizes(f) == [7, 3]
    assert not check_model(f, {})
    assert check_model(f, {6: True})
    assert not check_model(f, {1: True, 2: True})
    # against a clause-by-clause reference, at several slice sizes
    rng = random.Random(5)
    for size in (1, 2, 3, 7):
        monkeypatch.setattr(encoding, "CHUNK", size)
        for f in _random_formulas():
            for _ in range(5):
                model = {v: rng.random() < 0.7 for v in range(1, f.num_vars + 1)}
                assert check_model(f, model) == _satisfies(f, model)
    # template applications, each longer than a slice.  All false: no
    # comparator, so every value stays put, and every plain clause holds
    vm, xs, chain = chain_template
    f = _templated(vm, xs, chain, vm.num_vars)
    assert check_model(f, {}) and _satisfies(f, {})
    # a value that changes at layer k with no comparator to change it (and
    # keeps its new value after k) breaks one clause, (used, -cur, prev),
    # inside an application and not its first or last
    for x in xs[1:3]:
        for k, i in ((1, 2), (2, 2), (2, 3)):
            model = {vm.v(x, later, i): True for later in range(k, 3)}
            for size in (1, 3, 7, 1 << 15):
                monkeypatch.setattr(encoding, "CHUNK", size)
                assert not check_model(f, model) and not _satisfies(f, model), (x, k, i)
    # and a broken clause of a plain part, before or after them, still shows
    assert not check_model(f, {2: False, 1: True}) and not check_model(f, {6: True})


def test_check_model_treats_absent_variables_as_false():
    assert check_model(formula(2, [(-2,)]), {1: True})
    assert not check_model(formula(2, [(2,)]), {1: True})


def test_parse_solver_output():
    assert parse_solver_output("c hi\ns SATISFIABLE\nv 1 -2 0\n") == (SAT, [1, -2], {})
    assert parse_solver_output("s UNSATISFIABLE\n") == (UNSAT, [], {})
    assert parse_solver_output("s UNKNOWN\n") == (UNKNOWN, [], {})
    # "c NAME N" lines are counters; other comment lines are skipped
    text = "c conflicts 12\nc version 1.0\nc a b c\nc restarts 0\ns UNSATISFIABLE\n"
    assert parse_solver_output(text) == (UNSAT, [], {"conflicts": 12, "restarts": 0})
    with pytest.raises(SolverBackendError):
        parse_solver_output("nothing useful\n")
    with pytest.raises(SolverBackendError, match="bad literal 'x'"):
        parse_solver_output("s SATISFIABLE\nv 1 x 0")


def _through_each_writer(monkeypatch, command):
    """``command`` twice: first with its program taken for another solver,
    so that ``solve`` writes it plain DIMACS, even when it is the bundled
    solver, then taken for the bundled solver, so that it writes reference
    lines."""
    for program in (None, shlex.split(command)[0]):
        monkeypatch.setattr(csolver, "binary_path", lambda program=program: program)
        yield command


def test_solve_writes_reference_lines_only_for_the_bundled_solver(
    tmp_path, monkeypatch, bundled_solver
):
    # a stand-in solver that keeps a copy of the file it was given
    copy = tmp_path / "copy.cnf"
    script = tmp_path / "copysolver.sh"
    script.write_text(f'#!/bin/sh\ncp "$1" "{copy}"\necho s UNSATISFIABLE\n')
    script.chmod(0o755)
    f, _ = build_instance(4, 3, 5)
    for command in (f"sh {script}", f"{script} {{cnf}}"):
        assert solve(f, SolverConfig(command, timeout=10)).status == UNSAT
        text = copy.read_text()
        assert text == emit_dimacs(f)
        assert not any(line[0] in "br" for line in text.splitlines())
    # the same script at the bundled solver's path gets reference lines
    monkeypatch.setattr(csolver, "binary_path", lambda: str(script))
    assert solve(f, SolverConfig(f"{script} {{cnf}}", timeout=10)).status == UNSAT
    assert copy.read_text() == _written(f, write_minicdcl) != emit_dimacs(f)
    monkeypatch.undo()
    assert csolver.binary_path() == bundled_solver


def test_external_bad_literal_is_an_error(tmp_path):
    script = tmp_path / "garbage.sh"
    script.write_text("echo s SATISFIABLE\necho v 1 -2 garbage 0\n")
    cfg = SolverConfig(f"sh {script}", timeout=10)
    with pytest.raises(SolverBackendError, match=r"bad literal 'garbage'.*\(exit code 0"):
        solve(formula(2, [(1,)]), cfg)


def test_builtin_tiny_formulas(builtin_cfg):
    out = solve(formula(1, [(1,), (-1,)]), builtin_cfg)
    assert out.status == UNSAT and out.model is None
    out = solve(formula(2, [(1, 2)]), builtin_cfg)
    assert out.status == SAT
    assert out.model[1] or out.model[2]


def test_builtin_times_out():
    f, _ = build_instance(6, 5, 12)
    cfg = SolverConfig(timeout=0.05)
    assert solve(f, cfg).status == UNKNOWN


def test_external_times_out(external_cfg, monkeypatch):
    f, _ = build_instance(8, 6, 18)  # hard enough not to finish instantly
    for command in _through_each_writer(monkeypatch, external_cfg.command):
        out = solve(f, SolverConfig(command, timeout=0.2))
        # the solver prints its counters when it is terminated
        assert out.status == UNKNOWN and "conflicts" in out.stats


def test_external_timeout_stays_unknown_and_kills_a_solver_ignoring_sigterm(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(solving, "STOP_GRACE", 1.0)
    f = formula(1, [(1,)])
    # whatever a terminated solver prints, its answer is UNKNOWN
    liar = tmp_path / "liar.sh"
    liar.write_text(
        "trap 'kill $!; echo c conflicts 7; echo s UNSATISFIABLE; exit 20' TERM\n"
        "sleep 30 >/dev/null 2>&1 &\nwait\n"
    )
    for command in _through_each_writer(monkeypatch, f"sh {liar}"):
        out = solve(f, SolverConfig(command, timeout=0.5))
        assert out.status == UNKNOWN and out.model is None and out.stats == {"conflicts": 7}
    stubborn = tmp_path / "stubborn.sh"
    stubborn.write_text("trap '' TERM; exec sleep 30\n")
    for command in _through_each_writer(monkeypatch, f"sh {stubborn}"):
        t0 = time.monotonic()
        out = solve(f, SolverConfig(command, timeout=0.5))
        assert out.status == UNKNOWN and out.stats == {}
        assert time.monotonic() - t0 < 0.5 + solving.STOP_GRACE + 2


def test_external_crash_is_an_error(monkeypatch):
    f = formula(1, [(1,)])
    for command in _through_each_writer(monkeypatch, "echo not-a-solver-answer"):
        with pytest.raises(SolverBackendError):
            solve(f, SolverConfig(command, timeout=10))
    for command in _through_each_writer(monkeypatch, "/nonexistent/solver {cnf}"):
        with pytest.raises(SolverBackendError):
            solve(f, SolverConfig(command, timeout=10))


def test_builtin_bad_model_is_an_error(monkeypatch):
    # a model that breaks the formula's only clause
    monkeypatch.setattr(solving.dpll, "solve_clauses",
                        lambda num_vars, clauses, deadline: (SAT, {1: False}))
    with pytest.raises(SolverBackendError, match="'builtin-dpll' does not satisfy"):
        solve(formula(1, [(1,)]), SolverConfig(timeout=10))


def test_external_bad_model_is_an_error(tmp_path, monkeypatch, chain_template):
    script = tmp_path / "liar.sh"
    liar = tmp_path / "liar-on-a-template.sh"
    script.write_text("echo s SATISFIABLE\necho v -1 0\n")
    # a model that breaks the first clause, (-1, 2), of a formula that
    # repeats a template
    liar.write_text("echo s SATISFIABLE\necho v 1 0\n")
    vm, xs, chain = chain_template
    # the error names the solver: the command, or the program's file name
    # when it stands in for the bundled binary
    names = [f"sh {script}", "sh"]
    for command, name in zip(_through_each_writer(monkeypatch, f"sh {script}"), names):
        cfg = SolverConfig(command, timeout=10)
        with pytest.raises(SolverBackendError, match=re.escape(f"'{name}' does not satisfy")):
            solve(formula(1, [(1,)]), cfg)
    for command in _through_each_writer(monkeypatch, f"sh {liar}"):
        with pytest.raises(SolverBackendError, match="does not satisfy"):
            solve(_templated(vm, xs, chain, vm.num_vars), SolverConfig(command, 10))


def test_shared_workdir_gives_each_solve_its_own_file(tmp_path, monkeypatch):
    # a stand-in solver that logs the path it was given and the header of the
    # formula it found there
    log = tmp_path / "calls.log"
    script = tmp_path / "logsolver.sh"
    script.write_text(f'echo "$1 $(head -n 1 "$1")" >> "{log}"\necho s UNSATISFIABLE\n')
    workdir = tmp_path / "work"
    workdir.mkdir()
    # the root every temporary directory goes under, as TMPDIR sets it
    monkeypatch.setattr(tempfile, "tempdir", str(workdir))
    cfg = SolverConfig(f"sh {script} {{cnf}}", timeout=10)
    for f in (formula(1, [(1,)]), formula(2, [(1, 2)])):
        assert solve(f, cfg).status == UNSAT
    calls = [line.split(" ", 1) for line in log.read_text().splitlines()]
    assert [header for _, header in calls] == ["p cnf 1 1", "p cnf 2 1"]
    paths = [path for path, _ in calls]
    assert len(set(paths)) == 2
    assert all(workdir in Path(path).parents for path in paths)
    assert list(workdir.iterdir()) == []


def test_decode_single_comparator(builtin_cfg):
    f, vm = build_instance(2, 1, 1)
    out = solve(f, builtin_cfg)
    assert out.status == SAT
    net = decode_network(out.model, vm)
    assert net.layers == (((1, 2),),)


def test_decode_gives_the_real_depth(external_cfg):
    # one comparator in the first of three layers decodes to a depth-1 network
    _, vm = build_instance(2, 3, 1)
    model = {v: False for v in range(1, vm.num_vars + 1)} | {vm.g(1, 1, 2): True}
    assert decode_network(model, vm).layers == (((1, 2),),)
    f, vm = build_instance(4, 4, 5)
    out = solve(f, external_cfg)
    assert out.status == SAT
    net = decode_network(out.model, vm)
    assert net.depth <= 4 and net.layers[-1]
    assert is_sorting_network(net)


def test_backends_agree_on_instances(builtin_cfg, external_cfg):
    for n, d, s in [(2, 1, 1), (3, 3, 3), (3, 2, 3), (4, 3, 5), (4, 3, 4), (4, 2, 5), (5, 5, 9)]:
        f, vm = build_instance(n, d, s)
        a = solve(f, builtin_cfg)
        b = solve(f, external_cfg)
        assert a.status == b.status, (n, d, s)
        if a.status == SAT:
            for out in (a, b):
                assert is_sorting_network(decode_network(out.model, vm))


def test_backends_agree_on_random_cnf(builtin_cfg, external_cfg):
    rng = random.Random(123)
    for _ in range(150):
        nv = rng.randint(1, 12)
        clauses = [
            tuple(rng.choice([-1, 1]) * rng.randint(1, nv) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 60))
        ]
        f = formula(nv, clauses)
        assert solve(f, builtin_cfg).status == solve(f, external_cfg).status


def test_solver_config_validation():
    for timeout in (0, -1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="timeout must be positive and finite"):
            SolverConfig(timeout=timeout)


def test_dpll_direct():
    assert solve_clauses(0, [])[0] == SAT
    assert solve_clauses(2, [(1,), (-1, 2), (-2, -1)])[0] == UNSAT


@pytest.mark.parametrize("clauses", [[(2,)], [(-2,)], [(1, 2)], [(2, -2)]])
def test_dpll_rejects_literal_beyond_num_vars(clauses):
    with pytest.raises(ValueError, match="literal beyond num_vars"):
        solve_clauses(1, clauses)


@pytest.mark.parametrize("num_vars, clauses", [(1, [(0,)]), (2, [(1, 0, 2)])])
def test_dpll_rejects_a_zero_inside_a_clause(num_vars, clauses):
    # 0 ends a DIMACS clause; taken as a literal it was read as unassigned
    with pytest.raises(ValueError, match="0 inside a clause"):
        solve_clauses(num_vars, clauses)


def test_builtin_search_is_pinned():
    """The builtin DPLL's answers on 300 random CNFs and five encoder
    instances, pinned by one sha256 over each answer's status and true
    variables.  The random CNFs hold empty clauses, repeated literals and
    tautologies.  A rewrite that keeps the search (first unassigned variable,
    false first, chronological backtracking) keeps this digest."""

    def corpus():
        rng = random.Random(20)
        for _ in range(300):
            nv = rng.randint(0, 30)
            clauses = [
                tuple(rng.choice([-1, 1]) * rng.randint(1, nv)
                      for _ in range(rng.choices(range(6), (1, 20, 40, 80, 40, 20))[0]))
                for _ in range(rng.randint(0, 5 * nv))
            ]
            yield nv, clauses
        for n, d, s in [(4, 3, 5), (4, 3, 4), (4, 2, 5), (5, 5, 9), (5, 4, 9)]:
            f, _ = build_instance(n, d, s)
            yield f.num_vars, f.clauses

    digest = hashlib.sha256()
    for nv, clauses in corpus():
        status, model = solve_clauses(nv, clauses)
        true = sorted(v for v, value in (model or {}).items() if value)
        digest.update(f"{status} {true}\n".encode())
    assert digest.hexdigest() == "0dac38b55204521dc7c38b81aab4e4a73a2c01910f5ade614d4ee75438124ee7"


def test_default_config_honours_environment(monkeypatch):
    from sortnetsat.solving import SOLVER_ENV_VAR, default_config

    monkeypatch.setenv(SOLVER_ENV_VAR, "sh --flag {cnf}")  # a program default_config finds
    cfg = default_config(timeout=5)
    assert cfg.backend == "external" and cfg.name == "sh --flag {cnf}"

    monkeypatch.delenv(SOLVER_ENV_VAR)
    cfg = default_config(timeout=5)
    # bundled solver when a compiler exists, builtin otherwise; never crashes
    assert cfg.backend in ("external", "builtin")
    if cfg.backend == "external":
        # the path solve recognises the bundled solver by; its name is the
        # binary's file name, with no host path
        assert shlex.split(cfg.command)[0] == csolver.binary_path()
        assert cfg.bundled and cfg.name == Path(csolver.binary_path()).name
    else:
        assert cfg.command is None and cfg.name == "builtin-dpll"


def test_a_solver_command_runs_without_the_bundled_source(tmp_path, monkeypatch):
    from sortnetsat.solving import SOLVER_ENV_VAR, default_config

    # a stand-in solver that keeps a copy of the file it was given
    copy = tmp_path / "copy.cnf"
    script = tmp_path / "copysolver.sh"
    script.write_text(f'cp "$1" "{copy}"\necho s UNSATISFIABLE\n')
    monkeypatch.setattr(csolver, "_SOURCE", tmp_path / "missing.c")
    monkeypatch.setenv(SOLVER_ENV_VAR, f"sh {script}")
    cfg = default_config(timeout=10)
    f, _ = build_instance(4, 3, 5)
    out = solve(f, cfg)
    assert out.status == UNSAT and out.solver == f"sh {script}"
    assert not cfg.bundled and copy.read_text() == emit_dimacs(f)
    assert csolver.binary_path() is None
    with pytest.raises(csolver.BuildError, match="source .* is missing"):
        csolver.ensure_built()


def test_without_a_compiler_the_default_is_the_builtin_dpll(monkeypatch):
    from sortnetsat.solving import SOLVER_ENV_VAR, default_config

    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
    monkeypatch.setattr(csolver, "compiler", lambda: None)
    cfg = default_config(timeout=10)
    assert cfg.command is None and cfg.name == "builtin-dpll"


needs_cc = pytest.mark.skipif(csolver.compiler() is None, reason="no C compiler")


@needs_cc
def test_concurrent_builds_share_one_binary(tmp_path, monkeypatch):
    for trial in range(3):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / f"cache{trial}"))
        barrier = threading.Barrier(2, timeout=60)
        paths, errors = [], []

        def build():
            try:
                barrier.wait()
                paths.append(csolver.ensure_built())
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        threads = [threading.Thread(target=build) for _ in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
            assert not th.is_alive()
        assert not errors, errors
        assert len(paths) == 2 and paths[0] == paths[1]
        cnf = tmp_path / "unsat.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        proc = subprocess.run([paths[0], str(cnf)], capture_output=True, text=True, timeout=60)
        assert "s UNSATISFIABLE" in proc.stdout


@needs_cc
def test_solver_binary_name_hashes_the_compile_flags(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    default = csolver.ensure_built()
    assert csolver.ensure_built() == default
    monkeypatch.setattr(csolver, "CFLAGS", ("-O1", "-std=c99"))
    other = csolver.ensure_built()
    assert other != default
    assert Path(default).is_file() and Path(other).is_file()


@needs_cc
def test_solver_source_compiles_without_warnings(tmp_path):
    cmd = [csolver.compiler(), "-std=c99", "-O2", "-Wall", "-Wextra", "-Werror",
           "-o", str(tmp_path / "minicdcl"), str(csolver._SOURCE)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _run_bundled(binary, cnf):
    return subprocess.run([binary, str(cnf)], capture_output=True, text=True, timeout=120)


def test_bundled_solver_search_is_pinned(bundled_solver, tmp_path):
    """The bundled solver's search on five instances, pinned by its counters,
    its answer and, for SAT, the sha256 of its "v" lines.  Reductions of the
    learnt clauses fire on (5,6,8).  The prefix of the last (9,7,25) instance
    fixes so much at level 0 that more than a third of its 328,813 clauses
    are gone when the solver lays out the rest, before its first decision.
    A speedup of the solver keeps these values; a change to its search
    (ROADMAP items 5 and 7) updates them and says so in CHANGES.md."""
    cases = [
        ((5, 6, 8, None), (9985, 11830, 3625841, 5957, 43), "UNSATISFIABLE", None),
        ((6, 5, 11, None), (3334, 3980, 2259821, 3314, 16), "UNSATISFIABLE", None),
        ((6, 5, 12, None), (42, 71, 38018, 40, 0), "SATISFIABLE",
         "7de86fac98bee7cd57a9cbf4fd13142b508fae99953faaf011cc777789fa0973"),
        ((9, 7, 25, "(012211212)"), (2131, 3146, 2062281, 2108, 13), "SATISFIABLE",
         "81d01127fd8a3ff8075e860f80045942e3cceb6b61bd4264477e88804e1e1a6c"),
        ((9, 7, 25, "(0,0,0,0,0,1212)"), (1056, 1346, 1969822, 1021, 6), "UNSATISFIABLE", None),
    ]
    names = ("conflicts", "decisions", "propagations", "learnts", "restarts")
    cnf = tmp_path / "instance.cnf"
    for (n, d, s, prefix), counters, answer, model_sha in cases:
        options = EncodeOptions().with_prefix(parse_sentence(prefix) if prefix else None)
        f, _ = build_instance(n, d, s, options)
        with cnf.open("w") as fh:
            write_dimacs(f, fh)
        plain = _run_bundled(bundled_solver, cnf)
        lines = plain.stdout.splitlines()
        assert lines[:6] == [*(f"c {k} {v}" for k, v in zip(names, counters)), f"s {answer}"], (
            n, d, s, prefix)
        model = "".join(line + "\n" for line in lines if line.startswith("v"))
        assert (hashlib.sha256(model.encode()).hexdigest() if model else None) == model_sha
        # the same search from the file with reference lines
        with cnf.open("w") as fh:
            write_minicdcl(f, fh)
        referenced = _run_bundled(bundled_solver, cnf)
        assert (referenced.returncode, referenced.stdout) == (plain.returncode, plain.stdout)


# (optimal depth D(n), optimal size S(n)) for n = 2..6
SMALL_OPTIMA = {2: (1, 1), 3: (3, 3), 4: (3, 5), 5: (5, 9), 6: (5, 12)}


def test_bundled_solver_reads_reference_lines_as_plain_dimacs(bundled_solver, tmp_path):
    """The solver's output and exit code are the same byte for byte on both
    files of each instance, plain DIMACS and reference lines: n = 2..6 at
    d in {D(n), D(n) + 1} and s in {S(n) - 1, S(n)}, unprefixed and over every
    prefix of T'n.  One instance is left out: unprefixed (6, 6, 11) takes
    about 10 s a file; the pinned (6, 5, 11) refutes n = 6 unprefixed."""
    cnf = tmp_path / "instance.cnf"
    solved = 0
    for n, (depth, size) in SMALL_OPTIMA.items():
        prefixes = [None, *generate_prefixes(n, "T'").sentences]
        for d in (depth, depth + 1):
            for s in (size - 1, size):
                for prefix in prefixes:
                    if s < 1 or (prefix is not None and d < 2) or (
                            (n, d, s, prefix) == (6, 6, 11, None)):
                        continue
                    f, _ = build_instance(n, d, s, EncodeOptions().with_prefix(prefix))
                    runs = []
                    for write in (write_dimacs, write_minicdcl):
                        with cnf.open("w") as fh:
                            write(f, fh)
                        proc = _run_bundled(bundled_solver, cnf)
                        runs.append((proc.returncode, proc.stdout, proc.stderr))
                    assert runs[0] == runs[1], (n, d, s, prefix)
                    assert runs[0][0] in (10, 20)
                    solved += 1
    assert solved == 173


# DIMACS texts the bundled solver reads: its exit code and lines of its output
READ_CASES = [
    # a tautology is dropped, not cut down to one of its literals
    pytest.param("p cnf 1 2\n1 -1 0\n-1 0\n", 10, ["s SATISFIABLE", "v -1 0"], id="tautology"),
    pytest.param("p cnf 1 2\n-1 1 0\n1 0\n", 10, ["s SATISFIABLE", "v 1 0"],
                 id="tautology-reversed"),
    # a repeated literal: a unit, propagated before any decision
    pytest.param("p cnf 2 2\n2 2 0\n-2 1 0\n", 10,
                 ["c decisions 0", "s SATISFIABLE", "v 1 2 0"], id="repeated-literal"),
    pytest.param("p cnf 2 2\n1 2 0\n0\n", 20, ["s UNSATISFIABLE"], id="empty-clause"),
    pytest.param("p cnf 1 2\n1 0\n-1", 20, ["s UNSATISFIABLE"], id="unterminated-last-clause"),
    pytest.param("c 0\np cnf 1 1\nc 1 0\n-1 0\n", 10, ["s SATISFIABLE", "v -1 0"],
                 id="comment-lines"),
    pytest.param("p cnf 2 2\r\n2\t1 0\r\n-1\t0\r\n", 10,
                 ["c decisions 0", "s SATISFIABLE", "v -1 2 0"], id="crlf-and-tabs"),
    pytest.param("p cnf 3 2\n3 0\n-3 -2 0\n", 10, ["s SATISFIABLE", "v -1 -2 3 0"],
                 id="literal-equal-to-the-count"),
    pytest.param("p cnf 2 2\n+1 0\n-1 +2 0\n", 10, ["c decisions 0", "s SATISFIABLE", "v 1 2 0"],
                 id="leading-plus"),
    # template 0 over the block 1..2, applied again to 3..4: (3 -4) and (-3)
    pytest.param("p cnf 4 4\nb 0 1 2 2\n1 -2 0\n-1 0\nr 0 3\n", 10,
                 ["c decisions 0", "s SATISFIABLE", "v -1 -2 -3 -4 0"], id="reference"),
    # 3 lies just past the block 2..2, so the reference keeps it: (1 3), (-1)
    pytest.param("p cnf 3 4\nb 0 2 1 2\n2 3 0\n-2 0\nr 0 1\n", 10,
                 ["c decisions 0", "s SATISFIABLE", "v -1 -2 3 0"], id="reference-keeps-constants"),
    # a reference renames its clause (1 -2) to the tautology (2 -2), which
    # the commit drops, not cut down to (2)
    pytest.param("p cnf 2 3\nb 0 1 1 1\n1 -2 0\nr 0 2\n-2 0\n", 10,
                 ["s SATISFIABLE", "v -1 -2 0"], id="reference-to-a-tautology"),
    # an empty template may start one past the last variable
    pytest.param("p cnf 1 1\nb 0 2 0 0\n-1 0\nr 0 2\n", 10, ["s SATISFIABLE", "v -1 0"],
                 id="empty-template"),
    pytest.param("p cnf 3 3\nb 7 1 1 1\n1 3 0\nr\t7  2\r\n-3\t0\r\n", 10,
                 ["c decisions 0", "s SATISFIABLE", "v 1 2 -3 0"], id="reference-blanks-and-number"),
]

# literals beyond "p cnf 2 1"; the 20-digit ones overflow a 64-bit integer
BEYOND_THE_COUNT = ["3", "-3", "12345678901234567890", "-12345678901234567890"]

# DIMACS texts the bundled solver rejects, and its message on stderr
MALFORMED_CASES = [
    pytest.param("p cnf 2 1\n1 - 0\n", "cannot parse literal", id="lone-minus"),
    pytest.param("p cnf 2 1\n1 x 0\n", "cannot parse literal", id="letter"),
    pytest.param("1 0\np cnf 2 1\n", "clause before p line", id="clause-before-p-line"),
    # a second p line would reallocate the state and forget the clauses before it
    pytest.param("p cnf 2 1\n1 2 0\np cnf 2 2\n-1 0\n-2 0\n", "second p line",
                 id="second-p-line"),
    pytest.param("p cnf -2 1\n1 0\n", "bad p line", id="negative-var-count"),
    pytest.param("p cnf 2 -1\n1 0\n", "bad p line", id="negative-clause-count"),
    pytest.param("p cnf 2\n1 0\n", "bad p line", id="missing-clause-count"),
    pytest.param("p cnf\n1 0\n", "bad p line", id="missing-counts"),
    # 2v + 1 would overflow an int for the last variable
    pytest.param("p cnf 2147483647 1\n1 0\n", "bad p line", id="var-count-beyond-an-int"),
    pytest.param("p cnf 2 99999999999999999999\n1 0\n", "bad p line",
                 id="clause-count-beyond-an-int"),
    pytest.param("c no p line\n", "missing p line", id="missing-p-line"),
    # template and reference lines
    pytest.param("b 0 1 1 1\n1 0\np cnf 2 1\n", "template line before p line",
                 id="template-before-p-line"),
    pytest.param("r 0 1\np cnf 2 1\n1 0\n", "template line before p line",
                 id="reference-before-p-line"),
    pytest.param("p cnf 2 2\nb 0 1 1 1\n1 0\n2 r 0 2\n", "template line inside a clause",
                 id="reference-inside-a-clause"),
    pytest.param("p cnf 4 3\nb 0 1 2 2\n1 0\nb 1 3 2 1\n3 0\n2 0\n",
                 "template line inside a template", id="template-among-template-clauses"),
    # a reference to the template being read is one among its clauses too
    pytest.param("p cnf 4 3\nb 0 1 2 2\n1 0\nr 0 3\n2 0\n", "template line inside a template",
                 id="reference-to-the-template-being-read"),
    pytest.param("p cnf 4 1\nr 0 1\n", "undefined template", id="undefined-template"),
    pytest.param("p cnf 4 3\nb 0 1 2 1\n1 0\nr 1 3\n", "undefined template",
                 id="reference-to-another-number"),
    pytest.param("p cnf 4 2\nb 0 1 2 1\n1 0\nb 0 3 2 1\n3 0\n", "template defined twice",
                 id="template-defined-twice"),
    pytest.param("p cnf 2 1\nb 65536 1 1 1\n1 0\n", "template number beyond the limit",
                 id="template-number-beyond-the-limit"),
    pytest.param("p cnf 2 1\nb 0 2 2 1\n2 0\n", "template block outside declared vars",
                 id="template-block-past-vars"),
    pytest.param("p cnf 2 1\nb 0 0 1 1\n1 0\n", "template block outside declared vars",
                 id="template-block-at-zero"),
    pytest.param("p cnf 3 2\nb 0 1 2 1\n1 0\nr 0 3\n", "template block outside declared vars",
                 id="reference-block-past-vars"),
    pytest.param("p cnf 2 2\nb 0 1 1 1\n1 0\nr 0 4\n", "template block outside declared vars",
                 id="reference-start-past-vars"),
    pytest.param("p cnf 2 2\nb 0 1 1 2\n1 2 0\n", "file ends inside a template",
                 id="file-ends-inside-a-template"),
    pytest.param("p cnf 2 1\nb 0 1 1 1\n1 2", "file ends inside a template",
                 id="file-ends-inside-a-template-clause"),
    pytest.param("p cnf 4 3\nb 0 1 2 1\n1 -2 0\nr 0 3\n", "clause count differs from the p line",
                 id="fewer-clauses-than-declared"),
    pytest.param("p cnf 4 2\nb 0 1 2 1\n1 -2 0\nr 0 3\n-1 0\n",
                 "clause count differs from the p line", id="more-clauses-than-declared"),
    pytest.param("p cnf 2 1\nb 0 1 1\n1 0\n", "bad template line", id="template-count-missing"),
    pytest.param("p cnf 2 2\nb 0 1 1 1\n1 0\nr 0 2 5\n", "bad template line",
                 id="reference-with-a-third-number"),
    pytest.param("p cnf 2 1\nb -1 1 1 1\n1 0\n", "bad template line",
                 id="negative-template-number"),
]


@pytest.mark.parametrize("text, code, expected", READ_CASES)
def test_bundled_solver_reads_dimacs(bundled_solver, tmp_path, text, code, expected):
    cnf = tmp_path / "in.cnf"
    cnf.write_bytes(text.encode())
    proc = _run_bundled(bundled_solver, cnf)
    lines = proc.stdout.splitlines()
    assert proc.returncode == code and all(line in lines for line in expected), proc.stdout


@pytest.mark.parametrize("lit", BEYOND_THE_COUNT)
def test_bundled_solver_rejects_a_literal_beyond_the_declared_count(bundled_solver, tmp_path, lit):
    cnf = tmp_path / "in.cnf"
    cnf.write_text(f"p cnf 2 1\n1 {lit} 0\n")
    proc = _run_bundled(bundled_solver, cnf)
    assert proc.returncode == 1 and "literal beyond declared vars" in proc.stderr


@pytest.mark.parametrize("text, message", MALFORMED_CASES)
def test_bundled_solver_rejects_a_malformed_file(bundled_solver, tmp_path, text, message):
    cnf = tmp_path / "in.cnf"
    cnf.write_text(text)
    proc = _run_bundled(bundled_solver, cnf)
    assert proc.returncode == 1 and proc.stdout == "" and f"minicdcl: {message}\n" == proc.stderr


@needs_cc
def test_bundled_solver_is_clean_under_sanitizers(bundled_solver, tmp_path):
    """A build with AddressSanitizer and UndefinedBehaviorSanitizer reports
    nothing on every loader case above and on two pinned instances, each
    as plain DIMACS and with reference lines, and answers as the bundled
    binary does.  Learnt-clause reductions fire on
    (5,6,8), so the clause-store copies and the learnt clauses' LBD words are
    checked too.  Leak checks are off: the solver frees nothing at exit."""
    binary = tmp_path / "minicdcl-asan"
    cmd = [csolver.compiler(), "-std=c99", "-O1", "-g", "-fsanitize=address,undefined",
           "-fno-omit-frame-pointer", "-o", str(binary), str(csolver._SOURCE)]
    if subprocess.run(cmd, capture_output=True, timeout=120).returncode != 0:
        pytest.skip("the compiler cannot build with -fsanitize=address,undefined")
    texts = [case.values[0] for case in READ_CASES + MALFORMED_CASES]
    texts += [f"p cnf 2 1\n1 {lit} 0\n" for lit in BEYOND_THE_COUNT]
    for n, d, size in ((6, 5, 12), (5, 6, 8)):
        f, _ = build_instance(n, d, size)
        texts += [emit_dimacs(f), _written(f, write_minicdcl)]
    env = {**os.environ, "ASAN_OPTIONS": "detect_leaks=0", "UBSAN_OPTIONS": "print_stacktrace=1"}
    cnf = tmp_path / "in.cnf"
    for text in texts:
        cnf.write_bytes(text.encode())
        checked = subprocess.run([str(binary), str(cnf)], capture_output=True, text=True,
                                 timeout=300, env=env)
        assert "Sanitizer" not in checked.stderr and "runtime error" not in checked.stderr, (
            text[:80], checked.stderr)
        plain = _run_bundled(bundled_solver, cnf)
        assert (checked.returncode, checked.stdout, checked.stderr) == (
            plain.returncode, plain.stdout, plain.stderr), text[:80]
