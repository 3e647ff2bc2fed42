"""DIMACS emission, the solver a solve runs, and model decoding.

``SolverConfig.command`` names the solver: None runs the builtin DPLL
in-process; a command reads a DIMACS file and prints SAT-competition output
(``s SATISFIABLE`` / ``s UNSATISFIABLE`` plus ``v`` model lines), and
``default_config`` picks it.  Every command gets plain DIMACS
(``write_dimacs``), except the bundled ``minicdcl`` (``SolverConfig.bundled``):
it gets each clause template of the formula once, and a one-line reference
for every later application (``write_minicdcl``).  It reads the same clauses
in the same order from either file.  A timeout yields UNKNOWN, which is never
conflated with UNSAT: a solver command is sent SIGTERM and given
``STOP_GRACE`` seconds to print its counters before it is killed.  Solver
crashes and unparsable output raise instead.  SAT models are re-checked
against the formula before anyone gets to see them.
"""

from __future__ import annotations

import io
import os
import shlex
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TextIO

from sortnetsat import csolver, dpll
from sortnetsat.encoding import CnfFormula, VarMap
from sortnetsat.networks import Network

SOLVER_ENV_VAR = "SORTNETSAT_SOLVER"

SAT, UNSAT, UNKNOWN = "SAT", "UNSAT", "UNKNOWN"

STOP_GRACE = 3.0  # seconds a timed-out external solver has to exit after SIGTERM


class SolverBackendError(RuntimeError):
    """The backend crashed, lied, or produced output we cannot parse."""


@dataclass(frozen=True)
class SolverConfig:
    """The solver a solve runs: the builtin DPLL when ``command`` is None,
    else a command template, e.g. ``"kissat -q {cnf}"`` ({cnf} is replaced by
    the file path, appended if missing), which writes its formula into a
    fresh temporary directory (under ``TMPDIR`` when it is set) and removes
    it afterwards.  ``timeout`` is in seconds, positive and finite."""

    command: str | None = None
    timeout: float = 3600.0

    def __post_init__(self) -> None:
        if not 0 < self.timeout < float("inf"):
            raise ValueError(f"timeout must be positive and finite, got {self.timeout:g}")

    @property
    def backend(self) -> str:
        return "builtin" if self.command is None else "external"

    @cached_property
    def bundled(self) -> bool:
        """The command runs the bundled ``minicdcl``: its program is
        ``csolver.binary_path()``, which is None when there is no source."""
        return shlex.split(self.command or "")[:1] == [csolver.binary_path()]

    @property
    def name(self) -> str:
        """``builtin-dpll``, the bundled binary's file name (no host path), or
        the command's text."""
        if self.command is None:
            return "builtin-dpll"
        return Path(shlex.split(self.command)[0]).name if self.bundled else self.command


@dataclass
class SolveOutcome:
    status: str
    model: dict[int, bool] | None
    solver: str
    # seconds of each stage of the solve: emit_s (the DIMACS write; 0 for
    # the builtin DPLL), solver_s (the solver and reading its answer) and
    # check_s (the model check)
    timings: dict[str, float] = field(default_factory=dict)
    # the solver's "c NAME N" counters, e.g. conflicts; empty when it prints none
    stats: dict[str, int] = field(default_factory=dict)


def write_dimacs(formula: CnfFormula, fh: TextIO) -> None:
    """Write the DIMACS text of ``formula`` to ``fh``, a run at a time (see
    ``CnfFormula.runs``).  A literal beyond num_vars raises ValueError; the
    runs before the one holding it have been written by then."""
    _write(formula, fh, None)


def write_minicdcl(formula: CnfFormula, fh: TextIO) -> None:
    """Write the text the bundled ``minicdcl`` reads for ``formula``: the
    DIMACS text of ``write_dimacs``, except that each template the formula
    applies is sent once.  Its first application is preceded by the line
    ``b K START WIDTH N`` (template K: the N clauses that follow, over the
    block of ids START .. START + WIDTH - 1), and every later application is
    the line ``r K START`` in place of its clauses.  The solver turns each
    ``r`` line back into the clauses it stands for, so it reads the same
    clauses in the same order.  Other solvers read ``write_dimacs``.  A
    literal beyond num_vars raises ValueError, as there."""
    _write(formula, fh, _template_line)


def _template_line(k: int, block: range, num_clauses: int | None) -> tuple[str]:
    if num_clauses is None:
        return (f"r {k} {block.start}\n",)
    return (f"b {k} {block.start} {len(block)} {num_clauses}\n",)


def _write(formula: CnfFormula, fh: TextIO, refer) -> None:
    nv = formula.num_vars
    fh.write(f"p cnf {nv} {formula.num_clauses}\n")
    # the text of each entry: a literal with a space after it; a clause's 0
    # ends its line instead
    pos = [f"{v} " for v in range(1, nv + 1)]
    text = ["0\n", *pos, *["-" + t for t in reversed(pos)]]
    # num_vars is set by the encoder, not derived from the clauses, and
    # hand-built formulas reach here too: runs checks the range
    for run in formula.runs(text, refer=refer):
        fh.write("".join(run))


def emit_dimacs(formula: CnfFormula) -> str:
    """The text ``write_dimacs`` writes, as one string."""
    text = io.StringIO()
    write_dimacs(formula, text)
    return text.getvalue()


def parse_solver_output(text: str) -> tuple[str, list[int], dict[str, int]]:
    """The status, the model's literals and the counters of ``c NAME N``
    lines (other comment lines are skipped)."""
    status = None
    lits: list[int] = []
    stats: dict[str, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("c "):
            words = line.split()
            if len(words) == 3 and words[2].isdecimal():
                stats[words[1]] = int(words[2])
        elif line.startswith("s "):
            token = line[2:].strip().upper()
            if token == "SATISFIABLE":
                status = SAT
            elif token == "UNSATISFIABLE":
                status = UNSAT
            else:
                status = UNKNOWN
        elif line.startswith("v ") or line == "v":
            for tok in line[1:].split():
                try:
                    val = int(tok)
                except ValueError:
                    raise SolverBackendError(f"bad literal {tok!r} in a 'v' line") from None
                if val == 0:
                    continue
                lits.append(val)
    if status is None:
        raise SolverBackendError("no 's' status line in solver output")
    return status, lits, stats


def check_model(formula: CnfFormula, model: dict[int, bool]) -> bool:
    """Every clause holds under ``model``; a variable absent from it is false.
    A literal beyond num_vars raises ValueError, as in ``write_dimacs``."""
    values = ["1" if model.get(v) else "" for v in range(1, formula.num_vars + 1)]
    # truth[l] for every literal l: "1" when true, else "" (a negative l reads
    # the reversed second half); a clause's 0 reads "2"
    truth = ["2", *values, *["" if t else "1" for t in reversed(values)]]
    for run in formula.runs(truth):
        # a run holds whole clauses.  A clause no literal satisfies leaves
        # its 2 first in the run or right after the 2 of the clause before it
        held = "".join(run)
        if held.startswith("2") or "22" in held:
            return False
    return True


def _complete_model(formula: CnfFormula, lits: list[int]) -> dict[int, bool]:
    model = {v: False for v in range(1, formula.num_vars + 1)}
    for l in lits:
        if abs(l) <= formula.num_vars:
            model[abs(l)] = l > 0
    return model


def solve(formula: CnfFormula, config: SolverConfig) -> SolveOutcome:
    t0 = time.perf_counter()
    if config.command is None:
        deadline = time.monotonic() + config.timeout
        status, model = dpll.solve_clauses(formula.num_vars, formula.clauses, deadline)
        stats, emit_s = {}, 0.0
    else:
        status, model, stats, emit_s = _solve_external(formula, config)
    t1 = time.perf_counter()
    if status == SAT and not check_model(formula, model):
        raise SolverBackendError(f"model from {config.name!r} does not satisfy the formula")
    timings = {"emit_s": emit_s, "solver_s": t1 - t0 - emit_s, "check_s": time.perf_counter() - t1}
    return SolveOutcome(status, model, config.name, timings, stats)


def _solve_external(
    formula: CnfFormula, config: SolverConfig
) -> tuple[str, dict[int, bool] | None, dict[str, int], float]:
    """Status, model and counters from the external solver, and the seconds
    taken until the formula was written."""
    t0 = time.perf_counter()
    template = shlex.split(config.command)
    # only the bundled solver reads template lines
    write = write_minicdcl if config.bundled else write_dimacs
    # a fresh directory per call: concurrent solves must never hand a solver
    # each other's formula
    with tempfile.TemporaryDirectory(prefix="sortnetsat-") as tmp:
        workdir = Path(tmp)
        cnf_path = workdir / "instance.cnf"
        with cnf_path.open("w") as fh:
            write(formula, fh)
        emit_s = time.perf_counter() - t0
        argv = [a.replace("{cnf}", str(cnf_path)) for a in template]
        if not any("{cnf}" in a for a in template):
            argv.append(str(cnf_path))
        try:
            proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=workdir
            )
        except OSError as exc:
            raise SolverBackendError(f"cannot run solver {argv[0]!r}: {exc}") from exc
        with proc:
            try:
                stdout, stderr = proc.communicate(timeout=config.timeout)
            except subprocess.TimeoutExpired:
                return UNKNOWN, None, _stop(proc), emit_s
            except BaseException:
                proc.kill()
                raise
        returncode = proc.returncode
        del proc  # it keeps the raw output's chunks; they would outlive the parse
        try:
            status, lits, stats = parse_solver_output(stdout)
        except SolverBackendError as exc:
            raise SolverBackendError(
                f"{exc} (exit code {returncode}, stderr: {stderr[:500]!r})"
            ) from None
        model = _complete_model(formula, lits) if status == SAT else None
        return status, model, stats, emit_s


def _stop(proc: subprocess.Popen) -> dict[str, int]:
    """Terminate a solver that ran out of time.  Its counters, when it prints
    them within ``STOP_GRACE`` seconds; it is killed after that.  Whatever it
    prints, the answer stays UNKNOWN."""
    proc.terminate()
    try:
        stdout, _ = proc.communicate(timeout=STOP_GRACE)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return {}
    try:
        return parse_solver_output(stdout)[2]
    except SolverBackendError:
        return {}


def decode_network(model: dict[int, bool], vm: VarMap) -> Network:
    """Network picked out by the g variables, without trailing empty layers:
    its depth is its real depth, at most the encoded d."""
    pairs = [(i, j) for i in range(1, vm.n + 1) for j in range(i + 1, vm.n + 1)]
    layers = [[p for p in pairs if model[vm.g(k, *p)]] for k in range(1, vm.d + 1)]
    try:
        return Network.make(vm.n, layers).trimmed()
    except ValueError as exc:
        raise SolverBackendError(f"model decodes to an invalid network: {exc}") from exc


def default_config(timeout: float = 3600.0) -> SolverConfig:
    """The one place that picks the solver: the $SORTNETSAT_SOLVER command,
    else the bundled CDCL solver (compiled on first use), else the builtin
    DPLL when there is no C compiler.  ValueError for a set command that is
    blank, has unbalanced quotes or whose program is not found;
    ``csolver.BuildError`` when there is a compiler but the bundled source
    is missing or does not compile."""
    env = os.environ.get(SOLVER_ENV_VAR)
    if env:
        try:
            program = shlex.split(env)[:1]
        except ValueError as exc:
            raise ValueError(f"{SOLVER_ENV_VAR}={env!r}: {exc}") from None
        if not program or shutil.which(program[0]) is None:
            raise ValueError(f"{SOLVER_ENV_VAR}={env!r} names no program that can be found")
        return SolverConfig(env, timeout)
    if csolver.compiler() is None:
        return SolverConfig(None, timeout)
    return SolverConfig(f"{csolver.ensure_built()} {{cnf}}", timeout)
