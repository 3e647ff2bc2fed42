"""DIMACS emission, solver backends, and model decoding.

Two backends: ``builtin`` runs the bundled DPLL in-process; ``external`` runs
any command that reads a DIMACS file and prints SAT-competition output
(``s SATISFIABLE`` / ``s UNSATISFIABLE`` plus ``v`` model lines).  A timeout
yields UNKNOWN, which is never conflated with UNSAT; solver crashes and
unparsable output raise instead.  SAT models are re-checked against the
formula before anyone gets to see them.
"""

from __future__ import annotations

import io
import os
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import TextIO

from sortnetsat import dpll
from sortnetsat.encoding import CnfFormula, VarMap
from sortnetsat.networks import Network

SOLVER_ENV_VAR = "SORTNETSAT_SOLVER"

SAT, UNSAT, UNKNOWN = "SAT", "UNSAT", "UNKNOWN"


class SolverBackendError(RuntimeError):
    """The backend crashed, lied, or produced output we cannot parse."""


@dataclass(frozen=True)
class SolverConfig:
    """``backend`` is "builtin" or "external"; external needs a command
    template, e.g. ``"kissat -q {cnf}"`` ({cnf} is replaced by the file path,
    appended if missing).  Each external solve writes its formula into a
    fresh temporary directory inside ``workdir`` (the system default when
    None) and removes it afterwards."""

    backend: str = "builtin"
    command: str | None = None
    timeout: float = 3600.0
    workdir: str | None = None

    def __post_init__(self) -> None:
        if self.backend not in ("builtin", "external"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == "external" and not self.command:
            raise ValueError("external backend needs a command template")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")

    @property
    def name(self) -> str:
        return self.command if self.backend == "external" else "builtin-dpll"


@dataclass
class SolveOutcome:
    status: str
    model: dict[int, bool] | None
    solver: str


# store entries (literals and clause ends) per slice that write_dimacs and
# check_model read at once: bounds the text and the copies held at a time
CHUNK = 1 << 15


def write_dimacs(formula: CnfFormula, fh: TextIO) -> None:
    """Write the DIMACS text of ``formula`` to ``fh``, a slice at a time.  A
    literal beyond num_vars raises ValueError; the slices before the one
    holding it have been written by then."""
    nv = formula.num_vars
    fh.write(f"p cnf {nv} {formula.num_clauses}\n")
    for entries in formula.slices(CHUNK):
        # num_vars is set by the encoder, not derived from the clauses, and
        # hand-built formulas reach here too: check the range
        if max(entries) > nv or -min(entries) > nv:
            raise ValueError("literal beyond num_vars")
        # each entry is written with a space after it; a clause's 0 (the only
        # 0 token, since literals are nonzero) ends its line instead
        fh.write(("%d " * len(entries) % tuple(entries)).replace(" 0 ", " 0\n"))


def emit_dimacs(formula: CnfFormula) -> str:
    """The text ``write_dimacs`` writes, as one string."""
    text = io.StringIO()
    write_dimacs(formula, text)
    return text.getvalue()


def parse_solver_output(text: str) -> tuple[str, list[int]]:
    status = None
    lits: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("s "):
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
    return status, lits


def check_model(formula: CnfFormula, model: dict[int, bool]) -> bool:
    """Every clause holds under ``model``; a variable absent from it is false.

    Every literal must lie within num_vars, as ``build_instance`` makes them;
    both backends fail on a formula that breaks this before a model exists
    (``write_dimacs`` raises ValueError, the builtin solver IndexError)."""
    values = [int(model.get(v, False)) for v in range(1, formula.num_vars + 1)]
    # truth[l] for every literal l: 1 when true, else 0 (a negative l reads
    # the reversed second half); a clause's 0 reads 2
    truth = [2, *values, *(1 - t for t in reversed(values))]
    for entries in formula.slices(CHUNK):
        # a slice holds a whole clause, so two entries at least, and the
        # getter returns a tuple.  Without the false literals, a clause no
        # literal satisfies leaves its 2 first in the slice or right after
        # the 2 of the clause before it
        held = bytes(itemgetter(*entries)(truth)).translate(None, b"\0")
        if held.startswith(b"\2") or b"\2\2" in held:
            return False
    return True


def _complete_model(formula: CnfFormula, lits: list[int]) -> dict[int, bool]:
    model = {v: False for v in range(1, formula.num_vars + 1)}
    for l in lits:
        if abs(l) <= formula.num_vars:
            model[abs(l)] = l > 0
    return model


def solve(formula: CnfFormula, config: SolverConfig) -> SolveOutcome:
    if config.backend == "builtin":
        deadline = time.monotonic() + config.timeout
        status, model = dpll.solve_clauses(formula.num_vars, formula.clauses, deadline)
    else:
        status, model = _solve_external(formula, config)
    if status == SAT and not check_model(formula, model):
        raise SolverBackendError(f"model from {config.name!r} does not satisfy the formula")
    return SolveOutcome(status, model, config.name)


def _solve_external(
    formula: CnfFormula, config: SolverConfig
) -> tuple[str, dict[int, bool] | None]:
    # a fresh directory per call, also inside a shared ``config.workdir``:
    # concurrent solves must never hand a solver each other's formula
    with tempfile.TemporaryDirectory(prefix="sortnetsat-", dir=config.workdir) as tmp:
        workdir = Path(tmp)
        cnf_path = workdir / "instance.cnf"
        with cnf_path.open("w") as fh:
            write_dimacs(formula, fh)
        template = shlex.split(config.command)
        argv = [a.replace("{cnf}", str(cnf_path)) for a in template]
        if not any("{cnf}" in a for a in template):
            argv.append(str(cnf_path))
        try:
            proc = subprocess.run(
                argv,
                capture_output=True,
                text=True,
                timeout=config.timeout,
                cwd=workdir,
            )
        except subprocess.TimeoutExpired:
            return UNKNOWN, None
        except OSError as exc:
            raise SolverBackendError(f"cannot run solver {argv[0]!r}: {exc}") from exc
        try:
            status, lits = parse_solver_output(proc.stdout)
        except SolverBackendError as exc:
            raise SolverBackendError(
                f"{exc} (exit code {proc.returncode}, stderr: {proc.stderr[:500]!r})"
            ) from None
        return status, _complete_model(formula, lits) if status == SAT else None


def decode_network(model: dict[int, bool], vm: VarMap) -> Network:
    """Network picked out by the g variables, without trailing empty layers:
    its depth is its real depth, at most the encoded d."""
    layers = []
    for k in range(1, vm.d + 1):
        layers.append(
            [
                (i, j)
                for i in range(1, vm.n + 1)
                for j in range(i + 1, vm.n + 1)
                if model[vm.g(k, i, j)]
            ]
        )
    try:
        return Network.make(vm.n, layers).trimmed()
    except ValueError as exc:
        raise SolverBackendError(f"model decodes to an invalid network: {exc}") from exc


def default_config(timeout: float = 3600.0, workdir: str | None = None) -> SolverConfig:
    """External solver from $SORTNETSAT_SOLVER, else the bundled CDCL solver
    (compiled on first use), else the builtin DPLL."""
    env = os.environ.get(SOLVER_ENV_VAR)
    if env:
        return SolverConfig("external", env, timeout, workdir)
    from sortnetsat import csolver

    binary = csolver.ensure_built(quiet=True)
    if binary:
        return SolverConfig("external", f"{binary} {{cnf}}", timeout, workdir)
    return SolverConfig("builtin", None, timeout, workdir)
