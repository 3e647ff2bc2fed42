"""A small built-in DPLL solver so the test suite runs with no external tools.

Watched-literal unit propagation, chronological backtracking, branching on the
first unassigned variable, false first.  Comparator-placement variables carry
the lowest ids in our encodings, so this effectively enumerates candidate
networks and lets propagation fill in the rest.  Adequate for small instances; anything
serious should go through an external CDCL solver.

Values and watch lists are indexed by the literal itself (2 * num_vars + 1
entries, a negative literal counting from the end), as the tables of
``CnfFormula.runs`` are.  Every conflict goes to one backtrack point, which
unwinds the trail once.
"""

from __future__ import annotations

import time
from typing import Iterable


def solve_clauses(
    num_vars: int,
    clauses: Iterable[tuple[int, ...]],
    deadline: float | None = None,
) -> tuple[str, dict[int, bool] | None]:
    """Returns ("SAT", model) / ("UNSAT", None) / ("UNKNOWN", None).  A
    literal beyond num_vars, or a 0 inside a clause, raises ValueError."""
    vals = [0] * (2 * num_vars + 1)  # 1 true, -1 false, 0 unassigned
    watches: list[list[list[int]]] = [[] for _ in vals]  # the clauses watching each literal
    trail: list[int] = []

    def assign(lit: int) -> None:
        vals[lit], vals[-lit] = 1, -1
        trail.append(lit)

    conflict = False
    for raw in clauses:
        if raw and (max(raw) > num_vars or -min(raw) > num_vars):
            raise ValueError("literal beyond num_vars")
        if 0 in raw:
            raise ValueError("0 inside a clause: it ends a DIMACS clause, it is no literal")
        lits = list(dict.fromkeys(raw))
        if len({abs(l) for l in lits}) < len(lits):
            continue  # a tautology
        if len(lits) > 1:
            watches[lits[0]].append(lits)
            watches[lits[1]].append(lits)
        elif not lits or vals[lits[0]] == -1:
            conflict = True
        elif not vals[lits[0]]:
            assign(lits[0])

    def propagate(head: int) -> bool:
        """Process the trail from position head; returns False on conflict."""
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            watching = watches[false_lit]
            keep = []
            for pos, cl in enumerate(watching):
                # make sure the false literal sits at slot 1
                if cl[0] == false_lit:
                    cl[0], cl[1] = cl[1], cl[0]
                first = cl[0]
                if vals[first] == 1:
                    keep.append(cl)
                    continue
                for t in range(2, len(cl)):
                    if vals[cl[t]] != -1:
                        cl[1], cl[t] = cl[t], cl[1]
                        watches[cl[1]].append(cl)
                        break
                else:
                    keep.append(cl)
                    if vals[first] == -1:
                        watches[false_lit] = keep + watching[pos + 1 :]
                        return False
                    assign(first)
            watches[false_lit] = keep
        return True

    # the trail position of each decision.  A decision tries false first, so
    # a positive literal there is its second branch
    marks: list[int] = []
    next_var, steps = 1, 0
    conflict = conflict or not propagate(0)
    while True:
        if conflict:
            # the one backtrack point: flip the latest decision still on its
            # first branch, and drop the ones above it
            while marks and trail[marks[-1]] > 0:
                marks.pop()
            if not marks:
                return "UNSAT", None
            lit = trail[marks[-1]]
            for undone in trail[marks[-1] :]:
                vals[undone] = vals[-undone] = 0
            del trail[marks[-1] :]
            assign(-lit)
            # every variable below it was assigned before the decision
            next_var = -lit
        else:
            steps += 1
            if deadline is not None and steps % 256 == 0 and time.monotonic() > deadline:
                return "UNKNOWN", None
            while next_var <= num_vars and vals[next_var]:
                next_var += 1
            if next_var > num_vars:
                return "SAT", {v: vals[v] > 0 for v in range(1, num_vars + 1)}
            marks.append(len(trail))
            assign(-next_var)
        conflict = not propagate(len(trail) - 1)
