"""A small built-in DPLL solver so the test suite runs with no external tools.

Watched-literal unit propagation, chronological backtracking, branching on the
first unassigned variable, false first.  Comparator-placement variables carry
the lowest ids in our encodings, so this effectively enumerates candidate
networks and lets propagation fill in the rest.  Adequate for small instances; anything
serious should go through an external CDCL solver.
"""

from __future__ import annotations

import time
from typing import Iterable


def solve_clauses(
    num_vars: int,
    clauses: Iterable[tuple[int, ...]],
    deadline: float | None = None,
) -> tuple[str, dict[int, bool] | None]:
    """Returns ("SAT", model) / ("UNSAT", None) / ("UNKNOWN", None)."""
    values = [0] * (num_vars + 1)  # 0 unknown, 1 true, -1 false
    trail: list[int] = []
    # watch lists indexed by encoded literal
    nlits = 2 * (num_vars + 1)
    watches: list[list[int]] = [[] for _ in range(nlits)]
    db: list[list[int]] = []
    units: list[int] = []

    def idx(lit: int) -> int:
        return (lit << 1) if lit > 0 else ((-lit << 1) | 1)

    for raw in clauses:
        lits = []
        seen = set()
        taut = False
        for l in raw:
            if -l in seen:
                taut = True
                break
            if l not in seen:
                seen.add(l)
                lits.append(l)
        if taut:
            continue
        if not lits:
            return "UNSAT", None
        if len(lits) == 1:
            units.append(lits[0])
            continue
        ref = len(db)
        db.append(lits)
        watches[idx(lits[0])].append(ref)
        watches[idx(lits[1])].append(ref)

    def value(lit: int) -> int:
        v = values[lit] if lit > 0 else -values[-lit]
        return v

    def assign(lit: int) -> None:
        values[abs(lit)] = 1 if lit > 0 else -1
        trail.append(lit)

    def propagate(start: int) -> bool:
        """Process trail from position start; returns False on conflict."""
        qhead = start
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            falsified = idx(-lit)
            wl = watches[falsified]
            keep = []
            bad = False
            for pos, ref in enumerate(wl):
                cl = db[ref]
                # make sure the falsified literal sits at slot 1
                if cl[0] == -lit:
                    cl[0], cl[1] = cl[1], cl[0]
                first = cl[0]
                if value(first) == 1:
                    keep.append(ref)
                    continue
                for t in range(2, len(cl)):
                    if value(cl[t]) != -1:
                        cl[1], cl[t] = cl[t], cl[1]
                        watches[idx(cl[1])].append(ref)
                        break
                else:
                    keep.append(ref)
                    if value(first) == -1:
                        keep.extend(wl[pos + 1 :])
                        bad = True
                        break
                    assign(first)
            watches[falsified] = keep
            if bad:
                return False
        return True

    for u in units:
        if value(u) == -1:
            return "UNSAT", None
        if value(u) == 0:
            assign(u)
    if not propagate(0):
        return "UNSAT", None

    decisions: list[tuple[int, int, bool]] = []  # (trail mark, lit, second try)
    next_var = 1
    steps = 0
    while True:
        steps += 1
        if deadline is not None and steps % 256 == 0 and time.monotonic() > deadline:
            return "UNKNOWN", None
        while next_var <= num_vars and values[next_var] != 0:
            next_var += 1
        if next_var > num_vars:
            return "SAT", {v: values[v] > 0 for v in range(1, num_vars + 1)}
        lit = -next_var
        mark = len(trail)
        decisions.append((mark, lit, False))
        assign(lit)
        while not propagate(len(trail) - 1):
            # unwind to the most recent decision still holding a second branch
            while decisions and decisions[-1][2]:
                mark, lit, _ = decisions.pop()
                for undone in trail[mark:]:
                    values[abs(undone)] = 0
                del trail[mark:]
            if not decisions:
                return "UNSAT", None
            mark, lit, _ = decisions.pop()
            for undone in trail[mark:]:
                values[abs(undone)] = 0
            del trail[mark:]
            decisions.append((mark, -lit, True))
            assign(-lit)
            next_var = 1
