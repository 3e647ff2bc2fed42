"""Catalog records, the checks a record passes at load, and the settling rule.

An instance (n, d, s, prefix, options) is satisfiable exactly when some
network with at most d layers and at most s comparators extends the prefix
(the optional constraint families never change that).  So one UNSAT settles
every instance with smaller bounds, and one witness every instance with larger
ones; the catalog answers a task from any record that settles it.

The loader skips, with a warning, each line ``SearchResult.from_record``
rejects.  A witness it keeps fits its bounds, sorts and extends its prefix,
so it is a proof: no indexed witness refutes (fits the bounds of) an indexed
UNSAT under the same n and options key.  Such an UNSAT settles nothing, a
warning names both lines, and the witness stays.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from sortnetsat.encoding import prefix_network
from sortnetsat.networks import Network, is_sorting_network
from sortnetsat.solving import SAT, UNKNOWN, UNSAT
from sortnetsat.words import Sentence, format_sentence, parse_sentence


@dataclass
class SearchResult:
    n: int
    d: int
    s: int
    prefix: Sentence | None
    options_key: str
    status: str
    network: Network | None
    solver: str = ""
    # seconds per stage of the solve that produced this result: encode_s,
    # solve_s, verify_s, and the parts of solve_s the solver reports (emit_s,
    # solver_s, check_s; see ``SolveOutcome``); empty for records written
    # before they were kept and for derived answers.  Older records also carry
    # the solve time on its own; it is not loaded.
    timings: dict[str, float] = field(default_factory=dict)
    # (d, s) of the catalog record that settled this task without a solve
    implied_by: tuple[int, int] | None = None
    # the solver's counters (``SolveOutcome.stats``), e.g. conflicts; empty
    # when it printed none, for derived answers and for older records
    stats: dict[str, int] = field(default_factory=dict)
    # read from a catalog file, not produced by this process; not recorded
    from_catalog: bool = False

    def how(self, places: int) -> str:
        """How the answer was reached: "from catalog" for a record read from a
        catalog file, "implied by d=D s=S" for an answer derived now, else the
        solve seconds to ``places`` decimals."""
        if self.from_catalog:
            return "from catalog"
        if self.implied_by:
            return "implied by d={} s={}".format(*self.implied_by)
        return f"{self.timings.get('solve_s', 0.0):.{places}f}s"

    def record(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "s": self.s,
            "prefix": format_sentence(self.prefix) if self.prefix else None,
            "options": self.options_key,
            "status": self.status,
            "network": json.loads(self.network.to_json()) if self.network else None,
            "solver": self.solver,
            "timings": {k: round(v, 4) for k, v in self.timings.items()},
            "implied_by": list(self.implied_by) if self.implied_by else None,
            "stats": self.stats,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "SearchResult":
        """The result a catalog record holds, its witness without trailing
        empty layers.  ValueError for a record that is not a JSON object, has a
        field of the wrong type or an unknown status, names another prefix than
        its options key does, or is a SAT record whose witness does not fit
        its own (n, d, s), does not sort or does not extend its prefix."""
        if not isinstance(rec, dict):
            raise ValueError("not a JSON object")
        _check_field_types(rec)
        if (rec.get("prefix") or "-") != (rec["options"].partition("prefix=")[2] or "-"):
            raise ValueError("the prefix differs from the options key's")
        net = None
        if rec.get("network"):
            net = Network.make(rec["network"]["n"], rec["network"]["layers"]).trimmed()
        prefix = parse_sentence(rec["prefix"]) if rec.get("prefix") else None
        implied_by = tuple(rec["implied_by"]) if rec.get("implied_by") else None
        res = cls(
            rec["n"], rec["d"], rec["s"], prefix, rec["options"], rec["status"],
            net, rec.get("solver", ""), rec.get("timings", {}), implied_by,
            rec.get("stats", {}), from_catalog=True,
        )
        if res.status == SAT and not (_fits(net, res.n, res.d, res.s) and is_sorting_network(net)):
            raise ValueError(
                f"SAT witness does not fit (n={res.n}, d={res.d}, s={res.s}) or does not sort"
            )
        if res.status == SAT and prefix and (
            (net.layers + ((), ()))[:2] != prefix_network(prefix, res.n).layers
        ):
            raise ValueError(f"SAT witness does not extend the prefix {rec['prefix']}")
        return res


def _is_int(value: object) -> bool:
    # JSON true and false load as bools, which Python counts as ints
    return isinstance(value, int) and not isinstance(value, bool)


def _check_field_types(rec: dict) -> None:
    """ValueError unless each field of a catalog record has its type and the
    status is one of SAT, UNSAT and UNKNOWN."""
    if not all(_is_int(rec[k]) for k in ("n", "d", "s")):
        raise ValueError("n, d and s must be integers")
    if not isinstance(rec.get("prefix"), (str, type(None))):
        raise ValueError("prefix must be a string or null")
    if not isinstance(rec["options"], str) or not isinstance(rec.get("solver", ""), str):
        raise ValueError("options and solver must be strings")
    if rec["status"] not in (SAT, UNSAT, UNKNOWN):
        raise ValueError(f"unknown status {rec['status']!r}")
    timings = rec.get("timings", {})
    if not isinstance(timings, dict) or not all(
        _is_int(t) or isinstance(t, float) for t in timings.values()
    ):
        raise ValueError("timings must be an object of numbers")
    stats = rec.get("stats", {})
    if not isinstance(stats, dict) or not all(map(_is_int, stats.values())):
        raise ValueError("stats must be an object of integers")
    implied_by = rec.get("implied_by")
    is_pair = isinstance(implied_by, list) and len(implied_by) == 2
    if implied_by is not None and not (is_pair and all(map(_is_int, implied_by))):
        raise ValueError("implied_by must be null or two integers")


def _fits(net: Network | None, n: int, d: int, s: int) -> bool:
    """Whether ``net`` is an n-channel network within d layers and s comparators."""
    return net is not None and net.n == n and net.size <= s and net.depth <= d


def _settles(rec: SearchResult, d: int, s: int) -> bool:
    """Whether ``rec`` answers its instance at bounds (d, s): an UNSAT at
    bounds no smaller, or a SAT whose witness fits them.  UNKNOWN settles
    nothing."""
    if rec.status == UNSAT:
        return rec.d >= d and rec.s >= s
    return rec.status == SAT and _fits(rec.network, rec.n, d, s)


def _refutes(witness: SearchResult, unsat: SearchResult) -> bool:
    """Whether ``witness`` is a SAT that fits the bounds of ``unsat``, an UNSAT."""
    return (witness.status, unsat.status) == (SAT, UNSAT) and _settles(witness, unsat.d, unsat.s)


class ResultCatalog:
    """Append-only JSON-lines store of answered tasks, indexed by instance:
    (n, options key), in catalog order; the key names the prefix.  With
    ``path`` None the records are kept in memory only."""

    def __init__(self, path: str | Path | None):
        self.path = Path(path) if path is not None else None
        self._index: dict[tuple, list[SearchResult]] = {}
        # lines read or written so far, and the "path:line" of each record in
        # the index (and of no other), by its id
        self._lines = 0
        self._place: dict[int, str] = {}
        if self.path is not None and self.path.exists():
            for self._lines, line in enumerate(self.path.read_text().splitlines(), 1):
                if not line.strip():
                    continue
                try:
                    res = SearchResult.from_record(json.loads(line))
                except (KeyError, TypeError, ValueError) as exc:
                    warnings.warn(f"{self.path}:{self._lines}: skipping corrupt record ({exc})")
                    continue
                self._enter(res)

    def _enter(self, res: SearchResult) -> None:
        """Index ``res``, the latest line, unless an indexed witness refutes
        it, and drop each indexed UNSAT that it refutes; every record enters
        here.  In memory the line is the record's place in ``put`` order."""
        records = self._index.setdefault((res.n, res.options_key), [])
        self._place[id(res)] = f"{self.path or 'catalog'}:{self._lines}"
        refuted = [(u, res) for u in records if _refutes(res, u)]
        refuted += [(res, w) for w in records if _refutes(w, res)][:1]
        for u, w in refuted:
            warnings.warn(f"{self._place.pop(id(u))}: UNSAT at ({u.n},{u.d},{u.s}) is refuted "
                          f"by the witness at {self._place[id(w)]}; ignored")
        records[:] = [r for r in (*records, res) if id(r) in self._place]

    def get(self, task) -> SearchResult | None:
        """The catalog's answer to ``task``, a ``search.SearchTask``; None
        when no record settles it (see ``_settles``).  That is the task's own
        record when one settles it, else the answer derived from the first
        settling record in catalog order: for the task's own (d, s), with
        ``implied_by`` set, no timings and the record's witness unchanged."""
        records = self._index.get((task.n, task.options.key()), [])
        own = [r for r in records if (r.d, r.s) == (task.d, task.s)]
        hit = next((r for r in own + records if _settles(r, task.d, task.s)), None)
        if hit is None or (hit.d, hit.s) == (task.d, task.s):
            return hit
        return SearchResult(
            task.n, task.d, task.s, task.options.prefix, hit.options_key, hit.status,
            hit.network, hit.solver, {}, (hit.d, hit.s),
        )

    def put(self, res: SearchResult) -> None:
        """Record ``res``; a record the catalog already holds (a reused answer)
        is not recorded again."""
        if id(res) in self._place:
            return
        if self.path is not None:
            self._append(res)
        self._lines += 1
        self._enter(res)

    def _append(self, res: SearchResult) -> None:
        # one write of the whole line on an O_APPEND descriptor: processes
        # sharing the file never interleave parts of their records
        line = (json.dumps(res.record()) + "\n").encode()
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            written = os.write(fd, line)
        finally:
            os.close(fd)
        if written != len(line):
            raise OSError(f"{self.path}: wrote {written} of {len(line)} bytes of a record")
