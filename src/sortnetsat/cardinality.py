"""At-most-s constraints from a Boolean counting network.

An odd-even merge sorter over the input literals computes, with one auxiliary
pair per comparator, the decreasing-sorted outputs y_1 >= y_2 >= ...; y_t is
true exactly when at least t inputs are true.  Asserting the single unit
clause ``-y_{s+1}`` therefore caps the count at s.  The network is pruned to
the cone of the first s+1 outputs, which keeps the clause count near
O(m log^2 s), and every comparator gets both implication directions so unit
propagation is complete in either polarity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

_FALSE = ("const", 0)

Wire = object  # int literal, _FALSE, or ("hi"|"lo", node index)


@dataclass(frozen=True)
class CardinalityResult:
    """Defining clauses plus the sorted-output literals (None = constant 0).

    ``c_target`` is y_{s+1}; adding the unit clause ``-c_target`` enforces
    "at most s of the inputs are true".  It is None when the bound is
    trivially satisfied.
    """

    output_lits: tuple[int | None, ...]
    clauses: tuple[tuple[int, ...], ...]
    c_target: int | None


def _merge_schedule(lo: int, hi: int, r: int, out: list[tuple[int, int]]) -> None:
    step = r * 2
    if step < hi - lo:
        _merge_schedule(lo, hi, step, out)
        _merge_schedule(lo + r, hi, step, out)
        out.extend((i, i + r) for i in range(lo + r, hi - r, step))
    else:
        out.append((lo, lo + r))


def _sort_schedule(lo: int, hi: int, out: list[tuple[int, int]]) -> None:
    if hi - lo >= 1:
        mid = lo + (hi - lo) // 2
        _sort_schedule(lo, mid, out)
        _sort_schedule(mid + 1, hi, out)
        _merge_schedule(lo, hi, 1, out)


def batcher_schedule(width: int) -> list[tuple[int, int]]:
    """Comparator slots of an odd-even mergesort on ``width`` wires
    (width must be a power of two)."""
    out: list[tuple[int, int]] = []
    _sort_schedule(0, width - 1, out)
    return out


def build_atmost(
    inputs: Sequence[int], s: int, fresh: Callable[[], int]
) -> CardinalityResult:
    """Counting-network clauses for "at most ``s`` of ``inputs`` are true".

    ``fresh`` allocates auxiliary variable ids, so instance-wide numbering
    stays contiguous and deterministic.
    """
    if s < 0:
        raise ValueError(f"negative bound s={s}")
    m = len(inputs)
    if m == 0 or s >= m:
        # nothing to constrain: fewer inputs than the bound allows
        return CardinalityResult((), (), None)

    width = 1
    while width < m:
        width <<= 1
    wires: list[Wire] = list(inputs) + [_FALSE] * (width - m)

    # symbolic pass with constant folding; comparator puts max (or) on the
    # upper slot so outputs come out in decreasing order
    nodes: list[tuple[Wire, Wire]] = []
    for p, q in batcher_schedule(width):
        a, b = wires[p], wires[q]
        if a is _FALSE:
            wires[p], wires[q] = b, _FALSE
        elif b is _FALSE:
            wires[p], wires[q] = a, _FALSE
        else:
            idx = len(nodes)
            nodes.append((a, b))
            wires[p], wires[q] = ("hi", idx), ("lo", idx)

    # cone of influence of the first s+1 outputs
    hi_needed = [False] * len(nodes)
    lo_needed = [False] * len(nodes)
    stack = [w for w in wires[: s + 1] if isinstance(w, tuple) and w is not _FALSE]
    while stack:
        side, idx = stack.pop()
        flags = hi_needed if side == "hi" else lo_needed
        if flags[idx]:
            continue
        flags[idx] = True
        for parent in nodes[idx]:
            if isinstance(parent, tuple) and parent is not _FALSE:
                stack.append(parent)

    hi_var: dict[int, int] = {}
    lo_var: dict[int, int] = {}
    for idx in range(len(nodes)):
        if hi_needed[idx]:
            hi_var[idx] = fresh()
        if lo_needed[idx]:
            lo_var[idx] = fresh()

    def lit(w: Wire) -> int:
        if isinstance(w, int):
            return w
        side, idx = w
        return hi_var[idx] if side == "hi" else lo_var[idx]

    clauses: list[tuple[int, ...]] = []
    for idx, (a, b) in enumerate(nodes):
        if not (hi_needed[idx] or lo_needed[idx]):
            continue
        la, lb = lit(a), lit(b)
        if hi_needed[idx]:
            hi = hi_var[idx]
            clauses += [(-la, hi), (-lb, hi), (-hi, la, lb)]
        if lo_needed[idx]:
            lo = lo_var[idx]
            clauses += [(-lo, la), (-lo, lb), (-la, -lb, lo)]

    outputs = tuple(
        None if w is _FALSE else lit(w) for w in wires[: s + 1]
    )
    return CardinalityResult(outputs, tuple(clauses), outputs[s])
