import itertools

import pytest

from sortnetsat.cardinality import CardinalityResult, build_atmost


def make(m: int, s: int) -> tuple[CardinalityResult, int]:
    counter = itertools.count(m + 1)
    res = build_atmost(list(range(1, m + 1)), s, lambda: next(counter))
    return res, next(counter) - 1


def forced_values(res: CardinalityResult, assignment: dict[int, bool]):
    """Fixpoint of unit propagation over the defining clauses from a full
    input assignment; with two-sided comparator clauses this determines every
    auxiliary, so it doubles as a functional evaluation."""
    val = dict(assignment)
    changed = True
    while changed:
        changed = False
        for cl in res.clauses:
            unassigned = [l for l in cl if abs(l) not in val]
            if any(val.get(abs(l)) == (l > 0) for l in cl):
                continue
            if len(unassigned) == 0:
                return None  # conflict: inputs violate the definitions
            if len(unassigned) == 1:
                l = unassigned[0]
                val[abs(l)] = l > 0
                changed = True
    return val


@pytest.mark.parametrize("m,s", [(m, s) for m in range(1, 7) for s in range(0, m)])
def test_outputs_count_true_inputs(m, s):
    res, _ = make(m, s)
    for bits in itertools.product([0, 1], repeat=m):
        assignment = {v: bool(bits[v - 1]) for v in range(1, m + 1)}
        val = forced_values(res, assignment)
        assert val is not None
        pop = sum(bits)
        for t, lit in enumerate(res.output_lits, start=1):
            expect = pop >= t
            got = False if lit is None else val[abs(lit)] == (lit > 0)
            assert got == expect, (bits, t)


def test_trivial_bound_is_empty():
    res, top = make(3, 3)
    assert res.clauses == () and res.c_target is None and top == 3
    assert res.output_lits == ()


def test_bound_one_of_three_truth_table():
    res, _ = make(3, 1)
    sat_count = 0
    for bits in itertools.product([0, 1], repeat=3):
        assignment = {v: bool(bits[v - 1]) for v in range(1, 4)}
        val = forced_values(res, assignment)
        ok = val is not None and not (
            res.c_target and val[abs(res.c_target)] == (res.c_target > 0)
        )
        assert ok == (sum(bits) <= 1)
        sat_count += ok
    assert sat_count == 4


def test_monotone_outputs():
    res, _ = make(6, 4)
    for bits in itertools.product([0, 1], repeat=6):
        assignment = {v: bool(bits[v - 1]) for v in range(1, 7)}
        val = forced_values(res, assignment)
        seq = [
            False if lit is None else val[abs(lit)] == (lit > 0)
            for lit in res.output_lits
        ]
        assert seq == sorted(seq, reverse=True)


def sizes(m: int, s: int) -> tuple[int, int]:
    """(auxiliary variables, clauses) of the counter for at most s of m."""
    res, top = make(m, s)
    return top - m, len(res.clauses)


def test_single_input_costs_nothing():
    aux, clauses = sizes(1, 0)
    assert aux == 0 and clauses <= 2


def test_aux_size_within_mlog2m():
    aux, clauses = sizes(8, 3)
    assert clauses <= 20 * 8 * 9  # c * m * log2(m)^2 with a generous constant
    assert aux <= clauses


def test_counts_deterministic_and_monotone():
    assert make(8, 3) == make(8, 3)
    for m in (4, 8, 16):
        counts = [sizes(m, s)[1] for s in range(0, m)]
        assert counts == sorted(counts)
    widths = [sizes(m, 3)[1] for m in (4, 8, 16, 32)]
    assert widths == sorted(widths)


def test_negative_bound_rejected():
    with pytest.raises(ValueError):
        build_atmost([1, 2], -1, lambda: 99)
