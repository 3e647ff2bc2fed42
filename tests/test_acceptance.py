"""Acceptance gate: every shipping requirement as one test with its stated
budget.  Run with ``pytest tests/test_acceptance.py``; each criterion reports
one line in the terminal summary.  Tests marked ``extended`` reproduce the
heavyweight published results and are excluded by default (enable with
``-m extended``)."""

import itertools
import random
import time

import pytest

from sortnetsat.cardinality import build_atmost
from sortnetsat.encoding import EncodeOptions, build_instance
from sortnetsat.networks import (
    Network,
    all_inputs,
    apply_network,
    is_sorting_network,
    permute_untangle,
    reflect,
)
from sortnetsat.catalog import ResultCatalog
from sortnetsat.search import SearchTask, run_level, run_task
from sortnetsat.solving import SAT, UNSAT, SolverConfig, decode_network, solve
from sortnetsat.words import (
    count_prefixes,
    enumerate_words,
    generate_prefixes,
    net_of,
    reflect_sentence,
    sentence_of,
)
from tests.conftest import matchings, random_two_layer

# reference cardinalities of the complete prefix sets, n = 3..16 (and the
# extended tail up to 26): H, T, T', G
PREFIX_TABLE = {
    3: (5, 2, 1, 4), 4: (14, 8, 6, 8), 5: (22, 14, 9, 16), 6: (50, 32, 23, 20),
    7: (84, 58, 36, 52), 8: (178, 123, 83, 61), 9: (300, 211, 127, 165),
    10: (588, 404, 256, 152), 11: (1004, 698, 403, 482), 12: (1900, 1305, 786, 414),
    13: (3234, 2223, 1245, 1378), 14: (5904, 3996, 2304, 1024),
    15: (10054, 6812, 3712, 3780), 16: (17959, 12046, 6716, 2627),
}
PREFIX_TABLE_EXTENDED = {
    17: (30435, 20372, 10879, 10187), 18: (53325, 35356, 19191, 6422),
    19: (90021, 59576, 31301, 26796), 20: (155518, 102182, 54352, 15906),
    21: (261204, 171172, 88847, 69498), 22: (445800, 290270, 152011, 38392),
    23: (745198, 483982, 248867, 177388), 24: (1259611, 813798, 421233, 92989),
    25: (2095183, 1349972, 689320, 447765), 26: (3511839, 2252214, 1155520, 221836),
}

STICK_COUNTS = {2: 1, 4: 3, 6: 4, 8: 10, 10: 16, 12: 36, 14: 64, 16: 136}
CYCLE_COUNTS = {2: 1, 4: 2, 6: 2, 8: 4, 10: 4, 12: 9, 14: 10, 16: 22}


def test_criterion_1_prefix_set_cardinalities():
    start = time.monotonic()
    for n, expected in PREFIX_TABLE.items():
        got = tuple(len(generate_prefixes(n, v)) for v in ("H", "T", "T'", "G"))
        assert got == expected, f"n={n}: {got} != {expected}"
        counted = tuple(count_prefixes(n, v) for v in ("H", "T", "T'", "G"))
        assert counted == expected, f"n={n} closed-form disagrees"
    assert time.monotonic() - start < 60.0


def test_criterion_1_extended_counts_to_26():
    for n, expected in PREFIX_TABLE_EXTENDED.items():
        got = tuple(count_prefixes(n, v) for v in ("H", "T", "T'", "G"))
        assert got == expected, f"n={n}: {got} != {expected}"


def test_criterion_2_completeness_against_exhaustive_enumeration():
    start = time.monotonic()
    for n in range(3, 8):
        layers = matchings(n)
        classes = {
            sentence_of(Network(n, (l1, l2)))
            for l1 in layers
            for l2 in layers
        }
        assert len(classes) == len(generate_prefixes(n, "H"))
        assert classes == set(generate_prefixes(n, "H").sentences)
    assert time.monotonic() - start < 300.0


def test_criterion_3_word_count_identities():
    for n in range(1, 18, 2):
        assert len(enumerate_words(n, "head")) == 2 ** ((n - 1) // 2)
    for n, c in STICK_COUNTS.items():
        assert len(enumerate_words(n, "stick")) == c
    for n, c in CYCLE_COUNTS.items():
        assert len(enumerate_words(n, "cycle")) == c
    for n in range(4, 18, 2):
        assert len(enumerate_words(n, "tail")) == len(enumerate_words(n - 2, "stick"))


def test_criterion_4_known_optima_verify(known_optima):
    start = time.monotonic()
    expected = {
        "n6_d5_s12": (6, 5, 12), "n7_d6_s16": (7, 6, 16), "n8_d6_s19": (8, 6, 19),
        "n9_d7_s25": (9, 7, 25), "n10_d7_s31": (10, 7, 31), "n10_d8_s29": (10, 8, 29),
        "n11_d8_s35_a": (11, 8, 35), "n11_d8_s35_b": (11, 8, 35),
        "n11_d8_s35_c": (11, 8, 35), "n11_d8_s35_d": (11, 8, 35),
        "n11_d8_s35_e": (11, 8, 35), "n12_d8_s40": (12, 8, 40), "n12_d9_s39": (12, 9, 39),
        "n2_d1_s1": (2, 1, 1), "n3_d3_s3": (3, 3, 3), "n4_d3_s5": (4, 3, 5),
        "n5_d5_s9": (5, 5, 9),
    }
    assert set(expected) == set(known_optima)
    for name, (n, d, s) in expected.items():
        rec = known_optima[name]
        net = Network.make(rec["n"], rec["layers"])
        assert (net.n, net.depth, net.size) == (n, d, s), name
        assert is_sorting_network(net), name
    assert time.monotonic() - start < 1.0


SAT_POINTS = [(4, 3, 5), (5, 5, 9), (6, 5, 12), (7, 6, 16), (8, 6, 19)]
UNSAT_POINTS = [(4, 3, 4), (4, 2, 5), (5, 5, 8), (6, 5, 11)]


def test_criterion_5_small_joint_optima_sat_side(external_cfg, builtin_cfg):
    start = time.monotonic()
    for n, d, s in SAT_POINTS:
        formula, vm = build_instance(n, d, s)
        out = solve(formula, external_cfg)
        assert out.status == SAT, (n, d, s)
        net = decode_network(out.model, vm)
        assert is_sorting_network(net) and net.size <= s and net.depth <= d
    for n, d, s in [(4, 3, 5), (5, 5, 9)]:
        formula, vm = build_instance(n, d, s)
        out = solve(formula, builtin_cfg)
        assert out.status == SAT, ("builtin", n, d, s)
        assert is_sorting_network(decode_network(out.model, vm))
    assert time.monotonic() - start < 600.0


def test_criterion_6_small_unsat_bounds(external_cfg):
    start = time.monotonic()
    for n, d, s in UNSAT_POINTS:
        formula, _ = build_instance(n, d, s)
        out = solve(formula, external_cfg)
        assert out.status == UNSAT, (n, d, s)
    assert time.monotonic() - start < 600.0


@pytest.mark.extended
def test_criterion_7_ten_channels_depth_seven(external_cfg):
    cfg = SolverConfig(external_cfg.command, timeout=7200)
    formula, vm = build_instance(10, 7, 31)
    out = solve(formula, cfg)
    assert out.status == SAT
    assert is_sorting_network(decode_network(out.model, vm))
    level = run_level(10, 7, 30, generate_prefixes(10, "T'").sentences, config=cfg,
                      jobs=2, stop_on_sat=False)
    assert level.status == UNSAT, {r.status for r in level.results}


@pytest.mark.extended
def test_criterion_7_ten_channels_depth_eight_29(external_cfg, known_optima):
    # existence of a 29-comparator depth-8 network; seeding the search with
    # the known witness's own first two layers keeps this minutes-scale
    cfg = SolverConfig(external_cfg.command, timeout=7200)
    rec = known_optima["n10_d8_s29"]
    first_two = Network.make(rec["n"], rec["layers"][:2])
    seed = min(sentence_of(first_two), reflect_sentence(sentence_of(first_two)))
    res = run_task(SearchTask(10, 8, 29, EncodeOptions().with_prefix(seed), cfg))
    assert res.status == SAT
    assert is_sorting_network(res.network) and res.network.size <= 29


@pytest.mark.extended
def test_criterion_7_eleven_channels_optimum_35(external_cfg):
    cfg = SolverConfig(external_cfg.command, timeout=14400)
    level = run_level(11, 8, 35, generate_prefixes(11, "T'").sentences, config=cfg,
                      jobs=2, stop_on_sat=False)
    assert all(r.status in (SAT, UNSAT) for r in level.results)
    assert len(level.witnesses()) == 5, sorted(r.prefix for r in level.witnesses())
    for r in level.witnesses():
        assert is_sorting_network(r.network) and r.network.size <= 35


@pytest.mark.extended
def test_criterion_7_eleven_channels_34_impossible_to_depth_9(external_cfg, tmp_path):
    cfg = SolverConfig(external_cfg.command, timeout=86400)
    catalog = ResultCatalog(tmp_path / "n11.jsonl")
    prefixes = generate_prefixes(11, "T'").sentences
    level = run_level(11, 9, 34, prefixes, config=cfg, catalog=catalog,
                      jobs=2, stop_on_sat=False)
    assert level.status == UNSAT, {r.status for r in level.results}
    # "8 or 9 layers": every (11,9,34) refusal settles (11,8,34) without a solve
    shallower = run_level(11, 8, 34, prefixes, config=cfg, catalog=catalog,
                          jobs=2, stop_on_sat=False)
    assert shallower.status == UNSAT
    assert all(r.implied_by == (9, 34) for r in shallower.results)


@pytest.mark.extended
def test_criterion_7_twelve_channels_depth_eight(external_cfg, tmp_path):
    cfg = SolverConfig(external_cfg.command, timeout=86400)
    catalog = ResultCatalog(tmp_path / "n12.jsonl")
    prefixes = generate_prefixes(12, "T'").sentences
    level = run_level(12, 8, 40, prefixes, config=cfg, catalog=catalog,
                      jobs=2, stop_on_sat=False)
    assert all(r.status in (SAT, UNSAT) for r in level.results)
    assert len(level.witnesses()) == 4, sorted(r.prefix for r in level.witnesses())
    # the (12,8,40) refusals settle (12,8,39): only the witness prefixes are solved
    lower = run_level(12, 8, 39, prefixes, config=cfg, catalog=catalog,
                      jobs=2, stop_on_sat=False)
    assert lower.status == UNSAT, {r.status for r in lower.results}
    solved = {r.prefix for r in lower.results if r.implied_by is None}
    assert solved == {r.prefix for r in level.witnesses()}


@pytest.mark.extended
def test_criterion_7_twelve_channels_depth_nine_39(external_cfg, known_optima):
    cfg = SolverConfig(external_cfg.command, timeout=14400)
    # SAT existence: start from the prefix of the known witness, then scan
    rec = known_optima["n12_d9_s39"]
    first_two = Network.make(rec["n"], rec["layers"][:2])
    seed = min(sentence_of(first_two), reflect_sentence(sentence_of(first_two)))
    prefixes = [seed] + [
        p for p in generate_prefixes(12, "T'").sentences if p != seed
    ]
    level = run_level(12, 9, 39, prefixes, config=cfg)
    assert level.status == SAT, "no prefix extended to 39 comparators in 9 layers"
    net = level.witnesses()[0].network
    assert is_sorting_network(net) and net.size <= 39


def _up_closure(clauses, assignment):
    """Plain unit propagation; returns the forced assignment or None."""
    val = dict(assignment)
    changed = True
    while changed:
        changed = False
        for cl in clauses:
            if any(val.get(abs(l)) == (l > 0) for l in cl):
                continue
            free = [l for l in cl if abs(l) not in val]
            if not free:
                return None
            if len(free) == 1:
                val[abs(free[0])] = free[0] > 0
                changed = True
    return val


def test_criterion_8_cardinality_equivalence_and_propagation():
    start = time.monotonic()
    for m in range(1, 11):
        for s in range(0, m + 1):
            counter = itertools.count(m + 1)
            res = build_atmost(list(range(1, m + 1)), s, lambda: next(counter))
            base = list(res.clauses)
            if res.c_target is not None:
                base.append((-res.c_target,))
            for bits in itertools.product([0, 1], repeat=m):
                assignment = {v: bool(bits[v - 1]) for v in range(1, m + 1)}
                ok = _up_closure(base, assignment) is not None
                assert ok == (sum(bits) <= s), (m, s, bits)
    # unit propagation alone must finish the job once the bound is reached
    for m in range(2, 11):
        for s in range(0, m):
            counter = itertools.count(m + 1)
            res = build_atmost(list(range(1, m + 1)), s, lambda: next(counter))
            base = list(res.clauses) + [(-res.c_target,)]
            for chosen in itertools.combinations(range(1, m + 1), s):
                val = _up_closure(base, {v: True for v in chosen})
                assert val is not None
                for v in range(1, m + 1):
                    if v not in chosen:
                        assert val.get(v) is False, (m, s, chosen, v)
    assert time.monotonic() - start < 60.0


def test_criterion_9_solverless_property_suite():
    rng = random.Random(20240817)
    # bit-multiset preservation, reflection closure, untangling invariance
    for _ in range(400):
        n = rng.randint(2, 8)
        net = random_two_layer(rng, n)
        x = tuple(rng.randint(0, 1) for _ in range(n))
        assert sum(apply_network(net, x)) == sum(x)
        assert is_sorting_network(reflect(net)) == is_sorting_network(net)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        assert is_sorting_network(permute_untangle(net, perm)) == is_sorting_network(net)
    # canonical-form round trip over a complete set
    for s in generate_prefixes(7, "H").sentences:
        assert sentence_of(net_of(s)) == s
        assert reflect_sentence(reflect_sentence(s)) == s
    # equal sentences exactly characterize permutation equivalence: 10k trials
    failures = 0
    for _ in range(10000):
        n = rng.randint(2, 9)
        net = random_two_layer(rng, n)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        if sentence_of(permute_untangle(net, perm)) != sentence_of(net):
            failures += 1
    assert failures == 0
