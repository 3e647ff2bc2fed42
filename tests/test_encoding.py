import gc
import hashlib
import io
import tracemalloc
import weakref
from collections import Counter

import pytest

from sortnetsat import cardinality, encoding
from sortnetsat.encoding import (
    ENCODER_VERSION,
    CnfFormula,
    EncodeOptions,
    EncodingError,
    VarMap,
    build_instance,
    encode_last_layers,
    encode_prefix,
    encode_redundant_sorts,
    encode_sigma1,
    encode_sigma3,
    encode_sorts,
    encode_valid,
    prefix_network,
    window_of,
)
from sortnetsat.networks import all_inputs, apply_network, is_sorted_bits
from sortnetsat.solving import emit_dimacs, write_minicdcl
from sortnetsat.words import format_sentence, generate_prefixes, parse_sentence


def fresh(n, d, start=0):
    return VarMap(n, d, start), CnfFormula()


def test_valid_clause_counts():
    vm, f = fresh(3, 1)
    encode_valid(vm, f)
    assert len(f.clauses) == 3 and all(len(c) == 2 for c in f.clauses)
    vm, f = fresh(2, 1)
    encode_valid(vm, f)
    assert list(f.clauses) == []
    vm, f = fresh(4, 1)
    encode_valid(vm, f)
    assert len(f.clauses) == 12


def test_g_ids_layer_major():
    vm = VarMap(3, 2)
    assert vm.g(1, 1, 2) == 1 and vm.g(1, 1, 3) == 2 and vm.g(1, 2, 3) == 3
    assert vm.g(2, 1, 2) == 4
    assert vm.num_vars == 6


def test_sorts_forces_single_comparator():
    formula, vm = build_instance(2, 1, 1)
    # the comparator variable must be pinned true by propagation of x=10
    from sortnetsat.dpll import solve_clauses

    status, model = solve_clauses(formula.num_vars, formula.clauses)
    assert status == "SAT" and model[vm.g(1, 1, 2)]


def test_window_of():
    assert window_of((0, 1, 1, 0, 1)) == (2, 3)
    assert window_of((1, 0)) == (1, 2)
    assert window_of((0, 0, 1, 1)) == (3, 0)


def test_redundant_sorts_rejects_sorted_input():
    vm, f = fresh(3, 2)
    vm.register_input((0, 1, 1))
    with pytest.raises(EncodingError):
        encode_redundant_sorts(vm, f, (0, 1, 1))


def test_redundant_sorts_full_window_covers_all_channels():
    vm, f = fresh(3, 1)
    vm.register_input((1, 1, 0))
    encode_sorts(vm, f, (1, 1, 0))
    before = len(f.clauses)
    encode_redundant_sorts(vm, f, (1, 1, 0))
    # two clauses per channel per layer, plus aux definitions
    assert len(f.clauses) > before


def test_last_layer_units():
    vm, f = fresh(4, 3)
    encode_last_layers(vm, f)
    units = {c[0] for c in f.clauses if len(c) == 1}
    assert {-vm.g(3, 1, 3), -vm.g(3, 1, 4), -vm.g(3, 2, 4)} <= units
    # no span-over-3 exists on 3 channels: the penultimate family is vacuous
    vm, f = fresh(3, 3)
    encode_last_layers(vm, f)
    assert all(-vm.g(2, i, j) not in {c[0] for c in f.clauses if len(c) == 1}
               for i in range(1, 4) for j in range(i + 1, 4))
    spans = [c for c in f.clauses if len(c) == 1 and c[0] == -vm.g(2, 1, 3)]
    assert not spans  # |1-3| = 2 <= 3 stays allowed


def test_sigma_families():
    vm, f = fresh(2, 2)
    encode_sigma1(vm, f)
    assert (-vm.g(1, 1, 2), -vm.g(2, 1, 2)) in f.clauses
    vm, f = fresh(3, 1)
    encode_sigma3(vm, f)
    assert list(f.clauses) == [(vm.g(1, 1, 2),), (vm.g(1, 2, 3),)]


def test_prefix_fixes_first_two_layers():
    prefix = parse_sentence("(012,12211221c)")
    vm, f = fresh(11, 8, start=2)
    net = prefix_network(prefix, 11)
    encode_prefix(vm, f, net)
    pos = [c[0] for c in f.clauses if len(c) == 1 and c[0] > 0]
    neg = [c[0] for c in f.clauses if len(c) == 1 and c[0] < 0]
    assert len(pos) == 10  # 5 + 5 comparators in the two fixed layers
    assert len(pos) + len(neg) == 2 * (11 * 10 // 2)
    # the instance encodes the prefix's unsorted outputs, in order
    _, vm = build_instance(11, 3, 30, EncodeOptions().with_prefix(prefix))
    inputs = vm.inputs
    assert inputs and all(not is_sorted_bits(x) for x in inputs)
    assert inputs == sorted(inputs)
    outputs = {apply_network(net, x) for x in all_inputs(11)}
    assert inputs == sorted(y for y in outputs if not is_sorted_bits(y))


def test_prefix_pads_missing_channels_with_free_ones():
    net = prefix_network(parse_sentence("(12)"), 4)
    assert net.n == 4
    with pytest.raises(EncodingError):
        prefix_network(parse_sentence("(12,12)"), 3)


def test_full_prefix_leaves_nothing_to_sort():
    _, vm = build_instance(2, 2, 1, EncodeOptions().with_prefix(parse_sentence("(12)")))
    assert vm.inputs == []


def test_build_rejects_bad_dimensions():
    with pytest.raises(EncodingError, match="need n >= 1"):
        build_instance(0, 3, 3)
    with pytest.raises(EncodingError, match="d >= 1"):
        build_instance(4, 0, 3)
    with pytest.raises(EncodingError, match="need s >= 1"):
        build_instance(4, 3, 0)
    with pytest.raises(EncodingError, match="start layer 2 needs d >= 2"):
        build_instance(4, 1, 2, EncodeOptions().with_prefix(parse_sentence("(1212)")))


def test_only_unsorted_drops_sorted_inputs():
    for n in (1, 2, 3, 5):
        _, vm = build_instance(n, 2, 3)
        assert vm.inputs == [x for x in all_inputs(n) if not is_sorted_bits(x)]
        assert len(vm.inputs) == 2**n - n - 1


def test_deterministic_emission():
    a, _ = build_instance(4, 3, 5)
    b, _ = build_instance(4, 3, 5)
    assert emit_dimacs(a) == emit_dimacs(b)
    c, _ = build_instance(4, 3, 5, EncodeOptions(redundant_sorts=False))
    assert emit_dimacs(a) != emit_dimacs(c)


def test_add_refuses_an_empty_clause():
    with pytest.raises(EncodingError):
        CnfFormula().add()


def test_add_refuses_a_zero_literal():
    # 0 ends a clause in the store, so it cannot be a literal
    with pytest.raises(EncodingError):
        CnfFormula(2).add(1, 0, 2)


def identity(nv):
    """The table of 2 * nv + 1 entries that maps every literal to itself."""
    return list(range(nv + 1)) + list(range(-nv, 0))


def chain_entries(vm, x):
    """The store entries of x's value-chain clauses, clause by clause."""
    f = CnfFormula()
    encoding._encode_chain(vm, f, x)
    return [e for c in f.clauses for e in (*c, 0)]


def test_store_is_flat_and_slices_are_clause_aligned(monkeypatch, chain_template):
    vm, xs, chain = chain_template
    b1, b2 = vm.block(xs[1]), vm.block(xs[2])
    f = CnfFormula(vm.num_vars)
    f.add(1, -2)
    f.add(3)
    f.add_template(chain, b1)
    f.add(-1, 2, -3, 4, -5, 6, 7)
    f.add_template(chain, b2)
    f.add_template(chain, b1)
    f.add(2)
    f.add(-4, 5)
    # plain parts and template parts interleave; ``add`` writes to a new
    # plain part after each template part
    assert f.parts == [
        [1, -2, 0, 3, 0], (chain, b1), [-1, 2, -3, 4, -5, 6, 7, 0], (chain, b2), [],
        (chain, b1), [2, 0, -4, 5, 0],
    ]
    e1, e2 = chain_entries(vm, xs[1]), chain_entries(vm, xs[2])
    entries = [1, -2, 0, 3, 0, *e1, -1, 2, -3, 4, -5, 6, 7, 0, *e2, *e1, 2, 0, -4, 5, 0]
    assert chain.num_clauses == e1.count(0) == 48
    assert len(f.clauses) == f.num_clauses == 5 + 3 * chain.num_clauses
    clauses, start = [], 0
    while start < len(entries):
        end = entries.index(0, start)
        clauses.append(tuple(entries[start:end]))
        start = end + 1
    assert list(f.clauses) == clauses
    for size in range(1, 20):
        monkeypatch.setattr(encoding, "CHUNK", size)
        runs = list(f.runs(identity(f.num_vars)))
        assert sum(runs, ()) == tuple(entries)
        for run in runs:
            # each run ends with a clause's 0: a template part is one run; a
            # plain run ends at the first 0 at or after its size-th entry
            assert run[-1] == 0
            assert list(run) in (e1, e2) or 0 not in run[size - 1 : -1]
        assert [list(r) for r in runs if len(r) > 20] == [e1, e2, e1]
    assert list(CnfFormula().runs([0])) == [] and list(CnfFormula().clauses) == []


def test_formulas_are_equal_when_their_clauses_are(chain_template):
    vm, xs, chain = chain_template
    by_template = CnfFormula(vm.num_vars)
    by_template.add(1)
    by_template.add_template(chain, vm.block(xs[1]))
    by_add = CnfFormula(vm.num_vars)
    by_add.add(1)
    encoding._encode_chain(vm, by_add, xs[1])
    assert by_template == by_add and by_template.parts != by_add.parts
    by_add.add(2)
    assert by_template != by_add
    by_add = CnfFormula(vm.num_vars + 1)
    by_add.add(1)
    encoding._encode_chain(vm, by_add, xs[1])
    assert by_template != by_add


def test_flat_store_holds_few_bytes_per_clause():
    # a tuple per clause cost 82.7 B a clause here, one flat list of literals
    # 44.7 B, and a store of template references 6.4 B
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        formula, _vm = build_instance(8, 6, 19)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / len(formula.clauses) <= 10


# ENCODER_VERSION -> rows of (n, d, s, prefix, options, num_vars, clauses,
# sha256 of the DIMACS text, sha256 of dump_map or None): the encoder promises
# byte-identical output, so any change to variable numbering, clause order or
# the map text shows up here, and must come with a new ENCODER_VERSION (which
# changes every catalog key) and new rows under it
PINNED = {
    1: [
        (4, 3, 5, None, {}, 378, 2367,
         "2e27d8ebb4af554f1cf3a9e68b0f2dc97c9647ccbd4daaf09bced8546c53338c",
         "67a52356410a0761138fcb2af25a7260564c983526da38f520df2d517853df8d"),
        (6, 5, 12, None, {}, 3459, 36919,
         "bd306070283d33fc867b492e7f4181944d04d16ac94158e6db420b905a78babe", None),
        (9, 7, 25, "(0,1221,1221c)", {}, 10644, 127678,
         "59a9806c08add3561c0ef39d4865476395f120677c621dd3430e61ab637ec13f",
         "e0b753542f8e511f3fed7aa422db9e01b67e8d3e83e11cf020059c2288416d51"),
        (11, 8, 35, "(012,12211221c)", {}, 29898, 529774,
         "a84fb7939c1c28acfda177171208ea101ea43df7a4ad6609ba216fce3fada01c", None),
        # the instance of `sortnetsat solve 10 7 31`
        (10, 7, 31, None, {}, 90510, 2223520,
         "66f0cb0340f14f78b49ff8cabae585c4d387dcfd45bf215f68bb7cc76d0597d5",
         "cbdf2d4c5215c31f601df98ef441b10e9424d767d31067a003afda49550c850f"),
        # no input gets window clauses
        (6, 4, 10, None, {"redundant_sorts": False}, 2497, 26552,
         "9cedb8bf7f4e636b8d4314f035f1738e430cfe7a0c0a125879d2f8574ede1800", None),
        # d = 2 leaves no free layer: each input is its 2n units
        (9, 2, 9, "(0,1221,1221c)", {}, 1908, 5319,
         "e59398cc8d48abc84b89cf15bc80d397e00f061a9280bf760fb2202d3222650f", None),
    ],
}


def test_encoder_version_is_pinned():
    assert ENCODER_VERSION in PINNED


def test_options_key_names_the_encoder_version():
    assert EncodeOptions().key().startswith(f"encoder={ENCODER_VERSION},")


def test_options_key_text_is_pinned():
    # every stored catalog key has this text: a change to it orphans them
    flags = "encoder=1,redundant_sorts=1,last_layer=1,sigma1=1,sigma2=1,sigma3=1,only_unsorted=1"
    assert EncodeOptions().key() == flags + ",prefix=-"
    prefixed = EncodeOptions().with_prefix(parse_sentence("(0,1221,1221c)"))
    assert prefixed.key() == flags + ",prefix=(0,1221,1221c)"
    assert EncodeOptions(sigma2=False).key() == flags.replace("sigma2=1", "sigma2=0") + ",prefix=-"


@pytest.mark.parametrize(
    "n,d,s,prefix,options,num_vars,num_clauses,dimacs_sha,map_sha",
    PINNED.get(ENCODER_VERSION, []),
    ids=[f"{n}-{d}-{s}" for n, d, s, *_ in PINNED.get(ENCODER_VERSION, [])],
)
def test_pinned_encoder_output(
    n, d, s, prefix, options, num_vars, num_clauses, dimacs_sha, map_sha
):
    options = EncodeOptions(**options).with_prefix(parse_sentence(prefix) if prefix else None)
    formula, vm = build_instance(n, d, s, options)
    assert (formula.num_vars, len(formula.clauses)) == (num_vars, num_clauses)
    assert hashlib.sha256(emit_dimacs(formula).encode()).hexdigest() == dimacs_sha
    if map_sha is not None:
        dump = vm.dump_map()
        roles = {line.split(" ", 1)[0] for line in dump.splitlines()}
        assert roles == {"g", "v", "used", "oneDown", "oneUp", "card"}
        assert hashlib.sha256(dump.encode()).hexdigest() == map_sha


def _encode_each_input(vm, formula, inputs, redundant_sorts):
    """What encode_inputs promises to equal: every input encoded clause by
    clause, in turn."""
    for x in inputs:
        vm.register_input(x)
    for x in inputs:
        encode_sorts(vm, formula, x)
        if redundant_sorts:
            encode_redundant_sorts(vm, formula, x)


@pytest.mark.parametrize(
    "options",
    [{}, {"redundant_sorts": False}],
    ids=["default", "no-windows"],
)
def test_templates_match_encoding_each_input(monkeypatch, options):
    points = [(n, d, None) for n in (2, 3, 5, 6) for d in (1, 2, 4)]
    points += [(6, d, "(0,0,12)") for d in (2, 3, 5)]
    points += [(7, d, "(0,1221c)") for d in (2, 4)]
    # some windows of these occur once, others repeat: the first input with a
    # window is encoded clause by clause, every later one applies the shape's
    # template of that window, bound to the instance's ids
    points += [(7, d, p) for d in (3, 6) for p in ("(012,2112)", "(0122112)")]
    points += [(9, 4, format_sentence(generate_prefixes(9, "T'").sentences[2]))]
    points += [(2, 2, "(12)"), (2, 3, "(12)")]  # no prefix output is left unsorted
    for n, d, prefix in points:
        opts = EncodeOptions(**options).with_prefix(parse_sentence(prefix) if prefix else None)
        fast, fast_vm = build_instance(n, d, n + 1, opts)
        if n >= 7 and d != 2:
            counts = set(Counter(map(window_of, fast_vm.inputs)).values())
            assert 1 in counts and max(counts) > 1, prefix
        with monkeypatch.context() as m:
            m.setattr(encoding, "encode_inputs", _encode_each_input)
            ref, ref_vm = build_instance(n, d, n + 1, opts)
        assert fast.num_vars == ref.num_vars, (n, d, prefix)
        assert fast == ref, (n, d, prefix)
        assert fast_vm.dump_map() == ref_vm.dump_map(), (n, d, prefix)


def _build_with_a_direct_counter(monkeypatch, n, d, s, options):
    """What build_instance promises to equal: the instance without its
    counter, then the clauses of a direct ``build_atmost`` call over fresh
    ids and its unit."""
    with monkeypatch.context() as m:
        m.setattr(encoding._Shape, "counter", lambda shape, s: encoding._Template([], range(0)))
        formula, vm = build_instance(n, d, s, options)
    card = cardinality.build_atmost(vm.g_lits(), s, vm.fresh)
    for clause in card.clauses:
        formula.add(*clause)
    if card.c_target is not None:
        formula.add(-card.c_target)
    formula.num_vars = vm.num_vars
    return formula, vm, card


@pytest.mark.parametrize(
    "n,d,s,prefix",
    [(4, 3, 5, None), (5, 4, 9, None), (3, 2, 6, None), (3, 2, 9, None),
     (7, 4, 10, "(0,1221c)"), (6, 3, 7, "(0,0,12)"), (6, 3, 45, "(0,0,12)")],
)
def test_counter_template_matches_a_direct_build(monkeypatch, n, d, s, prefix):
    options = EncodeOptions().with_prefix(parse_sentence(prefix) if prefix else None)
    formula, vm = build_instance(n, d, s, options)
    ref, ref_vm, card = _build_with_a_direct_counter(monkeypatch, n, d, s, options)
    # s at least the number of g literals: no counter, no auxiliary
    assert (card.c_target is None) == (s >= len(vm.g_lits()))
    assert formula.num_vars == ref.num_vars and formula == ref
    assert emit_dimacs(formula) == emit_dimacs(ref)
    assert vm.dump_map() == ref_vm.dump_map()


def test_instances_of_one_level_share_a_counter_template():
    def counter(formula):
        (template, block), tail = formula.parts[-2:]
        assert tail == [] and block.stop == formula.num_vars + 1
        return template

    opts = EncodeOptions()
    a, _ = build_instance(7, 5, 14, opts.with_prefix(parse_sentence("(0,1221c)")))
    b, _ = build_instance(7, 5, 14, opts.with_prefix(parse_sentence("(0,0,12,12)")))
    c, _ = build_instance(7, 5, 13, opts.with_prefix(parse_sentence("(0,0,12,12)")))
    assert counter(a) is counter(b)
    assert counter(c) is not counter(a)
    assert counter(c).num_clauses < counter(a).num_clauses


def test_a_shape_drops_its_counters_with_it():
    encoding._shape.cache_clear()
    build_instance(4, 3, 5)
    counter = weakref.ref(encoding._shape(4, 3, 0).counter(5))
    gc.collect()
    assert counter() is not None  # the shape keeps it
    for d in range(4, 4 + encoding.SHAPES):
        build_instance(4, d, 5)
    gc.collect()
    assert counter() is None  # evicted with its shape


def _texts(n, d, s, options):
    formula, vm = build_instance(n, d, s, options)
    minicdcl = io.StringIO()
    write_minicdcl(formula, minicdcl)
    return emit_dimacs(formula), minicdcl.getvalue(), vm.dump_map()


def test_shape_cache_is_invisible():
    """A mixed sequence of instances, built in one process with the shapes
    its earlier instances cached, gives the text each gives when built with
    no shape cached."""
    t7 = generate_prefixes(7, "T'").sentences
    opts = EncodeOptions()
    points = [(7, 6, 16, opts.with_prefix(p)) for p in t7[::5]]
    points += [(7, 4, s, opts.with_prefix(t7[k])) for s, k in ((9, 3), (12, 20))]
    points += [(6, 5, 12, opts), (7, 6, 16, opts.with_prefix(t7[1]))]
    points += [(7, 6, 16, EncodeOptions(redundant_sorts=False).with_prefix(p)) for p in t7[2:4]]
    points += [(9, 7, 25, opts.with_prefix(generate_prefixes(9, "T'").sentences[2]))]
    encoding._shape.cache_clear()
    texts = [_texts(*point) for point in points]
    assert encoding._shape.cache_info().hits > len(points)
    for point, text in zip(points, texts):
        encoding._shape.cache_clear()
        assert _texts(*point) == text, point


def test_instances_of_one_shape_share_its_templates(monkeypatch):
    t7 = generate_prefixes(7, "T'").sentences
    opts = EncodeOptions()
    encoding._shape.cache_clear()
    first = [build_instance(7, 5, 14, opts.with_prefix(p))[0] for p in t7]
    shape = encoding._shape(7, 5, 2)
    windows = dict(shape.windows)
    made = []
    init = encoding._Template.__init__

    def counted(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(encoding._Template, "__init__", counted)
    again = [build_instance(7, 5, 13, opts.with_prefix(p))[0] for p in t7]
    # the level's counter is the one template the second pass builds
    assert made == [shape.counter(13)]
    assert shape.windows == windows
    # each instance binds the shape's chain template to its own ids: the
    # getter is shared, the constants are the instance's
    chains = [f.parts[1][0] for f in (first[0], again[0], first[-1])]
    assert chains[0].get is chains[1].get is chains[2].get is shape.chain.get
    assert chains[0] is not chains[1]
    assert chains[0].constants == chains[1].constants != chains[2].constants


def test_shape_cache_stays_within_its_bound():
    encoding._shape.cache_clear()
    bound = encoding.SHAPES
    assert encoding._shape.cache_info().maxsize == bound
    for d in range(1, 3 * bound):
        build_instance(4, d, 5)
        assert encoding._shape.cache_info().currsize <= bound
    assert encoding._shape.cache_info().currsize == bound
    # the last bound shapes are the ones kept
    misses = encoding._shape.cache_info().misses
    build_instance(4, 3 * bound - 1, 5)
    assert encoding._shape.cache_info().misses == misses
    build_instance(4, 1, 5)
    assert encoding._shape.cache_info().misses == misses + 1


def test_map_dump_mentions_roles():
    _, vm = build_instance(2, 1, 1)
    dump = vm.dump_map()
    assert dump.splitlines()[0] == "g 1 1 2 -> 1"
    assert "v 10 0 1" in dump


def test_options_key_distinguishes_prefixes():
    a = EncodeOptions().with_prefix(parse_sentence("(012)"))
    b = EncodeOptions()
    assert a.key() != b.key()


def test_optional_families_never_change_satisfiability(builtin_cfg):
    """Every optional family prunes networks or adds implied clauses, so the
    answer must match the bare encoding on an exhaustive small grid."""
    from sortnetsat.solving import solve

    bare = EncodeOptions(
        redundant_sorts=False, last_layer=False, sigma1=False, sigma2=False, sigma3=False
    )
    variants = [EncodeOptions()]  # everything on
    for flag in ("redundant_sorts", "last_layer", "sigma1", "sigma2", "sigma3"):
        variants.append(EncodeOptions(**{**bare.__dict__, flag: True, "prefix": None}))
    points = [
        (n, d, s)
        for n, dmax in ((2, 2), (3, 3), (4, 3))
        for d in range(1, dmax + 1)
        for s in range(1, d * (n // 2) + 1)
    ]
    for n, d, s in points:
        reference, _ = build_instance(n, d, s, bare)
        expect = solve(reference, builtin_cfg).status
        for opts in variants:
            formula, _ = build_instance(n, d, s, opts)
            got = solve(formula, builtin_cfg).status
            assert got == expect, (n, d, s, opts.key())


def test_optional_families_safe_on_five_channels(external_cfg):
    from sortnetsat.solving import solve

    bare = EncodeOptions(
        redundant_sorts=False, last_layer=False, sigma1=False, sigma2=False, sigma3=False
    )
    for n, d, s in [(5, 5, 9), (5, 5, 8), (5, 4, 10), (5, 3, 8), (5, 6, 9)]:
        reference, _ = build_instance(n, d, s, bare)
        expect = solve(reference, external_cfg).status
        formula, _ = build_instance(n, d, s, EncodeOptions())
        assert solve(formula, external_cfg).status == expect, (n, d, s)
