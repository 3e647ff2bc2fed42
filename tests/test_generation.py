import pytest

from sortnetsat.words import (
    count_prefixes,
    format_sentence,
    generate_prefixes,
    parse_sentence,
    reflect_sentence,
)

# the complete 5-channel class list, transcribed from the worked example
R_H5 = """
(01212) (01221) (02112) (02121) (0,1212) (0,1221) (0,2112) (0,1212c) (0,1221c)
(0,0120) (0,0,012) (0,0,021) (0,0,0,12) (0,0,0,12c) (0,0,0,0,0) (0,12,12)
(0,12,12c) (0,12c,12c) (012,12) (021,12) (012,12c) (021,12c)
""".split()

REFERENCE_COUNTS = {
    # n: (H, T, T', G)
    3: (5, 2, 1, 4),
    4: (14, 8, 6, 8),
    5: (22, 14, 9, 16),
    6: (50, 32, 23, 20),
    7: (84, 58, 36, 52),
    8: (178, 123, 83, 61),
    9: (300, 211, 127, 165),
    10: (588, 404, 256, 152),
    11: (1004, 698, 403, 482),
    12: (1900, 1305, 786, 414),
}


def test_h5_is_exactly_the_published_class_list():
    got = {format_sentence(s) for s in generate_prefixes(5, "H").sentences}
    assert got == {format_sentence(parse_sentence(t)) for t in R_H5}


def test_t5_removes_redundant_and_second_layer_empty():
    t5 = {format_sentence(s) for s in generate_prefixes(5, "T").sentences}
    assert len(t5) == 14
    removed = {
        "(0,0,0,12c)", "(0,12,12c)", "(0,12c,12c)", "(012,12c)", "(021,12c)",
        "(0,0,0,0,0)", "(0,0,0,12)", "(0,12,12)",
    }
    assert t5 == {format_sentence(parse_sentence(t)) for t in R_H5} - removed


@pytest.mark.parametrize("n", sorted(REFERENCE_COUNTS))
def test_generated_counts_match_reference(n):
    h, t, tp, g = REFERENCE_COUNTS[n]
    assert len(generate_prefixes(n, "H")) == h
    assert len(generate_prefixes(n, "T")) == t
    assert len(generate_prefixes(n, "T'")) == tp
    assert len(generate_prefixes(n, "G")) == g


@pytest.mark.parametrize("n", range(1, 13))
def test_counting_agrees_with_enumeration(n):
    for variant in ("H", "T", "T'", "G"):
        assert count_prefixes(n, variant) == len(generate_prefixes(n, variant))


def test_variant_containment():
    for n in range(3, 10):
        h = set(generate_prefixes(n, "H").sentences)
        t = set(generate_prefixes(n, "T").sentences)
        tp = set(generate_prefixes(n, "T'").sentences)
        g = set(generate_prefixes(n, "G").sentences)
        assert tp <= t <= h and g <= h


def test_tprime_keeps_reflection_minima():
    for n in range(3, 10):
        t = set(generate_prefixes(n, "T").sentences)
        tp = set(generate_prefixes(n, "T'").sentences)
        for s in t:
            assert (min(s, reflect_sentence(s)) in tp) and (
                s in tp or reflect_sentence(s) in tp
            )
        for s in tp:
            assert s <= reflect_sentence(s)


def test_g_variant_is_maximal_first_layer():
    for n in range(3, 9):
        for s in generate_prefixes(n, "G").sentences:
            free_channels = sum(w.count("0") for w in s)
            assert free_channels == n % 2


def test_variant_spellings():
    assert generate_prefixes(5, "Tprime") == generate_prefixes(5, "T'")
    assert generate_prefixes(5, "h") == generate_prefixes(5, "H")
    with pytest.raises(ValueError):
        generate_prefixes(5, "X")
    # and a channel count that names no prefix set
    for fn in (generate_prefixes, count_prefixes):
        with pytest.raises(ValueError, match="n must be positive, got 0"):
            fn(0)
