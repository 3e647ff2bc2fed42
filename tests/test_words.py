import hashlib
import random
from itertools import permutations

import pytest

from sortnetsat import words
from sortnetsat.networks import Network, all_inputs, apply_network, permute_untangle, reflect
from sortnetsat.words import (
    WordError,
    canonical_word,
    count_prefixes,
    enumerate_words,
    format_sentence,
    generate_prefixes,
    net_of,
    parse_sentence,
    reflect_sentence,
    reflect_word,
    sentence_of,
    word_channels,
    word_kind,
)
from tests.conftest import matchings, random_two_layer

# the worked 15-channel example with one component of each shape
FOUR_SHAPES = Network.make(
    15,
    [
        [(2, 3), (6, 7), (8, 9), (10, 11), (12, 13), (14, 15)],
        [(1, 3), (4, 7), (5, 6), (8, 10), (12, 14), (13, 15)],
    ],
)


def test_word_kinds_and_channels():
    assert word_kind("0") == "head"
    assert word_kind("012") == "head"
    assert word_kind("1221") == "stick"
    assert word_kind("0120") == "tail"
    assert word_kind("1221c") == "cycle"
    assert word_channels("1221c") == 4
    assert word_channels("0120") == 4
    assert word_kind("21c") == "cycle"  # non-canonical spelling, same class
    assert word_kind("2112c") == "cycle"
    assert word_kind("2121") == "stick"
    for bad in ("", "01", "0c", "120", "0121", "1c", "00", "c", "1", "12c0", "0120c"):
        with pytest.raises(WordError, match=f"malformed word {bad!r}"):
            word_kind(bad)


def test_counting_reads_the_one_cached_word_pool(monkeypatch):
    calls = []
    enumerate_words = words.enumerate_words
    monkeypatch.setattr(words, "enumerate_words",
                        lambda *args: calls.append(args) or enumerate_words(*args))
    words._word_pool.cache_clear()
    for n in (13, 14):
        words._word_pool(n)
        built = len(calls)
        for variant in ("H", "T", "T'", "G"):
            count_prefixes(n, variant)
        assert len(calls) == built
    assert calls  # the counter does see the pool being built


def test_word_of_tail_example():
    net = Network.make(4, [[(2, 3)], [(1, 3), (2, 4)]])
    assert sentence_of(net) == ("0120",)


def test_word_of_single_comparator_is_stick():
    assert sentence_of(Network.make(2, [[(1, 2)], []])) == ("12",)


def test_word_of_repeated_comparator_is_cycle():
    assert sentence_of(Network.make(2, [[(1, 2)], [(1, 2)]])) == ("12c",)


def test_word_of_second_layer_only_comparator():
    # equivalent to the single first-layer comparator, and classed with it
    assert sentence_of(Network.make(2, [[], [(1, 2)]])) == ("12",)


def test_word_of_head_is_read_from_its_free_end():
    # the free channel 3 starts the word although channel 1 is the other end
    assert sentence_of(Network.make(3, [[(1, 2)], [(2, 3)]])) == ("012",)


def test_sentence_of_four_shape_example():
    assert format_sentence(sentence_of(FOUR_SHAPES)) == "(012,0120,1221,1221c)"


def test_sentence_of_empty_network():
    assert format_sentence(sentence_of(Network.make(5, []))) == "(0,0,0,0,0)"


def test_sentence_equal_up_to_permutation():
    from sortnetsat.networks import permute_untangle

    rng = random.Random(29)
    perm = list(range(1, 16))
    rng.shuffle(perm)
    other = permute_untangle(FOUR_SHAPES, perm)
    assert other != FOUR_SHAPES
    assert sentence_of(other) == sentence_of(FOUR_SHAPES)


def test_sentence_is_invariant_under_every_relabeling():
    # every two-layer network on up to 5 channels, under every permutation
    relabelings = 0
    for n in range(1, 6):
        layers = matchings(n)
        perms = list(permutations(range(1, n + 1)))
        for l1 in layers:
            for l2 in layers:
                net = Network(n, (l1, l2))
                sentence = sentence_of(net)
                for perm in perms:
                    assert sentence_of(permute_untangle(net, perm)) == sentence
                relabelings += len(perms)
    assert relabelings == 83625


def test_sentence_of_rejects_deep_networks():
    with pytest.raises(ValueError):
        sentence_of(Network.make(3, [[(1, 2)], [(1, 3)], [(2, 3)]]))


def test_net_of_head_word():
    assert net_of(parse_sentence("(012)")).layers == (((2, 3),), ((1, 3),))


def test_net_of_tail_word():
    assert net_of(("0120",)).layers == (((3, 4),), ((1, 4), (2, 3)))


def test_net_of_layout_is_pinned():
    # where net_of puts each channel, for every canonical word on at most 12
    # channels and for every prefix of T'_12; the prefix networks are what
    # the encoder pins, so a change here changes the DIMACS of every prefix
    def digest(lines):
        return hashlib.sha256("".join(lines).encode()).hexdigest()

    pool = words._word_pool(12)
    assert len(pool) == 189
    assert digest(w + " " + net_of((w,)).to_json() + "\n" for w in pool) == (
        "61d320265a67df69e3ec97b8048412df99df17b3a2660f2ff94e2f66a0b10670"
    )
    prefixes = generate_prefixes(12, "T'").sentences
    assert len(prefixes) == 786
    assert digest(format_sentence(s) + " " + net_of(s).to_json() + "\n"
                  for s in prefixes) == (
        "c7a04df44dc581ccd23cc463b6af18e1183f4e252e1da4a1ef10e539b58f2e2e"
    )


def test_net_of_rejects_malformed():
    with pytest.raises(WordError):
        net_of(("01", "21"))


def test_net_of_reconstructs_four_shape_network():
    assert net_of(parse_sentence("(012,0120,1221,1221c)")) == FOUR_SHAPES


def test_reflect_sentence_mirrored_example():
    # mirror of the worked example, normalized
    s = parse_sentence("(012,0120,1221,1221c)")
    assert format_sentence(reflect_sentence(s)) == "(0120,021,1221c,2112)"


def test_reflect_sentence_agrees_with_network_reflection():
    rng = random.Random(3)
    for _ in range(300):
        net = random_two_layer(rng, rng.randint(2, 10))
        s = sentence_of(net)
        assert reflect_sentence(s) == sentence_of(reflect(net_of(s)))


def test_reflect_sentence_involution():
    for n in range(2, 9):
        for s in generate_prefixes(n, "H").sentences:
            assert reflect_sentence(reflect_sentence(s)) == s


def test_reflect_fixed_points_and_pairs():
    assert reflect_word("1212") == "1212"
    assert reflect_word("0120") == "0120"
    assert reflect_word("1221c") == "1221c"
    # these two shapes mirror onto each other, not onto themselves
    assert reflect_word("1221") == "2112"
    assert reflect_word("2112") == "1221"
    assert reflect_sentence(("0", "1221")) == ("0", "2112")


def test_enumerate_head_words():
    assert enumerate_words(5, "head") == ["01212", "01221", "02112", "02121"]
    assert enumerate_words(1, "head") == ["0"]
    assert enumerate_words(4, "head") == []


def test_enumerate_stick_words():
    assert enumerate_words(2, "stick") == ["12"]
    assert enumerate_words(4, "stick") == ["1212", "1221", "2112"]
    assert enumerate_words(6, "stick") == ["121212", "121221", "122112", "211212"]


def test_enumerate_cycle_words():
    assert enumerate_words(2, "cycle") == ["12c"]
    assert enumerate_words(4, "cycle") == ["1212c", "1221c"]
    assert len(enumerate_words(8, "cycle")) == 4


def test_enumerate_tail_words():
    assert enumerate_words(4, "tail") == ["0120"]
    assert enumerate_words(6, "tail") == ["012120", "012210", "021120"]
    assert enumerate_words(8, "tail") == ["01212120", "01212210", "01221120", "02112120"]


def test_enumerate_words_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown word kind"):
        enumerate_words(4, "loop")


def test_canonical_word():
    assert canonical_word("2121") == "1212"
    assert canonical_word("0210") == "0120"
    assert canonical_word("2112c") == "1221c"
    assert canonical_word("021") == "021"


def test_roundtrip_sentence_net_sentence():
    for n in range(1, 9):
        for s in generate_prefixes(n, "H").sentences:
            assert sentence_of(net_of(s)) == s


def test_word_path_reconstruction_matches_words():
    # net_of composes word blocks top to bottom in sentence order
    net = net_of(parse_sentence("(0,12,12)"))
    assert net.n == 5
    assert net.layers == (((2, 3), (4, 5)), ())


def test_parse_sentence_forms():
    assert parse_sentence("(012,12)") == ("012", "12")
    assert parse_sentence("012,12") == ("012", "12")
    assert parse_sentence("( 12 , 0 )") == ("0", "12")
    with pytest.raises(WordError):
        parse_sentence("()")


@pytest.mark.parametrize("text, canonical", [("(21)", "12"), ("(0,2112c)", "1221c")])
def test_parse_sentence_rejects_non_canonical_words(text, canonical):
    # one class, one spelling: (21) would otherwise name the class of (12)
    with pytest.raises(WordError, match=f"not canonical; write '{canonical}'"):
        parse_sentence(text)


def test_two_layer_networks_map_into_the_prefix_universe():
    # every sentence realized by some two-layer network appears in the
    # generated complete set
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(2, 8)
        net = random_two_layer(rng, n)
        assert sentence_of(net) in set(generate_prefixes(n, "H").sentences)


def test_prefixes_still_sort_like_their_networks():
    # sanity: net_of output behaves like a comparator network on vectors
    s = parse_sentence("(012,0120,1221,1221c)")
    net = net_of(s)
    for x in list(all_inputs(net.n))[:: 257]:
        assert sum(apply_network(net, x)) == sum(x)
