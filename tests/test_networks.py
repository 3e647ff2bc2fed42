import random

import pytest
from hypothesis import given, strategies as st

from sortnetsat.encoding import prefix_network
from sortnetsat.networks import (
    DimensionError,
    Network,
    all_inputs,
    apply_network,
    is_sorted_bits,
    is_sorting_network,
    permute_untangle,
    reflect,
    unsorted_outputs,
)
from sortnetsat.words import generate_prefixes
from tests.conftest import random_network

BATCHER4 = Network.make(4, [[(1, 2), (3, 4)], [(1, 3), (2, 4)], [(2, 3)]])


def test_apply_three_layers_by_hand():
    assert apply_network(BATCHER4, (1, 0, 1, 0)) == (0, 0, 1, 1)


def test_apply_fixes_constant_vectors():
    assert apply_network(BATCHER4, (0, 0, 0, 0)) == (0, 0, 0, 0)
    assert apply_network(BATCHER4, (1, 1, 1, 1)) == (1, 1, 1, 1)


def test_apply_empty_network_is_identity():
    empty = Network.make(2, [])
    assert apply_network(empty, (1, 0)) == (1, 0)


def test_apply_length_mismatch():
    with pytest.raises(DimensionError):
        apply_network(BATCHER4, (1, 0, 1))


def test_is_sorting_network_examples():
    assert is_sorting_network(BATCHER4)
    assert is_sorting_network(Network.make(2, [[(1, 2)]]))
    assert not is_sorting_network(Network.make(3, []))


def test_unsorted_outputs_empty_prefix():
    outs = unsorted_outputs(Network.make(3, []))
    assert outs == {(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 1)}


def test_unsorted_outputs_of_sorting_network_empty():
    assert unsorted_outputs(BATCHER4) == set()
    assert unsorted_outputs(Network.make(2, [[(1, 2)]])) == set()


@pytest.mark.parametrize("n", range(2, 11))
def test_unsorted_outputs_count_for_empty_prefix(n):
    assert len(unsorted_outputs(Network.make(n, []))) == 2**n - (n + 1)


def _unsorted_outputs_one_by_one(net: Network) -> set:
    """The scalar reference: every input through ``apply_network``."""
    outputs = (apply_network(net, x) for x in all_inputs(net.n))
    return {y for y in outputs if not is_sorted_bits(y)}


@pytest.mark.parametrize("n", range(3, 10))
def test_unsorted_outputs_of_every_prefix_match_the_scalar_reference(n):
    prefixes = generate_prefixes(n, "T'").sentences
    assert prefixes
    for prefix in prefixes:
        net = prefix_network(prefix, n)
        assert unsorted_outputs(net) == _unsorted_outputs_one_by_one(net), prefix


def test_unsorted_outputs_of_random_networks_match_the_scalar_reference():
    rng = random.Random(7)
    for n in range(1, 9):
        for depth in range(0, 5):
            for _ in range(6):
                net = random_network(rng, n, depth)
                assert unsorted_outputs(net) == _unsorted_outputs_one_by_one(net), net


def test_reflect_formula():
    assert reflect(Network.make(5, [[(1, 2)]])).layers == (((4, 5),),)
    palindromic = Network.make(4, [[(1, 2), (3, 4)]])
    assert reflect(palindromic) == palindromic


def test_reflect_involution_and_sorting_closure():
    rng = random.Random(5)
    for _ in range(200):
        net = random_network(rng, rng.randint(2, 8), rng.randint(0, 5))
        back = reflect(reflect(net))
        assert back == net
        assert is_sorting_network(net) == is_sorting_network(reflect(net))


def test_permute_untangle_identity():
    assert permute_untangle(BATCHER4, [1, 2, 3, 4]) == BATCHER4


def test_permute_untangle_swap_on_two_channels():
    net = Network.make(2, [[(1, 2)]])
    assert permute_untangle(net, [2, 1]) == net


def test_permute_untangle_rejects_bad_permutation():
    with pytest.raises(ValueError):
        permute_untangle(BATCHER4, [1, 1, 2, 3])


def test_permute_untangle_preserves_sorting():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 7)
        net = random_network(rng, n, rng.randint(1, 5))
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        assert is_sorting_network(permute_untangle(net, perm)) == is_sorting_network(net)


@given(st.data())
def test_apply_preserves_bit_multiset(data):
    n = data.draw(st.integers(2, 8))
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    net = random_network(rng, n, rng.randint(0, 5))
    bits = data.draw(st.tuples(*[st.integers(0, 1)] * n))
    assert sum(apply_network(net, bits)) == sum(bits)


@given(st.lists(st.integers(-1000, 1000), min_size=4, max_size=4))
def test_verified_networks_sort_arbitrary_values(values):
    # comparator semantics are value-agnostic, so passing the 0/1 check
    # really does mean sorting everything
    assert list(apply_network(BATCHER4, tuple(values))) == sorted(values)


@pytest.mark.parametrize("name", ["n5_d5_s9", "n8_d6_s19"])
def test_sorting_networks_are_idempotent(known_optima, name):
    rec = known_optima[name]
    net = Network.make(rec["n"], rec["layers"])
    for x in all_inputs(net.n):
        once = apply_network(net, x)
        assert is_sorted_bits(once)
        assert apply_network(net, once) == once


def test_network_json_roundtrip():
    assert Network.from_json(BATCHER4.to_json()) == BATCHER4


def test_network_json_wire_format():
    import json

    assert json.loads(BATCHER4.to_json()) == {
        "n": 4,
        "layers": [[[1, 2], [3, 4]], [[1, 3], [2, 4]], [[2, 3]]],
    }


def test_invalid_networks_rejected():
    with pytest.raises(ValueError):
        Network.make(4, [[(1, 2), (2, 3)]])  # channel reused in a layer
    with pytest.raises(ValueError):
        Network.make(3, [[(1, 4)]])  # out of range
    with pytest.raises(ValueError):
        Network((3), (((2, 1),),))  # not standardized


def test_trimmed_drops_trailing_empty_layers():
    net = Network.make(3, [[(1, 2)], [], []])
    assert net.depth == 3
    assert net.trimmed().depth == 1
    assert net.size == 1
