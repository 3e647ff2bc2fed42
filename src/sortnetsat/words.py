"""Symbolic canonical form of two-layer networks and complete prefix sets.

A connected two-layer network is written as a *word* over {0,1,2}: walking
the unique maximal path of the component, each channel contributes '0' if it
is untouched by the first layer (a free channel), '2' if it is the lower
endpoint of its first-layer comparator and '1' if it is the upper endpoint.
The walk alternates between the layers; ``sentence_of`` spells each word
from it, and ``net_of`` lays each word out along it.
Components come in four shapes:

* head  -- odd channel count, one free channel; the word starts with '0'.
* stick -- even count, no free channel, two channels unused in layer 2.
* cycle -- even count, every channel used in both layers; tagged with ``c``.
* tail  -- even count, two free channels; the word starts and ends with '0'.

A whole two-layer network is a *sentence*: the lexicographically sorted
multiset of its component words, e.g. ``(012,0120,1221,1221c)``.  Equal
sentences mean equal networks up to channel permutation, which is what makes
sentence enumeration a complete, symmetry-reduced prefix generator.

Each kind is one pattern of a single grammar table, ``_GRAMMAR``: fixed
characters around a run of ``12``/``21`` pairs.  ``word_kind`` classifies a
word by that table and ``enumerate_words`` writes out its words.  A component
reads as several words (from either end of a path, from any first-layer
comparator of a cycle); its word is the least of them, and ``canonical_word``
alone picks it.  The canonical words on at most n channels are built once
into one cached pool, which feeds both the sentence enumeration and the
closed-form counts.  Words are plain strings (cycles carry a trailing
``c``); sentences are sorted tuples of words.  Ordinary string comparison
gives the intended order since ``'0' < '1' < '2' < 'c'``.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from sortnetsat.networks import Comparator, Network

Word = str
Sentence = tuple[Word, ...]

HEAD, STICK, CYCLE, TAIL = "head", "stick", "cycle", "tail"

_SWAP12 = str.maketrans("12", "21")


class WordError(ValueError):
    """A string is not a grammar-valid word or sentence, or names no prefix
    variant."""


# ---------------------------------------------------------------------------
# word basics


# each kind's words: fixed characters around a run of 12/21 pairs, and the
# fewest pairs that run holds; a cycle may be read from any of its rotations
_GRAMMAR = {
    HEAD: ("0", "", 0),
    STICK: ("", "", 1),
    CYCLE: ("", "c", 1),
    TAIL: ("0", "0", 1),
}
_PATTERNS = {
    kind: re.compile(lead + "(?:12|21)" + ("+" if fewest else "*") + trail)
    for kind, (lead, trail, fewest) in _GRAMMAR.items()
}


def word_kind(word: Word) -> str:
    """Classify a grammar-valid word; raises WordError otherwise."""
    for kind, pattern in _PATTERNS.items():
        if pattern.fullmatch(word):
            return kind
    raise WordError(f"malformed word {word!r}")


def word_channels(word: Word) -> int:
    """Channels covered by the word (the ``c`` tag is not a channel)."""
    return len(word) - 1 if word.endswith("c") else len(word)


def _canonical_cycle_core(core: str) -> str:
    """Smallest word of the cycle class: minimum over all traversals that
    start with a first-layer comparator, i.e. over even rotations of the
    cyclic character sequence in both directions."""
    best = None
    for base in (core, core[::-1]):
        for r in range(0, len(base), 2):
            cand = base[r:] + base[:r]
            if best is None or cand < best:
                best = cand
    assert best is not None
    return best


def canonical_word(word: Word) -> Word:
    """Canonical representative of the word's equivalence class."""
    kind = word_kind(word)
    if kind == CYCLE:
        return _canonical_cycle_core(word[:-1]) + "c"
    if kind in (STICK, TAIL):
        return min(word, word[::-1])
    return word


def reflect_word(word: Word) -> Word:
    """Word of the mirrored component: swap '1' and '2', re-canonicalize."""
    return canonical_word(word.translate(_SWAP12))


def enumerate_words(channels: int, kind: str) -> list[Word]:
    """All canonical words of one kind covering exactly ``channels`` channels.

    Returns the empty list when no word of the kind covers that many channels.
    """
    if kind not in _GRAMMAR:
        raise ValueError(f"unknown word kind {kind!r}")
    lead, trail, fewest = _GRAMMAR[kind]
    pairs, odd = divmod(channels - word_channels(lead + trail), 2)
    if odd or pairs < fewest:
        return []
    raw = (lead + "".join(p) + trail for p in product(("12", "21"), repeat=pairs))
    return sorted({canonical_word(w) for w in raw})


# ---------------------------------------------------------------------------
# network -> sentence


def _layer_maps(net: Network) -> tuple[dict[int, int], dict[int, int]]:
    if net.depth > 2:
        raise ValueError(f"symbolic form needs at most two layers, got {net.depth}")
    maps: list[dict[int, int]] = [{}, {}]
    for k in range(min(2, net.depth)):
        for i, j in net.layers[k]:
            maps[k][i] = j
            maps[k][j] = i
    return maps[0], maps[1]


def _walk(start: int, l1: dict[int, int], l2: dict[int, int]) -> tuple[list[int], bool]:
    """Channels of the component of ``start`` in walk order, and whether the
    walk closes into a cycle.  The walk alternates between the two layers,
    so ``start`` is an end of its path or any channel of a cycle."""
    step, next_step = (l1, l2) if start in l1 else (l2, l1)
    walk = [start]
    cur = step.get(start)
    while cur is not None and cur != start:
        walk.append(cur)
        step, next_step = next_step, step
        cur = step.get(cur)
    return walk, cur is not None


def sentence_of(net: Network) -> Sentence:
    """Canonical sentence of a network with at most two layers."""
    l1, l2 = _layer_maps(net)
    channels = range(1, net.n + 1)
    # each path is walked from an end: a free channel if it has one, else a
    # channel without a layer-2 comparator; the channels left are on cycles
    ends = [c for c in channels if c not in l1] + [c for c in channels if c not in l2]
    seen: set[int] = set()
    words: list[Word] = []
    for c in ends + list(channels):
        if c in seen:
            continue
        walk, cyclic = _walk(c, l1, l2)
        seen.update(walk)
        word = "".join(["0" if ch not in l1 else "2" if ch < l1[ch] else "1" for ch in walk])
        # a single comparator living only in layer 2 acts exactly like the
        # one-comparator first-layer network, which already represents it
        words.append("12" if word == "00" else canonical_word(word + "c" * cyclic))
    return tuple(sorted(words))


# ---------------------------------------------------------------------------
# sentence -> network


def _word_comparators(
    word: Word, base: int
) -> tuple[list[Comparator], list[Comparator]]:
    """Comparators of the word's network on channels base+1..base+channels.

    The word is laid out as the walk that spells it.  Free channels take the
    first channels of the block, in walk order; the k-th first-layer comparator met on the
    walk (k = 0, 1, ...) takes channels last-2k-1 for its '2' and last-2k for
    its '1', where last is the block's last channel.
    """
    word_kind(word)  # validate
    core = word.rstrip("c")
    last = base + len(core)
    lead = core.startswith("0")
    walk = [
        base + 1 + (p > 0) if ch == "0" else last - 2 * ((p - lead) // 2) - (ch == "2")
        for p, ch in enumerate(core)
    ]
    if word.endswith("c"):
        walk.append(walk[0])  # a cycle's closing step
    steps = [(min(a, b), max(a, b)) for a, b in zip(walk, walk[1:])]
    # the walk alternates layers and leaves a free channel in layer 2
    return steps[lead::2], steps[1 - lead :: 2]


def net_of(sentence: Sentence) -> Network:
    """Two-layer network realizing the sentence, word blocks stacked in order."""
    layer1: list[Comparator] = []
    layer2: list[Comparator] = []
    base = 0
    for word in sentence:
        l1, l2 = _word_comparators(word, base)
        layer1.extend(l1)
        layer2.extend(l2)
        base += word_channels(word)
    return Network.make(base, [layer1, layer2])


def reflect_sentence(sentence: Sentence) -> Sentence:
    """Sentence of the mirrored network; agrees with
    ``sentence_of(reflect(net_of(s)))`` and is an involution."""
    return tuple(sorted(reflect_word(w) for w in sentence))


def format_sentence(sentence: Sentence) -> str:
    return "(" + ",".join(sentence) + ")"


def parse_sentence(text: str) -> Sentence:
    """Parse ``(w1,w2,...)`` (parentheses optional) into a sorted sentence.

    Every word must be canonical, so that one class has one spelling."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    if not body:
        raise WordError(f"empty sentence {text!r}")
    words = tuple(w.strip() for w in body.split(","))
    for w in words:
        if canonical_word(w) != w:
            raise WordError(f"word {w!r} is not canonical; write {canonical_word(w)!r}")
    return tuple(sorted(words))


# ---------------------------------------------------------------------------
# complete prefix sets


@dataclass(frozen=True)
class PrefixSet:
    n: int
    variant: str
    sentences: tuple[Sentence, ...]

    def __len__(self) -> int:
        return len(self.sentences)


def _normalize_variant(variant: str) -> str:
    key = variant.strip().lower().replace("'", "prime")
    table = {"h": "H", "t": "T", "tprime": "T'", "g": "G"}
    if key not in table:
        raise WordError(f"unknown prefix variant {variant!r} (H, T, T', G)")
    return table[key]


@lru_cache(maxsize=None)
def _word_pool(n: int) -> tuple[Word, ...]:
    """All canonical words on at most n channels, in string order: the pool
    for n - 1 and the words on exactly n channels."""
    if n == 0:
        return ()
    widest = [w for kind in _GRAMMAR for w in enumerate_words(n, kind)]
    return tuple(sorted(_word_pool(n - 1) + tuple(widest)))


@lru_cache(maxsize=None)
def _all_sentences(n: int) -> tuple[Sentence, ...]:
    """R(H_n): every multiset of canonical words totalling n channels,
    generated directly in sorted word order so each appears exactly once."""
    words = _word_pool(n)
    chans = [word_channels(w) for w in words]
    out: list[Sentence] = []
    acc: list[Word] = []

    def rec(idx: int, remaining: int) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        for t in range(idx, len(words)):
            c = chans[t]
            if c > remaining:
                continue
            acc.append(words[t])
            rec(t, remaining - c)
            acc.pop()

    rec(0, n)
    return tuple(sorted(out))


def _is_second_layer_empty(sentence: Sentence) -> bool:
    return all(w in ("0", "12") for w in sentence)


def generate_prefixes(n: int, variant: str = "T'") -> PrefixSet:
    """Complete symmetry-reduced sets of two-layer prefixes on n channels.

    * ``H``  -- one representative per permutation-equivalence class.
    * ``T``  -- H without redundant comparators (word ``12c``), without the
      empty network, and without prefixes whose second layer is empty.
    * ``T'`` -- T further reduced by reflections (keep the lexicographically
      smaller of a sentence and its mirror).
    * ``G``  -- the H-subset with a maximal first layer.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    variant = _normalize_variant(variant)
    sentences = _all_sentences(n)
    if variant == "H":
        picked = sentences
    elif variant == "G":
        budget = n % 2
        picked = tuple(
            s for s in sentences if sum(w.count("0") for w in s) == budget
        )
    else:
        reduced = [
            s
            for s in sentences
            if "12c" not in s and not _is_second_layer_empty(s)
        ]
        if variant == "T'":
            reduced = [s for s in reduced if s <= reflect_sentence(s)]
        picked = tuple(reduced)
    return PrefixSet(n, variant, picked)


# ---------------------------------------------------------------------------
# closed-form counting (independent of the sentence enumeration above)


def _multiset_count(items: list[tuple[int, int]], total: int) -> int:
    """Number of multisets with given (weight, distinct choices) item groups
    summing to ``total``; standard stars-and-bars convolution."""
    dp = [0] * (total + 1)
    dp[0] = 1
    for weight, choices in items:
        if weight > total:
            continue
        new = [0] * (total + 1)
        for used in range(0, total // weight + 1):
            ways = math.comb(choices + used - 1, used)
            for rest in range(0, total - used * weight + 1):
                if dp[rest]:
                    new[rest + used * weight] += dp[rest] * ways
        dp = new
    return dp[total]


def _items(weights: Iterable[int]) -> list[tuple[int, int]]:
    """The (weight, distinct choices) item groups of ``_multiset_count``:
    one group per weight, holding as many choices as the weight occurs."""
    return list(Counter(weights).items())


def count_prefixes(n: int, variant: str = "T'") -> int:
    """|R(H_n)| / |R(T_n)| / |R(T'_n)| / |R(G_n)| by direct counting.

    Uses stars-and-bars convolutions over the cached canonical word pool, so
    it scales far beyond what materializing the sets does.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    variant = _normalize_variant(variant)
    pool = _word_pool(n)
    if variant == "H":
        return _multiset_count(_items(map(word_channels, pool)), n)
    if variant == "G":
        zero_free = _items(word_channels(w) for w in pool if "0" not in w)
        if n % 2 == 0:
            return _multiset_count(zero_free, n)
        # one head word (the only words with a single free channel) per sentence
        heads = _items(word_channels(w) for w in pool if w.count("0") == 1)
        return sum(k * _multiset_count(zero_free, n - c) for c, k in heads)
    # T: drop 12c-containing sentences and those with an empty second layer;
    # the latter are the multisets over {0, 12}, one per number of comparators
    words = [w for w in pool if w != "12c"]
    t_count = _multiset_count(_items(map(word_channels, words)), n) - (n // 2 + 1)
    if variant == "T":
        return t_count
    # reflection-invariant sentences: a fixed word counts with its own weight,
    # and each {w, mirror} pair is used in equal numbers, as one item of twice it
    mirrors = [reflect_word(w) for w in words]
    fixed = _items(word_channels(w) for w, r in zip(words, mirrors) if w == r)
    paired = _items(2 * word_channels(w) for w, r in zip(words, mirrors) if w < r)
    invariant = _multiset_count(fixed + paired, n) - (n // 2 + 1)
    return (t_count + invariant) // 2
