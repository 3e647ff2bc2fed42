"""Comparator networks: data model, evaluation, verification, symmetries.

Channels are 1-based throughout the public interface (like the usual
diagrams, channel 1 on top); a comparator ``(i, j)`` with ``i < j`` routes the
minimum of the two values to channel ``i`` and the maximum to ``j``.  All
values are immutable, so every operation here is pure and safe to share
between workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

Comparator = tuple[int, int]
Layer = tuple[Comparator, ...]
Bits = tuple[int, ...]


class DimensionError(ValueError):
    """Input vector length does not match the channel count."""


@dataclass(frozen=True)
class Network:
    """A layered comparator network on ``n`` channels.

    ``layers`` is a tuple of layers, each a tuple of standardized comparators
    ``(i, j)`` with ``1 <= i < j <= n``, sorted ascending and pairwise
    channel-disjoint (independence).  Use :meth:`make` to normalize raw input.
    """

    n: int
    layers: tuple[Layer, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one channel, got n={self.n}")
        for layer in self.layers:
            seen: set[int] = set()
            prev: Comparator | None = None
            for comp in layer:
                i, j = comp
                if not (1 <= i < j <= self.n):
                    raise ValueError(f"comparator {comp} out of range for n={self.n}")
                if i in seen or j in seen:
                    raise ValueError(f"channel reused within a layer: {layer}")
                if prev is not None and comp < prev:
                    raise ValueError(f"layer not sorted: {layer}")
                seen.update(comp)
                prev = comp

    @classmethod
    def make(cls, n: int, layers: Iterable[Iterable[Sequence[int]]]) -> "Network":
        norm = tuple(
            tuple(sorted((int(i), int(j)) for i, j in layer)) for layer in layers
        )
        return cls(n, norm)

    @property
    def size(self) -> int:
        return sum(len(layer) for layer in self.layers)

    @property
    def depth(self) -> int:
        return len(self.layers)

    def trimmed(self) -> "Network":
        """Drop trailing empty layers (reported depth of a decoded witness)."""
        layers = list(self.layers)
        while layers and not layers[-1]:
            layers.pop()
        return Network(self.n, tuple(layers))

    def comparators(self) -> list[tuple[int, Comparator]]:
        """All comparators as (layer index starting at 1, (i, j))."""
        return [(k + 1, c) for k, layer in enumerate(self.layers) for c in layer]

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "layers": [[list(c) for c in layer] for layer in self.layers]}
        )

    @classmethod
    def from_json(cls, text: str) -> "Network":
        data = json.loads(text)
        return cls.make(data["n"], data["layers"])


def apply_network(net: Network, bits: Bits) -> Bits:
    """Run ``bits`` through the network layer by layer."""
    if len(bits) != net.n:
        raise DimensionError(f"input has {len(bits)} bits, network has {net.n} channels")
    vals = list(bits)
    for layer in net.layers:
        for i, j in layer:
            a, b = vals[i - 1], vals[j - 1]
            if a > b:
                vals[i - 1], vals[j - 1] = b, a
    return tuple(vals)


def is_sorted_bits(bits: Bits) -> bool:
    return all(bits[t] <= bits[t + 1] for t in range(len(bits) - 1))


def _channel_columns(n: int) -> list[int]:
    """Bit-parallel input battery: column ``i`` holds, in bit t, the value of
    channel i for input number t (channel 1 is the most significant input bit).
    """
    total = 1 << n
    full = (1 << total) - 1
    cols = []
    for i in range(1, n + 1):
        b = n - i
        run = 1 << b
        period = run << 1
        block = ((1 << run) - 1) << run
        rep = full // ((1 << period) - 1)
        cols.append(block * rep)
    return cols


def _apply_columns(net: Network, cols: list[int]) -> list[int]:
    cols = list(cols)
    for layer in net.layers:
        for i, j in layer:
            a, b = cols[i - 1], cols[j - 1]
            cols[i - 1] = a & b
            cols[j - 1] = a | b
    return cols


def is_sorting_network(net: Network) -> bool:
    """Zero-one principle check: sorts every vector in {0,1}^n.

    Evaluates all 2^n inputs at once on packed machine words, practical up to
    n around 24.
    """
    cols = _apply_columns(net, _channel_columns(net.n))
    total = 1 << net.n
    full = (1 << total) - 1
    for i in range(net.n - 1):
        if cols[i] & (full ^ cols[i + 1]):
            return False
    return True


def unsorted_outputs(prefix: Network) -> set[Bits]:
    """Distinct still-unsorted vectors among the outputs of ``prefix``.

    These are exactly the inputs a suffix network must still sort.
    """
    outputs = (apply_network(prefix, x) for x in all_inputs(prefix.n))
    return {y for y in outputs if not is_sorted_bits(y)}


def all_inputs(n: int) -> list[Bits]:
    """All 0/1 vectors on n channels in ascending numeric order."""
    return [tuple((t >> (n - i)) & 1 for i in range(1, n + 1)) for t in range(1 << n)]


def reflect(net: Network) -> Network:
    """Mirror the network top-to-bottom: comparator (i,j) becomes (n-j+1, n-i+1).

    Preserves size, depth and the sorting property; an involution.
    """
    n = net.n
    return Network.make(
        n, (((n - j + 1, n - i + 1) for i, j in layer) for layer in net.layers)
    )


def permute_untangle(net: Network, perm: Sequence[int]) -> Network:
    """Relabel channels by ``perm`` (channel i becomes perm[i-1]) and untangle.

    Untangling scans layers left to right and comparators within a layer in
    ascending order; a comparator whose relabeled endpoints come out inverted
    is flipped back to standard form and the two labels are exchanged in all
    later comparators.  The result is standardized and sorts if and only if
    the original does.
    """
    if sorted(perm) != list(range(1, net.n + 1)):
        raise ValueError(f"not a permutation of 1..{net.n}: {perm!r}")
    label = {c: perm[c - 1] for c in range(1, net.n + 1)}
    new_layers = []
    for layer in net.layers:
        out = []
        for a, b in layer:
            x, y = label[a], label[b]
            if x > y:
                label[a], label[b] = y, x
                x, y = y, x
            out.append((x, y))
        new_layers.append(out)
    return Network.make(net.n, new_layers)
