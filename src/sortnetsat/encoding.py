"""CNF instances for "a sorting network with at most s comparators in at most
d layers exists", built over an explicit variable map.

Variables, in allocation order: the comparator placements g(k,i,j)
(layer-major, (i,j) lexicographic), then one value chain v(x,k,i) per encoded
input vector, then auxiliaries (channel-used flags, window propagation
helpers, cardinality internals).  Identical build inputs produce identical
formulas byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from sortnetsat import cardinality
from sortnetsat.networks import Bits, Network, all_inputs, is_sorted_bits, unsorted_outputs
from sortnetsat.words import Sentence, format_sentence, net_of, parse_sentence, word_channels


class EncodingError(ValueError):
    pass


@dataclass
class CnfFormula:
    """A growing clause list.  ``num_vars`` is not derived from the clauses:
    ``build_instance`` copies it from the VarMap that numbered them."""

    num_vars: int = 0
    clauses: list[tuple[int, ...]] = field(default_factory=list)

    def add(self, *lits: int) -> None:
        if not lits:
            raise EncodingError("refusing to add an empty clause")
        self.clauses.append(lits)


@dataclass(frozen=True)
class EncodeOptions:
    """Optional constraint families; everything defaults on because none of
    them changes satisfiability (they only prune or speed up)."""

    redundant_sorts: bool = True
    last_layer: bool = True
    sigma1: bool = True
    sigma2: bool = True
    sigma3: bool = True
    only_unsorted: bool = True
    prefix: Sentence | None = None

    def with_prefix(self, prefix: Sentence | str | None) -> "EncodeOptions":
        if isinstance(prefix, str):
            prefix = parse_sentence(prefix)
        return replace(self, prefix=prefix)

    def key(self) -> str:
        """Stable text form for catalog keys."""
        flags = [
            f"{name}={int(getattr(self, name))}"
            for name in (
                "redundant_sorts",
                "last_layer",
                "sigma1",
                "sigma2",
                "sigma3",
                "only_unsorted",
            )
        ]
        flags.append(f"prefix={format_sentence(self.prefix) if self.prefix else '-'}")
        return ",".join(flags)


class VarMap:
    """Bijection between encoding roles and DIMACS variable ids.

    ``start_layer`` is the layer whose output the value chains start from:
    0 normally, 2 when the first two layers are fixed by a prefix.
    """

    def __init__(self, n: int, d: int, start_layer: int = 0):
        if n < 1 or d < 1:
            raise EncodingError(f"bad dimensions n={n} d={d}")
        if not 0 <= start_layer <= d:
            raise EncodingError(f"start layer {start_layer} outside 0..{d}")
        self.n = n
        self.d = d
        self.start_layer = start_layer
        self._next = 0
        self._g: dict[tuple[int, int, int], int] = {}
        self._v: dict[tuple[Bits, int, int], int] = {}
        self._used: dict[tuple[int, int], int] = {}
        self._one_down: dict[tuple[int, int, int], int] = {}
        self._one_up: dict[tuple[int, int, int], int] = {}
        self.inputs: list[Bits] = []
        for k in range(1, d + 1):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    self._g[(k, i, j)] = self.fresh()

    def fresh(self) -> int:
        self._next += 1
        return self._next

    @property
    def num_vars(self) -> int:
        return self._next

    def g(self, k: int, i: int, j: int) -> int:
        return self._g[(k, i, j)]

    def g_lits(self) -> list[int]:
        return [self._g[key] for key in sorted(self._g)]

    def register_input(self, x: Bits) -> None:
        if len(x) != self.n:
            raise EncodingError(f"input {x} does not have {self.n} bits")
        if (x, self.start_layer, 1) in self._v:
            return
        self.inputs.append(x)
        for k in range(self.start_layer, self.d + 1):
            for i in range(1, self.n + 1):
                self._v[(x, k, i)] = self.fresh()

    def v(self, x: Bits, k: int, i: int) -> int:
        return self._v[(x, k, i)]

    def used(self, k: int, i: int, formula: CnfFormula) -> int:
        """The channel-used flag used(k,i) <-> OR of incident g(k,.,.);
        defining clauses are emitted on first request."""
        key = (k, i)
        if key not in self._used:
            var = self.fresh()
            self._used[key] = var
            incident = [self.g(k, min(i, o), max(i, o)) for o in range(1, self.n + 1) if o != i]
            formula.add(-var, *incident)
            for glit in incident:
                formula.add(-glit, var)
        return self._used[key]

    def one_down(self, k: int, i: int, j: int, formula: CnfFormula) -> int | None:
        """one_down(k,i,j) <-> OR of g(k,i,l) for i < l <= j; None when the
        disjunction is empty (vacuously false)."""
        if j <= i:
            return None
        key = (k, i, j)
        if key not in self._one_down:
            var = self.fresh()
            self._one_down[key] = var
            lits = [self.g(k, i, l) for l in range(i + 1, j + 1)]
            formula.add(-var, *lits)
            for glit in lits:
                formula.add(-glit, var)
        return self._one_down[key]

    def one_up(self, k: int, i: int, j: int, formula: CnfFormula) -> int | None:
        """one_up(k,i,j) <-> OR of g(k,l,j) for i <= l < j."""
        if j <= i:
            return None
        key = (k, i, j)
        if key not in self._one_up:
            var = self.fresh()
            self._one_up[key] = var
            lits = [self.g(k, l, j) for l in range(i, j)]
            formula.add(-var, *lits)
            for glit in lits:
                formula.add(-glit, var)
        return self._one_up[key]

    def dump_map(self) -> str:
        """Sidecar debugging map, one ``role ... -> id`` line per variable;
        ids in none of the role tables belong to the cardinality network."""
        roles = ["card"] * self._next
        for (x, k, i), var in self._v.items():
            roles[var - 1] = f"v {''.join(map(str, x))} {k} {i}"
        for name, table in (
            ("g", self._g),
            ("used", self._used),
            ("oneDown", self._one_down),
            ("oneUp", self._one_up),
        ):
            for key, var in table.items():
                roles[var - 1] = " ".join((name, *map(str, key)))
        return "".join(f"{role} -> {var}\n" for var, role in enumerate(roles, 1))


def encode_valid(vm: VarMap, formula: CnfFormula) -> None:
    """Layer independence: two comparators sharing a channel exclude each other."""
    for k in range(1, vm.d + 1):
        for c in range(1, vm.n + 1):
            incident = sorted(
                (min(c, o), max(c, o)) for o in range(1, vm.n + 1) if o != c
            )
            for a in range(len(incident)):
                for b in range(a + 1, len(incident)):
                    formula.add(-vm.g(k, *incident[a]), -vm.g(k, *incident[b]))


def encode_sorts(vm: VarMap, formula: CnfFormula, x: Bits, y: Bits | None = None) -> None:
    """Value-chain constraints forcing input x to come out as sorted(x)."""
    expected = tuple(sorted(x))
    if y is None:
        y = expected
    elif tuple(y) != expected:
        raise EncodingError(f"y={y} is not sorted({x})")
    vm.register_input(x)
    n, d, start = vm.n, vm.d, vm.start_layer
    for i in range(1, n + 1):
        formula.add(vm.v(x, start, i) if x[i - 1] else -vm.v(x, start, i))
    for k in range(start + 1, d + 1):
        for i in range(1, n + 1):
            cur = vm.v(x, k, i)
            prev = vm.v(x, k - 1, i)
            u = vm.used(k, i, formula)
            formula.add(u, -cur, prev)
            formula.add(u, cur, -prev)
            for j in range(1, i):
                # comparator (j, i): channel i receives the maximum
                glit = vm.g(k, j, i)
                other = vm.v(x, k - 1, j)
                formula.add(-glit, -cur, other, prev)
                formula.add(-glit, cur, -other)
                formula.add(-glit, cur, -prev)
            for j in range(i + 1, n + 1):
                # comparator (i, j): channel i receives the minimum
                glit = vm.g(k, i, j)
                other = vm.v(x, k - 1, j)
                formula.add(-glit, cur, -other, -prev)
                formula.add(-glit, -cur, other)
                formula.add(-glit, -cur, prev)
    for i in range(1, n + 1):
        formula.add(vm.v(x, d, i) if y[i - 1] else -vm.v(x, d, i))


def window_of(x: Bits) -> tuple[int, int]:
    """(t, r): x = 0^(t-1), x_t..x_{t+r-1}, 1^rest with maximal margins."""
    n = len(x)
    lead = 0
    while lead < n and x[lead] == 0:
        lead += 1
    trail = 0
    while trail < n - lead and x[n - 1 - trail] == 1:
        trail += 1
    return lead + 1, n - lead - trail


def encode_redundant_sorts(vm: VarMap, formula: CnfFormula, x: Bits) -> None:
    """Implied per-input clauses: inside the unsorted window a 1 survives a
    layer unless some comparator leads from its channel down into the window,
    and dually for 0s.  Channels in the margins never change for this input,
    which is what makes these clauses consequences rather than assumptions."""
    t, r = window_of(x)
    if r <= 0:
        raise EncodingError(f"input {x} is sorted; no window to strengthen")
    for k in range(vm.start_layer + 1, vm.d + 1):
        for i in range(t, t + r):
            down = vm.one_down(k, i, t + r - 1, formula)
            up = vm.one_up(k, t, i, formula)
            prev = vm.v(x, k - 1, i)
            cur = vm.v(x, k, i)
            formula.add(*((-prev, cur) if down is None else (-prev, down, cur)))
            formula.add(*((prev, -cur) if up is None else (prev, up, -cur)))


def encode_last_layers(vm: VarMap, formula: CnfFormula) -> None:
    """Necessary shapes of the final two layers of any sorting network:
    last-layer comparators connect neighbours, penultimate ones span at most
    three, and a span-3 or span-2 penultimate comparator forces the matching
    neighbour comparators below it.  Only emitted for layers the search is
    still free to choose (beyond any fixed prefix)."""
    n, d = vm.n, vm.d
    if d >= vm.start_layer + 1:
        for i in range(1, n + 1):
            for j in range(i + 2, n + 1):
                formula.add(-vm.g(d, i, j))
    if d < 2 or d - 1 < vm.start_layer + 1:
        return
    for i in range(1, n + 1):
        for j in range(i + 4, n + 1):
            formula.add(-vm.g(d - 1, i, j))
    for i in range(1, n - 2):
        formula.add(-vm.g(d - 1, i, i + 3), vm.g(d, i, i + 1))
        formula.add(-vm.g(d - 1, i, i + 3), vm.g(d, i + 2, i + 3))
    for i in range(1, n - 1):
        formula.add(-vm.g(d - 1, i, i + 2), vm.g(d, i, i + 1), vm.g(d, i + 1, i + 2))


def encode_sigma(
    vm: VarMap,
    formula: CnfFormula,
    sigma1: bool = True,
    sigma2: bool = True,
    sigma3: bool = True,
) -> None:
    """Search-space restrictions that keep at least one optimal witness:

    * sigma1: no comparator repeated in consecutive layers (a repeat is dead);
    * sigma2: a comparator is placed as early as possible -- one endpoint must
      have been busy in the previous layer.  Never asserted across a fixed
      prefix boundary, where moving a comparator up is not available;
    * sigma3: every adjacent pair is compared somewhere (necessary to sort).
    """
    n, d = vm.n, vm.d
    if sigma1:
        for k in range(max(1, vm.start_layer), d):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    formula.add(-vm.g(k, i, j), -vm.g(k + 1, i, j))
    if sigma2:
        for k in range(vm.start_layer + 2, d + 1):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    formula.add(
                        -vm.g(k, i, j),
                        vm.used(k - 1, i, formula),
                        vm.used(k - 1, j, formula),
                    )
    if sigma3:
        for i in range(1, n):
            formula.add(*(vm.g(k, i, i + 1) for k in range(1, d + 1)))


def prefix_network(prefix: Sentence | str, n: int) -> Network:
    """Two-layer network of the prefix, padded with free channels up to n."""
    if isinstance(prefix, str):
        prefix = parse_sentence(prefix)
    total = sum(word_channels(w) for w in prefix)
    if total > n:
        raise EncodingError(f"prefix covers {total} channels, instance has {n}")
    if total < n:
        prefix = tuple(sorted(prefix + ("0",) * (n - total)))
    return net_of(prefix)


def encode_prefix(vm: VarMap, formula: CnfFormula, prefix: Sentence | str) -> list[Bits]:
    """Pin layers 1 and 2 to the prefix network; returns the still-unsorted
    prefix outputs, the only vectors the remaining layers must handle."""
    if vm.d < 2:
        raise EncodingError("a two-layer prefix needs d >= 2")
    net = prefix_network(prefix, vm.n)
    placed = {(k, c): True for k, c in net.comparators()}
    for k in (1, 2):
        for i in range(1, vm.n + 1):
            for j in range(i + 1, vm.n + 1):
                lit = vm.g(k, i, j)
                formula.add(lit if placed.get((k, (i, j))) else -lit)
    return sorted(unsorted_outputs(net))


def build_instance(
    n: int, d: int, s: int, options: EncodeOptions | None = None
) -> tuple[CnfFormula, VarMap]:
    """The full existence formula: valid and sorts for every needed input and
    at most s comparators overall, plus the enabled optional families.

    Satisfiable exactly when a sorting network on n channels with at most d
    layers and at most s comparators (extending the prefix, if fixed) exists.
    """
    if n < 1:
        raise EncodingError(f"need n >= 1, got {n}")
    if d < 1 or s < 1:
        raise EncodingError(f"need positive depth and size, got d={d} s={s}")
    options = options or EncodeOptions()
    if options.prefix is not None and d < 2:
        raise EncodingError("cannot fix a two-layer prefix with d < 2")

    vm = VarMap(n, d, start_layer=2 if options.prefix is not None else 0)
    formula = CnfFormula()
    encode_valid(vm, formula)
    if options.prefix is not None:
        inputs = encode_prefix(vm, formula, options.prefix)
    else:
        inputs = [
            x for x in all_inputs(n) if not (options.only_unsorted and is_sorted_bits(x))
        ]
    for x in inputs:
        vm.register_input(x)  # keep all value chains ahead of the auxiliaries
    for x in inputs:
        encode_sorts(vm, formula, x)
        if options.redundant_sorts and not is_sorted_bits(x):
            encode_redundant_sorts(vm, formula, x)
    if options.last_layer:
        encode_last_layers(vm, formula)
    encode_sigma(vm, formula, options.sigma1, options.sigma2, options.sigma3)
    card = cardinality.build_atmost(vm.g_lits(), s, vm.fresh)
    formula.clauses.extend(card.clauses)
    if card.c_target is not None:
        formula.add(-card.c_target)
    formula.num_vars = vm.num_vars
    return formula, vm
