"""CNF instances for "a sorting network with at most s comparators in at most
d layers exists", built over an explicit variable map.

Variables, in allocation order: the comparator placements g(k,i,j)
(layer-major, (i,j) lexicographic), then one value chain v(x,k,i) per encoded
input vector, then auxiliaries (channel-used flags, window propagation
helpers, cardinality internals).  Identical build inputs produce identical
formulas byte for byte.

Every input's value chain is one contiguous block of ids, so the clauses of
one input are those of any other with the block shifted.  ``encode_inputs``
therefore encodes clause by clause only the first input, and the first input
with each window, and copies every later input's clauses from templates.
The output is the same as encoding each input in turn; ``ENCODER_VERSION``
names it.

Those templates, the families that name only g literals (validity, last
layers, sigma1 and sigma3) and the cardinality network, last in every
formula, depend only on the instance's shape (n, d and the start layer) and,
for the counter, on s.  So each process builds them once per shape
(``_shape``, a small bounded cache), in a scratch VarMap of that shape, and
drops them with it.  A template records each auxiliary it names (a used,
oneDown or oneUp flag) and each g literal by its role, and an instance binds
it to its own ids, once, when it first applies it; the counter names only g
literals, which every VarMap of the shape numbers alike, and an instance
applies it to the block of ids it reserves for its auxiliaries.

A formula keeps those copies as references: its store (``CnfFormula``)
holds, in DIMACS order, plain lists of literals, each clause ended by a 0,
and ``(template, block)`` pairs that stand for a template's clauses over one
block of ids: an input's value chain, or the counter's auxiliaries.  No
literal of a copied clause is ever made.  Its one reader, ``runs``, maps
every store entry through a table indexed by literal (the DIMACS text of
each literal, its truth under a model, or the literal itself), and a
template part through its own itemgetter over the table's values for its
constants and block.  For the file the bundled solver reads, ``runs`` also
tells a template's first application from a repeat: it marks the first, and
stands for each repeat by one short run that names the template and the
block, without reading the template's clauses (``solving.write_minicdcl``).
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import itemgetter, neg
from typing import Callable, Iterable, Iterator

from sortnetsat import cardinality
from sortnetsat.networks import Bits, Network, unsorted_outputs
from sortnetsat.words import Sentence, format_sentence, net_of, word_channels


# Part of every catalog key.  Bump it whenever the DIMACS text of some instance
# changes, so that results cached under an older encoder are solved again.
ENCODER_VERSION = 1


class EncodingError(ValueError):
    pass


# store entries per plain run that ``CnfFormula.runs`` yields at once: bounds
# what its readers hold at a time
CHUNK = 1 << 15


class CnfFormula:
    """A growing formula, stored in DIMACS order as a list of ``parts``.  A
    part is either a plain list of entries, the literals of the clauses
    ``add`` wrote, each clause ended by a 0, or a ``(template, block)`` pair:
    the clauses of a ``_Template`` applied to one block of ids.  No
    literal of a template part is ever made, and no object per clause.

    This class alone knows that layout.  Readers of a whole formula take its
    ``runs`` through a table indexed by literal; ``clauses`` yields the
    clauses as tuples, for the builtin solver and for tests.  Two formulas are
    equal when their num_vars and their clauses are.  ``num_vars`` is not
    derived from the clauses: ``build_instance`` copies it from the VarMap
    that numbered them.
    """

    def __init__(self, num_vars: int = 0):
        self.num_vars = num_vars
        self.num_clauses = 0
        # the plain part that ``add`` extends, always the last part
        self._tail: list[int] = []
        self.parts: list[list[int] | tuple[_Template, range]] = [self._tail]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CnfFormula):
            return NotImplemented
        return self.num_vars == other.num_vars and list(self.clauses) == list(other.clauses)

    def add(self, *lits: int) -> None:
        if not lits or 0 in lits:
            raise EncodingError(f"refusing to add the clause {lits}: it needs nonzero literals")
        self._tail += lits
        self._tail.append(0)
        self.num_clauses += 1

    def extend(self, entries: list[int]) -> None:
        """Append clauses given as store entries, each clause ended by a 0."""
        self._tail += entries
        self.num_clauses += entries.count(0)

    def add_template(self, template: _Template, block: range) -> None:
        """Append the clauses of ``template`` over the ids ``block``."""
        self._tail = []
        self.parts += [(template, block), self._tail]
        self.num_clauses += template.num_clauses

    @property
    def clauses(self) -> _Clauses:
        return _Clauses(self)

    def runs(
        self, table, checked: bool = True, refer: Callable[..., tuple] | None = None
    ) -> Iterator[tuple]:
        """``table[e]`` for every store entry e, in order, in runs of whole
        clauses: a template part is one run, a plain part runs of ``CHUNK``
        entries or a few more, since no clause is split.

        ``table`` is indexed by literal, as a list of 2 * num_vars + 1 entries
        is: a clause's 0 reads ``table[0]`` and a negative literal counts from
        the end.  When ``checked``, a literal beyond num_vars raises
        ValueError before the run that holds it is yielded; the check reads
        each plain run, and the constants and block of each template part.

        With ``refer``, templates are numbered 0, 1, ... in the order they
        are first yielded whole.  That first application is preceded by the
        run ``refer(k, block, num_clauses)``, and every later application of
        template k is the run ``refer(k, block, None)`` alone, its clauses
        unread.  An application whose block holds one of the template's
        constants is never the first: renaming that block's ids in its
        clauses would rename the constant too."""
        nv = self.num_vars
        numbers: dict[_Template, int] = {}
        for part in self.parts:
            if type(part) is tuple:
                template, block = part
                a, b = block.start, block.stop
                if checked and (template.reach > nv or b > nv + 1):
                    raise ValueError("literal beyond num_vars")
                if refer is not None:
                    k = numbers.get(template)
                    if k is not None:
                        yield refer(k, block, None)
                        continue
                    if not any(abs(c) in block for c in template.constants):
                        numbers[template] = k = len(numbers)
                        yield refer(k, block, template.num_clauses)
                head = [table[c] for c in template.constants]
                yield template.get(head + table[a:b] + table[-a:-b:-1])
                continue
            start = 0
            while start < len(part):
                end = part.index(0, min(start + CHUNK, len(part)) - 1) + 1
                entries = part[start:end]
                if checked and (max(entries) > nv or -min(entries) > nv):
                    raise ValueError("literal beyond num_vars")
                # a clause is a literal and its 0 at least, so the getter
                # returns a tuple
                yield itemgetter(*entries)(table)
                start = end


class _Identity:
    """The table ``CnfFormula.clauses`` reads: every literal maps to itself,
    within num_vars or not."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            return list(range(key.start, key.stop, key.step or 1))
        return key


class _Clauses:
    """``CnfFormula.clauses``: iterates the clauses as tuples, in order; its
    length is the clause count, read without a scan."""

    def __init__(self, formula: CnfFormula):
        self._formula = formula

    def __len__(self) -> int:
        return self._formula.num_clauses

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for run in self._formula.runs(_Identity(), checked=False):
            start = 0
            while start < len(run):
                end = run.index(0, start)
                yield run[start:end]
                start = end + 1


@dataclass(frozen=True)
class EncodeOptions:
    """Optional constraint families; everything defaults on because none of
    them changes satisfiability (they only prune or speed up)."""

    redundant_sorts: bool = True
    last_layer: bool = True
    sigma1: bool = True
    sigma2: bool = True
    sigma3: bool = True
    prefix: Sentence | None = None

    def with_prefix(self, prefix: Sentence | None) -> "EncodeOptions":
        return replace(self, prefix=prefix)

    def key(self) -> str:
        """Stable text form for catalog keys, naming the encoder version."""
        flags = [f"encoder={ENCODER_VERSION}"] + [
            f"{name}={int(getattr(self, name))}"
            for name in ("redundant_sorts", "last_layer", "sigma1", "sigma2", "sigma3")
        ]
        # sorted inputs are never encoded; the field stays so that stored
        # keys keep their text
        flags.append("only_unsorted=1")
        flags.append(f"prefix={format_sentence(self.prefix) if self.prefix else '-'}")
        return ",".join(flags)


class VarMap:
    """Bijection between encoding roles and DIMACS variable ids.

    ``start_layer`` is the layer whose output the value chains start from:
    0 normally, 2 when the first two layers are fixed by a prefix.
    """

    def __init__(self, n: int, d: int, start_layer: int = 0):
        if n < 1 or d < 1:
            raise EncodingError(f"need n >= 1 and d >= 1, got n={n} d={d}")
        if start_layer < 0:
            raise EncodingError(f"negative start layer {start_layer}")
        if start_layer > d:
            raise EncodingError(f"start layer {start_layer} needs d >= {start_layer}, got d={d}")
        self.n = n
        self.d = d
        self.start_layer = start_layer
        self._next = 0
        self._g: dict[tuple[int, int, int], int] = {}
        self._base: dict[Bits, int] = {}  # first id of each input's value chain
        self._or: dict[tuple, int] = {}  # (role name, *indices) -> id
        self.inputs: list[Bits] = []
        for k in range(1, d + 1):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    self._g[(k, i, j)] = self.fresh()

    def fresh(self) -> int:
        self._next += 1
        return self._next

    def reserve(self, count: int) -> range:
        """``count`` fresh ids, in one block."""
        self._next += count
        return range(self._next - count + 1, self._next + 1)

    @property
    def num_vars(self) -> int:
        return self._next

    def g(self, k: int, i: int, j: int) -> int:
        return self._g[(k, i, j)]

    def g_lits(self) -> list[int]:
        return [self._g[key] for key in sorted(self._g)]

    def roles(self) -> Iterator[tuple[tuple, int]]:
        """(role, id) for every g literal and auxiliary, the role as
        ``dump_map`` names it: ("g", k, i, j), ("used", k, i), ..."""
        for key, var in self._g.items():
            yield ("g", *key), var
        yield from self._or.items()

    def id_of(self, role: tuple) -> int:
        """The id of a role that ``roles`` yields."""
        return self._g[role[1:]] if role[0] == "g" else self._or[role]

    def register_input(self, x: Bits) -> None:
        """Give x one contiguous block of ids, v(x,start,1) ... v(x,d,n)."""
        if len(x) != self.n:
            raise EncodingError(f"input {x} does not have {self.n} bits")
        if x in self._base:
            return
        self.inputs.append(x)
        self._base[x] = self._next + 1
        self._next += (self.d - self.start_layer + 1) * self.n

    def block(self, x: Bits) -> range:
        """The ids of x's value chain, layer-major."""
        base = self._base[x]
        return range(base, base + (self.d - self.start_layer + 1) * self.n)

    def v(self, x: Bits, k: int, i: int) -> int:
        if not (self.start_layer <= k <= self.d and 1 <= i <= self.n):
            raise KeyError((x, k, i))
        return self._base[x] + (k - self.start_layer) * self.n + i - 1

    def layer(self, x: Bits, k: int) -> range:
        """The ids of x's values at layer k, channels 1 .. n."""
        first = self.v(x, k, 1)
        return range(first, first + self.n)

    def _define(self, key: tuple, lits: Iterable[int], formula: CnfFormula) -> int:
        """A fresh id for the role ``key``, defined as the OR of ``lits`` by
        clauses written to ``formula``.  Callers look the role up first, so
        that a known role builds no ``lits``."""
        var = self._or[key] = self.fresh()
        lits = list(lits)
        entries = [-var, *lits, 0]  # var -> OR of lits
        for glit in lits:
            entries += (-glit, var, 0)  # glit -> var
        formula.extend(entries)
        return var

    def used(self, k: int, i: int, formula: CnfFormula) -> int:
        """The channel-used flag used(k,i) <-> OR of incident g(k,.,.)."""
        key = ("used", k, i)
        return self._or.get(key) or self._define(
            key, (self.g(k, min(i, o), max(i, o)) for o in range(1, self.n + 1) if o != i), formula
        )

    def one_down(self, k: int, i: int, j: int, formula: CnfFormula) -> int | None:
        """one_down(k,i,j) <-> OR of g(k,i,l) for i < l <= j; None when the
        disjunction is empty (vacuously false)."""
        if j <= i:
            return None
        key = ("oneDown", k, i, j)
        return self._or.get(key) or self._define(
            key, (self.g(k, i, l) for l in range(i + 1, j + 1)), formula
        )

    def one_up(self, k: int, i: int, j: int, formula: CnfFormula) -> int | None:
        """one_up(k,i,j) <-> OR of g(k,l,j) for i <= l < j."""
        if j <= i:
            return None
        key = ("oneUp", k, i, j)
        return self._or.get(key) or self._define(
            key, (self.g(k, l, j) for l in range(i, j)), formula
        )

    def dump_map(self) -> str:
        """Sidecar debugging map, one ``role ... -> id`` line per variable;
        ids in none of the role tables belong to the cardinality network."""
        roles = ["card"] * self._next
        for x in self.inputs:
            bits = "".join(map(str, x))
            for offset, var in enumerate(self.block(x)):
                k, i = divmod(offset, self.n)
                roles[var - 1] = f"v {bits} {self.start_layer + k} {i + 1}"
        for role, var in self.roles():
            roles[var - 1] = " ".join(map(str, role))
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


def encode_sorts(vm: VarMap, formula: CnfFormula, x: Bits) -> None:
    """Value-chain constraints forcing input x to come out as sorted(x)."""
    vm.register_input(x)
    encode_units(vm, formula, x, vm.start_layer, x)
    _encode_chain(vm, formula, x)
    encode_units(vm, formula, x, vm.d, tuple(sorted(x)))


def encode_units(vm: VarMap, formula: CnfFormula, x: Bits, k: int, bits: Bits) -> None:
    """Pin x's values at layer k to ``bits``."""
    for var, bit in zip(vm.layer(x, k), bits):
        formula.add(var if bit else -var)


def _encode_chain(vm: VarMap, formula: CnfFormula, x: Bits) -> None:
    """Each layer's values along x's chain follow from the previous layer's
    through the comparators placed there (a channel no comparator uses keeps
    its value)."""
    n, d = vm.n, vm.d
    for k in range(vm.start_layer + 1, d + 1):
        before, after = vm.layer(x, k - 1), vm.layer(x, k)
        for i in range(1, n + 1):
            cur = after[i - 1]
            prev = before[i - 1]
            u = vm.used(k, i, formula)
            formula.add(u, -cur, prev)
            formula.add(u, cur, -prev)
            for j in range(1, i):
                # comparator (j, i): channel i receives the maximum
                glit = vm.g(k, j, i)
                other = before[j - 1]
                formula.add(-glit, -cur, other, prev)
                formula.add(-glit, cur, -other)
                formula.add(-glit, cur, -prev)
            for j in range(i + 1, n + 1):
                # comparator (i, j): channel i receives the minimum
                glit = vm.g(k, i, j)
                other = before[j - 1]
                formula.add(-glit, cur, -other, -prev)
                formula.add(-glit, -cur, other)
                formula.add(-glit, -cur, prev)


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
        before, after = vm.layer(x, k - 1), vm.layer(x, k)
        for i in range(t, t + r):
            down = vm.one_down(k, i, t + r - 1, formula)
            up = vm.one_up(k, t, i, formula)
            prev = before[i - 1]
            cur = after[i - 1]
            formula.add(*((-prev, cur) if down is None else (-prev, down, cur)))
            formula.add(*((prev, -cur) if up is None else (prev, up, -cur)))


class _Template:
    """Clauses over one block of ids, abstracted from it, so that the same
    clauses can be read for another block of the same width: ``entries``
    are their store entries, each clause ended by a 0, and ``block`` the ids
    they were written over.  One itemgetter ``get`` picks the entries from
    the list ``[constants..., +block ids..., -block ids...]`` of the block it
    is applied to (0 is one of the constants), or from that list read
    through a table, as ``CnfFormula.runs`` does.  ``reach`` is the largest
    variable among the constants.  A template made by ``of`` also records the
    role of each constant in its VarMap, so that ``bind`` can give the same
    clauses over the ids of another VarMap of that shape.
    """

    def __init__(self, entries: list[int], block: range):
        self.constants = sorted({l for l in entries if abs(l) not in block})
        self.reach = max(map(abs, self.constants), default=0)
        pos, width = len(self.constants), len(block)
        self.width = width
        where = {l: at for at, l in enumerate(self.constants)}
        where.update(zip(block, range(pos, pos + width)))
        where.update(zip(map(neg, block), range(pos + width, pos + 2 * width)))
        picks = list(map(where.__getitem__, entries))
        # a clause is a literal and its 0 at least, so two picks or more make
        # the getter return a tuple; only an empty template has fewer
        self.get = itemgetter(*picks) if picks else lambda lits: ()
        self.num_clauses = entries.count(0)

    @classmethod
    def of(cls, vm: VarMap, encode, x: Bits) -> _Template:
        """The clauses ``encode(vm, formula, x)`` writes, over x's value chain.

        Every auxiliary it names for x must already exist, from an earlier
        call for an input that names the same ones: the call made here then
        writes x's own clauses and no definitions."""
        scratch = CnfFormula()
        encode(vm, scratch, x)
        (entries,) = scratch.parts  # only ``add`` wrote to it: one plain part
        template = cls(entries, vm.block(x))
        role_of = {var: role for role, var in vm.roles()}
        # (sign, role) of each constant in vm, for ``bind``; 0 is (0, None)
        template.roles = [((c > 0) - (c < 0), role_of.get(abs(c))) for c in template.constants]
        return template

    def bind(self, vm: VarMap) -> _Template:
        """The same clauses, with each constant the id ``vm`` gives its role:
        one lookup per constant."""
        bound = copy(self)
        bound.constants = [sign * vm.id_of(role) if sign else 0 for sign, role in self.roles]
        bound.reach = max(map(abs, bound.constants), default=0)
        return bound


def encode_inputs(
    vm: VarMap, formula: CnfFormula, inputs: list[Bits], redundant_sorts: bool
) -> None:
    """``encode_sorts`` for every input in turn, each followed by
    ``encode_redundant_sorts``, which needs it unsorted, when
    ``redundant_sorts`` is set.

    Only the first input, and the first input with each window, go through
    those functions, which allocate the auxiliaries in order and write their
    definitions.  Every later input applies the templates of its shape
    (``_shape``), bound to this instance's ids once, when first applied, so
    the output is the same as encoding each input in turn.
    """
    for x in inputs:
        vm.register_input(x)  # keep all value chains ahead of the auxiliaries
    if not inputs:
        return
    shape = _shape(vm.n, vm.d, vm.start_layer)
    # the shape's templates this instance applies, by window (None for the
    # value chain), bound to its ids
    bound: dict[tuple[int, int] | None, _Template] = {}

    def apply(key: tuple[int, int] | None, x: Bits) -> None:
        template = bound.get(key)
        if template is None:
            shared = shape.chain if key is None else shape.window(key, x)
            template = bound[key] = shared.bind(vm)
        formula.add_template(template, vm.block(x))

    encode_sorts(vm, formula, inputs[0])
    windows = set()
    for at, x in enumerate(inputs):
        if at:
            encode_units(vm, formula, x, vm.start_layer, x)
            apply(None, x)
            encode_units(vm, formula, x, vm.d, tuple(sorted(x)))
        if redundant_sorts:
            key = window_of(x)
            if key in windows:
                apply(key, x)
            else:
                windows.add(key)
                encode_redundant_sorts(vm, formula, x)


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


# Search-space restrictions that keep at least one optimal witness.


def encode_sigma1(vm: VarMap, formula: CnfFormula) -> None:
    """No comparator repeated in consecutive layers (a repeat is dead)."""
    for k in range(max(1, vm.start_layer), vm.d):
        for i in range(1, vm.n + 1):
            for j in range(i + 1, vm.n + 1):
                formula.add(-vm.g(k, i, j), -vm.g(k + 1, i, j))


def encode_sigma2(vm: VarMap, formula: CnfFormula) -> None:
    """A comparator is placed as early as possible: one endpoint must have
    been busy in the previous layer.  Never asserted across a fixed prefix
    boundary, where moving a comparator up is not available."""
    for k in range(vm.start_layer + 2, vm.d + 1):
        for i in range(1, vm.n + 1):
            for j in range(i + 1, vm.n + 1):
                formula.add(
                    -vm.g(k, i, j),
                    vm.used(k - 1, i, formula),
                    vm.used(k - 1, j, formula),
                )


def encode_sigma3(vm: VarMap, formula: CnfFormula) -> None:
    """Every adjacent pair is compared somewhere (necessary to sort)."""
    for i in range(1, vm.n):
        formula.add(*(vm.g(k, i, i + 1) for k in range(1, vm.d + 1)))


def prefix_network(prefix: Sentence, n: int) -> Network:
    """Two-layer network of the prefix, padded with free channels up to n."""
    total = sum(word_channels(w) for w in prefix)
    if total > n:
        raise EncodingError(f"prefix covers {total} channels, instance has {n}")
    if total < n:
        prefix = tuple(sorted(prefix + ("0",) * (n - total)))
    return net_of(prefix)


def encode_prefix(vm: VarMap, formula: CnfFormula, net: Network) -> None:
    """Pin layers 1 and 2 to those of ``net``, the prefix network."""
    placed = set(net.comparators())
    for k in (1, 2):
        for i in range(1, vm.n + 1):
            for j in range(i + 1, vm.n + 1):
                lit = vm.g(k, i, j)
                formula.add(lit if (k, (i, j)) in placed else -lit)


class _Shape:
    """What every instance of one shape (n, d, start layer) encodes alike,
    built once in a scratch VarMap of the shape: the entries of the families
    that name only g literals (validity, last layers, sigma1 and sigma3),
    which every VarMap of the shape numbers alike; the value-chain template;
    and, each built when an instance first needs it, the
    ``encode_redundant_sorts`` template of each window and the cardinality
    network of each s."""

    def __init__(self, n: int, d: int, start_layer: int):
        self.vm = VarMap(n, d, start_layer)
        self.valid = self._entries(encode_valid)
        self.last_layers = self._entries(encode_last_layers)
        self.sigma1 = self._entries(encode_sigma1)
        self.sigma3 = self._entries(encode_sigma3)
        # the clauses of a value chain do not depend on the input's bits
        self.chain = self._template(_encode_chain, (0,) * n)
        self.windows: dict[tuple[int, int], _Template] = {}
        self.counters: dict[int, _Template] = {}

    def _entries(self, encode) -> list[int]:
        scratch = CnfFormula()
        encode(self.vm, scratch)
        return scratch.parts[0]

    def _template(self, encode, x: Bits) -> _Template:
        self.vm.register_input(x)
        encode(self.vm, CnfFormula(), x)  # allocates every auxiliary it names
        return _Template.of(self.vm, encode, x)

    def window(self, key: tuple[int, int], x: Bits) -> _Template:
        """The template of window ``key``, built from x, an input with it,
        on first request."""
        if key not in self.windows:
            self.windows[key] = self._template(encode_redundant_sorts, x)
        return self.windows[key]

    def counter(self, s: int) -> _Template:
        """The cardinality network for "at most s of the g literals",
        followed by its unit clause when it has one, as a template over its
        auxiliaries, on first request.  Those are one block of ids, here the
        next ones of the scratch VarMap and in an instance those that
        ``VarMap.reserve`` gives; the g literals are its constants."""
        if s not in self.counters:
            first = self.vm.num_vars + 1
            card = cardinality.build_atmost(self.vm.g_lits(), s, self.vm.fresh)
            entries = [e for clause in card.clauses for e in (*clause, 0)]
            if card.c_target is not None:
                entries += (-card.c_target, 0)
            self.counters[s] = _Template(entries, range(first, self.vm.num_vars + 1))
        return self.counters[s]


# shapes ``_shape`` keeps per process.  A level builds its instances at one
# shape, and a search revisits a few: one per depth with a prefix, one per
# depth without
SHAPES = 8


@lru_cache(maxsize=SHAPES)
def _shape(n: int, d: int, start_layer: int) -> _Shape:
    return _Shape(n, d, start_layer)


def build_instance(
    n: int, d: int, s: int, options: EncodeOptions | None = None
) -> tuple[CnfFormula, VarMap]:
    """The full existence formula: valid and sorts for every needed input and
    at most s comparators overall, plus the enabled optional families.

    Satisfiable exactly when a sorting network on n channels with at most d
    layers and at most s comparators (extending the prefix, if fixed) exists.
    Its inputs are the unsorted outputs of the network it extends: the
    prefix network, or the empty network when there is no prefix.
    """
    if s < 1:
        raise EncodingError(f"need s >= 1, got s={s}")
    options = options or EncodeOptions()
    vm = VarMap(n, d, start_layer=2 if options.prefix is not None else 0)
    shape = _shape(n, d, vm.start_layer)
    formula = CnfFormula()
    formula.extend(shape.valid)
    if options.prefix is None:
        net = Network(n, ())
    else:
        net = prefix_network(options.prefix, n)
        encode_prefix(vm, formula, net)
    # a network leaves every sorted vector sorted, so only the unsorted ones
    # constrain the layers after it
    encode_inputs(vm, formula, sorted(unsorted_outputs(net)), options.redundant_sorts)
    if options.last_layer:
        formula.extend(shape.last_layers)
    if options.sigma1:
        formula.extend(shape.sigma1)
    if options.sigma2:
        encode_sigma2(vm, formula)  # it names used flags, whose ids differ by instance
    if options.sigma3:
        formula.extend(shape.sigma3)
    counter = shape.counter(s)
    formula.add_template(counter, vm.reserve(counter.width))
    formula.num_vars = vm.num_vars
    return formula, vm
