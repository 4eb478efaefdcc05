"""Expression trees over Fibonacci-graph edge labels.

An expression is an immutable tree whose leaves are edge labels (a1, b3, ...)
plus the sentinels UNIT (multiplicative identity, the empty subgraph) and
ZERO (annihilator, the empty interval).  Internal nodes are n-ary sums and
products.  All constructors here produce *simplified* trees: flattened,
with UNIT absorbed into products and ZERO summands dropped.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, chain, count, repeat
from operator import add, attrgetter, itemgetter, mod, mul
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

DEFAULT_PRIME = 2147483647  # 2^31 - 1

DEFAULT_EXPANSION_BOUND = 10**6


class ExprError(ValueError):
    """Base class for every argument or input that fibexpr rejects."""


class SizeExceeded(ExprError):
    """An expansion, enumeration or build grew past its size bound."""


class DuplicateMonomial(ExprError):
    """The same monomial arose twice during expansion (malformed factoring)."""


class UnassignedLabel(ExprError):
    """A label in the expression has no value in the assignment."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _check_int(value, minimum: int, what: str, error: type = ExprError) -> None:
    """Refuse a value that is not an int (a bool is not one) or is below minimum."""
    if type(value) is not int or value < minimum:
        raise error(f"need an integer {what} >= {minimum}, got {value!r}")


class _LabelFields(NamedTuple):
    kind: str
    index: int


class Label(_LabelFields):
    """One edge symbol: kind 'a' (step to v+1) or 'b' (step to v+2).

    A named tuple, so that hashing and comparison run in C: labels key every
    assignment and every monomial.  Labels order by kind, then index."""

    __slots__ = ()

    def __new__(cls, kind: str, index: int):
        if kind not in ("a", "b"):
            raise ExprError(f"label kind must be 'a' or 'b', got {kind!r}")
        _check_int(index, 1, "label index")
        return super().__new__(cls, kind, index)

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


def a(index: int) -> Label:
    return Label("a", index)


def b(index: int) -> Label:
    return Label("b", index)


@lru_cache(maxsize=1)
def _edge_labels(n: int) -> list[Label]:
    """a1..a_{n-1} then b1..b_{n-2}, the edge labels of the n-vertex graph.
    Every one of them passes Label's checks, so they are made without them.
    The list of the last n asked for is cached and shared: callers must not
    change it."""
    make = partial(tuple.__new__, Label)
    return [*map(make, zip(repeat("a"), range(1, n))), *map(make, zip(repeat("b"), range(1, n - 1)))]


@dataclass(frozen=True)
class _Sentinel:
    symbol: str

    def __repr__(self) -> str:
        return self.symbol


UNIT = _Sentinel("1")
ZERO = _Sentinel("0")


@dataclass(frozen=True)
class Term:
    label: Label


class _Internal:
    """Structural equality and hashing for Sum and Product, without recursion.

    The hash is computed on first use, children first over _walk, and cached
    on each node; construction does no extra work.  Equality runs over both
    sides' slot plans (_spliced): every slot is named through one intern
    table keyed by (is Sum, *child names), so equal subtrees get one name, and
    the roots are equal when their names are.  It makes no node, and takes
    time linear in the two plans' slots.

    A root that a builder or parse made holds only its slot plan (see
    _hand_over): its children and every node below them are made from the
    plan on the first read of `children`, which folds and `==` never do.
    """

    _hash = None
    _slot_plan = None  # the plan (labels, steps), set by _plan or a builder

    def __getattr__(self, name: str):
        # only reached for an attribute the instance does not hold
        if name != "children" or self._slot_plan is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, "children", _spliced(self, Term, map).children)
        return self.children

    def __hash__(self) -> int:
        if self._hash is None:
            for x in chain(_walk(self, hashed=True), (self,)):
                object.__setattr__(x, "_hash", hash((type(x), x.children)))
        return self._hash

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        # (is Sum, *child names) -> name, shared by both sides; keys of bools,
        # ints and strings only, which the garbage collector stops tracking
        names: dict = {}
        fresh = count()  # a new name per key; one that is not kept is not reused

        def name(kind, rows):
            return map(names.setdefault, map((kind is Sum,).__add__, rows), fresh)

        return _spliced(self, str, name) == _spliced(other, str, name)

    def __repr__(self) -> str:
        # not the children's reprs, which nest once per level
        return f"{type(self).__name__}(<{len(self.children)} children>)"


@dataclass(frozen=True, eq=False, repr=False)
class Sum(_Internal):
    children: tuple  # length >= 2, no Sum children in simplified form


@dataclass(frozen=True, eq=False, repr=False)
class Product(_Internal):
    children: tuple  # length >= 2, no Product/UNIT children in simplified form


Expression = Union[_Sentinel, Term, Sum, Product]

Monomial = frozenset  # of Label
MonomialSet = frozenset  # of Monomial


def _flat(parts: Iterable[Expression], kind: type, identity, annihilator=None) -> Expression:
    """kind over parts, simplified: the children of a part of the same kind
    are taken in its place, identity is dropped, and annihilator is returned
    as soon as it is met."""
    flat: list[Expression] = []
    for part in parts:
        if part is annihilator:
            return annihilator
        if isinstance(part, kind):
            flat.extend(part.children)
        elif part is not identity:
            flat.append(part)
    if len(flat) > 1:
        return kind(tuple(flat))
    return flat[0] if flat else identity


def product(parts: Iterable[Expression]) -> Expression:
    """Simplifying product constructor: flattens, absorbs UNIT, annihilates on ZERO."""
    return _flat(parts, Product, UNIT, ZERO)


def sumof(parts: Iterable[Expression]) -> Expression:
    """Simplifying sum constructor: flattens and drops ZERO summands."""
    return _flat(parts, Sum, ZERO)


@dataclass
class Assignment:
    """Label values in the field of integers modulo a prime."""

    values: Mapping[Label, int]
    prime: int = DEFAULT_PRIME

    @classmethod
    def random(cls, labels: Iterable[Label], prime: int = DEFAULT_PRIME,
               rng: random.Random | None = None) -> "Assignment":
        """Independent uniform values in 1..prime-1, one per label.

        Draws of (prime-1).bit_length() random bits are taken in batches,
        those below prime-1 are kept, plus one, and the shortfall is drawn
        again.  That is the rejection rule of rng.randrange(1, prime), run
        over one stream of draws, so a random.Random gives the values that
        one randrange call per label would give."""
        _check_int(prime, 2, "prime")  # below 2 no value to draw; getrandbits(0) would never stop
        rng = rng or random.Random()
        labels = [*labels]
        bits, below = (prime - 1).bit_length(), prime - 1
        values: list[int] = []
        while len(values) < len(labels):
            values += [r + 1 for r in map(rng.getrandbits, repeat(bits, len(labels) - len(values)))
                       if r < below]
        return cls(dict(zip(labels, values)), prime)


def _as_batch(v: Assignment | Sequence[Assignment]) -> list[Assignment]:
    """The points of a scalar or batch evaluation, checked to share a valid prime."""
    points = [v] if isinstance(v, Assignment) else list(v)
    for pt in points:
        _check_int(pt.prime, 2, "prime")
        if pt.prime != points[0].prime:
            raise ExprError("all points of one evaluation must share a prime")
    return points


def _values(pt: Assignment, labels: Sequence[Label]) -> list[int]:
    """pt's values of labels, in order; a label it has none for raises UnassignedLabel."""
    try:
        return [*map(pt.values.__getitem__, labels)]
    except KeyError as exc:
        raise UnassignedLabel(f"no value for label {exc.args[0]}") from None


def _walk(e: _Internal, hashed: bool = False) -> list:
    """The distinct Sum and Product nodes below e, each after its internal
    children, walked with an explicit stack; e itself is left out.  With
    hashed, a node whose hash is cached is left out with everything below
    it, so hashing nodes one at a time stays linear in all of them."""
    order, seen = [], {id(e)}
    stack = [(e, iter(e.children))]
    while stack:
        x, todo = stack[-1]
        for c in todo:
            if isinstance(c, _Internal) and id(c) not in seen:
                seen.add(id(c))
                if hashed and c._hash is not None:
                    continue
                stack.append((c, iter(c.children)))
                break
        else:
            order.append(stack.pop()[0])
    order.pop()  # e
    return order


# A plan step combines at most _WIDE children per node; a wider node is
# combined from steps over its consecutive chunks of at most _WIDE children,
# so each residue is reduced after at most _WIDE factors and no chain of maps
# nests deeper.
_WIDE = 32


def _add_steps(steps: list, op, columns: list, top: int, role: str = "node") -> range:
    """Append to steps the plan steps that combine, with op, one node per
    row of columns (column j holding every node's j-th child slot), when
    the next free slot is top; returns the slots of the nodes' values, one
    per row.  Each step is (op, columns, role).  A wide node's chunk
    partials take the slots before them, in steps of role "partial", and
    the free slot after them is the range's stop; the nodes' own step has
    the given role: "empty" for empty nodes planned over their identity,
    "factor" for products that a product reads, else "node"."""
    rows = len(columns[0])
    while len(columns) > _WIDE:  # first each node's chunks, then their results
        whole, rest = divmod(len(columns), _WIDE)
        chunks = [columns[k:k + _WIDE] for k in range(0, whole * _WIDE, _WIDE)]
        steps.append((op, [[*chain.from_iterable(c)] for c in zip(*chunks)], "partial"))
        if rest > 1:
            steps.append((op, columns[-rest:], "partial"))
        partials = [range(top + k * rows, top + (k + 1) * rows) for k in range(whole + (rest > 1))]
        top += len(partials) * rows
        columns = partials + (columns[-1:] if rest == 1 else [])  # a one-child chunk as is
    steps.append((op, columns, role))
    return range(top, top + rows)


def _make_group(top: int, steps: list, op, parts: list) -> list:
    """A builder's group of nodes of one kind and arity: one Sum (op add) or
    Product (op mul) per row of each part's columns (column j holding the
    slots of each row's j-th child), planned as one run of steps appended
    to steps when top is the next free slot; returns the slots of each
    part's nodes, the last range's stop being the next free slot.  No node
    is made.  A single part's columns go into the plan as they are."""
    columns = parts[0] if len(parts) == 1 else [[*chain.from_iterable(c)] for c in zip(*parts)]
    slots = _add_steps(steps, op, columns, top)
    ends = [*accumulate((len(part[0]) for part in parts), initial=slots.start)]
    return [*map(range, ends, ends[1:])]


def _hand_over(labels: list, steps: list) -> _Internal:
    """The root of a build or a parse: a bare Sum or Product, the kind of
    the last step, holding only its slot plan (labels, steps) (see _plan).
    Its children are made from the plan when first read (see _spliced)."""
    e = object.__new__(Sum if steps[-1][0] is add else Product)
    object.__setattr__(e, "_slot_plan", (labels, steps))
    return e


def _spliced(e: _Internal, leaf, node):
    """The last slot's value of one pass over e's slot plan (_plan): ZERO
    and UNIT, leaf(label) for each label, then node(kind, rows) for each
    step of Sum or Product nodes, rows holding each node's tuple of child
    values.  A chunk partial's slot holds its tuple of child values, which
    the step right after its run of partials splices in, in chunk order;
    an empty node's row is ().  Node values must not be plain tuples."""
    labels, steps = _plan(e)
    slots = [ZERO, UNIT, *map(leaf, labels)]
    splice = False  # whether the step before was one of partials
    for op, columns, role in steps:
        rows = zip(*[map(slots.__getitem__, column) for column in columns])
        if role == "empty":
            rows = repeat((), len(columns[0]))
        elif splice:
            rows = (tuple(chain.from_iterable(c if type(c) is tuple else (c,) for c in row))
                    for row in rows)
        splice = role == "partial"
        slots += rows if splice else node(Sum if op is add else Product, rows)
    return slots[-1]


def _steps_of_bins(bins: dict, kids, slot: dict, top: int, key=None, factors=frozenset()) -> list:
    """The plan steps of nodes binned by (height, is Sum, arity): one
    _add_steps run per bin, in sorted order, so every node comes after its
    children and, within one height, products come before sums.  kids(x)
    lists node x's children; slot maps each leaf's key(leaf) (the leaf
    itself if key is None) to its slot and takes each node's as it is
    placed, top being the first free slot.  A bin that holds the key of a
    node in factors (a product that a product reads) has role "factor"."""
    steps = []
    for (_, is_sum, _), xs in sorted(bins.items()):
        op = add if is_sum else mul
        keys = xs if key is None else [*map(key, xs)]
        columns = [[*map(slot.__getitem__, column if key is None else map(key, column))]
                   for column in zip(*map(kids, xs))]
        role = "empty" if not columns else "factor" if not factors.isdisjoint(keys) else "node"
        # an unsimplified empty node is planned over one child, the identity
        placed = _add_steps(steps, op, columns or [[int(op is mul)] * len(xs)], top, role)
        slot.update(zip(keys, placed))
        top = placed.stop
    return steps


def _plan(e: Expression) -> tuple:
    """e's slot plan (labels, steps), the program that every fold of e runs
    over a list of value slots.  The builders and parse hand it over with
    their root; a hand-made, mutated or child root is compiled on first use,
    in one pass over its distinct nodes children first, and cached.  That
    pass gives each label a slot as it first appears, marks each product
    that a product reads, and bins the nodes by (height, kind, arity) for
    _steps_of_bins; the root, alone at the greatest height, is the last
    bin.  A leaf is planned as the one-child Sum over it, which has its
    value.  The builders' products are never read by a product, and parse
    flattens them, so neither marks any.

    Slot 0 holds 0 (ZERO), slot 1 holds 1 (UNIT) and slots 2, 3, ... the
    values of `labels`.  Each step (op, columns, role) then appends one
    value per node of a group: the node's children are read from the slots
    in column j at its position and combined with op (add for a Sum, mul
    for a Product).  Folds ignore the role, which _spliced and evaluate_mod
    read (see _add_steps).  The root is the last slot.  A plan holds labels
    and slot numbers only, never a node, so caching it on the root makes no
    cycle."""
    if not isinstance(e, _Internal):
        e = Sum((e,))
    plan = e._slot_plan
    if plan is not None:
        return plan
    slot, labels, height, bins, factors = {id(ZERO): 0, id(UNIT): 1}, [], {}, {}, set()
    for x in chain(_walk(e), (e,)):
        h = 0
        for c in x.children:
            if isinstance(c, _Internal):
                h = max(h, height[id(c)])
                if type(x) is type(c) is Product:
                    factors.add(id(c))
            elif id(c) not in slot:
                slot[id(c)] = len(labels) + 2
                labels.append(c.label)
        height[id(x)] = h + 1
        bins.setdefault((h + 1, type(x) is Sum, len(x.children)), []).append(x)
    plan = labels, _steps_of_bins(bins, attrgetter("children"), slot, len(labels) + 2, id, factors)
    object.__setattr__(e, "_slot_plan", plan)
    return plan


def _fold(e: Expression, leaves, zero, one, on_sum, on_product):
    """Bottom-up fold of e over its slot plan (_plan), a group of nodes per
    step, so nesting depth is unbounded and each distinct node is done once.

    The ZERO and UNIT slots hold zero and one, each label's slot holds
    leaves(label), and each step appends its nodes' values, on_sum(values)
    or on_product(values, sums): values[j] yields each node's j-th child
    value and sums[j] whether that child is a Sum.  A node wider than _WIDE
    is folded from the results of its chunks, and an empty node as its one
    child, the identity, so both must fold like the whole node."""
    labels, steps = _plan(e)
    vals = [zero, one, *map(leaves, labels)]
    sums = bytearray(len(vals))  # 1 at each slot that holds a Sum
    get, is_sum = vals.__getitem__, sums.__getitem__
    for op, columns, _ in steps:
        values = [map(get, column) for column in columns]
        if op is add:
            vals += on_sum(values)
        else:
            vals += on_product(values, [map(is_sum, column) for column in columns])
        sums += (b"\1" if op is add else b"\0") * (len(vals) - len(sums))
    return vals[-1]


def _total(values: list) -> Iterable[int]:
    """Each node's sum of its children's values."""
    return map(sum, zip(*values))


def _total_with_plus(values: list) -> Iterable[int]:
    """Each node's sum of its children's values, plus one per '+' between
    the children."""
    return map(sum, zip(*values, repeat(len(values) - 1)))


def simplify(e: Expression) -> Expression:
    """Rebuild e in simplified form; expansion is unchanged."""
    return _fold(e, Term, ZERO, UNIT, lambda values: map(sumof, zip(*values)),
                 lambda values, sums: map(product, zip(*values)))


def metric_terms(e: Expression) -> int:
    """First complexity characteristic: term occurrences, counted with multiplicity."""
    return _fold(e, lambda label: 1, 0, 0, _total, lambda values, sums: _total(values))


def metric_plus(e: Expression) -> int:
    """Second complexity characteristic: number of plus operators."""
    return _fold(e, lambda label: 0, 0, 0, _total_with_plus, lambda values, sums: _total(values))


def expand(e: Expression) -> MonomialSet:
    """Distributive expansion of e as a set of monomials (label sets); a node
    of more than DEFAULT_EXPANSION_BOUND monomials raises SizeExceeded.

    Raises DuplicateMonomial if any monomial arises twice: a well-formed
    factoring of a path polynomial has all coefficients equal to one.  A
    sum's summands may share no monomial, and no two factors' monomials may
    share a label.  That covers a product making one monomial twice: if
    disjoint m1 m2 and m1' m2' of two different pairs are equal, m1 != m1',
    say with a label in m1' but not m1; it lies in m2, so m1' and m2 share
    it.  Each node's monomials are a list in plan order, so the duplicate
    reported does not depend on set order.
    """

    def combine_sum(lists) -> list:
        if sum(map(len, lists)) > DEFAULT_EXPANSION_BOUND:
            raise SizeExceeded(f"expansion exceeds {DEFAULT_EXPANSION_BOUND} monomials")
        out = [*chain.from_iterable(lists)]
        if len(set(out)) != len(out):
            seen: set = set()
            twice = next(m for m in out if m in seen or seen.add(m))
            raise DuplicateMonomial(f"monomial appears in two summands: {sorted(map(str, twice))}")
        return out

    def combine_product(lists) -> list:
        # the one-monomial factors are joined first, which leaves the order alone
        ones = [factor[0] for factor in lists if len(factor) == 1]
        acc, size, labels = [frozenset().union(*ones)], 1, sum(map(len, ones))
        for factor in (factor for factor in lists if len(factor) != 1):
            labels = labels * len(factor) + size * sum(map(len, factor))
            size *= len(factor)
            if size > DEFAULT_EXPANSION_BOUND:
                raise SizeExceeded(f"expansion exceeds {DEFAULT_EXPANSION_BOUND} monomials")
            acc = [m1 | m2 for m1 in acc for m2 in factor]
        if sum(map(len, acc)) != labels:  # some two factors' monomials share a label
            shared = next(m1 & m2 for k, factor in enumerate(lists) for later in lists[k + 1:]
                          for m1 in factor for m2 in later if not m1.isdisjoint(m2))
            raise DuplicateMonomial(f"label repeated within a monomial: {sorted(map(str, shared))}")
        return acc

    return frozenset(_fold(e, lambda label: [frozenset([label])], [], [frozenset()],
                           lambda values: map(combine_sum, zip(*values)),
                           lambda values, sums: map(combine_product, zip(*values))))


def evaluate_mod(e: Expression, v: Assignment | Sequence[Assignment]):
    """Value of e modulo the prime of the assignment; UNIT -> 1, ZERO -> 0.

    v is one Assignment, giving an int, or a sequence of Assignments that
    share one prime, giving a list with one residue per point.  Either way
    each point runs e's cached slot plan (_plan): its label values, then one
    list extension per group of nodes, with each column of children read by
    an itemgetter and combined in C, so each distinct node costs a few C
    steps per point.  A step's values are reduced mod p unless it is a
    product step of role "node", which no product reads (see _plan), so an
    unreduced value is below p^32, only sums read it, and no value before a
    reduction reaches 32 p^32.  The root is reduced at the end.
    """
    points = _as_batch(v)
    labels, steps = _plan(e)
    out = []
    for pt in points:
        p = pt.prime
        vals = [0, 1, *map(mod, _values(pt, labels), repeat(p))]
        for op, columns, role in steps:
            if len(columns[0]) == 1:  # an itemgetter of one slot gives no tuple
                acc = [vals[columns[0][0]]]
                for column in columns[1:]:
                    acc[0] = op(acc[0], vals[column[0]])
            else:
                acc = itemgetter(*columns[0])(vals)
                for column in columns[1:]:
                    acc = map(op, acc, itemgetter(*column)(vals))
            vals += acc if op is mul and role == "node" else map(mod, acc, repeat(p))
        out.append(vals[-1] % p)
    return out[0] if isinstance(v, Assignment) else out


def labels_of(e: Expression) -> Counter:
    """Multiset of labels occurring in e (with multiplicity), in one pass
    over its slot plan's steps in reverse, parents first: each slot's print
    count is complete before it adds that count to each of its child slots."""
    labels, steps = _plan(e)
    top = 2 + len(labels) + sum(len(columns[0]) for _, columns, _ in steps)
    printed = [0] * (top - 1) + [1]  # the root, printed once
    for _, columns, _ in reversed(steps):
        top -= len(columns[0])
        counts = printed[top:top + len(columns[0])]
        for column in columns:
            for s, k in zip(column, counts):
                printed[s] += k
    out: Counter = Counter()
    for label, k in zip(labels, printed[2:]):
        out[label] += k
    return out


def is_read_once(e: Expression) -> bool:
    """True iff every label occurs at most once in e."""
    return all(count == 1 for count in labels_of(e).values())


def sp_series(e1: Expression, e2: Expression) -> Expression:
    """Series composition: concatenation of the two subgraph expressions."""
    return product([e1, e2])


def sp_parallel(e1: Expression, e2: Expression) -> Expression:
    """Parallel composition: disjoint union of the two subgraph expressions."""
    return sumof([e1, e2])


def _product_text(values: list, sums: list) -> Iterable[str]:
    """Each node's factors juxtaposed, with parentheses around a Sum."""
    parts = []
    for column, flags in zip(values, sums):
        flags = bytes(flags)
        parts += map(("", "(").__getitem__, flags), column, map(("", ")").__getitem__, flags)
    return map("".join, zip(*parts))


def format_expression(e: Expression) -> str:
    """Render e in the text grammar: juxtaposed products, '+'-joined sums,
    parentheses only around sum factors inside a product.  An empty Sum or
    Product prints as its identity, 0 or 1."""
    return _fold(e, str, "0", "1", lambda values: map("+".join, zip(*values)), _product_text)


def formula_length(e: Expression) -> int:
    """len(format_expression(e)), without building the text."""
    return _fold(e, lambda label: len(str(label)), 1, 1, _total_with_plus,
                 lambda values, sums: map(sum, zip(*values, *[map((0, 2).__getitem__, s)
                                                              for s in sums])))


# One alternative per token kind, so that a match's lastindex names its kind;
# whitespace and any other single character are tokens too, so that finditer
# covers the text without gaps.
_TOKEN = re.compile(r"([ab]\d+)|(\()|(\))|(\+)|(\*)|(1)|\s+|(.)", re.S)
_LABEL, _OPEN, _CLOSE, _PLUS, _STAR, _ONE, _BAD = 1, 2, 3, 4, 5, 6, 7

# parse looks up a repeated parenthesised group by its first _GROUP_KEY
# characters and confirms a candidate by comparing its last _GROUP_KEY
# characters, then its whole text.  Each comparison is charged the characters
# it compares; once the charges pass _GROUP_BUDGET times the length of the
# text, the memo is off for the rest of the call, so its work stays linear
# in the text however the groups nest.
_GROUP_KEY = 16
_GROUP_BUDGET = 4


def parse(text: str) -> Expression:
    """Parse expression text into a simplified DAG in which equal
    subexpressions share one node.

    Grammar:  sum := product ('+' product)* ;
              product := factor ('*'? factor)* ;
              factor := label | '1' | '(' sum ')'.

    One pass over the tokens with an explicit stack of open parentheses, so
    nesting depth is unbounded.  A factor is an int ref: -1 for 1 (UNIT),
    -2-k for labels[k] (in order of first appearance) and i >= 0 for the
    i-th distinct group.  A group's refs are flattened by _flat's rules and
    interned by (kind, child refs), so equal labels share one Term and
    equal sums and products share one node, and a formula printed from a
    DAG parses back to a DAG of the same size.  A parenthesised group whose
    text repeats one parsed earlier is not tokenised again: it parses to the
    ref of its first occurrence, which is what parsing it would return.  The
    tables live for one call.

    No node is made.  Each new group is binned by (height, kind, arity) as
    it is interned, and the bins of the groups that the root reaches become
    its slot plan (_steps_of_bins), which the root holds alone as a
    builder's does (_hand_over); its nodes are made on the first read of
    `children`.  A root of 1 or one label is UNIT or that label's Term.
    """
    leaves: dict[str, int] = {}  # label text as written, and as printed -> its ref
    labels: list[Label] = []
    refs: dict[tuple, int] = {}  # (is Sum, child refs) -> ref
    kids: list[tuple] = []  # a group's ref -> its child refs
    sums: dict[int, bool] = {}  # a group's ref -> whether it is a Sum
    height: dict[int, int] = {}  # a group's ref -> 1 + its children's greatest (a leaf's is 0)
    bins: dict[tuple, list] = {}  # (height, is Sum, arity) -> its groups' refs
    spliced = False  # whether a group was flattened into its parent
    # first _GROUP_KEY characters -> {length: (start, ref)}, first occurrences
    groups: dict[str, dict[int, tuple]] = {}
    budget = _GROUP_BUDGET * len(text)

    def build(is_sum: bool, parts: list) -> int:
        """The ref of the sum (or product) of parts, flattened and interned."""
        if len(parts) == 1:
            return parts[0]
        nonlocal spliced
        flat = parts
        if is_sum in map(sums.get, parts):  # some part is of the same kind
            flat, spliced = [], True
            for r in parts:
                flat += kids[r] if sums.get(r) is is_sum else (r,)
        if not is_sum and -1 in flat:
            flat = [r for r in flat if r != -1]
        if len(flat) < 2:
            return flat[0] if flat else -1
        key = (is_sum, tuple(flat))
        r = refs.get(key)
        if r is None:
            r = refs[key] = len(kids)
            kids.append(key[1])
            sums[r] = is_sum
            height[r] = h = 1 + max(map(height.get, key[1], repeat(0)))
            bins.setdefault((h, is_sum, len(flat)), []).append(r)
        return r

    def recall(start: int):
        """(ref, length) of a parsed group whose text recurs at start, or
        (None, 0).  The last characters are compared first, since they tell
        most candidates that share the first ones apart."""
        nonlocal budget
        for length, (first, ref) in groups.get(text[start:start + _GROUP_KEY], {}).items():
            tail = min(length, _GROUP_KEY)
            budget -= tail
            if text.startswith(text[first + length - tail:first + length],
                               start + length - tail):
                budget -= length
                if text.startswith(text[first:first + length], start):
                    return ref, length
            if budget <= 0:
                break
        return None, 0

    # Each open parenthesis saves the enclosing sum parts, product parts and
    # its own position.  `want` is True while a factor must come next.
    stack: list[tuple] = []
    summands: list = []
    factors: list = []
    want = True
    resume = 0  # where tokenising starts again after a recalled group
    while True:
        for m in _TOKEN.finditer(text, resume):
            kind = m.lastindex
            if kind == _LABEL:
                tok = m.group()
                r = leaves.get(tok)
                if r is None:
                    try:
                        index = int(tok[1:])
                    except ValueError:  # past the interpreter's int-string limit
                        raise ParseError(f"label index of {len(tok) - 1} digits is too long",
                                         m.start()) from None
                    if index < 1:
                        raise ParseError(f"label index must be >= 1 in {tok!r}", m.start())
                    # a01 and a1 name one label, so they share one ref
                    r = leaves[tok] = leaves.setdefault(f"{tok[0]}{index}", -2 - len(labels))
                    if r == -2 - len(labels):
                        labels.append(Label(tok[0], index))
                factors.append(r)
                want = False
            elif kind is None:  # whitespace
                continue
            elif kind == _BAD:
                raise ParseError(f"unexpected character {m.group()!r}", m.start())
            elif kind == _ONE:
                factors.append(-1)
                want = False
            elif kind == _OPEN:
                start = m.start()
                if budget > 0:
                    ref, length = recall(start)
                    if ref is not None:
                        factors.append(ref)
                        want = False
                        resume = start + length
                        break
                stack.append((summands, factors, start))
                summands, factors, want = [], [], True
            elif want:
                raise ParseError(f"unexpected token {m.group()!r}", m.start())
            elif kind == _STAR:
                want = True
            elif kind == _PLUS:
                summands.append(build(False, factors))
                factors, want = [], True
            elif not stack:
                raise ParseError(f"trailing input {m.group()!r}", m.start())
            else:  # _CLOSE
                summands.append(build(False, factors))
                inner = build(True, summands)
                summands, factors, start = stack.pop()
                factors.append(inner)
                if budget > 0:
                    groups.setdefault(text[start:start + _GROUP_KEY], {}).setdefault(
                        m.end() - start, (start, inner))
        else:
            break
    if want:
        raise ParseError("expected a factor", len(text))
    if stack:
        raise ParseError(f"expected ')' to close the '(' at {stack[-1][2]}", len(text))
    summands.append(build(False, factors))
    root = build(True, summands)
    if root < 0:
        return UNIT if root == -1 else Term(labels[-2 - root])
    if spliced:
        # A group's children have smaller refs, so one pass down from the
        # root marks every group it reaches; a leaf's ref (< 0) marks the
        # tail past it.  Without a flattened group, every group is reached.
        live = bytearray(root + 2 + len(labels))
        live[root] = 1
        for r in range(root, -1, -1):
            if live[r]:
                for c in kids[r]:
                    live[c] = 1
        bins = {key: kept for key, xs in bins.items() if (kept := [*filter(live.__getitem__, xs)])}
    slot = dict(zip(range(-1, -2 - len(labels), -1), range(1, len(labels) + 2)))
    return _hand_over(labels, _steps_of_bins(bins, kids.__getitem__, slot, len(labels) + 2))
