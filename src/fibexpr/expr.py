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
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter, mod, mul
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

DEFAULT_PRIME = 2147483647  # 2^31 - 1

DEFAULT_EXPANSION_BOUND = 10**6


class ExprError(Exception):
    """Base class for expression errors."""


class SizeExceeded(ExprError):
    """An expansion or enumeration grew past its configured bound."""


class DuplicateMonomial(ExprError):
    """The same monomial arose twice during expansion (malformed factoring)."""


class UnassignedLabel(ExprError):
    """A label in the expression has no value in the assignment."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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
            raise ValueError(f"label kind must be 'a' or 'b', got {kind!r}")
        if index < 1:
            raise ValueError(f"label index must be >= 1, got {index}")
        return super().__new__(cls, kind, index)

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


def a(index: int) -> Label:
    return Label("a", index)


def b(index: int) -> Label:
    return Label("b", index)


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


@dataclass(frozen=True)
class Sum:
    children: tuple  # length >= 2, no Sum children in simplified form


@dataclass(frozen=True)
class Product:
    children: tuple  # length >= 2, no Product/UNIT children in simplified form


Expression = Union[_Sentinel, Term, Sum, Product]

Monomial = frozenset  # of Label
MonomialSet = frozenset  # of Monomial


def _term_table():
    """A Term constructor, term(kind, index), that hands out one shared Term
    per label for as long as the returned function lives.  Builders keep one
    per call, so equal leaves are one node and folds visit each label once."""
    terms: dict[tuple, Term] = {}

    def term(kind: str, index: int) -> Term:
        t = terms.get((kind, index))
        if t is None:
            t = terms[kind, index] = Term(Label(kind, index))
        return t

    return term


def product(parts: Iterable[Expression]) -> Expression:
    """Simplifying product constructor: flattens, absorbs UNIT, annihilates on ZERO."""
    flat: list[Expression] = []
    for part in parts:
        if part is ZERO:
            return ZERO
        if part is UNIT:
            continue
        if isinstance(part, Product):
            flat.extend(part.children)
        else:
            flat.append(part)
    if not flat:
        return UNIT
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


def sumof(parts: Iterable[Expression]) -> Expression:
    """Simplifying sum constructor: flattens and drops ZERO summands."""
    flat: list[Expression] = []
    for part in parts:
        if part is ZERO:
            continue
        if isinstance(part, Sum):
            flat.extend(part.children)
        else:
            flat.append(part)
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def simplify(e: Expression) -> Expression:
    """Rebuild e in simplified form; expansion is unchanged."""
    if isinstance(e, Sum):
        return sumof(simplify(c) for c in e.children)
    if isinstance(e, Product):
        return product(simplify(c) for c in e.children)
    return e


def _memoized(e: Expression, leaf, combine_sum, combine_product):
    """Bottom-up fold over the tree, memoized by node identity.

    Generated expressions share subtrees heavily (one node per interval), so
    identity memoization keeps metrics and evaluation linear in the number of
    distinct nodes rather than the printed size.
    """
    memo: dict[int, object] = {}

    def go(x):
        r = memo.get(id(x))
        if r is None:
            if isinstance(x, Sum):
                r = combine_sum(x, [go(c) for c in x.children])
            elif isinstance(x, Product):
                r = combine_product(x, [go(c) for c in x.children])
            else:
                r = leaf(x)
            memo[id(x)] = r
        return r

    return go(e)


def metric_terms(e: Expression) -> int:
    """First complexity characteristic: term occurrences, counted with multiplicity."""
    return _memoized(
        e,
        leaf=lambda x: 1 if isinstance(x, Term) else 0,
        combine_sum=lambda x, cs: sum(cs),
        combine_product=lambda x, cs: sum(cs),
    )


def metric_plus(e: Expression) -> int:
    """Second complexity characteristic: number of plus operators."""
    return _memoized(
        e,
        leaf=lambda x: 0,
        combine_sum=lambda x, cs: sum(cs) + len(cs) - 1,
        combine_product=lambda x, cs: sum(cs),
    )


def expand(e: Expression, max_monomials: int = DEFAULT_EXPANSION_BOUND) -> MonomialSet:
    """Distributive expansion of e as a set of monomials (label sets).

    Raises DuplicateMonomial if any monomial arises twice: a well-formed
    factoring of a path polynomial has all coefficients equal to one.
    """
    memo: dict[int, frozenset] = {}

    def go(x) -> frozenset:
        r = memo.get(id(x))
        if r is not None:
            return r
        if x is ZERO:
            r = frozenset()
        elif x is UNIT:
            r = frozenset([frozenset()])
        elif isinstance(x, Term):
            r = frozenset([frozenset([x.label])])
        elif isinstance(x, Sum):
            out: set = set()
            for c in x.children:
                cset = go(c)
                if out & cset:
                    raise DuplicateMonomial(
                        f"monomial appears in two summands: {sorted(map(str, next(iter(out & cset))))}"
                    )
                out |= cset
                if len(out) > max_monomials:
                    raise SizeExceeded(f"expansion exceeds {max_monomials} monomials")
            r = frozenset(out)
        else:  # Product
            acc: set = {frozenset()}
            for c in x.children:
                cset = go(c)
                nxt: set = set()
                for m1 in acc:
                    for m2 in cset:
                        u = m1 | m2
                        if len(u) != len(m1) + len(m2):
                            raise DuplicateMonomial(
                                f"label repeated within a monomial: {sorted(map(str, m1 & m2))}"
                            )
                        if u in nxt:
                            raise DuplicateMonomial(
                                f"monomial produced twice in a product: {sorted(map(str, u))}"
                            )
                        nxt.add(u)
                        if len(nxt) > max_monomials:
                            raise SizeExceeded(f"expansion exceeds {max_monomials} monomials")
                acc = nxt
            r = frozenset(acc)
        memo[id(x)] = r
        return r

    return go(e)


@dataclass
class Assignment:
    """Label values in the field of integers modulo a prime."""

    values: Mapping[Label, int]
    prime: int = DEFAULT_PRIME

    @classmethod
    def random(cls, labels: Iterable[Label], prime: int = DEFAULT_PRIME,
               rng: random.Random | None = None) -> "Assignment":
        rng = rng or random.Random()
        return cls({lab: rng.randrange(1, prime) for lab in labels}, prime)


def _as_batch(v: Assignment | Sequence[Assignment]) -> list[Assignment]:
    """The points of a scalar or batch evaluation, checked to share a prime."""
    points = [v] if isinstance(v, Assignment) else list(v)
    if any(pt.prime != points[0].prime for pt in points):
        raise ValueError("all points of one evaluation must share a prime")
    return points


def _parent_counts(e: Expression) -> Counter:
    """Number of parent slots holding each node of e, keyed by node identity."""
    seen: set[int] = set()
    internal: list = []
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, (Sum, Product)) and id(x) not in seen:
            seen.add(id(x))
            internal.append(x)
            stack.extend(x.children)
    return Counter(map(id, chain.from_iterable(map(attrgetter("children"), internal))))


def evaluate_mod(e: Expression, v: Assignment | Sequence[Assignment]):
    """Value of e modulo the prime of the assignment; UNIT -> 1, ZERO -> 0.

    v is one Assignment, giving an int, or a sequence of Assignments that
    share one prime, giving a list with one residue per point.  Either way
    each distinct node is visited once, by an explicit stack, and its value
    is the list of its residues at every point.  For a batch, a node's list
    is dropped once its last parent has used it; with one point a node holds
    a single residue, as a scalar memo would, so parents are not counted.
    """
    points = _as_batch(v)
    if not points:
        return []
    p, k = points[0].prime, len(points)
    moduli = repeat(p)
    uses = _parent_counts(e) if k > 1 else None
    memo: dict[int, list] = {}
    by_label: dict[Label, list] = {}
    # A frame is (node, iterator over its children, values of the children
    # done so far); the bottom frame has the root as its only child.
    frames = [(None, iter((e,)), [])]
    while True:
        x, todo, done = frames[-1]
        for c in todo:
            key = id(c)
            r = memo.get(key)
            if r is None:
                if isinstance(c, (Sum, Product)):
                    frames.append((c, iter(c.children), []))
                    break
                if c is UNIT:
                    r = [1] * k
                elif c is ZERO:
                    r = [0] * k
                else:
                    lab = c.label
                    r = by_label.get(lab)
                    if r is None:
                        try:
                            r = by_label[lab] = [pt.values[lab] % p for pt in points]
                        except KeyError:
                            raise UnassignedLabel(f"no value for label {lab}") from None
                _keep(memo, uses, key, r)
            elif uses is not None:
                uses[key] -= 1
                if not uses[key]:
                    del memo[key]
            done.append(r)
        else:
            frames.pop()
            if x is None:
                r = done[0]
                return r[0] if isinstance(v, Assignment) else r
            if not done:  # an unsimplified empty Sum or Product
                r = [0 if isinstance(x, Sum) else 1] * k
            elif isinstance(x, Sum):
                r = list(map(mod, map(sum, zip(*done)), moduli))
            else:  # reduce after each factor, so residues stay below p^2
                r = done[0]
                for c in done[1:]:
                    r = list(map(mod, map(mul, r, c), moduli))
            _keep(memo, uses, id(x), r)
            frames[-1][2].append(r)


def _keep(memo: dict, uses: Counter | None, key: int, r: list):
    """Memoise a node's residues at its first use if another use follows."""
    if uses is None:
        memo[key] = r
    elif uses[key] > 1:
        memo[key] = r
        uses[key] -= 1


def labels_of(e: Expression) -> Counter:
    """Multiset of labels occurring in e (with multiplicity)."""
    out: Counter = Counter()

    def walk(x):
        if isinstance(x, Term):
            out[x.label] += 1
        elif isinstance(x, (Sum, Product)):
            for c in x.children:
                walk(c)

    walk(e)
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


def format_expression(e: Expression) -> str:
    """Render e in the text grammar: juxtaposed products, '+'-joined sums,
    parentheses only around sum factors inside a product."""
    memo: dict[int, str] = {}

    def go(x) -> str:
        r = memo.get(id(x))
        if r is not None:
            return r
        if x is UNIT:
            r = "1"
        elif x is ZERO:
            r = "0"
        elif isinstance(x, Term):
            r = str(x.label)
        elif isinstance(x, Sum):
            r = "+".join(go(c) for c in x.children)
        else:
            parts = [f"({go(c)})" if isinstance(c, Sum) else go(c) for c in x.children]
            r = "".join(parts)
        memo[id(x)] = r
        return r

    return go(e)


_TOKEN = re.compile(r"[ab]\d+|[1()+*]")
_SPACE = re.compile(r"\s*")


class _Parser:
    """Recursive descent over:  sum := product ('+' product)* ;
    product := factor (('*')? factor)* ; factor := label | '1' | '(' sum ')'."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def peek(self) -> str | None:
        self.pos = _SPACE.match(self.text, self.pos).end()
        if self.pos >= len(self.text):
            return None
        m = _TOKEN.match(self.text, self.pos)
        if not m:
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return m.group()

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of input")
        self.pos += len(tok)
        return tok

    def parse_sum(self) -> Expression:
        parts = [self.parse_product()]
        while self.peek() == "+":
            self.take()
            parts.append(self.parse_product())
        return sumof(parts)

    def parse_product(self) -> Expression:
        parts = [self.parse_factor()]
        while True:
            tok = self.peek()
            if tok == "*":
                self.take()
                parts.append(self.parse_factor())
            elif tok is not None and (tok == "1" or tok == "(" or tok[0] in "ab"):
                parts.append(self.parse_factor())
            else:
                break
        return product(parts)

    def parse_factor(self) -> Expression:
        tok = self.peek()
        if tok is None:
            self.error("expected a factor")
        if tok == "1":
            self.take()
            return UNIT
        if tok == "(":
            self.take()
            inner = self.parse_sum()
            if self.peek() != ")":
                self.error("expected ')'")
            self.take()
            return inner
        if tok[0] in "ab":
            self.take()
            index = int(tok[1:])
            if index < 1:
                self.error(f"label index must be >= 1 in {tok!r}")
            return Term(Label(tok[0], index))
        self.error(f"unexpected token {tok!r}")


def parse(text: str) -> Expression:
    """Parse expression text; the result is simplified."""
    parser = _Parser(text)
    expr = parser.parse_sum()
    if parser.peek() is not None:
        parser.error(f"trailing input {parser.peek()!r}")
    return expr
