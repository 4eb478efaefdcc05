"""The one-pass parser: error positions, unbounded nesting, hash-consing and
the memo of repeated parenthesised groups."""

import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibexpr.decompose import GdSpec, Seeded, decompose, decompose_gd
from fibexpr.expr import (
    UNIT,
    Label,
    ParseError,
    Product,
    Sum,
    Term,
    format_expression,
    parse,
    product,
    sumof,
)
from fibexpr.graph import canonical_expression
from fibexpr.optimize import build_expression


def distinct_nodes(e):
    """Every node reachable from e, once per identity."""
    seen, stack = {}, [e]
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen[id(x)] = x
            if isinstance(x, (Sum, Product)):
                stack.extend(x.children)
    return list(seen.values())


@pytest.mark.parametrize("text, position, message", [
    ("a1+", 3, "expected a factor"),
    ("a1)", 2, "trailing input ')'"),
    ("(a1", 3, "expected ')' to close the '(' at 0"),
    ("a0", 0, "label index must be >= 1 in 'a0'"),
    ("+a1", 0, "unexpected token '+'"),
    ("a1 x", 3, "unexpected character 'x'"),
    ("", 0, "expected a factor"),
])
def test_error_message_and_position(text, position, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.position == position
    assert str(exc.value) == f"{message} (at position {position})"


LONG_LABEL = "a" + "1" * 5000
INT_STRING_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not 0 < INT_STRING_LIMIT < 5000, reason="int() reads 5,000 digits here")
@pytest.mark.parametrize("text, position", [(LONG_LABEL, 0), (f"(a1+b2){LONG_LABEL}*a3", 7)])
def test_label_index_too_long_to_read_is_a_parse_error(text, position):
    # past the interpreter's int-string limit; the message does not repeat the digits
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.position == position
    assert str(exc.value) == f"label index of 5000 digits is too long (at position {position})"


def test_deep_nesting_needs_no_recursion():
    depth = 5000
    assert parse("(" * depth + "a1a2+b1" + ")" * depth) == parse("a1a2+b1")


def test_deep_unclosed_nesting_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse("(" * 5000 + "a1")
    assert exc.value.position == 5002


BUILDS = {
    "middle": lambda: decompose(60),
    "gd3": lambda: decompose_gd(50, GdSpec(3)),
    "gd4": lambda: decompose_gd(50, GdSpec(4)),
    "seeded": lambda: decompose(40, Seeded(1)),
    "canonical": lambda: canonical_expression(12),
}


@pytest.mark.parametrize("name", BUILDS)
def test_parsed_dag_is_as_small_as_the_built_one(name):
    e = BUILDS[name]()
    parsed = parse(format_expression(e))
    assert parsed == e
    nodes = distinct_nodes(parsed)
    assert len(nodes) == len(distinct_nodes(e))
    assert len(set(nodes)) == len(nodes)  # no two distinct nodes compare equal


def test_parsed_copy_of_a_large_dag_is_equal_and_hashes_equal():
    e = decompose(1024)
    text = format_expression(e)
    parsed = parse(text)
    assert parsed == e and e == parsed
    assert hash(parsed) == hash(e)
    assert len(distinct_nodes(e)) + len(distinct_nodes(parsed)) == len(
        {id(x) for x in distinct_nodes(e) + distinct_nodes(parsed)})  # no shared node
    last = text.rindex("a1023")  # the last label, deep inside the formula
    assert parse(text[:last] + "b1022" + text[last + 5:]) != e


def test_sum_and_product_never_compare_equal():
    a1, a2 = parse("a1"), parse("a2")
    assert Sum((a1, a2)) != Product((a1, a2))
    assert Sum((a1, a2)) == Sum((a1, a2)) and Sum((a1, a2)) != (a1, a2)
    assert hash(Sum((a1, a2))) == hash(Sum((a1, a2)))


def test_equal_subformulas_share_one_node():
    e = parse("(a1+a2)a3+(a1+a2)b1+a1(a3+b1)")
    first, second, third = e.children
    assert first.children[0] is second.children[0]
    assert first.children[1] is third.children[1].children[0]
    assert third.children[0] is first.children[0].children[0]


def test_differently_parenthesised_products_share_one_node():
    e = parse("(a1a2)a3+a1(a2a3)")
    assert e.children[0] is e.children[1]


@settings(max_examples=300)
@given(st.text(alphabet="ab0123()+* x", max_size=30))
def test_parse_returns_or_raises_parse_error(text):
    try:
        parse(text)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)


# -- the group memo, against the token-loop parser it extends ----------------

_REF_TOKEN = re.compile(r"([ab]\d+)|(\()|(\))|(\+)|(\*)|(1)|\s+|(.)", re.S)


def reference_parse(text):
    """The parser without the group memo: every token of the text is read.
    Same grammar, same hash-consing, same errors."""
    terms, nodes, built = {}, {}, {}

    def build(make, parts):
        if len(parts) == 1:
            return parts[0]
        key = (make, *map(id, parts))
        if key not in built:
            e = make(parts)
            if isinstance(e, (Sum, Product)):
                e = nodes.setdefault((type(e), tuple(map(id, e.children))), e)
            built[key] = e
        return built[key]

    stack, summands, factors, want = [], [], [], True
    for m in _REF_TOKEN.finditer(text):
        kind, tok = m.lastindex, m.group()
        if kind == 1:
            if int(tok[1:]) < 1:
                raise ParseError(f"label index must be >= 1 in {tok!r}", m.start())
            label = (tok[0], int(tok[1:]))  # a01 and a1 are one label
            if label not in terms:
                terms[label] = Term(Label(*label))
            factors.append(terms[label])
            want = False
        elif kind is None:
            continue
        elif kind == 7:
            raise ParseError(f"unexpected character {tok!r}", m.start())
        elif kind == 6:
            factors.append(UNIT)
            want = False
        elif kind == 2:
            stack.append((summands, factors, m.start()))
            summands, factors, want = [], [], True
        elif want:
            raise ParseError(f"unexpected token {tok!r}", m.start())
        elif kind == 5:
            want = True
        elif kind == 4:
            summands.append(build(product, factors))
            factors, want = [], True
        elif not stack:
            raise ParseError(f"trailing input {tok!r}", m.start())
        else:
            summands.append(build(product, factors))
            inner = build(sumof, summands)
            summands, factors, _ = stack.pop()
            factors.append(inner)
    if want:
        raise ParseError("expected a factor", len(text))
    if stack:
        raise ParseError(f"expected ')' to close the '(' at {stack[-1][2]}", len(text))
    summands.append(build(product, factors))
    return build(sumof, summands)


def outcome(parser, text):
    """(the DAG's structure, its distinct node count), or the error."""
    try:
        e = parser(text)
    except ParseError as exc:
        return ("error", str(exc), exc.position)
    return ("ok", e, len(distinct_nodes(e)))


def assert_parses_as_reference(text):
    assert outcome(parse, text) == outcome(reference_parse, text)


@settings(max_examples=500)
@given(st.text(alphabet="ab0123()+* x", max_size=40))
@example("a1a01")
def test_random_text_parses_as_reference(text):
    assert_parses_as_reference(text)


# Pieces that make repeated groups, and copies that differ in one character.
_PIECES = ["(a1+b2)", "(a1+b2)", "(a1+b3)", "(a1+b2", "(a1 +b2)", "(a1(a2+b1)+b2)",
           "(a1(a2+b1)+b2)", "(a1(a2+b1+b2)", "((a1+b2)a3+b1)", "a1", "b2", "+", "(",
           ")", " ", "*", "1", "a0"]


@settings(max_examples=500)
@given(st.lists(st.sampled_from(_PIECES), max_size=12))
@example(pieces=["(a1+b2)", "a0", "1"])
def test_text_of_repeated_groups_parses_as_reference(pieces):
    assert_parses_as_reference("".join(pieces))


BUILDERS = [("canonical", {}), ("middle", {}), ("middle", {"tie": "high"}),
            ("leftmost", {}), ("seeded", {"seed": 3}), ("gd", {"m": 3}),
            ("gd", {"m": 4}), ("fixed", {"vertex": 2})]


@pytest.mark.parametrize("method, options", BUILDERS)
def test_formatted_builders_parse_as_reference(method, options):
    for n in range(3, 15):
        e = build_expression(n, method, **options)
        text = format_expression(e)
        assert_parses_as_reference(text)
        assert parse(text) == e


def groups_of(text):
    """Every parenthesised group of the text, outermost last."""
    opens, out = [], []
    for i, ch in enumerate(text):
        if ch == "(":
            opens.append(i)
        elif ch == ")":
            out.append(text[opens.pop():i + 1])
    return out


def near_misses(group):
    """Copies of a group that differ from it in one place."""
    label = re.search(r"[ab]\d+", group)
    swapped = "ba"[group[label.start()] == "b"]
    yield group[:label.start()] + swapped + group[label.start() + 1:]
    last = group.rindex(")")
    yield group[:last] + group[last + 1:]
    yield group[:1] + " " + group[1:]
    inner = group.index(")")
    yield group[:inner] + group[inner + 1:]  # drops the first ')' instead


@pytest.mark.parametrize("method, options", BUILDERS[1:])
def test_repeated_group_then_a_near_miss(method, options):
    text = format_expression(build_expression(12, method, **options))
    for group in sorted(set(groups_of(text)), key=len)[-8:]:
        for miss in near_misses(group):
            assert_parses_as_reference(f"{group}{group}+{miss}")
            assert_parses_as_reference(f"({group}+{miss}){group}")
            assert_parses_as_reference(f"{group}+{miss}+{text}")


def test_deep_chains_that_differ_in_their_innermost_leaf():
    # Every group of the second chain has a group of the same length and
    # prefix in the first, so the memo is tried at each level; its budget
    # keeps the parse linear (a memo without one is quadratic here).
    depth = 20000

    def chain(leaf):
        return "(" * depth + leaf + "+b1)a2" * depth

    text = chain("a1") + "+" + chain("a3")
    assert len(text) == 280005
    e = parse(text)
    a1, a2, a3, b1 = (Term(Label(k, i)) for k, i in (("a", 1), ("a", 2), ("a", 3), ("b", 1)))
    want = []
    for x in (a1, a3):
        for _ in range(depth):
            x = Product((Sum((x, b1)), a2))
        want.append(x)
    assert e == Sum(tuple(want))
    assert len(distinct_nodes(e)) == 4 * depth + 1 + 4
