"""The one-pass parser: error positions, unbounded nesting, hash-consing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibexpr.decompose import GdSpec, Seeded, decompose, decompose_gd
from fibexpr.expr import ParseError, Product, Sum, format_expression, parse
from fibexpr.graph import canonical_expression


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
