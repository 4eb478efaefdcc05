"""Expression core: metrics, simplification, expansion, parsing, evaluation."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fibexpr.decompose import decompose
from fibexpr.expr import (
    Assignment,
    DuplicateMonomial,
    ExprError,
    Label,
    ParseError,
    Product,
    SizeExceeded,
    Sum,
    Term,
    UNIT,
    UnassignedLabel,
    ZERO,
    _edge_labels,
    a,
    b,
    evaluate_mod,
    expand,
    format_expression,
    formula_length,
    is_read_once,
    labels_of,
    metric_plus,
    metric_terms,
    parse,
    simplify,
    sp_parallel,
    sp_series,
)
from fibexpr.graph import edges
from fibexpr.optimize import IntervalTable, build_expression


def T(kind, index):
    return Term(Label(kind, index))


class TestLabel:
    def test_rendering(self):
        assert str(a(1)) == "a1"
        assert str(b(12)) == "b12"

    def test_rejects_bad_kind_and_index(self):
        with pytest.raises(ValueError):
            Label("c", 1)
        with pytest.raises(ValueError):
            Label("a", 0)

    def test_ordering_is_kind_then_index(self):
        assert sorted([b(1), a(2), a(1)]) == [a(1), a(2), b(1)]

    def test_unchecked_edge_labels_equal_checked_ones(self):
        for n in range(1, 40):
            made = _edge_labels(n)
            assert made == [Label("a", i) for i in range(1, n)] + [Label("b", i)
                                                                   for i in range(1, n - 1)]
            assert all(type(lab) is Label for lab in made)
            assert [str(lab) for lab in made] == [str(lab) for lab in edges(n)]
        for kind, index in (("c", 1), ("a", 0)):
            with pytest.raises(ExprError):
                Label(kind, index)


@pytest.mark.parametrize("reject", [
    lambda: Label("c", 1),
    lambda: Label("a", 0),
    lambda: evaluate_mod(decompose(3), [Assignment({}, 10007), Assignment({}, 10009)]),
    lambda: IntervalTable(5, "X"),
    lambda: build_expression(9, "gd"),
])
def test_every_rejection_is_an_expr_error(reject):
    assert issubclass(ExprError, ValueError)
    with pytest.raises(ExprError):
        reject()


class TestMetrics:
    def test_single_term(self):
        assert metric_terms(T("a", 1)) == 1
        assert metric_plus(T("a", 1)) == 0

    def test_sentinels_count_nothing(self):
        assert metric_terms(UNIT) == 0
        assert metric_terms(ZERO) == 0

    def test_small_sum(self):
        e = parse("a1a2+b1")
        assert metric_terms(e) == 3
        assert metric_plus(e) == 1

    def test_plus_counts_arity_minus_one(self):
        e = Sum((T("a", 1), T("a", 2), T("b", 1)))
        assert metric_plus(e) == 2


class TestSimplify:
    def test_unit_absorbed_in_product(self):
        assert simplify(Product((UNIT, T("a", 1)))) == T("a", 1)

    def test_zero_annihilates_product_in_sum(self):
        e = Sum((Product((ZERO, T("a", 1))), T("b", 1)))
        assert simplify(e) == T("b", 1)

    def test_nested_products_flatten(self):
        e = Product((T("a", 1), Product((T("a", 2), T("a", 3)))))
        assert simplify(e) == Product((T("a", 1), T("a", 2), T("a", 3)))

    def test_nested_sums_flatten(self):
        e = Sum((Sum((T("a", 1), T("b", 1))), T("b", 2)))
        assert simplify(e) == Sum((T("a", 1), T("b", 1), T("b", 2)))

    def test_empty_product_of_units_is_unit(self):
        assert simplify(Product((UNIT, UNIT))) is UNIT

    def test_nodes_with_different_child_counts_are_unequal(self):
        pair, triple = (T("a", 1), T("a", 2)), (T("a", 1), T("a", 2), T("a", 3))
        assert (Sum(pair) == Sum(triple)) is False
        assert (Sum((Product(pair), T("b", 1))) == Sum((Product(triple), T("b", 1)))) is False


class TestExpand:
    def test_n3_canonical(self):
        assert expand(parse("a1a2+b1")) == frozenset(
            [frozenset([a(1), a(2)]), frozenset([b(1)])])

    def test_series_parallel_factored_form(self):
        # (a(b+c)+f)(d+e) with a..f mapped to distinct labels
        la, lb, lc, ld, le, lf = a(1), a(2), a(3), a(4), a(5), a(6)
        e = parse("(a1(a2+a3)+a6)(a4+a5)")
        assert expand(e) == frozenset([
            frozenset([la, lb, ld]), frozenset([la, lb, le]),
            frozenset([la, lc, ld]), frozenset([la, lc, le]),
            frozenset([lf, ld]), frozenset([lf, le]),
        ])

    def test_zero_expands_empty(self):
        assert expand(ZERO) == frozenset()

    def test_unit_expands_to_empty_monomial(self):
        assert expand(UNIT) == frozenset([frozenset()])

    def test_duplicate_summand_is_an_error(self):
        with pytest.raises(DuplicateMonomial):
            expand(parse("a1+a1"))

    def test_shared_label_product_collision_is_an_error(self):
        with pytest.raises(DuplicateMonomial):
            expand(parse("(a1+a1a2)(a2+1)"))

    @pytest.mark.parametrize("within, past", [
        ("a1+a2+a3", "a1+a2+a3+a4"),  # the sum's check
        ("(a1+b1)a2+a3", "(a1+b1)(a2+b2)"),  # the product's check
    ])
    def test_size_bound(self, monkeypatch, within, past):
        monkeypatch.setattr("fibexpr.expr.DEFAULT_EXPANSION_BOUND", 3)
        assert len(expand(parse(within))) == 3
        with pytest.raises(SizeExceeded, match="^expansion exceeds 3 monomials$"):
            expand(parse(past))

    @pytest.mark.parametrize("text, message", [
        ("(a1+a1a2)(a2+1)", "label repeated within a monomial: ['a2']"),
        ("(a1+a2+a3)(a3+a2+a1)", "label repeated within a monomial: ['a1']"),
        ("(a1+b1)(a2+b2)(a3+b3)+(a1+b1)(a2+b2)a3",
         "monomial appears in two summands: ['a1', 'a2', 'a3']"),
    ])
    def test_duplicate_message_does_not_depend_on_the_hash_seed(self, text, message):
        # each of these makes some monomial twice and also repeats a label;
        # set order changes with the hash seed, the first duplicate may not
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys\nfrom fibexpr.expr import DuplicateMonomial, expand, parse\n"
                "try:\n    expand(parse(sys.argv[1]))\n"
                "except DuplicateMonomial as exc:\n    print(exc)\n")
        messages = set()
        for seed in range(8):
            env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": str(seed)}
            result = subprocess.run([sys.executable, "-c", code, text], capture_output=True,
                                    text=True, env=env, timeout=60)
            messages.add(result.stdout.strip())
        assert messages == {message}


class TestEvaluate:
    def test_example(self):
        v = Assignment({a(1): 2, a(2): 3, b(1): 5}, prime=101)
        assert evaluate_mod(parse("a1a2+b1"), v) == 11

    def test_unit_is_one(self):
        assert evaluate_mod(UNIT, Assignment({}, prime=101)) == 1

    def test_missing_label_raises(self):
        with pytest.raises(UnassignedLabel):
            evaluate_mod(T("a", 2), Assignment({a(1): 1}, prime=101))


class TestParseFormat:
    def test_juxtaposition(self):
        assert parse("a1a2+b1") == Sum((Product((T("a", 1), T("a", 2))), T("b", 1)))

    def test_explicit_star_and_whitespace(self):
        assert parse(" a1 * a2 + b1 ") == parse("a1a2+b1")

    def test_paper_4_vertex_optimal(self):
        e = parse("(a1a2+b1)a3+a1b2")
        assert metric_terms(e) == 6
        assert metric_plus(e) == 2

    def test_format_idempotent(self):
        text = "(a1a2+b1)a3+a1b2"
        assert format_expression(parse(text)) == text

    def test_unit_literal(self):
        assert parse("1") is UNIT
        assert parse("1a1") == T("a", 1)

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as exc:
            parse("a1+")
        assert exc.value.position == 3
        with pytest.raises(ParseError):
            parse("a1)")
        with pytest.raises(ParseError):
            parse("(a1")
        with pytest.raises(ParseError):
            parse("a0")


class TestSeriesParallel:
    def test_series_of_parallel(self):
        e = sp_series(T("a", 1), sp_parallel(T("a", 2), T("a", 3)))
        assert e == Product((T("a", 1), Sum((T("a", 2), T("a", 3)))))

    def test_composition_over_fresh_labels_is_read_once(self):
        inner = sp_parallel(sp_series(T("a", 1), sp_parallel(T("a", 2), T("a", 3))),
                            T("a", 6))
        e = sp_series(inner, sp_parallel(T("a", 4), T("a", 5)))
        assert is_read_once(e)
        assert format_expression(e) == "(a1(a2+a3)+a6)(a4+a5)"

    def test_fibonacci_4_is_not_read_once(self):
        assert not is_read_once(parse("(a1a2+b1)a3+a1b2"))


# -- property tests ----------------------------------------------------------

_labels = st.builds(Label, st.sampled_from("ab"), st.integers(1, 4))

_expressions = st.recursive(
    st.one_of(st.just(UNIT), st.just(ZERO), st.builds(Term, _labels)),
    lambda children: st.one_of(
        st.builds(lambda cs: Sum(tuple(cs)), st.lists(children, min_size=2, max_size=3)),
        st.builds(lambda cs: Product(tuple(cs)), st.lists(children, min_size=2, max_size=3)),
    ),
    max_leaves=12,
)


def _expand_or_skip(e):
    try:
        return expand(e)
    except DuplicateMonomial:
        assume(False)


@settings(max_examples=200)
@given(_expressions)
def test_simplify_preserves_expansion(e):
    assert _expand_or_skip(simplify(e)) == _expand_or_skip(e)


@settings(max_examples=200)
@given(_expressions)
def test_simplify_never_grows_terms(e):
    assert metric_terms(simplify(e)) <= metric_terms(e)


@settings(max_examples=200)
@given(_expressions)
def test_plus_metric_matches_rendered_pluses(e):
    s = simplify(e)
    assert metric_plus(s) == format_expression(s).count("+")


# unsimplified trees: empty and one-child nodes, and a Sum or Product
# directly under one of its own kind
_unsimplified = st.recursive(
    st.one_of(st.just(UNIT), st.just(ZERO), st.builds(Term, _labels)),
    lambda children: st.one_of(
        st.builds(lambda cs: Sum(tuple(cs)), st.lists(children, max_size=3)),
        st.builds(lambda cs: Product(tuple(cs)), st.lists(children, max_size=3)),
    ),
    max_leaves=12,
)


@settings(max_examples=300)
@given(_unsimplified)
@example(Sum((Product(()), Sum(()), Product((T("a", 1),)), ZERO)))
def test_folds_agree_with_the_printed_text(e):
    text = format_expression(e)
    assert formula_length(e) == len(text)
    assert metric_plus(e) == text.count("+")
    assert metric_terms(e) == sum(labels_of(e).values())


def test_empty_nodes_print_their_identity():
    e = Sum((Product(()), Sum(()), Product((T("a", 1),)), ZERO))
    assert format_expression(e) == "1+0+a1+0"
    assert format_expression(Product((Sum(()), T("a", 2)))) == "(0)a2"
    assert (formula_length(e), metric_plus(e), metric_terms(e)) == (8, 3, 1)


def pair_walk_eq(x, y):
    """The reference for ==: x and y walked in pairs with an explicit stack,
    each pair once, equal when every pair has one type, equal leaves and
    equal child counts."""
    seen, stack = set(), [(x, y)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if not isinstance(x, (Sum, Product)):
            if x != y:
                return False
            continue
        if (id(x), id(y)) in seen:
            continue
        if len(x.children) != len(y.children):
            return False
        seen.add((id(x), id(y)))
        stack.extend(zip(x.children, y.children))
    return True


def rebuilt(e):
    """A copy of e that shares no node or Term with it."""
    if isinstance(e, Term):
        return Term(e.label)
    return type(e)(tuple(map(rebuilt, e.children))) if isinstance(e, (Sum, Product)) else e


_bs = tuple(T("b", k) for k in range(1, 33))


@settings(max_examples=300)
@given(_unsimplified, _unsimplified)
@example(Sum(()), Sum((ZERO,)))
@example(Product(()), Product((UNIT,)))
@example(Sum((Sum((T("a", 1), T("a", 2))), T("a", 3))), Sum((T("a", 1), T("a", 2), T("a", 3))))
@example(Sum((Sum((T("a", 1), T("a", 2))), *_bs)), Sum((T("a", 1), T("a", 2), *_bs)))
def test_equality_agrees_with_a_pair_walk(x, y):
    # the last example is a 33-child Sum, whose first 32 children are one
    # chunk, against the 34-child Sum that its first child spliced in makes
    for p, q in ((x, y), (y, x), (x, rebuilt(x)), (x, simplify(x)), (y, simplify(y))):
        assert (p == q) is pair_walk_eq(p, q)
        if p == q:
            assert hash(p) == hash(q)


@settings(max_examples=200)
@given(_expressions)
def test_parse_of_format_is_simplify(e):
    s = simplify(e)
    assume(s is not ZERO)  # '0' is not in the grammar; ZERO never survives elsewhere
    assert parse(format_expression(s)) == s


@settings(max_examples=100)
@given(_expressions, st.integers(0, 2**31))
def test_evaluation_matches_monomial_sum(e, seed):
    import math
    import random

    prime = 10007
    monomials = _expand_or_skip(e)
    rng = random.Random(seed)
    labs = sorted({lab for m in monomials for lab in m} | {a(1)})
    v = Assignment.random(labs, prime, rng)
    expected = sum(math.prod(v.values[lab] for lab in m) for m in monomials) % prime
    assert evaluate_mod(simplify(e), v) == expected
