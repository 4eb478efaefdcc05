"""The slot plan that every fold runs over: handed over by the builders,
compiled once and cached for any other root."""

import gc
import random
import re
import weakref
from itertools import chain
from operator import add, mul

import pytest
from hypothesis import given, settings, strategies as st

import fibexpr.expr
from fibexpr.decompose import (
    FixedMap,
    GdSpec,
    Leftmost,
    MiddleHigh,
    MiddleLow,
    Seeded,
    decompose,
    decompose_gd,
)
from fibexpr.expr import (
    Assignment,
    DuplicateMonomial,
    ExprError,
    Product,
    Sum,
    Term,
    UNIT,
    UnassignedLabel,
    ZERO,
    _walk,
    a,
    b,
    evaluate_mod,
    expand,
    format_expression,
    formula_length,
    labels_of,
    metric_plus,
    metric_terms,
    parse,
    product,
    simplify,
    sumof,
)
from fibexpr.graph import canonical_expression, edges, verify
from test_expr import _unsimplified, pair_walk_eq, rebuilt

PRIME = 10007
SIZES = range(1, 61)


def strategies(n):
    return [MiddleLow(), MiddleHigh(), Leftmost(), Seeded(n),
            FixedMap({(1, n): max(2, n // 3)} if n > 2 else {})]


def gd_parts(n):
    """m = 3, 4 and n-1; n-1 parts make F(n) top-level summands, so that one
    stops at n = 16."""
    return sorted({m for m in (3, 4, n - 1) if m >= 2 and (m < n - 1 or n <= 16)})


def built_roots():
    for n in SIZES:
        for s in strategies(n):
            yield f"decompose({n}, {s})", decompose(n, s)
        for m in gd_parts(n):
            yield f"decompose_gd({n}, m={m})", decompose_gd(n, GdSpec(m))
        if 2 <= n <= 14:
            yield f"canonical_expression({n})", canonical_expression(n)


def internal(x):
    return isinstance(x, (Sum, Product))


def deep_chain(depth):
    """((a1 + b1) a2 + b1) a2 ... nested `depth` levels deep."""
    e = Term(a(1))
    for _ in range(depth):
        e = Product((Sum((e, Term(b(1)))), Term(a(2))))
    return e


def local_fold(e, values, prime=PRIME):
    """(value mod prime, terms, plus operators) of e: this test's own walk,
    memoised by node identity, with an explicit stack."""
    memo = {}
    stack = [e]
    while stack:
        x = stack[-1]
        if id(x) in memo:
            stack.pop()
            continue
        if not internal(x):
            memo[id(x)] = ((values[x.label] if isinstance(x, Term) else int(x is UNIT)) % prime,
                           int(isinstance(x, Term)), 0)
            stack.pop()
            continue
        todo = [c for c in x.children if id(c) not in memo]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        parts = [memo[id(c)] for c in x.children]
        terms = sum(t for _, t, _ in parts)
        plus = sum(q for _, _, q in parts)
        if isinstance(x, Sum):
            value, plus = sum(v for v, _, _ in parts) % prime, plus + len(parts) - 1
        else:
            value = 1
            for v, _, _ in parts:
                value = value * v % prime
        memo[id(x)] = (value, terms, plus)
    return memo[id(e)]


def folds(e):
    """Every fold of e but evaluate_mod and expand; the text only if it is
    short, since a leftmost formula's length grows like the path count."""
    length = formula_length(e)
    return (format_expression(e) if length < 10**5 else None, length, metric_terms(e),
            metric_plus(e), labels_of(e), simplify(e))


class TestHandedOverOrder:
    """The builders' handed-over plan, whose steps list the node groups
    children first."""

    def test_builders_hand_over_a_plan_that_folds_like_a_compiled_one(self):
        checked = 0
        for name, e in built_roots():
            if not internal(e):
                assert e is UNIT or isinstance(e, Term), name
                continue
            handed = e._slot_plan
            assert handed is not None, f"{name} arrived without its plan"
            assert vars(e).keys() == {"_slot_plan"}, f"{name}: more than the plan"
            with_handed = folds(e)
            e.children  # made from the handed plan, which the compiled one is not
            object.__setattr__(e, "_slot_plan", None)
            assert folds(e) == with_handed, name
            assert e._slot_plan is not handed
            checked += 1
        assert checked > 300

    def test_builders_hand_over_the_plan(self):
        checked = 0
        for name, e in built_roots():
            if not internal(e):
                continue
            plan = e._slot_plan
            assert plan is not None, f"{name} arrived without its plan"
            labels, steps = plan
            assert sorted(labels) == sorted(labels_of(e)), f"{name}: other labels than the tree's"
            filled = 2 + len(labels)
            for op, columns, _ in steps:
                assert op in (add, mul) and 1 <= len(columns) <= 32, name
                rows = {len(column) for column in columns}
                assert len(rows) == 1, f"{name}: columns of unequal length"
                assert all(0 <= s < filled for column in columns for s in column), \
                    f"{name}: a step reads a slot before it is filled"
                filled += rows.pop()
            e.children  # made from the plan before it is dropped
            object.__setattr__(e, "_slot_plan", None)
            labels, steps = fibexpr.expr._plan(e)  # compiled, not handed over
            compiled = 2 + len(labels) + sum(len(columns[0]) for _, columns, _ in steps)
            assert filled == compiled, f"{name}: {filled} slots, its compiled plan {compiled}"
            checked += 1
        assert checked > 300

    def test_walk_lists_children_first(self):
        e = decompose(40)
        order = _walk(e)
        done = set()
        for x in order:
            assert id(x) not in done
            assert all(id(c) in done for c in x.children if internal(c))
            done.add(id(x))
        assert all(id(c) in done for c in e.children if internal(c))
        assert id(e) not in done

    def test_leaves_fold_as_themselves(self):
        for leaf, text, monomials in ((UNIT, "1", {frozenset()}), (ZERO, "0", set()),
                                      (Term(a(1)), "a1", {frozenset([a(1)])}),
                                      (decompose(2), "a1", {frozenset([a(1)])}),
                                      (decompose(1), "1", {frozenset()})):
            labels = {a(1): 1} if text == "a1" else {}
            assert folds(leaf) == (text, len(text), len(labels), 0, labels, leaf)
            assert expand(leaf) == monomials


def distinct_nodes(e):
    """Nodes and leaves of e, counted once each by identity."""
    seen, stack = {id(e)}, [e]
    while stack:
        for c in stack.pop().children:
            if id(c) not in seen:
                seen.add(id(c))
                if internal(c):
                    stack.append(c)
    return len(seen)


class TestNodesOnDemand:
    """A builder's root holds only its plan; its nodes are made from it on
    the first read of `children`."""

    def test_folds_and_verify_make_no_node(self):
        for name, e in built_roots():
            if not internal(e):
                continue
            n = int(re.search(r"\d+", name).group())
            assert verify(e, n, "modeval").equivalent, name
            metric_terms(e)
            if formula_length(e) < 10**5:
                format_expression(e)
            if n <= 16:
                expand(e)
            assert "children" not in vars(e), name

    def test_made_nodes_equal_the_tree_they_print(self):
        checked = 0
        for name, e in built_roots():
            if not internal(e):
                continue
            assert not hasattr(e, "nope") and "children" not in vars(e), name
            simplified = simplify(e)
            assert simplified == e and hash(simplified) == hash(e), name
            if formula_length(e) < 10**5:
                parsed = parse(format_expression(e))
                assert parsed == e and hash(parsed) == hash(e), name
                # the parse shares equal nodes, so the build must share them too
                assert distinct_nodes(parsed) == distinct_nodes(e), name
                checked += 1
        assert checked > 300

    @pytest.mark.parametrize("make, nodes", [
        (lambda: decompose(1024), 14_167),
        (lambda: decompose(4096), 65_711),
        (lambda: decompose_gd(1024, GdSpec(4)), 16_786),
        (lambda: decompose(320, Seeded(1)), 15_264),
    ], ids=["middle-1024", "middle-4096", "gd-m4-1024", "seeded-320"])
    def test_distinct_nodes_as_the_eager_builder_made(self, make, nodes):
        assert distinct_nodes(make()) == nodes

    def test_only_children_is_made(self):
        e = decompose(40)
        with pytest.raises(AttributeError, match="nope"):
            e.nope
        children = e.children
        assert e.children is children and vars(e).keys() == {"_slot_plan", "children"}
        assert not hasattr(e, "nope")
        with pytest.raises(AttributeError):
            Sum.__new__(Sum).children  # no plan to make them from


def parsed_texts():
    """(name, text) of formulas whose parse hands over a plan-only root."""
    yield "star-and-space", " a1 * a2\t+\nb1 * (a2 +b2) "
    yield "one-factors", "1a1 + a2*1*b3 + 1 + (1)(a4 + 1)1"
    yield "redundant-parens", "((((a1 + (b1)))))a2 + ((a3)) + (((a4)(b2)))"
    yield "deep-parens", "(" * 300 + "a1+b1" + ")" * 300 + "a2 + a3(" * 200 + "b4" + ")" * 200
    yield "aliases", "a01a2 + a1(b001 + b1a3) + (a0002)a1"
    yield "repeated-groups", "(a1+b2)(a3+b4) + (a1+b2)b5 + a6(a3+b4) + (a1+b2)(a3+b4)a7"
    yield "dropped-group", "(a1a2)a3+b1"
    yield "canonical-12", format_expression(canonical_expression(12))  # one Sum of 144
    yield "wide-products", format_expression(wide_products())
    yield "gd-16-m4", format_expression(decompose_gd(16, GdSpec(4)))
    yield "middle-20", format_expression(decompose(20))


class TestParsedRoots:
    """parse hands over a plan-only root, as the builders do; its nodes are
    made on the first read of `children`."""

    @pytest.mark.parametrize("text, leaf", [("1", UNIT), ("(a1)", Term(a(1))), ("1*1", UNIT),
                                            ("((a01))1", Term(a(1)))])
    def test_leaf_roots_are_leaves(self, text, leaf):
        e = parse(text)
        assert type(e) is type(leaf) and e == leaf

    @pytest.mark.parametrize("case", range(11))
    def test_handed_over_plan_folds_like_a_compiled_one(self, case):
        name, text = list(parsed_texts())[case]
        e = parse(text)
        assert vars(e).keys() == {"_slot_plan"}, f"{name}: more than the plan"
        handed = e._slot_plan
        n = 2 + max(label.index for label in handed[0])
        verify(e, n, "modeval")
        metric_terms(e)
        format_expression(e)
        try:
            expand(e)
        except DuplicateMonomial:  # wide-products repeats labels
            pass
        assert "children" not in vars(e), name
        labels = sorted(labels_of(e))
        rng = random.Random(case)
        pts = [Assignment.random(labels, PRIME, rng) for _ in range(31)]

        def plan_folds():
            return (evaluate_mod(e, pts), labels_of(e), metric_terms(e), metric_plus(e),
                    format_expression(e))

        with_handed = plan_folds()
        e.children  # made from the handed plan, which the compiled one is not
        object.__setattr__(e, "_slot_plan", None)
        assert plan_folds() == with_handed, name
        assert e._slot_plan is not handed
        assert format_expression(e) == format_expression(parse(format_expression(e)))

    def test_dropped_groups_are_not_planned(self):
        e = parse("(a1a2)a3+b1+(a4+b2)")  # a1a2 and a4+b2 are flattened away
        labels, steps = e._slot_plan
        assert [(op, len(columns), len(columns[0])) for op, columns, _ in steps] == [
            (mul, 3, 1), (add, 4, 1)]
        assert format_expression(e) == "a1a2a3+b1+a4+b2"


class TestNoCycle:
    @pytest.mark.parametrize("make", [
        lambda: decompose(200),
        lambda: decompose_gd(90, GdSpec(4)),
        lambda: canonical_expression(10),
        lambda: parse(format_expression(decompose(60))),
        lambda: sumof(decompose(60).children),
    ])
    def test_root_dies_on_del_after_a_fold(self, make):
        gc.collect()
        gc.disable()
        try:
            e = make()
            point = Assignment.random(edges(200), PRIME, random.Random(1))
            evaluate_mod(e, point)
            evaluate_mod(e, [point, point])
            folds(e)
            assert e._slot_plan is not None
            ref = weakref.ref(e)
            del e
            assert ref() is None
        finally:
            gc.enable()


def unbuilt_roots():
    """Roots that neither a builder nor parse made, with the n of their graph."""
    built = decompose(50)
    yield "sumof-children", 50, sumof(built.children[1:])
    yield "mutated-summand", 50, sumof(built.children[:-1] + (
        Product(built.children[-1].children + (Term(a(1)),)),))
    yield "child", 50, next(c for c in built.children if internal(c))
    yield "deep-chain", 3, deep_chain(5000)


class TestUnbuiltRoots:
    @pytest.mark.parametrize("case", range(4))
    def test_folds_match_a_local_walk(self, case):
        name, n, e = list(unbuilt_roots())[case]
        assert e._slot_plan is None
        labels_of(e)
        plan = e._slot_plan  # compiled by the first fold, reused by the rest
        assert plan is not None
        rng = random.Random(case)
        pts = [Assignment.random(edges(max(n, 3)), PRIME, rng) for _ in range(4)]
        want = [local_fold(e, pt.values) for pt in pts]
        assert evaluate_mod(e, pts) == [v for v, _, _ in want]
        assert [evaluate_mod(e, pt) for pt in pts] == [v for v, _, _ in want]
        assert evaluate_mod(e, pts[:1]) == [want[0][0]]
        assert metric_terms(e) == want[0][1]
        assert metric_plus(e) == want[0][2]
        assert e._slot_plan is plan

    def test_parsed_order_leaves_out_nodes_that_flattening_dropped(self):
        e = parse("(a1a2)a3+b1")
        assert [format_expression(x) for x in _walk(e)] == ["a1a2a3"]

    def test_long_product_stays_exact(self):
        labels = [a(k) for k in range(1, 200)]
        pt = Assignment.random(labels, PRIME, random.Random(3))
        e = Product(tuple(Term(lab) for lab in labels * 5))
        value = 1
        for lab in labels * 5:
            value = value * pt.values[lab] % PRIME
        assert evaluate_mod(e, pt) == value
        assert evaluate_mod(e, [pt, pt]) == [value, value]


def wide_products():
    """A Sum of two 100-factor Products (one group, padded to whole blocks
    of 32) and one of 1024 factors, which is narrowed twice."""
    first = Product(tuple(Term(a(k)) for k in range(1, 101)))
    second = Product(tuple(Term(b(k)) for k in range(1, 101)))
    return Sum((first, second, Product(tuple(Term(a(1 + k % 300)) for k in range(1024)))))


def plan_roots():
    """(name, root) for every kind of root that evaluate_mod plans."""
    built = decompose(40)
    yield "decompose", built
    yield "decompose_gd", decompose_gd(40, GdSpec(3))
    yield "seeded", decompose(30, Seeded(4))
    yield "canonical", canonical_expression(12)
    yield "parsed", parse(format_expression(decompose_gd(30, GdSpec(4))))
    yield "drop-summand", sumof(built.children[:-1])
    yield "extra-factor", sumof(built.children[:-1] + (
        Product(built.children[-1].children + (Term(a(1)),)),))
    yield "empty-sum", Sum(())
    yield "empty-product", Product(())
    yield "arity-1", Sum((Product((Sum((Term(a(2)),)),)), Product(()), Sum(()), ZERO, UNIT))
    yield "product-of-100", Product(tuple(Term(a(k)) for k in range(1, 101)))
    yield "wide-products", wide_products()
    yield "deep-chain", deep_chain(5000)
    yield "leaf", Term(b(3))


class TestSlotPlan:
    @pytest.mark.parametrize("prime", [10007, 2**31 - 1, 1_000_000_007])
    @pytest.mark.parametrize("case", range(14))
    def test_matches_a_local_fold(self, case, prime):
        name, e = list(plan_roots())[case]
        labels = sorted(labels_of(e)) or [a(1)]
        rng = random.Random(case)
        # four distinct points in turn, so that the deep chain's local folds
        # stay cheap while each point still differs from the one before
        distinct = [Assignment.random(labels, prime, rng) for _ in range(4)]
        values = [local_fold(e, pt.values, prime)[0] for pt in distinct]
        pts = [distinct[k % 4] for k in range(31)]
        want = [values[k % 4] for k in range(31)]
        assert evaluate_mod(e, pts[0]) == want[0], name
        assert evaluate_mod(e, pts[:1]) == want[:1], name
        assert evaluate_mod(e, pts[:2]) == want[:2], name
        assert evaluate_mod(e, pts) == want, name

    def test_second_call_reuses_the_plan(self):
        parsed = [(f"parse(decompose({n}, Seeded({n})))",
                   parse(format_expression(decompose(n, Seeded(n))))) for n in (8, 30)]
        for name, e in [*built_roots(), *parsed]:
            if not internal(e):
                continue
            handed = e._slot_plan
            assert handed is not None, f"{name} arrived without its plan"
            pts = [Assignment.random(sorted(labels_of(e)), PRIME, random.Random(1))] * 2
            first = evaluate_mod(e, pts[0])
            plan = e._slot_plan
            assert plan is handed, name
            assert evaluate_mod(e, pts) == [first, first]
            assert e._slot_plan is plan, name

    def test_handed_over_plan_evaluates_like_a_compiled_one(self, monkeypatch):
        def no_walk(e, hashed=False):
            raise AssertionError("a builder root was walked for its plan")

        for index, (name, e) in enumerate(built_roots()):
            if not internal(e):
                continue
            labels = sorted(labels_of(e))
            rng = random.Random(index)
            distinct = [Assignment.random(labels, PRIME, rng) for _ in range(4)]
            values = [local_fold(e, pt.values)[0] for pt in distinct]
            pts = [distinct[k % 4] for k in range(31)]
            want = [values[k % 4] for k in range(31)]
            with monkeypatch.context() as patch:
                patch.setattr(fibexpr.expr, "_walk", no_walk)
                handed = [evaluate_mod(e, pts[:k]) for k in (1, 2, 31)]
            object.__setattr__(e, "_slot_plan", None)
            compiled = [evaluate_mod(e, pts[:k]) for k in (1, 2, 31)]
            assert handed == compiled == [want[:1], want[:2], want], name

    def test_plan_holds_no_node(self):
        e = decompose(60)
        evaluate_mod(e, Assignment.random(edges(60), PRIME, random.Random(2)))
        labels, steps = e._slot_plan
        held = [*labels, *(op for op, _, _ in steps),
                *(slot for _, columns, _ in steps for column in columns for slot in column)]
        assert not any(isinstance(x, (Sum, Product, Term)) for x in held)

    def test_rejections(self):
        e = decompose(8)
        with pytest.raises(UnassignedLabel, match="no value for label b6"):
            evaluate_mod(e, Assignment({lab: 1 for lab in edges(8) if lab != b(6)}, PRIME))
        e = sumof(decompose(8).children)  # hand-made, so planned on first use
        pts = [Assignment.random(edges(8), PRIME, random.Random(3)),
               Assignment.random(edges(8), 10009, random.Random(3))]
        with pytest.raises(ExprError, match="share a prime"):
            evaluate_mod(e, pts)
        assert e._slot_plan is None  # a batch of mixed primes is refused before planning


def wide_reference(e):
    """(text, terms, plus, simplified) of e: this test's own recursive fold."""
    if not internal(e):
        return (str(e.label), 1, 0, e) if isinstance(e, Term) else (repr(e), 0, 0, e)
    parts = [wide_reference(c) for c in e.children]
    terms, plus = sum(p[1] for p in parts), sum(p[2] for p in parts)
    if isinstance(e, Sum):
        return ("+".join(p[0] for p in parts), terms, plus + len(parts) - 1,
                sumof(p[3] for p in parts))
    return ("".join(f"({p[0]})" if isinstance(c, Sum) else p[0]
                    for c, p in zip(e.children, parts)), terms, plus,
            product(p[3] for p in parts))


def forty(first, at_35, make):
    """make over 40 children: first and at_35 (which sit in different
    32-child chunks) and 38 distinct b-labels."""
    children = [Term(b(k)) for k in range(1, 41)]
    children[0], children[35] = first, at_35
    return make(tuple(children))


class TestWideNodes:
    @pytest.mark.parametrize("e", [
        wide_products(),
        Product(tuple(Sum((Term(a(k)), Term(b(k)))) for k in range(1, 41))),
        Sum(tuple(Product((Sum((Term(a(k)), UNIT)), Term(b(k)))) for k in range(1, 101))),
        Sum((Sum(tuple(map(Term, map(a, range(1, 34))))), Sum((Term(b(1)), ZERO)))),
    ], ids=["wide-products", "product-of-40-sums", "sum-of-100", "sum-of-33-in-a-sum"])
    def test_folds_match_a_recursive_reference(self, e):
        text, terms, plus, simplified = wide_reference(e)
        assert format_expression(e) == text
        assert formula_length(e) == len(text)
        assert (metric_terms(e), metric_plus(e)) == (terms, plus)
        assert sum(labels_of(e).values()) == terms
        assert simplify(e) == simplified

    def test_duplicates_across_chunks_are_found(self):
        with pytest.raises(DuplicateMonomial, match=r"monomial appears in two summands: \['a1'\]"):
            expand(forty(Term(a(1)), Term(a(1)), Sum))
        with pytest.raises(DuplicateMonomial, match=r"label repeated within a monomial: \['a1'\]"):
            expand(forty(Term(a(1)), Term(a(1)), Product))

    def test_product_made_twice_across_chunks_is_found(self):
        # (a_i + a_i a_j)(a_j + 1) makes a_i a_j twice, so a_i a_j * a_j
        # repeats a_j; each factor sits in its own 32-child chunk, and the
        # first pair in product order that shares a label is reported
        for i, j in ((1, 2), (3, 17), (38, 39)):
            e = forty(Sum((Term(a(i)), Product((Term(a(i)), Term(a(j)))))),
                      Sum((Term(a(j)), UNIT)), Product)
            assert expand(Product(e.children[:32])) and expand(Product(e.children[32:]))
            with pytest.raises(DuplicateMonomial) as caught:
                expand(e)
            assert str(caught.value) == f"label repeated within a monomial: ['a{j}']"


class TestPlanEquality:
    """== names both sides' slots through one intern table and makes no node."""

    def test_equality_agrees_with_a_pair_walk(self):
        built = [(name, e) for name, e in built_roots() if internal(e)][::7]
        unbuilt = [(name, e) for name, _, e in unbuilt_roots() if name != "deep-chain"]
        checked = 0
        for (name, e), (_, other) in zip(built + unbuilt, (built + unbuilt)[1:]):
            pairs = [(e, simplify(e)), (e, rebuilt(e)), (e, other),
                     (e, sumof(e.children[:-1])), (e, product(e.children[::-1]))]
            if formula_length(e) < 10**5:
                pairs.append((parse(format_expression(e)), e))
            for x, y in pairs:
                assert (x == y) is pair_walk_eq(x, y), name
                if x == y:
                    assert hash(x) == hash(y), name
                    checked += 1
        assert checked > 100

    def test_equality_makes_no_node(self):
        def fresh(e):
            return [parse(format_expression(e)), e]

        pairs = [fresh(decompose(1024)), fresh(decompose_gd(200, GdSpec(9))),
                 fresh(decompose(320, Seeded(1))), [decompose(20000), decompose(20000)]]
        for x, y in pairs:
            assert x == y and y == x
            assert "children" not in vars(x) and "children" not in vars(y)

    def test_two_levels_of_chunks(self):
        # the 10,946 summands of the root are planned as 343 chunks of at
        # most 32, then those as 11 chunks, then the root over those
        e = canonical_expression(21)
        assert [role for _, _, role in e._slot_plan[1][-5:]] == ["partial"] * 4 + ["node"]
        text = format_expression(e)
        parsed, short = parse(text), parse(text.rsplit("+", 1)[0])
        assert parsed == e and e == parsed
        assert short != e and e != short
        assert all("children" not in vars(x) for x in (e, parsed, short))
        assert len(e.children) == 10_946 and len(short.children) == 10_945
        assert e.children == parsed.children


def test_hashing_node_by_node_stays_linear(monkeypatch):
    """Hashing every node of a deep chain one at a time, children first,
    walks no node twice: each walk leaves out the nodes hashed before it."""
    want = hash(deep_chain(5000))  # hashed from the root alone
    e = deep_chain(5000)
    nodes = [*_walk(e), e]
    walk, walked = fibexpr.expr._walk, []

    def counting_walk(x, hashed=False):
        out = walk(x, hashed)
        walked.append(len(out))
        return out

    monkeypatch.setattr(fibexpr.expr, "_walk", counting_walk)
    for x in nodes:
        hash(x)
    assert len(walked) == len(nodes)
    assert sum(walked) <= len(nodes)  # about 12.5M if cached hashes were walked again
    assert hash(e) == want


def reduction_roots():
    """Hand-made roots whose steps read unreduced values if any can."""
    labels = [Term(a(k)) for k in range(1, 168)]
    # 32 distinct products of 32 labels under one product: 200 distinct nodes
    yield "product-of-products", Product(tuple(
        Product(tuple(labels[(32 * i + j) % 167] for j in range(32))) for i in range(32)))
    yield "sum-of-wide-products", Sum(tuple(
        Product(tuple(Term(a(1 + (7 * i + j) % 300)) for j in range(1024))) for i in range(100)))
    x = Term(a(1))
    for _ in range(3000):
        x = Sum((x, x))
    yield "doubling-chain", x


def largest_values(e, pt):
    """evaluate_mod's fold over e's plan, one node at a time, reducing every
    step but the "node" steps of products: the largest value a step stores
    unreduced, and the largest before any reduction."""
    labels, steps = fibexpr.expr._plan(e)
    p = pt.prime
    vals = [0, 1, *(pt.values[lab] % p for lab in labels)]
    stored = combined = 0
    for op, columns, role in steps:
        reduce = op is add or role != "node"
        for row in zip(*columns):
            acc = vals[row[0]]
            for s in row[1:]:
                acc = op(acc, vals[s])
                combined = max(combined, acc)
            vals.append(acc % p if reduce else acc)
            stored = stored if reduce else max(stored, acc)
    assert vals[-1] % p == evaluate_mod(e, pt)
    return stored, combined


class TestReductions:
    """evaluate_mod leaves only the "node" steps of products unreduced, so
    values stay below 32 p^32; the residues are those of a fold that reduces
    every node."""

    @pytest.mark.parametrize("prime", [10007, 2**31 - 1, 2**127 - 1])
    @pytest.mark.parametrize("case", range(3))
    def test_residues_match_a_fold_that_reduces_every_node(self, case, prime):
        name, e = list(reduction_roots())[case]
        rng = random.Random(case)
        pts = [Assignment.random(sorted(labels_of(e)), prime, rng) for _ in range(3)]
        want = [local_fold(e, pt.values, prime)[0] for pt in pts]
        assert evaluate_mod(e, pts) == want, name
        assert evaluate_mod(e, pts[0]) == want[0], name
        stored, combined = largest_values(e, pts[0])
        assert stored < prime**32 and combined < 32 * prime**32, name

    def test_a_product_read_by_a_product_is_reduced(self):
        # else the outer product would reach p^1024; the root, which no step
        # reads, is reduced after the last step
        name, e = next(reduction_roots())
        labels, steps = fibexpr.expr._plan(e)
        assert [(op, role) for op, _, role in steps] == [(mul, "factor"), (mul, "node")]

    def test_a_product_read_by_a_sum_and_a_product_is_a_factor(self):
        x = Product((Term(a(1)), Term(a(2))))
        read_by_a_sum = Sum((x, Term(a(3))))
        read_by_both = Sum((x, Product((x, Term(a(3))))))
        assert [role for _, _, role in fibexpr.expr._plan(read_by_a_sum)[1]] == ["node", "node"]
        labels, steps = fibexpr.expr._plan(read_by_both)
        assert [(op, role) for op, _, role in steps] == [
            (mul, "factor"), (mul, "node"), (add, "node")]
        pt = Assignment.random(labels, PRIME, random.Random(0))
        assert evaluate_mod(read_by_both, pt) == local_fold(read_by_both, pt.values)[0]

    def test_only_the_node_steps_of_products_stay_unreduced(self, monkeypatch):
        # evaluate_mod's own reductions, counted, against the rule that
        # largest_values follows: the labels, then every row of every step
        # but the "node" steps of products
        calls = []
        monkeypatch.setattr(fibexpr.expr, "mod", lambda x, p: calls.append(x) or x % p)
        x = Product((Term(a(1)), Term(a(2))))
        roots = [*reduction_roots(), ("decompose(64)", decompose(64)),
                 ("decompose_gd(64, m=3)", decompose_gd(64, GdSpec(3))),
                 ("canonical_expression(12)", canonical_expression(12)),
                 ("factor", Sum((x, Product((x, Term(a(3))))))),
                 ("empty", Sum((Product(()), Sum(()), Product((Term(a(1)),)), ZERO)))]
        for name, e in roots:
            labels, steps = fibexpr.expr._plan(e)
            pt = Assignment.random(labels, PRIME, random.Random(0))
            calls.clear()
            evaluate_mod(e, pt)
            assert len(calls) == len(labels) + sum(
                len(columns[0]) for op, columns, role in steps if op is add or role != "node"), name

    def test_no_product_of_a_handed_over_plan_reads_a_whole_product(self):
        # why builders and parse need not mark factors: only chunk partials
        # of products are read by products
        plans = [(name, e._slot_plan) for name, e in built_roots() if internal(e)]
        plans += [(name, parse(text)._slot_plan) for name, text in parsed_texts()]
        for name, (labels, steps) in plans:
            top, whole = 2 + len(labels), set()  # the slots of non-partial products
            for op, columns, role in steps:
                assert role in ("node", "partial"), name
                if op is mul:
                    assert whole.isdisjoint(chain.from_iterable(columns)), name
                    if role == "node":
                        whole.update(range(top, top + len(columns[0])))
                top += len(columns[0])
        assert len(plans) > 400

    def test_builder_plans_stay_below_the_bound(self):
        for name, e in built_roots():
            if internal(e):
                pt = Assignment.random(sorted(labels_of(e)), PRIME, random.Random(1))
                stored, combined = largest_values(e, pt)
                assert stored < PRIME**32 and combined < 32 * PRIME**32, name

    @settings(max_examples=300, deadline=None)
    @given(_unsimplified, st.sampled_from([3, 10007, 2**61 - 1]), st.integers(0, 2**32))
    def test_unsimplified_trees(self, e, prime, seed):
        labels = sorted(labels_of(e)) or [a(1)]
        pt = Assignment.random(labels, prime, random.Random(seed))
        assert evaluate_mod(e, pt) == local_fold(e, pt.values, prime)[0]
        stored, combined = largest_values(e, pt)
        assert stored < prime**32 and combined < 32 * prime**32
