"""Mutated formulas: both verifiers reject every edit that changes the polynomial.

A formula is printed from one of the builders, edited as text in one of
three ways (drop a summand, swap a<->b in one label, shift one label's
index by one), and parsed back.  A test-local expansion that keeps
coefficients and repeated labels decides whether the edit changed the
polynomial; the verdicts of `equivalent_by_expansion` and
`equivalent_by_sampling` must agree with it.
"""

import re
from collections import Counter

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fibexpr.expr import DuplicateMonomial, Product, Sum, Term, UNIT, format_expression, parse
from fibexpr.graph import enumerate_paths, equivalent_by_expansion, equivalent_by_sampling
from fibexpr.optimize import build_expression

METHODS = [("canonical", {}), ("middle", {}), ("leftmost", {}), ("seeded", {"seed": 1}),
           ("seeded", {"seed": 2}), ("gd", {"m": 3}), ("gd", {"m": 4})]
LABEL = re.compile(r"([ab])(\d+)")


def polynomial(e, memo=None):
    """e as a Counter of monomials, each a sorted tuple of labels with
    repeats kept, so coefficients and squares survive."""
    memo = {} if memo is None else memo
    if id(e) in memo:
        return memo[id(e)]
    if isinstance(e, Term):
        out = Counter({(e.label,): 1})
    elif e is UNIT:
        out = Counter({(): 1})
    elif isinstance(e, Sum):
        out = Counter()
        for c in e.children:
            out.update(polynomial(c, memo))
    elif isinstance(e, Product):
        out = Counter({(): 1})
        for c in e.children:
            factor, nxt = polynomial(c, memo), Counter()
            for m1, c1 in out.items():
                for m2, c2 in factor.items():
                    nxt[tuple(sorted(m1 + m2))] += c1 * c2
            out = nxt
    else:  # ZERO
        out = Counter()
    memo[id(e)] = out
    return out


def path_polynomial(n):
    return Counter({tuple(sorted(path)): 1 for path in enumerate_paths(n)})


def drop_summand(text, pick):
    """Delete the pick-th '+' and the summand after it, or None without one."""
    pluses = [i for i, ch in enumerate(text) if ch == "+"]
    if not pluses:
        return None
    start = pluses[pick % len(pluses)]
    end, depth = start + 1, 0
    while end < len(text) and not (depth == 0 and text[end] in "+)"):
        depth += {"(": 1, ")": -1}.get(text[end], 0)
        end += 1
    return text[:start] + text[end:]


def relabel(text, pick, edit):
    """Rewrite the pick-th label occurrence by edit(kind, index)."""
    labels = list(LABEL.finditer(text))
    m = labels[pick % len(labels)]
    kind, index = edit(m.group(1), int(m.group(2)))
    return f"{text[:m.start()]}{kind}{index}{text[m.end():]}"


def mutate(text, mutation, pick, up):
    if mutation == "drop":
        return drop_summand(text, pick)
    if mutation == "swap":
        return relabel(text, pick, lambda k, i: ("b" if k == "a" else "a", i))
    return relabel(text, pick, lambda k, i: (k, i + 1 if up or i == 1 else i - 1))


def rejected_by_expansion(e, n):
    try:
        return not equivalent_by_expansion(e, n)
    except DuplicateMonomial:
        return True


@settings(max_examples=300, deadline=None)
@given(method=st.sampled_from(METHODS), n=st.integers(3, 12),
       mutation=st.sampled_from(["drop", "swap", "shift"]),
       pick=st.integers(0, 10**6), up=st.booleans())
def test_verifiers_reject_every_changing_mutation(method, n, mutation, pick, up):
    name, kwargs = method
    text = format_expression(build_expression(n, name, **kwargs))
    mutant_text = mutate(text, mutation, pick, up)
    assume(mutant_text is not None)
    mutant = parse(mutant_text)
    changed = polynomial(mutant) != path_polynomial(n)
    assert rejected_by_expansion(mutant, n) == changed
    assert (not equivalent_by_sampling(mutant, n, trials=4, seed=pick)) == changed


def test_every_mutation_changes_middle_9():
    # exhaustive on one formula: every edit at every position is caught
    text = format_expression(build_expression(9, "middle"))
    assert polynomial(parse(text)) == path_polynomial(9)
    count = len(LABEL.findall(text))
    for mutation, picks in (("drop", text.count("+")), ("swap", count), ("shift", count)):
        for pick in range(picks):
            for up in (False, True):
                mutant = parse(mutate(text, mutation, pick, up))
                assert polynomial(mutant) != path_polynomial(9)
                assert rejected_by_expansion(mutant, 9)
                assert not equivalent_by_sampling(mutant, 9, trials=4, seed=pick)
