"""Tests of the benchmark itself: verdict gate, percentile helper, seeding,
and the span bookkeeping the per-layer metrics rest on."""

import pytest

import fibexpr
import opgen
import summary
import tracing
import workloads
from opgen import Op


def modeval(n=128, **kw):
    return Op("verify-modeval", n, kw.pop("method", "middle"), trials=kw.pop("trials", 4), **kw)


def roundtrip(n, method, **kw):
    return Op("roundtrip", n, method, **kw)


NEGATIVES = [
    modeval(mutation="drop-summand", mutation_seed=1),
    modeval(method="gd", m=3, mutation="extra-factor", mutation_seed=2),
    roundtrip(12, "canonical", mutation="swap-label", mutation_seed=3),
    roundtrip(12, "middle", mutation="drop-summand", mutation_seed=4),
    roundtrip(40, "gd", m=3, mutation="swap-label", mutation_seed=5),
]
POSITIVES = [modeval(), modeval(method="seeded", seed=9), roundtrip(12, "canonical"),
             roundtrip(40, "middle"), Op("optimize", 97, metric="P"),
             Op("optimize", 80, metric="T"), Op("special", 70), Op("theorem1", 20)]


@pytest.mark.parametrize("op", POSITIVES + NEGATIVES, ids=repr)
def test_gate_accepts_the_real_verifiers(op):
    outcome = workloads.run_op(op)
    assert outcome.ok, outcome.detail
    assert outcome.seconds > 0


@pytest.mark.parametrize("op", NEGATIVES, ids=repr)
def test_gate_catches_a_verifier_that_always_says_equivalent(op, monkeypatch):
    monkeypatch.setattr(fibexpr, "equivalent_by_sampling", lambda *a, **k: True)
    monkeypatch.setattr(fibexpr, "equivalent_by_expansion", lambda *a, **k: True)
    outcome = workloads.run_op(op)
    assert not outcome.ok
    assert "passed the verifier" in outcome.detail


def test_gate_catches_a_wrong_dp_minimum(monkeypatch):
    monkeypatch.setattr(fibexpr, "recurrence_T", lambda n: 0)
    assert not workloads.run_op(Op("optimize", 80, metric="T")).ok


def test_p90_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    p90 = summary.tail_percentile(values, 0.9)
    assert sum(v > p90 for v in values) == 10
    with pytest.raises(ValueError):
        summary.tail_percentile(values[:99], 0.9)


@pytest.mark.parametrize("workload", opgen.WORKLOADS)
def test_same_seed_same_operations(workload):
    first = opgen.generate(workload, 5, decks=3)
    assert first == opgen.generate(workload, 5, decks=3)
    assert first != opgen.generate(workload, 6, decks=3)


@pytest.mark.parametrize("workload", opgen.WORKLOADS)
def test_every_deck_has_the_same_mix(workload):
    def mix(deck):
        return sorted((op.kind, op.method, op.m or 0, op.metric, op.negative) for op in deck)

    decks = opgen.generate(workload, 1, decks=4) + opgen.generate(workload, 2, decks=4)
    assert all(mix(deck) == mix(decks[0]) for deck in decks)


def test_sizes_span_the_range_in_increasing_order():
    import random
    sizes = opgen.draw_sizes(random.Random(0), 128, 1024, 8)
    assert 128 <= sizes[0] < 166 and sizes[-1] == 1024
    assert sizes == sorted(set(sizes))


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1, 0, None], ["inner", 2.0, 5.0, 0, 0, None],
                    ["inner", 6.0, 7.0, 0, 0, None]]
    assert tracer.self_times() == [6.0, 3.0, 1.0]


def test_patched_spans_nest_and_restore():
    tracer = tracing.Tracer()
    original = fibexpr.graph.evaluate_mod
    tracer.op = 0
    with tracing.patched(tracer):
        e = fibexpr.build_expression(20, "middle")
        assert fibexpr.equivalent_by_sampling(e, 20, trials=2)
    assert fibexpr.graph.evaluate_mod is original
    names = [s[0] for s in tracer.spans]
    assert names.count("expr.evaluate_mod") == 2
    assert names.count(tracing.ASSIGNMENT_SPAN) == 2
    sampling = names.index("graph.equivalent_by_sampling")
    assert all(s[3] == sampling for s in tracer.spans[sampling + 1:])
    assert tracer.spans[names.index("decompose.decompose")][3] == names.index(
        "optimize.build_expression")
