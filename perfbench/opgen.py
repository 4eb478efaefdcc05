"""Seeded operation lists for the benchmark workloads.

This module imports nothing from fibexpr: generating the inputs is part of
the measured set-up, and the program under test receives only the
generated operations.

Every workload is a sequence of *decks*.  A deck is a stratified sample of
the workload's input space: each (method, size) cell appears once, and the
seed draws the exact size within each size stratum, the mutations of the
negative controls and the order.  A run executes whole decks, so every run
sees nearly the same mix of sizes whatever the seed; that keeps medians and
percentiles over a mix of random sizes steady from run to run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("modeval-verify", "formula-roundtrip", "dp-sweep")

# Trial counts of the modular verifier by size, smallest size first: one
# size in eight runs 32 trials, three run 8 and four run 1.  The count is
# tied to the size, not drawn, because the (size x trials) product is most
# of an operation's cost and a run holds only about 100 operations: drawing
# it per operation moved op_p50_s by about a fifth from seed to seed.
TRIALS_BY_SIZE = (32, 1, 8, 1, 8, 1, 8, 1)
NEGATIVE_CELL = 3   # size index of the negative controls

# (method, m, low n, high n) per modeval size grid.  The seeded method's
# DAG grows much faster with n than the middle split's (about ten times the
# distinct nodes at n=1024), so its range stops at 320 to keep its
# operations comparable in cost to the others.
MODEVAL_METHODS = (
    ("middle", None, 128, 1024),
    ("seeded", None, 128, 320),
    ("gd", 3, 128, 1024),
    ("gd", 4, 128, 1024),
)
# The seeded method runs at the log_grid sizes themselves with one strategy
# seed.  Its DAG size jumps between neighbouring n (n=143 has 1.6x the nodes
# and 4.4x the printed terms of n=145), and with 32 trials the memory held
# by uncollected per-trial memo tables set the workload's peak memory, so
# drawn seeded sizes moved peak_rss_mb by about a sixth from seed to seed.
SEEDED_STRATEGY = 1

MUTATIONS = {
    "modeval-verify": ("drop-summand", "extra-factor"),
    "formula-roundtrip": ("swap-label", "drop-summand"),
}


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: the calls one CLI command makes."""

    kind: str             # verify-modeval | roundtrip | optimize | special | theorem1
    n: int
    method: str = ""
    m: int | None = None
    seed: int | None = None       # Seeded strategy seed (method 'seeded')
    trials: int = 0
    metric: str = ""              # 'T' or 'P' (optimize)
    mutation: str = ""            # empty for a positive operation
    mutation_seed: int = 0

    @property
    def negative(self) -> bool:
        return bool(self.mutation)


def log_grid(low: int, high: int, count: int) -> list[float]:
    """`count` points from low to high, evenly spaced on a log scale."""
    return [low * (high / low) ** (k / (count - 1)) for k in range(count)]


def draw_sizes(rng: random.Random, low: int, high: int, count: int) -> list[int]:
    """`count` increasing sizes: one drawn uniformly from each of the
    count - 1 strata between log_grid points, then high itself.

    Drawing across whole strata keeps the distribution of operation costs
    smooth, so its median does not jump between a few repeated sizes; fixing
    the largest size keeps peak memory, set by the largest operation, the
    same for every seed.
    """
    edges = log_grid(low, high, count)
    return [rng.randint(math.ceil(a), max(math.ceil(a), math.ceil(b) - 1))
            for a, b in zip(edges, edges[1:])] + [high]


def _modeval_deck(rng: random.Random) -> list[Op]:
    """Per method: one positive operation per size, and one negative control
    at a middle size (it fails on its first trial, so it runs one)."""
    deck = []
    for method, m, low, high in MODEVAL_METHODS:
        if method == "seeded":
            sizes = [round(g) for g in log_grid(low, high, len(TRIALS_BY_SIZE))]
            negative_n = sizes[NEGATIVE_CELL]
        else:
            sizes = draw_sizes(rng, low, high, len(TRIALS_BY_SIZE))
            negative_n = draw_sizes(rng, low, high, len(TRIALS_BY_SIZE))[NEGATIVE_CELL]
        cells = list(zip(sizes, TRIALS_BY_SIZE)) + [(negative_n, 1)]
        for k, (n, trials) in enumerate(cells):
            deck.append(Op(
                "verify-modeval", n, method, m,
                seed=SEEDED_STRATEGY if method == "seeded" else None,
                trials=trials,
                mutation=rng.choice(MUTATIONS["modeval-verify"]) if k == len(sizes) else "",
                mutation_seed=rng.randrange(2**32)))
    rng.shuffle(deck)
    return deck


def _roundtrip_deck(rng: random.Random) -> list[Op]:
    """Every canonical n in 10..17 and leftmost n in 10..18, twelve middle
    and twelve gd m=3 sizes in 32..160, plus one negative control per
    method at a middle size.  The canonical and leftmost costs step by about
    1.6x per n; the drawn sizes fill in between, so the median is steady."""
    cells = ([("canonical", None, n) for n in range(10, 18)]
             + [("leftmost", None, n) for n in range(10, 19)])
    for method, m in (("middle", None), ("gd", 3)):
        cells += [(method, m, n) for n in draw_sizes(rng, 32, 160, 12)]
    deck = [Op("roundtrip", n, method, m) for method, m, n in cells]
    negatives = [("canonical", None, 14), ("leftmost", None, 14)] + [
        (method, m, draw_sizes(rng, 32, 160, 12)[6]) for method, m in (("middle", None), ("gd", 3))]
    deck += [Op("roundtrip", n, method, m,
                mutation=rng.choice(MUTATIONS["formula-roundtrip"]),
                mutation_seed=rng.randrange(2**32))
             for method, m, n in negatives]
    rng.shuffle(deck)
    return deck


def _dp_deck(rng: random.Random) -> list[Op]:
    """Sixteen optimize sizes in 64..600 for each metric, six special n_max
    in 63..255 and six verify_theorem1 n_max in 32..128: the DP only."""
    deck = [Op("optimize", n, metric=metric)
            for n in draw_sizes(rng, 64, 600, 16) for metric in ("T", "P")]
    deck += [Op("special", n) for n in draw_sizes(rng, 63, 255, 6)]
    deck += [Op("theorem1", n) for n in draw_sizes(rng, 32, 128, 6)]
    rng.shuffle(deck)
    return deck


DECK_BUILDERS = {
    "modeval-verify": _modeval_deck,
    "formula-roundtrip": _roundtrip_deck,
    "dp-sweep": _dp_deck,
}


def generate(workload: str, seed: int, decks: int = 64) -> list[list[Op]]:
    """The workload's decks for this seed; the same seed gives the same list."""
    if workload not in DECK_BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return [DECK_BUILDERS[workload](rng) for _ in range(decks)]
