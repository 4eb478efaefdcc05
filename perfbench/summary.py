"""Tail percentiles that have at least ten samples beyond them."""

from __future__ import annotations

import math

MIN_TAIL = 10


def tail_percentile(values, q: float) -> float:
    """Nearest-rank q-quantile of values.

    Raises ValueError unless at least MIN_TAIL samples lie beyond the rank,
    so p90 needs 100 samples: a tail percentile read from fewer samples is
    one or two outliers, not a percentile.
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < MIN_TAIL:
        raise ValueError(f"p{q * 100:g} of {len(ordered)} samples has "
                         f"{len(ordered) - rank} beyond it, need {MIN_TAIL}")
    return ordered[rank - 1]
