"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
from typing import Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; fewer make the tail a handful of single observations.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100), linearly interpolated.

    Raises :class:`ValueError` unless at least :data:`MIN_BEYOND`
    samples lie beyond the percentile's rank (p90 needs 100 samples).
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} outside (0, 100)")
    n = len(values)
    beyond = n - math.ceil(q / 100.0 * n)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}")
    ordered = sorted(values)
    position = q / 100.0 * (n - 1)
    low = math.floor(position)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

