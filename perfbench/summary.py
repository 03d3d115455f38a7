"""Latency statistics for one benchmark run.

Every attempted operation contributes one latency.  A failed operation
counts as missing every latency limit, so it enters the sorted sample
as +inf: once more than half the attempts fail the median is infinite,
and a tail percentile is infinite as soon as its rank reaches a failure.
"""

from __future__ import annotations

import math

# Percentiles the tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)

# A tail percentile needs at least this many samples above it.
TAIL_MIN_BEYOND = 10


def rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile ``q`` in ``n`` sorted samples."""
    if n < 1:
        raise ValueError("percentile of an empty sample")
    # q / 100 * n can land a hair above a whole number (95 / 100 * 20).
    return max(1, math.ceil(q / 100.0 * n - 1e-9))


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    return sorted_values[rank(q, len(sorted_values)) - 1]


def tail_percentile(n: int) -> tuple[float, int]:
    """The highest ladder percentile with at least ``TAIL_MIN_BEYOND``
    of ``n`` samples ranked above it, and how many samples that is.

    With fewer than ``2 * TAIL_MIN_BEYOND`` samples no ladder entry
    qualifies and the median is returned with its actual count.
    """
    for q in TAIL_LADDER:
        beyond = n - rank(q, n)
        if beyond >= TAIL_MIN_BEYOND:
            return q, beyond
    return 50.0, n - rank(50.0, n)


def latency_summary(latencies_s: list[float]) -> dict[str, float | int]:
    """Median and tail latency in milliseconds; failures are +inf."""
    ordered = sorted(latencies_s)
    q, beyond = tail_percentile(len(ordered))
    return {
        "p50_ms": percentile(ordered, 50.0) * 1000.0,
        "tail_ms": percentile(ordered, q) * 1000.0,
        "tail_percentile": q,
        "tail_beyond": beyond,
        "samples": len(ordered),
    }
