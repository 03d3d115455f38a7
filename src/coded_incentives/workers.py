"""Worker types, derived performance metrics, and completion-time sampling.

A worker type bundles a cost rate, an average per-row speed, a per-row
start-up time, and a headcount.  Its derived profile carries the root
``row_time`` of the speed equation, the effective throughput
``speed / (1 + speed * row_time)``, and the cost-performance ``ratio``
used to rank types.  A population is the ratio-sorted collection of
types with ids relabeled in sorted order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError
from .numerics import DEFAULT_TOLERANCE, Tolerance, solve_lambda

__all__ = [
    "WorkerType",
    "PerformanceProfile",
    "Population",
    "derive_profile",
    "population_order",
    "build_population",
    "sample_time",
    "sample_times",
]


@dataclass(frozen=True, slots=True)
class WorkerType:
    """One worker class: cost per unit time, per-row speed, per-row
    start-up time, and headcount."""

    id: int
    cost_rate: float
    speed: float
    startup: float
    count: int

    def __post_init__(self):
        if not 0 < self.cost_rate < math.inf:
            raise ValueError(
                f"cost_rate must be positive and finite, got {self.cost_rate}"
            )
        if not 0 < self.speed < math.inf:
            raise ValueError(f"speed must be positive and finite, got {self.speed}")
        if not 0 < self.startup < math.inf:
            raise ValueError(
                f"startup must be positive and finite, got {self.startup}"
            )
        if self.count != int(self.count) or self.count < 0:
            raise ValueError(f"count must be a nonnegative integer, got {self.count}")


@dataclass(frozen=True, slots=True)
class PerformanceProfile:
    """Derived metrics of a worker type."""

    row_time: float
    throughput: float
    ratio: float

    def __post_init__(self):
        if not self.row_time > 0 or not self.throughput > 0 or not self.ratio > 0:
            raise ValueError("profile entries must be positive")


@dataclass(frozen=True)
class Population:
    """Ratio-sorted worker types with their profiles.

    Construct through :func:`build_population`; the constructor only
    validates the sorted-and-relabeled invariant.
    """

    types: tuple[tuple[WorkerType, PerformanceProfile], ...]

    def __post_init__(self):
        if not self.types:
            raise ConfigurationError("population must contain at least one type")
        ratios = [p.ratio for _, p in self.types]
        if any(r2 < r1 for r1, r2 in zip(ratios, ratios[1:])):
            raise ValueError("population types must be sorted by ratio")
        if [t.id for t, _ in self.types] != list(range(1, len(self.types) + 1)):
            raise ValueError("population ids must be relabeled 1..M in sorted order")

    @property
    def size(self) -> int:
        return len(self.types)

    @property
    def total(self) -> int:
        return sum(t.count for t, _ in self.types)

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(t.id for t, _ in self.types)

    def member(self, type_id: int) -> tuple[WorkerType, PerformanceProfile]:
        if not 1 <= type_id <= len(self.types):
            raise ValueError(f"unknown type id {type_id}")
        return self.types[type_id - 1]

    def with_counts(self, counts: Sequence[int]) -> "Population":
        """Same types and profiles with replaced headcounts."""
        if len(counts) != len(self.types):
            raise ValueError(
                f"expected {len(self.types)} counts, got {len(counts)}"
            )
        return Population(
            tuple(
                (replace(t, count=int(c)), p)
                for (t, p), c in zip(self.types, counts)
            )
        )

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Counts, cost rates, throughputs, and ratios as aligned arrays."""
        counts = np.array([t.count for t, _ in self.types], dtype=float)
        costs = np.array([t.cost_rate for t, _ in self.types], dtype=float)
        throughputs = np.array([p.throughput for _, p in self.types], dtype=float)
        ratios = np.array([p.ratio for _, p in self.types], dtype=float)
        return counts, costs, throughputs, ratios


def derive_profile(
    worker: WorkerType, tol: Tolerance = DEFAULT_TOLERANCE
) -> PerformanceProfile:
    """Compute the derived performance metrics of one worker type."""
    row_time = solve_lambda(worker.speed, worker.startup, tol)
    throughput = worker.speed / (1.0 + worker.speed * row_time)
    if not throughput > 0:
        raise ValueError(f"throughput underflows to zero for {worker}")
    return PerformanceProfile(
        row_time=row_time, throughput=throughput, ratio=worker.cost_rate / throughput
    )


def _ranked_profiles(
    raw: Sequence[WorkerType], tol: Tolerance
) -> list[tuple[int, PerformanceProfile]]:
    """Input positions and derived profiles in the id order assigned."""
    profiles = [derive_profile(t, tol) for t in raw]
    return sorted(
        enumerate(profiles), key=lambda item: (item[1].ratio, raw[item[0]].cost_rate)
    )


def population_order(
    raw: Sequence[WorkerType], tol: Tolerance = DEFAULT_TOLERANCE
) -> list[int]:
    """Input positions in the id order :func:`build_population` assigns.

    Useful for carrying per-type side data (for example sampling
    probabilities) through the relabeling.
    """
    return [i for i, _ in _ranked_profiles(raw, tol)]


def build_population(
    raw: Iterable[WorkerType], tol: Tolerance = DEFAULT_TOLERANCE
) -> Population:
    """Derive profiles, sort by cost-performance ratio ascending, and
    relabel ids 1..M.

    Equal ratios fall back to the lower cost rate first; remaining ties
    keep input order.
    """
    entries = list(raw)
    if not entries:
        raise ConfigurationError("population must contain at least one type")
    return Population(
        tuple(
            (replace(entries[j], id=i), profile)
            for i, (j, profile) in enumerate(_ranked_profiles(entries, tol), start=1)
        )
    )


def sample_time(worker: WorkerType, load: float, rng: np.random.Generator) -> float:
    """One draw of :func:`sample_times` for ``load`` assigned rows."""
    return float(sample_times(worker, load, rng))


def sample_times(
    worker: WorkerType | tuple[np.ndarray, np.ndarray],
    load: float | np.ndarray,
    rng: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """Draw completion times for ``load`` assigned rows.

    Each draw is ``load * (startup + E / speed)`` with ``E`` a unit-rate
    exponential, so the support starts at ``startup * load``.
    ``worker`` is one type, or a ``(startup, speed)`` pair of arrays
    for workers of mixed types.  Loads, startups and speeds broadcast
    together; ``size`` draws that many times instead, and defaults to
    their broadcast shape.
    """
    if isinstance(worker, WorkerType):
        startup, speed = worker.startup, worker.speed
    else:
        startup, speed = worker
    load = np.asarray(load, dtype=float)
    if not np.all(load > 0):
        raise ValueError(f"loads must be positive, got {load}")
    if size is None:
        size = np.broadcast_shapes(load.shape, np.shape(startup), np.shape(speed))
    return load * (startup + rng.standard_exponential(size) / speed)
