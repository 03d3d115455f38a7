"""Worker types, derived performance metrics, and completion-time sampling.

A worker type bundles a cost rate, an average per-row speed, a per-row
start-up time, and a headcount.  Its derived profile carries the root
``row_time`` of the speed equation, the effective throughput
``speed / (1 + speed * row_time)``, and the cost-performance ``ratio``
used to rank types.  A population holds the types ratio-sorted, as
seven aligned read-only columns (the four inputs and the three derived
metrics) in which type id m sits at position m - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError
from .numerics import solve_lambda

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


@dataclass(frozen=True, eq=False)
class Population:
    """Ratio-sorted worker types as aligned, read-only columns.

    Type id m sits at position m - 1 of every column: headcount, cost
    rate, speed and start-up time, then the profile's row time,
    throughput and ratio.  :meth:`member` and :attr:`types` are scalar
    views built from the columns.  Construct through
    :func:`build_population`; the constructor copies each column and
    checks that there is at least one type, that the columns align,
    that counts are nonnegative integers and that ratios ascend.
    """

    counts: np.ndarray
    cost_rate: np.ndarray
    speed: np.ndarray
    startup: np.ndarray
    row_time: np.ndarray
    throughput: np.ndarray
    ratio: np.ndarray

    def __post_init__(self):
        columns = [np.array(getattr(self, name), dtype=float) for name in _COLUMNS]
        for name, column in zip(_COLUMNS, columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if {c.shape for c in columns} != {(columns[0].size,)}:
            raise ValueError("population columns must be aligned 1-D arrays")
        if not self.ratio.size:
            raise ConfigurationError("population must contain at least one type")
        counts = self.counts
        whole = (counts == np.floor(counts)) & (counts < np.inf)
        if not np.all(whole & (counts >= 0)):
            raise ValueError(f"counts must be nonnegative integers, got {counts}")
        if np.any(self.ratio[1:] < self.ratio[:-1]):
            raise ValueError("population types must be sorted by ratio")

    def __eq__(self, other):
        if not isinstance(other, Population):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _COLUMNS
        )

    @property
    def size(self) -> int:
        return self.ratio.size

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(range(1, self.size + 1))

    @property
    def types(self) -> tuple[tuple[WorkerType, PerformanceProfile], ...]:
        """Every type as a ``(WorkerType, PerformanceProfile)`` pair."""
        return tuple(self.member(m) for m in self.ids)

    def member(self, type_id: int) -> tuple[WorkerType, PerformanceProfile]:
        """Type ``type_id`` as a ``(WorkerType, PerformanceProfile)`` pair."""
        if not 1 <= type_id <= self.size:
            raise ValueError(f"unknown type id {type_id}")
        count, *inputs, row_time, throughput, ratio = (
            getattr(self, name)[type_id - 1].item() for name in _COLUMNS
        )
        return WorkerType(type_id, *inputs, int(count)), PerformanceProfile(
            row_time, throughput, ratio
        )

    def with_counts(self, counts: Sequence[int]) -> "Population":
        """Same types and profiles with replaced headcounts."""
        return replace(self, counts=counts)


_COLUMNS = tuple(f.name for f in fields(Population))


def derive_profile(worker: WorkerType) -> PerformanceProfile:
    """Compute the derived performance metrics of one worker type."""
    row_time = solve_lambda(worker.speed, worker.startup)
    throughput = worker.speed / (1.0 + worker.speed * row_time)
    if not throughput > 0:
        raise ValueError(f"throughput underflows to zero for {worker}")
    return PerformanceProfile(
        row_time=row_time, throughput=throughput, ratio=worker.cost_rate / throughput
    )


def _ranked_columns(raw: Sequence[WorkerType]) -> tuple[np.ndarray, np.ndarray]:
    """The id order assigned to ``raw`` (input positions) and the
    population's seven columns in input order, one per row."""
    profiles = [derive_profile(t) for t in raw]
    columns = np.array(
        [
            (t.count, t.cost_rate, t.speed, t.startup)
            + (p.row_time, p.throughput, p.ratio)
            for t, p in zip(raw, profiles)
        ],
        dtype=float,
    ).reshape(len(raw), len(_COLUMNS)).T
    # Stable, last key first: by ratio, then cost rate, then input order.
    return np.lexsort((columns[1], columns[6])), columns


def population_order(raw: Sequence[WorkerType]) -> list[int]:
    """Input positions in the id order :func:`build_population` assigns.

    Useful for carrying per-type side data (for example sampling
    probabilities) through the relabeling.
    """
    return _ranked_columns(raw)[0].tolist()


def build_population(raw: Iterable[WorkerType]) -> Population:
    """Derive profiles, sort by cost-performance ratio ascending, and
    number the types 1..M in that order.

    Equal ratios fall back to the lower cost rate first; remaining ties
    keep input order.
    """
    entries = list(raw)
    if not entries:
        raise ConfigurationError("population must contain at least one type")
    order, columns = _ranked_columns(entries)
    return Population(*columns[:, order])


def sample_time(worker: WorkerType, load: float, rng: np.random.Generator) -> float:
    """One draw of :func:`sample_times` for ``load`` assigned rows."""
    return float(sample_times((worker.startup, worker.speed), load, rng))


def sample_times(
    worker: tuple[np.ndarray, np.ndarray],
    load: float | np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw completion times for ``load`` assigned rows.

    Each draw is ``load * (startup + E / speed)`` with ``E`` a unit-rate
    exponential, so the support starts at ``startup * load``.
    ``worker`` is a ``(startup, speed)`` pair, scalars or arrays for
    workers of mixed types; loads, startups and speeds broadcast
    together, one draw per entry of their broadcast shape.
    """
    startup, speed = worker
    load = np.asarray(load, dtype=float)
    if not np.all(load > 0):
        raise ValueError(f"loads must be positive, got {load}")
    size = np.broadcast_shapes(load.shape, np.shape(startup), np.shape(speed))
    return load * (startup + rng.standard_exponential(size) / speed)
