"""Worker types, derived performance metrics, and completion-time sampling.

A worker type bundles a cost rate, an average per-row speed, a per-row
start-up time, and a headcount.  Its derived profile carries the root
``row_time`` of the speed equation, the effective throughput
``speed / (1 + speed * row_time)`` (``1 / (row_time + 1 / speed)``
where the product overflows), and the cost-performance ``ratio`` used
to rank types.  A population holds the types ratio-sorted, as
seven aligned read-only columns (the four inputs and the three derived
metrics) in which type id m sits at position m - 1.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError
from .numerics import _whole, solve_lambda

__all__ = [
    "WorkerType",
    "PerformanceProfile",
    "Population",
    "derive_profile",
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
        # A bool is no headcount, and NaN and the infinities fail the range
        # test before ``int`` sees them.
        count = self.count
        if (
            isinstance(count, (bool, np.bool_))
            or not 0 <= count < math.inf
            or count != int(count)
        ):
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
    that counts are nonnegative integers, that the other columns are
    positive and finite (ratios may overflow to ``inf``), and that
    ratios ascend.
    """

    counts: np.ndarray
    cost_rate: np.ndarray
    speed: np.ndarray
    startup: np.ndarray
    row_time: np.ndarray
    throughput: np.ndarray
    ratio: np.ndarray

    def __post_init__(self):
        columns = [_read_only(getattr(self, name)) for name in _COLUMNS]
        for name, column in zip(_COLUMNS, columns):
            object.__setattr__(self, name, column)
        if {c.shape for c in columns} != {(columns[0].size,)}:
            raise ValueError("population columns must be aligned 1-D arrays")
        if not self.ratio.size:
            raise ConfigurationError("population must contain at least one type")
        _check_counts(self.counts)
        for name in _COLUMNS[1:-1]:  # all but counts and ratio
            column = getattr(self, name)
            bad = column[~((column > 0) & (column < np.inf))]
            if bad.size:
                raise ValueError(f"{name} must be positive and finite, got {bad[0]}")
        # An overflowed ratio is inf; NaN fails both comparisons below.
        bad = self.ratio[~(self.ratio > 0)]
        if bad.size:
            raise ValueError(f"ratio must be positive, got {bad[0]}")
        if not (self.ratio[1:] >= self.ratio[:-1]).all():
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
        type_id = _whole(type_id, "type id", None)
        if not 1 <= type_id <= self.size:
            raise ValueError(f"unknown type id {type_id}")
        count, *inputs, row_time, throughput, ratio = (
            getattr(self, name)[type_id - 1].item() for name in _COLUMNS
        )
        return WorkerType(type_id, *inputs, int(count)), PerformanceProfile(
            row_time, throughput, ratio
        )

    def with_counts(self, counts: Sequence[int]) -> "Population":
        """Same types and profiles with replaced headcounts.  Only the
        new headcount column is copied and checked; the six type columns
        are read-only, so the new population shares them."""
        column = _read_only(counts)
        if column.shape != self.counts.shape:
            raise ValueError("population columns must be aligned 1-D arrays")
        _check_counts(column)
        resized = copy.copy(self)
        object.__setattr__(resized, "counts", column)
        return resized


_COLUMNS = tuple(f.name for f in fields(Population))


def _read_only(values, dtype=float) -> np.ndarray:
    """A copy of ``values``, float64 unless ``dtype`` says otherwise, as
    a read-only view.  A view of a read-only array cannot be made
    writeable again; the owning copy itself could be."""
    column = np.array(values, dtype=dtype)
    column.flags.writeable = False
    return column.view()


def _check_counts(counts: np.ndarray) -> None:
    """The headcount rule: every count is a nonnegative integer."""
    whole = (counts == np.floor(counts)) & (counts < np.inf)
    if not np.all(whole & (counts >= 0)):
        raise ValueError(f"counts must be nonnegative integers, got {counts}")


def derive_profile(worker: WorkerType) -> PerformanceProfile:
    """Compute the derived performance metrics of one worker type."""
    return PerformanceProfile(*_profile_columns([worker])[4:, 0].tolist())


def _profile_columns(types: Sequence[WorkerType]) -> np.ndarray:
    """The seven ``Population`` columns of ``types`` in input order, the
    three derived ones from one :func:`solve_lambda` call, which raises
    NumericalError for a type whose row time overflows.  A finite row
    time gives a positive throughput: the speed itself where ``speed *
    row_time`` is below an ulp of 1, else at least ``1 / (2 *
    row_time)``."""
    inputs = np.array(
        [(t.count, t.cost_rate, t.speed, t.startup) for t in types], dtype=float
    ).reshape(len(types), 4).T
    _, cost_rate, speed, startup = inputs
    row_time = solve_lambda(speed, startup)
    with np.errstate(over="ignore", divide="ignore"):
        product = speed * row_time
        # Where the product overflows, the same throughput without it.
        throughput = np.where(
            product < np.inf, speed / (1.0 + product), 1.0 / (row_time + 1.0 / speed)
        )
        ratio = cost_rate / throughput
    return np.vstack((inputs, row_time, throughput, ratio))


def _ranked_population(columns: np.ndarray) -> tuple[np.ndarray, Population]:
    """The population of the ``(7, M)`` :func:`_profile_columns`, and
    the id order it assigns them (input positions)."""
    # Stable, last key first: by ratio, then cost rate, then input order.
    order = np.lexsort((columns[1], columns[6]))
    return order, Population(*columns[:, order])


def build_population(raw: Iterable[WorkerType]) -> Population:
    """Derive profiles, sort by cost-performance ratio ascending, and
    number the types 1..M in that order.

    Equal ratios fall back to the lower cost rate first; remaining ties
    keep input order.
    """
    return _ranked_population(_profile_columns(list(raw)))[1]


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
    return _draw_times(startup, speed, load, size, rng)


def _draw_times(startup, speed, load, size, rng: np.random.Generator) -> np.ndarray:
    """:func:`sample_times` without its checks: ``size`` draws for
    positive float loads, startups and speeds that broadcast to it."""
    return load * (startup + rng.standard_exponential(size) / speed)
