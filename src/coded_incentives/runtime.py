"""Load assignment and overall-runtime models.

Two regimes are covered.  Heterogeneous workers receive loads inversely
proportional to their per-row time scale, which minimizes the expected
overall runtime in the many-worker limit; the matching analytic runtime
is total rows over total effective throughput.  Homogeneous workers
under an (n, k) uniform code all receive ``rows / k`` and the exact
expected runtime of the k-th finisher follows from harmonic numbers.

Both analytic runtimes are Python floats; the batched runtimes of
many headcount rows are one float64 array.  The Monte Carlo estimator
simulates rounds directly: it samples every participating worker's
completion time, accumulates rows in finish order until the workload
is covered, and records the finishing time and the contributor count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, InfeasibleError, NumericalError
from .numerics import _whole, harmonic, row_fsums
from .workers import Population, _read_only, sample_times

__all__ = [
    "LoadAssignment",
    "RuntimeEstimate",
    "assign_loads_hetero",
    "expected_runtime_hetero",
    "expected_runtime_mds",
    "monte_carlo_runtime",
]

# Relative slack on the row-accumulation stopping rule, absorbing float
# roundoff when equal fractional loads must sum exactly to the workload.
ROW_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class LoadAssignment:
    """Rows per round: a read-only row by type id - 1, 0 if unloaded.  The
    loads are uniform, ``total_rows / k`` each, exactly when the
    ``recovery_threshold`` k is set; otherwise they are heterogeneous."""

    loads: np.ndarray
    total_rows: float
    recovery_threshold: int | None = None

    def __post_init__(self):
        loads = _read_only(self.loads)
        object.__setattr__(self, "loads", loads)
        if not loads.any():
            raise InfeasibleError("assignment must cover at least one type")
        if not self.total_rows > 0:
            raise ValueError("total_rows must be positive")
        # A NaN load makes the minimum NaN, which fails the comparison.
        if loads.ndim != 1 or not 0 <= loads.min() <= loads.max() < np.inf:
            raise ValueError("loads must be a row of finite, nonnegative values")
        if self.recovery_threshold is not None:
            k = _whole(self.recovery_threshold, "recovery threshold", 1)
            object.__setattr__(self, "recovery_threshold", k)
            uniform = self.total_rows / k
            loaded = loads[loads != 0]
            if (abs(loaded - uniform) > 1e-9 * uniform).any():
                raise ValueError("uniform loads must all be rows/k")


def _checked_row(row: np.ndarray, pop: Population) -> np.ndarray:
    """``row``, checked to be indexed like ``pop`` (else ConfigurationError)."""
    if row.size != pop.size:
        raise ConfigurationError(f"the offer covers {row.size} types, not {pop.size}")
    return row


@dataclass(frozen=True)
class RuntimeEstimate:
    """Monte Carlo estimate of the expected overall runtime.

    ``stderr`` is the standard error of the mean (None for a single
    replicate).  ``realized_k_distribution`` is the normalized histogram
    of how many finishers were needed to cover the workload.
    """

    expected_runtime: float
    stderr: float | None
    realized_k_distribution: Mapping[int, float]


def _targeted_tuple(pop: Population, targeted: Iterable[int]) -> tuple[int, ...]:
    ids = tuple(sorted({_whole(m, "type id", None) for m in targeted}))
    if not ids:
        raise InfeasibleError("targeted set must not be empty")
    unknown = [m for m in ids if not 1 <= m <= pop.size]
    if unknown:
        raise InfeasibleError(f"unknown type ids in targeted set: {unknown}")
    return ids


def _group_throughputs(rates: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
    """Correctly rounded total of the first ``lengths[r]`` per-type
    throughputs (headcount times throughput, the caller's product) of
    each ``(R, M)`` row of ``rates``, checked by :func:`_checked_groups`."""
    return _checked_groups(row_fsums(rates, lengths))


def _checked_groups(groups: np.ndarray) -> np.ndarray:
    """``groups``, the one check on group throughputs: a group without workers
    (or a NaN one) raises InfeasibleError, else one that overflows to ``inf``
    NumericalError.  One entry is checked on its list, where Python's min and
    isfinite beat NumPy's; more are checked as an array."""
    if groups.size > 1:
        empty, finite = not (groups > 0).all(), np.isfinite(groups).all()
    else:
        values = groups.tolist()
        empty, finite = not min(values) > 0, all(map(math.isfinite, values))
    if empty:
        raise InfeasibleError("targeted set has no workers")
    if not finite:
        raise NumericalError("the targeted group throughput overflows")
    return groups


def expected_runtimes_hetero(
    counts: np.ndarray, pop: Population, lengths: Sequence[int], rows: float
) -> np.ndarray:
    """Analytic expected overall runtime of each ``(R, M)`` counts row's
    prefix of ``lengths[r]`` types under the heterogeneous assignment:
    rows over its :func:`_group_throughputs`, ``inf`` where it overflows."""
    with np.errstate(over="ignore"):
        groups = _group_throughputs(counts * pop.throughput, lengths)
        return rows / groups


def _prefix(pop: Population, threshold: int, rows: float) -> int:
    """``threshold`` as the length of a targeted prefix of ``pop``'s types,
    for the one-row views below, once ``rows`` is checked positive."""
    if not rows > 0:
        raise ValueError(f"rows must be positive, got {rows}")
    threshold = _whole(threshold, "threshold type id", None)
    if not 1 <= threshold <= pop.size:
        raise InfeasibleError(f"unknown type id {threshold} as the threshold")
    return threshold


def assign_loads_hetero(pop: Population, threshold: int, rows: float) -> LoadAssignment:
    """Loads that minimize expected overall runtime for heterogeneous
    workers of the prefix ``1..threshold``: ``rows / (row_time * total
    targeted throughput)``, 0 beyond it."""
    t = _prefix(pop, threshold, rows)
    with np.errstate(over="ignore"):
        rates = pop.counts[None, :] * pop.throughput
    group = _group_throughputs(rates, [t])
    return _prefix_loads(pop, t, rows, group)


def _prefix_loads(
    pop: Population, t: int, rows: float, group: np.ndarray
) -> LoadAssignment:
    """:func:`assign_loads_hetero` of the prefix of length ``t``, whose
    one-entry ``group`` throughput the caller has already summed."""
    with np.errstate(over="ignore"):
        head = rows / (pop.row_time[:t] * group)
    if not head.all():
        raise NumericalError("a targeted type's load rounds to zero")
    loads = np.zeros(pop.size)
    loads[:t] = head
    return LoadAssignment(loads=loads, total_rows=float(rows))


def expected_runtime_hetero(pop: Population, threshold: int, rows: float) -> float:
    """Analytic expected overall runtime under the heterogeneous
    assignment to the prefix ``1..threshold``: rows over its throughput."""
    counts, t = pop.counts[None, :], _prefix(pop, threshold, rows)
    return expected_runtimes_hetero(counts, pop, [t], rows).item()


def expected_runtime_mds(
    n: int, k: int, rows: float, mu: float, a: float
) -> float:
    """Exact expected runtime of the k-th of n homogeneous finishers,
    each loaded with ``rows / k``.

    The exact value uses harmonic numbers,
    ``(rows/k) * (a + (H_n - H_{n-k}) / mu)``.
    """
    n, k = _whole(n, "n"), _whole(k, "k")
    if not 1 <= k <= n:
        raise ValueError(f"need integers 1 <= k <= n, got n={n}, k={k}")
    if not rows > 0 or not mu > 0 or a < 0:
        raise ValueError("rows and mu must be positive, a nonnegative")
    return (rows / k) * (a + (harmonic(n) - harmonic(n - k)) / mu)


def _race(
    times: np.ndarray, loads: np.ndarray, need: float
) -> tuple[np.ndarray, int]:
    """Finish order of one round's workers (ties by index) and how many
    of the first finishers hold ``need`` rows; ``loads`` are positive."""
    order = times.argsort(kind="stable")
    return order, int(loads[order].cumsum().searchsorted(need)) + 1


def monte_carlo_runtime(
    pop: Population,
    assignment: LoadAssignment,
    targeted: Iterable[int],
    rows: float,
    reps: int,
    seed: int,
) -> RuntimeEstimate:
    """Estimate expected overall runtime by simulating whole rounds.

    Each replicate draws every participating worker's completion time
    under its assigned load and accumulates loads in finish order until
    they cover ``rows`` (ties break by worker index).  Replicate i uses
    an independent stream derived from ``(seed, i)``, so results are
    reproducible regardless of evaluation order.
    """
    reps, entropy = _whole(reps, "reps", 1), _whole(seed, "seed")
    if not rows > 0:
        raise ValueError(f"rows must be positive, got {rows}")
    if rows != assignment.total_rows:
        raise ConfigurationError(
            f"the loads cover {assignment.total_rows:.15g} rows, not {rows:.15g}"
        )
    ids = _targeted_tuple(pop, targeted)
    loads = _checked_row(assignment.loads, pop)
    missing = [m for m in ids if not loads[m - 1] > 0]
    if missing:
        raise InfeasibleError(f"assignment missing loads for types: {missing}")
    active = [m for m in ids if pop.counts[m - 1] > 0]
    if not active:
        raise InfeasibleError("no workers in the targeted set")

    index = np.array(active) - 1
    counts = pop.counts[index].astype(int)
    worker_loads = np.repeat(loads[index], counts)
    startup = np.repeat(pop.startup[index], counts)
    speed = np.repeat(pop.speed[index], counts)
    target = rows * (1.0 - ROW_SLACK)
    if float(worker_loads.sum()) < target:
        raise InfeasibleError(
            f"assigned rows {worker_loads.sum():g} cannot cover workload {rows:g}"
        )

    runtimes = np.empty(reps)
    realized = np.empty(reps, dtype=np.intp)
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence([entropy, rep]))
        times = sample_times((startup, speed), worker_loads, rng)
        order, used = _race(times, worker_loads, target)
        runtimes[rep] = times[order[used - 1]]
        realized[rep] = used

    k_hist = np.bincount(realized) / reps
    k_distribution = {k: float(p) for k, p in enumerate(k_hist) if p > 0}
    stderr = None
    if reps > 1:
        stderr = float(runtimes.std(ddof=1) / math.sqrt(reps))
    return RuntimeEstimate(
        expected_runtime=float(runtimes.mean()),
        stderr=stderr,
        realized_k_distribution=k_distribution,
    )
