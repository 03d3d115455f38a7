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
from .numerics import harmonic, row_fsums
from .workers import Population, _read_only, sample_times

__all__ = [
    "SCHEME_HETERO",
    "SCHEME_MDS",
    "LoadAssignment",
    "RuntimeEstimate",
    "assign_loads_hetero",
    "expected_runtime_hetero",
    "expected_runtime_mds",
    "monte_carlo_runtime",
]

SCHEME_HETERO = "hetero-asymptotic"
SCHEME_MDS = "mds-uniform"

# Relative slack on the row-accumulation stopping rule, absorbing float
# roundoff when equal fractional loads must sum exactly to the workload.
ROW_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class LoadAssignment:
    """Rows per round for one scheme: a read-only row by type id - 1, 0 if unloaded."""

    loads: np.ndarray
    total_rows: float
    scheme: str
    recovery_threshold: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "loads", _read_only(self.loads))
        loaded = self.loads[self.loads != 0]
        if self.scheme not in (SCHEME_HETERO, SCHEME_MDS):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not loaded.size:
            raise InfeasibleError("assignment must cover at least one type")
        if not self.total_rows > 0:
            raise ValueError("total_rows must be positive")
        if self.loads.ndim != 1 or not ((loaded > 0) & (loaded < np.inf)).all():
            raise ValueError("loads must be a row of finite, nonnegative values")
        if self.scheme == SCHEME_MDS:
            if self.recovery_threshold is None or self.recovery_threshold < 1:
                raise ValueError("uniform scheme requires a positive threshold")
            uniform = self.total_rows / self.recovery_threshold
            if (abs(loaded - uniform) > 1e-9 * uniform).any():
                raise ValueError("uniform scheme requires equal loads rows/k")
        elif self.recovery_threshold is not None:
            raise ValueError("only the uniform scheme has a recovery threshold")


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
    ids = tuple(sorted(set(int(m) for m in targeted)))
    if not ids:
        raise InfeasibleError("targeted set must not be empty")
    unknown = [m for m in ids if not 1 <= m <= pop.size]
    if unknown:
        raise InfeasibleError(f"unknown type ids in targeted set: {unknown}")
    return ids


def _group_throughputs(
    counts: np.ndarray, pop: Population, lengths: Sequence[int]
) -> np.ndarray:
    """Correctly rounded total throughput (headcount times throughput
    per type) of each ``(R, M)`` counts row's first ``lengths[r]``
    types over ``pop``'s types, checked by :func:`_checked_groups`."""
    with np.errstate(over="ignore"):
        rates = counts * pop.throughput
    return _checked_groups(row_fsums(rates, lengths))


def _checked_groups(groups: np.ndarray) -> np.ndarray:
    """``groups``, the one check on group throughputs: a group without workers
    raises InfeasibleError, else one that overflows to ``inf`` NumericalError."""
    values = groups.tolist()  # Python's min and isfinite beat NumPy's on one row
    if not min(values) > 0:
        raise InfeasibleError("targeted set has no workers")
    if not all(map(math.isfinite, values)):
        raise NumericalError("the targeted group throughput overflows")
    return groups


def expected_runtimes_hetero(
    counts: np.ndarray, pop: Population, lengths: Sequence[int], rows: float
) -> np.ndarray:
    """Analytic expected overall runtime of each row of
    :func:`_group_throughputs` under the heterogeneous assignment: rows
    over the row's targeted throughput, ``inf`` where it overflows."""
    groups = _group_throughputs(counts, pop, lengths)
    with np.errstate(over="ignore"):
        return rows / groups


def _targeted_throughput(
    pop: Population, targeted: Iterable[int], rows: float
) -> tuple[tuple[int, ...], float]:
    """Sorted targeted ids and their group throughput for the one-row views
    below: the counts row with other types zeroed, summed to the last id."""
    if not rows > 0:
        raise ValueError(f"rows must be positive, got {rows}")
    ids = _targeted_tuple(pop, targeted)
    counts = pop.counts * np.bincount(ids, minlength=pop.size + 1)[1:]
    return ids, _group_throughputs(counts[None, :], pop, [ids[-1]]).item()


def assign_loads_hetero(
    pop: Population, targeted: Iterable[int], rows: float
) -> LoadAssignment:
    """Loads that minimize expected overall runtime for heterogeneous
    workers: ``rows / (row_time * total targeted throughput)``."""
    ids, group = _targeted_throughput(pop, targeted, rows)
    row_times = pop.row_time.tolist()
    loads = np.zeros(pop.size)
    loads[np.array(ids) - 1] = [rows / (row_times[m - 1] * group) for m in ids]
    if np.count_nonzero(loads) < len(ids):
        raise NumericalError("a targeted type's load rounds to zero")
    return LoadAssignment(loads=loads, total_rows=float(rows), scheme=SCHEME_HETERO)


def expected_runtime_hetero(
    pop: Population, targeted: Iterable[int], rows: float
) -> float:
    """Analytic expected overall runtime under the heterogeneous
    assignment: rows over total targeted throughput."""
    return rows / _targeted_throughput(pop, targeted, rows)[1]


def expected_runtime_mds(
    n: int, k: int, rows: float, mu: float, a: float
) -> float:
    """Exact expected runtime of the k-th of n homogeneous finishers,
    each loaded with ``rows / k``.

    The exact value uses harmonic numbers,
    ``(rows/k) * (a + (H_n - H_{n-k}) / mu)``.
    """
    if n != int(n) or k != int(k) or k < 1 or k > n:
        raise ValueError(f"need integers 1 <= k <= n, got n={n}, k={k}")
    if not rows > 0 or not mu > 0 or a < 0:
        raise ValueError("rows and mu must be positive, a nonnegative")
    n, k = int(n), int(k)
    return (rows / k) * (a + (harmonic(n) - harmonic(n - k)) / mu)


def _race(
    times: np.ndarray, loads: np.ndarray, need: float
) -> tuple[np.ndarray, int]:
    """Finish order of one round's workers (ties by index) and how many
    of the first finishers hold ``need`` rows; ``loads`` are positive."""
    order = np.argsort(times, kind="stable")
    return order, int(np.searchsorted(np.cumsum(loads[order]), need)) + 1


def _seed_entropy(seed) -> int:
    """``seed`` as a SeedSequence's entropy: it must be a nonnegative integer."""
    if isinstance(seed, (int, np.integer)) and seed >= 0:
        return int(seed)
    raise ConfigurationError(f"seed must be a nonnegative integer, got {seed!r}")


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
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    if not rows > 0:
        raise ValueError(f"rows must be positive, got {rows}")
    entropy = _seed_entropy(seed)
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
