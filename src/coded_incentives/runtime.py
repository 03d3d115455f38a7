"""Load assignment and overall-runtime models.

Two regimes are covered.  Heterogeneous workers receive loads inversely
proportional to their per-row time scale, which minimizes the expected
overall runtime in the many-worker limit; the matching analytic runtime
is total rows over total effective throughput.  Homogeneous workers
under an (n, k) uniform code all receive ``rows / k`` and the exact
expected runtime of the k-th finisher follows from harmonic numbers.

The Monte Carlo estimator simulates rounds directly: it samples every
participating worker's completion time, accumulates rows in finish
order until the workload is covered, and records the finishing time,
the contributor count, and per-rank finish statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InfeasibleError
from .numerics import harmonic, row_fsums
from .workers import Population, sample_times

__all__ = [
    "SCHEME_HETERO",
    "SCHEME_MDS",
    "LoadAssignment",
    "RuntimeEstimate",
    "assign_loads_hetero",
    "expected_runtime_hetero",
    "expected_runtime_mds",
    "expected_runtimes_hetero",
    "group_throughputs",
    "monte_carlo_runtime",
]

SCHEME_HETERO = "hetero-asymptotic"
SCHEME_MDS = "mds-uniform"

# Relative slack on the row-accumulation stopping rule, absorbing float
# roundoff when equal fractional loads must sum exactly to the workload.
ROW_SLACK = 1e-9


@dataclass(frozen=True)
class LoadAssignment:
    """Per-type loads (rows per round) for one scheme."""

    loads: Mapping[int, float]
    total_rows: float
    scheme: str
    recovery_threshold: int | None = None

    def __post_init__(self):
        if self.scheme not in (SCHEME_HETERO, SCHEME_MDS):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.loads:
            raise InfeasibleError("assignment must cover at least one type")
        if not self.total_rows > 0:
            raise ValueError("total_rows must be positive")
        if any(not load > 0 for load in self.loads.values()):
            raise ValueError("all loads must be positive")
        if self.scheme == SCHEME_MDS:
            if self.recovery_threshold is None or self.recovery_threshold < 1:
                raise ValueError("uniform scheme requires a positive threshold")
            uniform = self.total_rows / self.recovery_threshold
            if any(
                abs(load - uniform) > 1e-9 * uniform for load in self.loads.values()
            ):
                raise ValueError("uniform scheme requires equal loads rows/k")


@dataclass(frozen=True)
class RuntimeEstimate:
    """Expected overall runtime with optional Monte Carlo diagnostics.

    ``finish_order_probs`` maps a type id to an array over finish ranks
    (index j-1 holds the probability that one worker of that type is
    the j-th finisher).  ``realized_k_distribution`` is the normalized
    histogram of how many finishers were needed to cover the workload.
    """

    expected_runtime: float
    method: str
    stderr: float | None = None
    finish_order_probs: Mapping[int, np.ndarray] | None = field(
        default=None, repr=False
    )
    realized_k_distribution: Mapping[int, float] | None = None

    def __post_init__(self):
        if not self.expected_runtime > 0:
            raise ValueError("expected_runtime must be positive")
        if self.method not in ("analytic", "monte-carlo"):
            raise ValueError(f"unknown method {self.method!r}")


def _targeted_tuple(pop: Population, targeted: Iterable[int]) -> tuple[int, ...]:
    ids = tuple(sorted(set(int(m) for m in targeted)))
    if not ids:
        raise InfeasibleError("targeted set must not be empty")
    unknown = [m for m in ids if not 1 <= m <= pop.size]
    if unknown:
        raise InfeasibleError(f"unknown type ids in targeted set: {unknown}")
    return ids


def group_throughputs(
    rates: Sequence[Sequence[float]], targeted: Sequence[Sequence[bool]]
) -> list[float]:
    """Correctly rounded total throughput of each row's targeted types.

    ``rates`` (headcount times throughput per type) and the boolean
    ``targeted`` are ``(R, M)`` nested lists.  Raises
    :class:`InfeasibleError` when a row's targeted types have no workers.
    """
    groups = row_fsums(rates, targeted)
    if not min(groups) > 0:
        raise InfeasibleError("targeted set has no workers")
    return groups


def expected_runtimes_hetero(
    rates: Sequence[Sequence[float]], targeted: Sequence[Sequence[bool]], rows: float
) -> list[float]:
    """Analytic expected overall runtime of each row of
    :func:`group_throughputs` under the heterogeneous assignment: rows
    over the row's targeted throughput."""
    if not rows > 0:
        raise ValueError(f"rows must be positive, got {rows}")
    return [rows / group for group in group_throughputs(rates, targeted)]


def _population_row(
    pop: Population, ids: tuple[int, ...]
) -> tuple[list[list[float]], list[list[bool]]]:
    """``pop``'s per-type throughputs and targeted mask as one row."""
    return [(pop.counts * pop.throughput).tolist()], [[m in ids for m in pop.ids]]


def assign_loads_hetero(
    pop: Population, targeted: Iterable[int], rows: float
) -> LoadAssignment:
    """Loads that minimize expected overall runtime for heterogeneous
    workers: ``rows / (row_time * total targeted throughput)``."""
    if not rows > 0:
        raise ValueError(f"rows must be positive, got {rows}")
    ids = _targeted_tuple(pop, targeted)
    group = group_throughputs(*_population_row(pop, ids))[0]
    row_times = pop.row_time.tolist()
    loads = {m: rows / (row_times[m - 1] * group) for m in ids}
    return LoadAssignment(loads=loads, total_rows=float(rows), scheme=SCHEME_HETERO)


def expected_runtime_hetero(
    pop: Population, targeted: Iterable[int], rows: float
) -> RuntimeEstimate:
    """Analytic expected overall runtime under the heterogeneous
    assignment: rows over total targeted throughput."""
    ids = _targeted_tuple(pop, targeted)
    runtime = expected_runtimes_hetero(*_population_row(pop, ids), rows)[0]
    return RuntimeEstimate(expected_runtime=runtime, method="analytic")


def expected_runtime_mds(
    n: int, k: int, rows: float, mu: float, a: float
) -> RuntimeEstimate:
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
    exact = (rows / k) * (a + (harmonic(n) - harmonic(n - k)) / mu)
    return RuntimeEstimate(expected_runtime=exact, method="analytic")


def _race(
    times: np.ndarray, loads: np.ndarray, need: float
) -> tuple[np.ndarray, int]:
    """Finish order of one round's workers (ties by index) and how many
    of the first finishers hold ``need`` rows; ``loads`` are positive."""
    order = np.argsort(times, kind="stable")
    return order, int(np.searchsorted(np.cumsum(loads[order]), need)) + 1


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
    ids = _targeted_tuple(pop, targeted)
    missing = [m for m in ids if m not in assignment.loads]
    if missing:
        raise InfeasibleError(f"assignment missing loads for types: {missing}")
    active = [m for m in ids if pop.counts[m - 1] > 0]
    if not active:
        raise InfeasibleError("no workers in the targeted set")

    index = np.array(active) - 1
    counts = pop.counts[index].astype(int)
    worker_loads = np.repeat([assignment.loads[m] for m in active], counts)
    type_positions = np.repeat(np.arange(len(active)), counts)
    startup = np.repeat(pop.startup[index], counts)
    speed = np.repeat(pop.speed[index], counts)
    n_total = worker_loads.size
    target = rows * (1.0 - ROW_SLACK)
    if float(worker_loads.sum()) < target:
        raise InfeasibleError(
            f"assigned rows {worker_loads.sum():g} cannot cover workload {rows:g}"
        )

    runtimes = np.empty(reps)
    realized = np.empty(reps, dtype=np.intp)
    rank_counts = np.zeros(n_total * len(active), dtype=np.int64)
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), rep]))
        times = sample_times((startup, speed), worker_loads, rng)
        order, used = _race(times, worker_loads, target)
        runtimes[rep] = times[order[used - 1]]
        realized[rep] = used
        rank_counts += np.bincount(
            np.arange(n_total) * len(active) + type_positions[order],
            minlength=rank_counts.size,
        )

    counts_by_rank = rank_counts.reshape(n_total, len(active)).astype(float)
    probs = {m: counts_by_rank[:, j] / (reps * counts[j]) for j, m in enumerate(active)}
    k_hist = np.bincount(realized) / reps
    k_distribution = {k: float(p) for k, p in enumerate(k_hist) if p > 0}
    stderr = None
    if reps > 1:
        stderr = float(runtimes.std(ddof=1) / math.sqrt(reps))
    return RuntimeEstimate(
        expected_runtime=float(runtimes.mean()),
        method="monte-carlo",
        stderr=stderr,
        finish_order_probs=probs,
        realized_k_distribution=k_distribution,
    )
