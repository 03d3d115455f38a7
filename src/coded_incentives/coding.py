"""Erasure-coded matrix-vector tasks and end-to-end round simulation.

A round uses one systematic code whatever its scheme: of the round's
``sum(loads)`` coded rows, one per output coordinate is a plain copy
of that source row and the rest are parity rows.  The copies go to the
workers expected to finish first, whole loads at a time (the uniform
scheme's workers share one runtime, so by index), so that few entries
are missing when the first finishers stop the round; a seeded
permutation of the rows says which copy each of them holds.  A parity
row is the outer product of two short factors uniform on (-1, 1), one
over the rows and one over the columns of a near-square grid of the
source rows, so it costs about 2 sqrt(rows) random numbers.  A round
forms the product once: the systematic rows that arrive are its entries
as they are, and only the missing entries are solved for, from as many
received parity rows formed from their factors, never at full width.
Their square block's LU solve is used as it is, refined once, or
refused, as a condition estimate from fixed Gaussian probes says; the
probes are rows of a cached table drawn once per power of two.
``simulate_round`` plays a round under a platform offer, one function
per stage; its docstring gives the stages and the plan they share.
``mds_encode`` and ``mds_decode`` are the block-code form of the same
idea: k equal blocks, a caller's (n, k) generator, and any k coded
blocks solved for the block products.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, InfeasibleError, NumericalError
from .game import best_response
from .mechanisms import Mechanism
from .numerics import _largest_remainder, _whole
from .runtime import _race
# No round calls ``sample_time``; it stays imported because perfbench's
# traced runs wrap it by name in this module.
from .workers import Population, _draw_times, _read_only, sample_time

__all__ = [
    "CodedTask",
    "SimOutcome",
    "mds_encode",
    "mds_decode",
    "integerize_loads",
    "simulate_round",
    "read_matrix",
    "read_vector",
]

# A round promises max|decoded - Ax| <= 1e-8 * max(1, |Ax|_inf).
# An LU solve errs by about eps times the block's condition number, so
# its solve is used as it is only for a block the condition estimate
# puts within 1e-8 / eps; unrefined, a block at the limit can miss.
_DECODE_COND_LIMIT = 1e-8 / np.finfo(float).eps
# Every block the estimate refuses is refined once (``_refine``), which
# keeps only the error the received results' own rounding makes: on
# blocks planted at the limit in anchor rounds at most two thirds of an
# unrefined solve's, so a refined block may be half again as
# ill-conditioned.  A block past this limit is refused.
_REFINED_COND_LIMIT = 1.5 * _DECODE_COND_LIMIT
_SPOT_CHECKS = 5
# Fixed Gaussian probe vectors the decode solves alongside the received
# results to estimate the inverse's norm; they come from their own
# stream, so a round's realisation does not depend on them.
_PROBES = 4
_PROBE_SEED = 0
# The chunk a round's parity system is formed in: the square block's
# columns for this many missing entries, or this many parity rows'
# received results, at a time, so its temporaries stay small however
# many rows it solves from.
_PARITY_BLOCK = 64


@dataclass(frozen=True, eq=False)
class CodedTask:
    """An encoded matrix-vector workload.

    ``shards[i]`` is the coded submatrix assigned to worker ``i``; the
    results of any ``threshold`` shards recover the full product.  Zero
    rows are appended so the block split is even; ``padding`` records
    how many to strip after decoding.
    """

    participants: int
    threshold: int
    generator: np.ndarray
    shards: tuple[np.ndarray, ...]
    block_rows: int
    padding: int
    source_rows: int


@dataclass(frozen=True, eq=False)
class SimOutcome:
    """Realized outcome of one rewarded computation round.

    ``worker_types`` maps each instantiated worker index to its type
    id.  ``finish_order`` lists computing workers as (index, time)
    sorted by completion; workers assigned zero rows are paid but never
    race.  ``contributors`` are the worker indices whose results the
    decode used, ``realized_k`` is how many there were, and ``runtime``
    is the time the last of them finished.  ``payments`` and
    ``worker_payoffs`` map every worker index to its reward and to its
    reward less its cost over the runtime.  ``platform_cost_realized``
    is exactly the runtime valuation plus the payment valuation times
    total payments.

    Those four are views, each built once, on first read, from what the
    outcome holds: read-only arrays of the racing workers' indices and
    finish times in finish order and of every worker's payoff, and the
    round plan's payments, which no one writes.  Each outcome's dicts
    are its own.
    """

    participants: tuple[int, ...]
    worker_types: tuple[tuple[int, int], ...]
    realized_k: int
    runtime: float
    decoded: np.ndarray
    max_error: float
    platform_cost_realized: float
    _finishers: np.ndarray = field(repr=False)
    _finish_times: np.ndarray = field(repr=False)
    _payments: dict[int, float] = field(repr=False)
    _payoffs: np.ndarray = field(repr=False)

    @functools.cached_property
    def finish_order(self) -> tuple[tuple[int, float], ...]:
        return tuple(zip(self._finishers.tolist(), self._finish_times.tolist()))

    @functools.cached_property
    def contributors(self) -> tuple[int, ...]:
        return tuple(self._finishers[: self.realized_k].tolist())

    @functools.cached_property
    def payments(self) -> dict[int, float]:
        return dict(self._payments)

    @functools.cached_property
    def worker_payoffs(self) -> dict[int, float]:
        return dict(enumerate(self._payoffs.tolist()))


def _spot_check_generator(generator: np.ndarray, n: int, k: int):
    """Probe a few random k-row subsystems for numerical singularity."""
    rng = np.random.default_rng(np.random.SeedSequence([n, k]))
    seen = set()
    for _ in range(_SPOT_CHECKS):
        subset = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        if subset in seen:
            continue
        seen.add(subset)
        with np.errstate(over="ignore", invalid="ignore"):
            _decode_received(generator[list(subset)], np.zeros(k))


def mds_encode(
    A: np.ndarray,
    n: int,
    k: int,
    generator: np.ndarray,
) -> CodedTask:
    """Split a matrix into k blocks and code them into n shards.

    Shard i is ``sum_j generator[i, j] * block_j``.  Random k-row
    subsets of the (n, k) generator are spot-checked by the decode's
    guard.  Rows are zero-padded to a multiple of k and the padding is
    recorded on the task.
    """
    source = np.asarray(A, dtype=float)
    if source.ndim != 2 or source.size == 0:
        raise ValueError("matrix must be two-dimensional and nonempty")
    n, k = _whole(n, "n"), _whole(k, "k")
    if not 1 <= k <= n:
        raise ValueError(f"threshold must satisfy 1 <= k <= n, got k={k}, n={n}")
    gen = np.asarray(generator, dtype=float)
    if gen.shape != (n, k):
        raise ValueError(f"generator must have shape {(n, k)}, got {gen.shape}")
    _spot_check_generator(gen, n, k)
    rows, cols = source.shape
    padding = (-rows) % k
    if padding:
        padded = np.vstack([source, np.zeros((padding, cols))])
    else:
        padded = source
    block_rows = padded.shape[0] // k
    blocks = padded.reshape(k, block_rows, cols)
    coded = np.tensordot(gen, blocks, axes=1)
    return CodedTask(
        participants=n,
        threshold=k,
        generator=gen,
        shards=tuple(coded[i] for i in range(n)),
        block_rows=block_rows,
        padding=padding,
        source_rows=rows,
    )


def mds_decode(
    task: CodedTask, results: Mapping[int, np.ndarray]
) -> np.ndarray | None:
    """Recover the product vector from the first ``threshold`` results.

    ``results`` maps worker index to that worker's computed block, in
    arrival order.  Returns None while fewer than ``threshold`` results
    are available (not yet decodable, not a failure).
    """
    for index in results:
        if not 0 <= index < task.participants:
            raise ValueError(f"unknown worker index {index}")
    if len(results) < task.threshold:
        return None
    chosen = list(results)[: task.threshold]
    stacked = []
    for index in chosen:
        block = np.asarray(results[index], dtype=float)
        if block.shape != (task.block_rows,):
            raise ValueError(
                f"worker {index} result must have {task.block_rows} entries"
            )
        stacked.append(block)
    with np.errstate(over="ignore", invalid="ignore"):
        products = _decode_received(task.generator[chosen], np.stack(stacked))
    return products.reshape(-1)[: task.source_rows]


@functools.cache
def _drawn_probes(size: int) -> np.ndarray:
    table = np.random.default_rng(_PROBE_SEED).standard_normal((size, _PROBES))
    table.flags.writeable = False
    return table


def _probes(unknowns: int) -> np.ndarray:
    """The guard's probes for ``unknowns`` rows: the leading rows of the
    read-only table drawn at the next power of two, the shorter draw."""
    return _drawn_probes(1 << (unknowns - 1).bit_length())[:unknowns]


def _decode_received(square: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the square system ``square @ y = rhs`` for ``y``; ``rhs`` is
    a vector or a matrix of right-hand sides.

    The LU factorization of ``square`` also solves a few fixed Gaussian
    probes z, and since E|B^-1 z|^2 = |B^-1|_F^2 for a square B, |B|_F
    times the root mean square of |B^-1 z| estimates the Frobenius
    condition number, which is at least the 2-norm one.  A block the
    estimate accepts is solved.  A block it refuses, whose LU solve
    could miss the round's 1e-8 accuracy, is solved and refined once
    (``_refine``) if its exact 2-norm condition number, from an SVD, is
    within ``_REFINED_COND_LIMIT``: on dense uniform blocks the estimate
    overstates that number 8-10x.  An exactly singular block, or one
    past the refined limit, raises NumericalError rather than return a
    wrong decode.  A nearly singular block overflows the probes'
    squares, so it runs, refinement included, under the caller's
    ``np.errstate(over="ignore", invalid="ignore")``: the estimate
    refuses inf or NaN.
    """
    unknowns = square.shape[0]
    width = rhs.size // unknowns
    # |B|_F is taken before the solve, while the block is still in cache.
    norm = float(np.linalg.norm(square))
    try:
        solved = np.linalg.solve(square, np.column_stack([rhs, _probes(unknowns)]))
    except np.linalg.LinAlgError:
        raise NumericalError("the coded rows to decode from are rank-deficient")
    solution = solved[:, :width].reshape(rhs.shape)
    mean_square = np.mean(np.sum(solved[:, width:] ** 2, axis=0))
    estimate = norm * math.sqrt(mean_square)
    if estimate <= _DECODE_COND_LIMIT:
        return solution
    try:
        cond = float(np.linalg.cond(square))
    except np.linalg.LinAlgError:
        cond = math.inf
    if cond <= _REFINED_COND_LIMIT:
        return _refine(square, rhs, solution)
    raise NumericalError(
        "the coded rows to decode from are ill-conditioned "
        f"(2-norm condition number {cond:.3g})"
    )


def _refine(square: np.ndarray, rhs: np.ndarray, solution: np.ndarray) -> np.ndarray:
    """``solution`` to ``square @ y = rhs`` after one step of iterative
    refinement, its residual formed in float64 like the rest of the
    round, so the guard is one rule wherever NumPy runs: the step
    removes most of the LU solve's error, and what is left is of the
    order of what the rounding ``rhs`` arrived with makes of it."""
    residual = rhs - square @ solution
    return solution + np.linalg.solve(square, residual)


def integerize_loads(loads: Sequence[float]) -> list[int]:
    """Round fractional row loads to whole rows.

    Keeps the ceiling of the fractional total by giving the largest
    fractional parts one extra row each (ties to the lower index), so
    no coverage is lost to rounding.
    """
    values = np.array(loads, dtype=float)
    if not np.all(np.isfinite(values) & (values >= 0)):
        raise ValueError("loads must be finite and nonnegative")
    total = math.ceil(math.fsum(values.tolist()))
    return [int(v) for v in _largest_remainder(values, total).tolist()]


def _parity_system(
    rng: np.random.Generator,
    source: np.ndarray,
    vector: np.ndarray,
    missing: np.ndarray,
    known_values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one parity row per ``missing`` entry and return their square
    system: the rows' entries in the ``missing`` columns, and their
    received results ``(row @ source) @ vector`` less the known entries'
    share ``row @ known_values`` (zero at the missing entries), all
    formed from the rows' factors: no row is ever formed at full width.

    The source rows sit on a ``height x width`` grid, row j at ``(j //
    width, j % width)``, and parity row n is the outer product of its
    factors ``left[n]`` (over the grid's rows) and ``right[n]`` (over
    its columns) cut to ``rows`` entries: entry j is ``left[n, j //
    width] * right[n, j % width]``.  The factors are the rows of
    ``rng.uniform(-1, 1, (count, height + width))``, left first (``2 *
    random - 1`` is that draw bit for bit), held transposed, so that a
    grid row's or column's factor over every parity row is contiguous.
    Row c of the square block's transpose is then the left factor of
    missing entry c's grid row times the right factor of its grid
    column, the latter gathered ``_PARITY_BLOCK`` entries at a time, and
    the block is returned F-ordered, as LAPACK reads it.  A received
    result applies ``left`` over the grid's full rows in one product
    with ``source`` (its partial last row on its own), then ``right``,
    then ``vector``: a worker's order, summed factor by factor.  It is
    formed ``_PARITY_BLOCK`` parity rows at a time, fewer over a matrix
    wider than its grid is high, so one reused chunk holds no more
    numbers than ``_PARITY_BLOCK`` full-width rows would.
    """
    rows, cols = source.shape
    width = math.isqrt(rows - 1) + 1
    height = -(-rows // width)  # ceil(rows / width)
    full = rows // width
    cut = full * width
    count = missing.size
    factors = np.empty((height + width, count))
    np.multiply(rng.random((count, height + width)).T, 2.0, out=factors)
    factors -= 1.0
    left, right = factors[:height], factors[height:]
    grid_row, grid_col = np.divmod(missing, width)
    square_t = left[grid_row]
    for start in range(0, grid_row.size, _PARITY_BLOCK):
        square_t[start : start + _PARITY_BLOCK] *= right[
            grid_col[start : start + _PARITY_BLOCK]
        ]
    # Its terms are only (width, count), so it takes every parity row at once.
    share = (right * (known_values[:cut].reshape(full, width).T @ left[:full])).sum(0)
    if cut < rows:
        share += left[full] * (known_values[cut:] @ right[: rows - cut])
    grid = source[:cut].reshape(full, width * cols)
    step = min(_PARITY_BLOCK, max(1, _PARITY_BLOCK * height // cols))
    chunk = np.empty((min(step, count), width * cols))
    rhs = np.empty(count)
    for start in range(0, count, step):
        stop = min(start + step, count)
        # ``left`` over the full grid rows: (parity row, grid column, column).
        outer = np.matmul(left[:full, start:stop].T, grid, out=chunk[: stop - start])
        factor = right[:, start:stop].T
        products = np.matmul(factor[:, None], outer.reshape(-1, width, cols))[:, 0]
        if cut < rows:
            tail = factor[:, : rows - cut] @ source[cut:]
            products += left[full, start:stop, None] * tail
        rhs[start:stop] = products @ vector - share[start:stop]
    return square_t.T, rhs


def _participation(mech: Mechanism, pop: Population) -> tuple[np.ndarray, np.ndarray]:
    """Each type's best response to the offer: the ids of the types with
    workers that join, ascending, and the type each of them reports."""
    decisions = [best_response(m, mech, pop) for m in pop.ids]
    joins = np.array([d.participate for d in decisions]) & (pop.counts > 0)
    if not joins.any():
        raise InfeasibleError("no worker participates in this round")
    reported = np.array([d.reported_type for d in decisions])
    return np.flatnonzero(joins) + 1, reported[joins]


def _round_loads(
    mech: Mechanism, participants: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, int]:
    """Each worker's whole rows, as floats, ``counts`` workers per
    participating type in order, and the rows the finished workers must
    hold: under an offer with recovery threshold k (the cost-only one),
    ``ceil(rows / k)`` rows each and k workers' worth; under any other,
    each offered load rounded to whole rows (``integerize_loads``), and
    ``rows``."""
    rows, threshold = int(mech.config.total_rows), mech.recovery_threshold
    if threshold is not None:
        n_workers = int(counts.sum())
        if n_workers < threshold:
            raise InfeasibleError(
                f"{n_workers} participators cannot reach the recovery "
                f"threshold {threshold}"
            )
        block_rows = -(-rows // threshold)  # ceil(rows / threshold)
        return np.full(n_workers, float(block_rows)), threshold * block_rows
    type_loads = mech.assignment.loads[participants - 1]
    if not type_loads.all():
        missing = participants[type_loads == 0].tolist()
        raise InfeasibleError(f"no load assigned to participating types {missing}")
    loads = integerize_loads(np.repeat(type_loads, counts))
    if sum(loads) < rows:
        raise InfeasibleError(f"participators cover {sum(loads)} rows, need {rows}")
    return np.array(loads, dtype=float), rows


def _decode_round(
    rng: np.random.Generator,
    source: np.ndarray,
    vector: np.ndarray,
    exact: np.ndarray,
    owner: np.ndarray,
    used: np.ndarray,
) -> np.ndarray:
    """The product ``exact = source @ vector`` decoded from the coded
    rows of the racing workers ``used`` marks.  Racing worker w holds
    ``copies[w]`` systematic copies (each computes one entry of
    ``exact``) and parity rows for the rest of its load; ``owner`` is
    each copy's racing worker, ``np.repeat(arange, copies)``.  One
    permutation of the rows says which entry each copy is, so copy j
    is entry ``perm[j]``.  Arrived entries are read from ``exact`` with
    the others zeroed, the known values the parity system subtracts; the
    missing ones are then solved from as many parity rows, drawn after
    the permutation.  Finite input can still overflow, so it runs under
    the round's ``np.errstate`` and the decode is checked for it."""
    rows = source.shape[0]
    known = np.zeros(rows, dtype=bool)
    known[rng.permutation(rows)[used[owner]]] = True
    decoded = np.where(known, exact, 0.0)
    missing = np.flatnonzero(~known)
    if missing.size:
        # The used workers hold at least rows coded rows, so at least as
        # many parity rows as missing entries; the decode reads the
        # first of them.
        square, received = _parity_system(rng, source, vector, missing, decoded)
        decoded[missing] = _decode_received(square, received)
    if not np.isfinite(decoded).all():
        raise NumericalError("the product overflows, so the decode is not finite")
    return decoded


@dataclass(frozen=True, eq=False)
class _RoundPlan:
    """The stages of a round its offer and population fix (see
    ``_round_plan``).  ``racers`` and ``loads`` are the ``racing``
    workers' ``(startup, speed)`` and whole rows, as the floats the race
    draws and sums them with (a cumulative sum of whole-number floats is
    exact), and ``owner`` is each systematic copy's racing worker,
    copies in racing order.  ``pay`` and ``cost_rate`` are every
    worker's reward and cost rate, ``payments`` the rewards by worker
    id, and ``paid`` their ``math.fsum``.  Its arrays are read-only;
    each outcome copies ``payments`` when it is read."""

    participants: tuple[int, ...]
    worker_types: tuple[tuple[int, int], ...]
    need: int
    racing: np.ndarray
    racers: tuple[np.ndarray, np.ndarray]
    loads: np.ndarray
    owner: np.ndarray
    pay: np.ndarray
    cost_rate: np.ndarray
    payments: dict[int, float]
    paid: float


# The last offer's plan with the offer and population it was built for,
# matched by identity: both are frozen with read-only columns, so the
# plan holds for as long as they live.  (A population's ``__eq__``
# compares values, so it is unhashable and ``functools`` cannot key it.)
_plan_memo: tuple = (None, None, None)


def _systematic_copies(loads: np.ndarray, expected: np.ndarray, rows: int) -> np.ndarray:
    """How many of the ``rows`` systematic copies each racing worker
    holds: ranked by ``expected`` finish time with ties by index, they
    are dealt whole ``loads`` of copies in that order until ``rows`` are
    dealt; every other coded row is parity."""
    ranked = np.argsort(expected, kind="stable")
    dealt = np.cumsum(loads[ranked]) - loads[ranked]
    copies = np.empty(loads.size, dtype=int)
    copies[ranked] = np.clip(rows - dealt, 0, loads[ranked])
    return copies


def _round_plan(mech: Mechanism, pop: Population) -> _RoundPlan:
    """The offer's side of a round: ``_participation``, then
    ``_round_loads``, the systematic copies (``_systematic_copies``) and
    settlement's terms, all fixed by the offer and the population.  It
    is built once per offer and reused while rounds replay that offer;
    an offer that raises is never memoised, so it raises on every
    call."""
    global _plan_memo
    memo_mech, memo_pop, plan = _plan_memo
    if memo_mech is mech and memo_pop is pop:
        return plan
    participants, reported = _participation(mech, pop)
    index = participants - 1
    counts = pop.counts[index].astype(int)
    loads, need = _round_loads(mech, participants, counts)
    # Workers with rows race; each worker is paid its type's report's reward.
    of = np.repeat(index, counts)
    racing = np.flatnonzero(loads)
    loads = loads[racing]
    startup, speed = pop.startup[of[racing]], pop.speed[of[racing]]
    # A worker's expected finish time is its load times its expected row time.
    expected = loads * (startup + 1.0 / speed)
    copies = _systematic_copies(loads, expected, int(mech.config.total_rows))
    pay = np.repeat(mech.rewards[reported - 1], counts)
    payments = pay.tolist()
    plan = _RoundPlan(
        participants=tuple(participants.tolist()),
        worker_types=tuple(enumerate((of + 1).tolist())),
        need=need,
        racing=_read_only(racing, int),
        racers=(_read_only(startup), _read_only(speed)),
        loads=_read_only(loads),
        owner=_read_only(np.repeat(np.arange(loads.size), copies), int),
        pay=_read_only(pay),
        cost_rate=_read_only(pop.cost_rate[of]),
        payments=dict(enumerate(payments)),
        paid=math.fsum(payments),
    )
    _plan_memo = (mech, pop, plan)
    return plan


def _race_round(
    plan: _RoundPlan, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, int]:
    """The race of a round: each racing worker's finish time for its
    whole rows, drawn from ``rng`` by ``sample_times``'s sampler
    without its checks (``_draw_times``), as the plan's loads are
    checked once.  Returns the finish order by racing position (ties
    by position), the times in that order, and the realized k: how many
    of the first finishers hold the plan's ``need`` rows."""
    startup, speed = plan.racers
    times = _draw_times(startup, speed, plan.loads, plan.loads.shape, rng)
    order, realized = _race(times, plan.loads, plan.need)
    return order, times[order], realized


def _owned(values: np.ndarray) -> np.ndarray:
    """``values``, an array only one outcome holds, made read-only."""
    values.flags.writeable = False
    return values


def simulate_round(
    mech: Mechanism,
    pop: Population,
    A: np.ndarray,
    x: np.ndarray,
    seed: int,
) -> SimOutcome:
    """Play one full computation round under a platform offer.

    The round is the composition of its stages: ``_participation``, who
    joins by best response and what each type reports; ``_round_loads``,
    each worker's whole rows and the rows needed, where the schemes
    differ; ``_race_round``, the race of the plan's sampled finish times
    up to the first finishers holding those rows; ``_decode_round``, the
    product from their coded rows, under the round's one ``np.errstate``
    scope; and settlement, where each worker is paid its reported type's
    reward, also a worker rounded down to zero rows, who does not
    compute.
    Participation, loads, the systematic copies, dealt to the workers
    expected to finish first (``_systematic_copies``), and payments
    depend only on the offer and the population, so they are one plan
    (``_round_plan``), kept for the last offer and population objects
    and reused by every round that replays the offer, as ``Mechanism``
    and ``Population`` are frozen with read-only columns.  The race and
    the decode index the plan's racing workers, those with rows;
    settlement, every worker.  A round draws its finish times before the
    permutation of the copies and the parity rows, so the race, its
    contributors and the costs of a seeded round do not depend on the
    code.  ``seed`` is a whole number (see ``_whole``) of at least 0.
    The outcome's ``finish_order``, ``contributors``, ``payments`` and
    ``worker_payoffs`` are built on first read (see ``SimOutcome``).
    """
    source = np.asarray(A, dtype=float)
    vector = np.asarray(x, dtype=float)
    if source.ndim != 2 or source.size == 0:
        raise ConfigurationError("matrix must be two-dimensional and nonempty")
    if vector.shape != (source.shape[1],):
        raise ConfigurationError("vector length must match the matrix column count")
    if not (np.isfinite(source).all() and np.isfinite(vector).all()):
        raise ConfigurationError("matrix and vector entries must be finite")
    rows = source.shape[0]
    if rows != mech.config.total_rows:
        raise ConfigurationError(
            f"matrix has {rows} rows but the offer covers "
            f"{mech.config.total_rows:.15g}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([_whole(seed, "seed")]))
    plan = _round_plan(mech, pop)
    order, times, realized = _race_round(plan, rng)
    used = np.zeros(plan.loads.size, dtype=bool)
    used[order[:realized]] = True
    # Finite input can still overflow; the decode is checked for it.
    with np.errstate(over="ignore", invalid="ignore"):
        exact = source @ vector
        decoded = _decode_round(rng, source, vector, exact, plan.owner, used)
    runtime = float(times[realized - 1])
    payoffs = plan.pay - plan.cost_rate * runtime
    cost = mech.config.gamma_time * runtime + mech.config.gamma_pay * plan.paid
    return SimOutcome(
        participants=plan.participants,
        worker_types=plan.worker_types,
        realized_k=realized,
        runtime=runtime,
        decoded=decoded,
        max_error=float(np.max(np.abs(decoded - exact))),
        platform_cost_realized=cost,
        _finishers=_owned(plan.racing[order]),
        _finish_times=_owned(times),
        _payments=plan.payments,
        _payoffs=_owned(payoffs),
    )


def _text_lines(path: str) -> Iterator[tuple[int, str]]:
    """``(line number, text)`` of each line of a text file that is not
    blank once its `#` comment is stripped."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    for line_no, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if text:
            yield line_no, text


def _read_numbers(path: str) -> list[float]:
    tokens: list[float] = []
    for line_no, text in _text_lines(path):
        for piece in text.split():
            try:
                value = float(piece)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"{path}:{line_no}: {piece!r} is not a finite number"
                )
            tokens.append(value)
    return tokens


def _read_array(path: str, shape_len: int) -> np.ndarray:
    """Read a dense array from text: a header line of ``shape_len``
    positive integers, its shape, then its entries in row-major order;
    `#` starts a comment."""
    tokens = _read_numbers(path)
    shape = tokens[:shape_len]
    if len(shape) < shape_len or any(n != int(n) or n < 1 for n in shape):
        raise ConfigurationError(
            f"{path}: the header must give the shape as {shape_len} "
            "positive integer(s)"
        )
    shape = tuple(int(n) for n in shape)
    body = tokens[shape_len:]
    if len(body) != math.prod(shape):
        raise ConfigurationError(
            f"{path}: expected {math.prod(shape)} entries, found {len(body)}"
        )
    return np.array(body).reshape(shape)


def read_matrix(path: str) -> np.ndarray:
    """Read a dense matrix: a `rows cols` header, then row-major entries."""
    return _read_array(path, 2)


def read_vector(path: str) -> np.ndarray:
    """Read a dense vector: a `length` header, then its entries."""
    return _read_array(path, 1)
