"""Erasure-coded matrix-vector tasks and end-to-end round simulation.

The uniform-load path applies an (n, k) code built from a real
Vandermonde generator: the source matrix splits into k equal blocks,
every worker receives one coded block, and any k finished workers
suffice to solve for the block products.  The heterogeneous-load path
gives each worker random dense code rows over all output coordinates,
so decoding needs only enough received rows, whichever workers they
came from; rows are drawn only for the workers the decode uses, and
the realized conditioning is checked before solving rather than
assumed.  ``simulate_round`` ties both to a platform offer:
workers join by best response, times are sampled from their runtime
model, the platform decodes at the earliest decodable prefix of
finishers and pays the announced rewards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, InfeasibleError, NumericalError
from .game import best_response
from .mechanisms import Mechanism
from .numerics import _largest_remainder
from .runtime import SCHEME_MDS
# No round calls ``sample_time``; it stays imported because perfbench's
# traced runs wrap it by name in this module.
from .workers import Population, sample_time, sample_times

__all__ = [
    "CodedTask",
    "SimOutcome",
    "vandermonde_generator",
    "mds_encode",
    "mds_decode",
    "integerize_loads",
    "simulate_round",
    "read_matrix",
    "read_vector",
]

_COND_LIMIT = 1e12
_SPOT_CHECKS = 5
# Fixed Gaussian probe vectors the heterogeneous decode solves alongside
# the received results to estimate the inverse's norm; they come from
# their own stream, so a round's realisation does not depend on them.
_PROBES = 4
_PROBE_SEED = 0


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
    is the time the last of them finished.  ``platform_cost_realized``
    is exactly the runtime valuation plus the payment valuation times
    total payments.
    """

    scheme: str
    participants: tuple[int, ...]
    worker_types: tuple[tuple[int, int], ...]
    finish_order: tuple[tuple[int, float], ...]
    contributors: tuple[int, ...]
    realized_k: int
    runtime: float
    decoded: np.ndarray
    max_error: float
    payments: dict[int, float]
    worker_payoffs: dict[int, float]
    platform_cost_realized: float


def vandermonde_generator(n: int, k: int) -> np.ndarray:
    """Column-normalized real Vandermonde encoding matrix on nodes 1..n.

    Any k of the n rows form an invertible system.  Normalizing each
    column keeps entries at comparable magnitude as node powers grow;
    it rescales the recovered unknowns consistently and leaves the
    decoded result unchanged.
    """
    if not (isinstance(n, int) and isinstance(k, int)):
        raise ValueError("participant and threshold counts must be integers")
    if not 1 <= k <= n:
        raise ValueError(f"threshold must satisfy 1 <= k <= n, got k={k}, n={n}")
    nodes = np.arange(1.0, n + 1.0)
    matrix = nodes[:, None] ** np.arange(k)[None, :]
    return matrix / np.linalg.norm(matrix, axis=0)


def _spot_check_generator(generator: np.ndarray, n: int, k: int):
    """Probe a few random k-row subsystems for numerical singularity."""
    if not np.all(np.isfinite(generator)):
        raise NumericalError(
            f"the ({n}, {k}) generator has non-finite entries; its node "
            "powers overflow"
        )
    rng = np.random.default_rng(np.random.SeedSequence([n, k]))
    seen = set()
    for _ in range(_SPOT_CHECKS):
        subset = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        if subset in seen:
            continue
        seen.add(subset)
        cond = np.linalg.cond(generator[list(subset)])
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise NumericalError(
                f"generator rows {subset} are numerically singular "
                f"(condition {cond:.3g})"
            )


def mds_encode(
    A: np.ndarray,
    n: int,
    k: int,
    generator: np.ndarray | None = None,
) -> CodedTask:
    """Split a matrix into k blocks and produce n coded shards.

    The default generator is the node-1..n Vandermonde matrix; a custom
    (n, k) generator may be supplied, in which case random k-subsets
    are spot-checked for invertibility.  Rows are zero-padded to a
    multiple of k and the padding is recorded on the task.
    """
    source = np.asarray(A, dtype=float)
    if source.ndim != 2 or source.size == 0:
        raise ValueError("matrix must be two-dimensional and nonempty")
    if not (isinstance(n, int) and isinstance(k, int)):
        raise ValueError("participant and threshold counts must be integers")
    if not 1 <= k <= n:
        raise ValueError(f"threshold must satisfy 1 <= k <= n, got k={k}, n={n}")
    if generator is None:
        gen = vandermonde_generator(n, k)
    else:
        gen = np.asarray(generator, dtype=float)
        if gen.shape != (n, k):
            raise ValueError(
                f"generator must have shape {(n, k)}, got {gen.shape}"
            )
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
    subsystem = task.generator[chosen]
    if not np.all(np.isfinite(subsystem)):
        raise NumericalError(
            f"the code rows of workers {chosen} have non-finite entries"
        )
    cond = np.linalg.cond(subsystem)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise NumericalError(
            f"results from workers {chosen} are too ill-conditioned to "
            f"decode (condition {cond:.3g})"
        )
    stacked = []
    for index in chosen:
        block = np.asarray(results[index], dtype=float)
        if block.shape != (task.block_rows,):
            raise ValueError(
                f"worker {index} result must have {task.block_rows} entries"
            )
        stacked.append(block)
    products = np.linalg.solve(subsystem, np.stack(stacked))
    return products.reshape(-1)[: task.source_rows]


def _decode_received(code: np.ndarray, received: np.ndarray) -> np.ndarray:
    """Solve the consistent system ``code @ y = received`` for ``y``.

    ``code`` has at least as many rows as unknowns, and its leading
    square block determines ``y`` whenever it is nonsingular, so only
    that block is LU-factored.  The same factorization solves a few
    fixed Gaussian probes z, and since E|B^-1 z|^2 = |B^-1|_F^2 for a
    square block B, |B|_F times the root mean square of |B^-1 z|
    estimates the Frobenius condition number, which is at least the
    2-norm one.  An exactly singular block or an estimate beyond the
    guard raises NumericalError rather than return a wrong decode.
    """
    unknowns = code.shape[1]
    square = code[:unknowns]
    probes = np.random.default_rng(_PROBE_SEED).standard_normal(
        (unknowns, _PROBES)
    )
    try:
        solved = np.linalg.solve(
            square, np.column_stack([received[:unknowns], probes])
        )
    except np.linalg.LinAlgError:
        cond = math.inf
    else:
        # A nearly singular block overflows here; inf or NaN fails the guard.
        with np.errstate(over="ignore", invalid="ignore"):
            mean_square = np.mean(np.sum(solved[:, 1:] ** 2, axis=0))
            cond = float(np.linalg.norm(square)) * math.sqrt(mean_square)
    if not cond <= _COND_LIMIT:
        raise NumericalError(
            "realized coded rows are rank-deficient or ill-conditioned "
            f"(condition estimate {cond:.3g}); the round cannot decode"
        )
    return solved[:, 0]


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


def simulate_round(
    mech: Mechanism,
    pop: Population,
    A: np.ndarray,
    x: np.ndarray,
    seed: int,
) -> SimOutcome:
    """Play one full computation round under a platform offer.

    Participation follows each type's best response.  Under the
    uniform-load coded scheme every participant computes one shard and
    the round ends at the threshold-th finisher; under heterogeneous
    loads each worker's assigned rows are rounded to whole rows and the
    round ends once finished workers cover the output dimension, with
    the realized code's conditioning verified before decoding.  Workers
    are paid the announced reward of their reported type; a worker
    rounded down to zero rows is paid but does not compute.
    """
    source = np.asarray(A, dtype=float)
    vector = np.asarray(x, dtype=float)
    if source.ndim != 2 or source.size == 0:
        raise ValueError("matrix must be two-dimensional and nonempty")
    if vector.shape != (source.shape[1],):
        raise ValueError("vector length must match the matrix column count")
    rows = source.shape[0]
    if rows != mech.config.total_rows:
        raise ValueError(
            f"matrix has {rows} rows but the offer covers "
            f"{mech.config.total_rows}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    decisions = {m: best_response(m, mech, pop) for m in pop.ids}
    participants = tuple(
        m
        for m in pop.ids
        if decisions[m].participate and pop.member(m)[0].count > 0
    )
    if not participants:
        raise InfeasibleError("no worker participates in this round")
    members = [pop.member(m)[0] for m in participants]
    counts = [t.count for t in members]
    type_of = np.repeat(participants, counts).tolist()
    n_workers = len(type_of)
    startup = np.repeat([t.startup for t in members], counts)
    speed = np.repeat([t.speed for t in members], counts)

    if mech.assignment.scheme == SCHEME_MDS:
        threshold = mech.recovery_threshold
        if threshold is None:
            raise ConfigurationError(
                "uniform coded offers must carry a recovery threshold"
            )
        if n_workers < threshold:
            raise InfeasibleError(
                f"{n_workers} participators cannot reach the recovery "
                f"threshold {threshold}"
            )
        task = mds_encode(source, n_workers, threshold)
        loads = np.full(n_workers, task.block_rows)
        need = threshold * task.block_rows
    else:
        missing = [m for m in participants if m not in mech.assignment.loads]
        if missing:
            raise InfeasibleError(
                f"no load assigned to participating types {missing}"
            )
        loads = np.array(
            integerize_loads([mech.assignment.loads[m] for m in type_of])
        )
        if loads.sum() < rows:
            raise InfeasibleError(
                f"participators cover {loads.sum()} rows, need {rows}"
            )
        need = rows
    # Workers with rows race until the finished ones hold the rows needed.
    racing = np.flatnonzero(loads)
    times = sample_times((startup[racing], speed[racing]), loads[racing], rng)
    order = np.argsort(times, kind="stable")
    covered = np.cumsum(loads[racing][order])
    realized = int(np.searchsorted(covered, need)) + 1
    contributors = racing[order[:realized]].tolist()
    runtime = float(times[order[realized - 1]])
    if mech.assignment.scheme == SCHEME_MDS:
        results = {w: task.shards[w] @ vector for w in contributors}
        decoded = mds_decode(task, results)
    else:
        # Only the contributors' rows are ever received, so only they are
        # drawn, in finish order.
        code = rng.standard_normal((int(covered[realized - 1]), rows))
        # All of the round's linear algebra runs on NumPy's BLAS: NumPy and
        # SciPy wheels each bundle an OpenBLAS, and the threads one leaves
        # spinning after a call slow the other's next call by a varying
        # amount.
        received = (code @ source) @ vector
        decoded = _decode_received(code, received)

    finish_order = tuple(
        (int(racing[pos]), float(times[pos])) for pos in order
    )
    payments = {
        w: float(mech.rewards.get(decisions[type_of[w]].reported_type, 0.0))
        for w in range(n_workers)
    }
    worker_payoffs = {
        w: payments[w] - pop.member(type_of[w])[0].cost_rate * runtime
        for w in range(n_workers)
    }
    cost = mech.config.gamma_time * runtime + mech.config.gamma_pay * math.fsum(
        payments.values()
    )
    return SimOutcome(
        scheme=mech.assignment.scheme,
        participants=participants,
        worker_types=tuple((w, type_of[w]) for w in range(n_workers)),
        finish_order=finish_order,
        contributors=tuple(contributors),
        realized_k=len(contributors),
        runtime=runtime,
        decoded=decoded,
        max_error=float(np.max(np.abs(decoded - source @ vector))),
        payments=payments,
        worker_payoffs=worker_payoffs,
        platform_cost_realized=cost,
    )


def _text_lines(path: str) -> Iterator[tuple[int, str]]:
    """``(line number, text)`` of each line of a text file that is not
    blank once its `#` comment is stripped."""
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    with handle:
        for line_no, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if text:
                yield line_no, text


def _read_numbers(path: str) -> list[float]:
    tokens: list[float] = []
    for line_no, text in _text_lines(path):
        for piece in text.split():
            try:
                tokens.append(float(piece))
            except ValueError as exc:
                raise ConfigurationError(
                    f"{path}:{line_no}: invalid number {piece!r}"
                ) from exc
    return tokens


def read_matrix(path: str) -> np.ndarray:
    """Read a dense matrix from text: a `rows cols` header line, then
    row-major entries; `#` starts a comment."""
    tokens = _read_numbers(path)
    if len(tokens) < 2:
        raise ConfigurationError(f"{path}: missing matrix header")
    rows, cols = tokens[0], tokens[1]
    if rows != int(rows) or cols != int(cols) or rows < 1 or cols < 1:
        raise ConfigurationError(
            f"{path}: header must be two positive integers"
        )
    rows, cols = int(rows), int(cols)
    body = tokens[2:]
    if len(body) != rows * cols:
        raise ConfigurationError(
            f"{path}: expected {rows * cols} entries, found {len(body)}"
        )
    return np.array(body).reshape(rows, cols)


def read_vector(path: str) -> np.ndarray:
    """Read a dense vector from text: a length header line, then
    entries; `#` starts a comment."""
    tokens = _read_numbers(path)
    if not tokens:
        raise ConfigurationError(f"{path}: missing vector header")
    length = tokens[0]
    if length != int(length) or length < 1:
        raise ConfigurationError(f"{path}: header must be a positive integer")
    length = int(length)
    body = tokens[1:]
    if len(body) != length:
        raise ConfigurationError(
            f"{path}: expected {length} entries, found {len(body)}"
        )
    return np.array(body)
