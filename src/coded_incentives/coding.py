"""Erasure-coded matrix-vector tasks and end-to-end round simulation.

A round uses one systematic code whatever its scheme: of the round's
``sum(loads)`` coded rows, one per output coordinate is a plain copy
of that source row and the rest are random dense parity rows, dealt to
the workers after one seeded shuffle.  The systematic rows that arrive
are entries of the product as they are; only the entries that did not
arrive are solved for, from as many received parity rows, with the
realized conditioning checked before the result is returned rather
than assumed.  The scheme sets only the loads and the stopping rule:
equal loads of ``ceil(rows / k)`` rows up to the k-th finisher under
the uniform scheme, the offer's rounded loads up to the first
finishers covering the output under heterogeneous loads.
``simulate_round`` ties the code to a platform offer: workers join by
best response, times are sampled from their runtime model, the
platform decodes at the earliest decodable prefix of finishers and
pays the announced rewards.  ``mds_encode`` and ``mds_decode`` are the
block-code form of the same idea: k equal blocks, a caller's (n, k)
generator, and any k coded blocks solved for the block products.
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
from .runtime import SCHEME_MDS, _race
# No round calls ``sample_time``; it stays imported because perfbench's
# traced runs wrap it by name in this module.
from .workers import Population, sample_time, sample_times

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
# An LU solve errs by about eps times the block's condition number, so a
# block whose condition estimate exceeds 1e-8 / eps could miss that promise.
_DECODE_COND_LIMIT = 1e-8 / np.finfo(float).eps
_SPOT_CHECKS = 5
# Fixed Gaussian probe vectors the decode solves alongside the received
# results to estimate the inverse's norm; they come from their own
# stream, so a round's realisation does not depend on them.
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


def _spot_check_generator(generator: np.ndarray, n: int, k: int):
    """Probe a few random k-row subsystems for numerical singularity."""
    rng = np.random.default_rng(np.random.SeedSequence([n, k]))
    seen = set()
    for _ in range(_SPOT_CHECKS):
        subset = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        if subset in seen:
            continue
        seen.add(subset)
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
    if not (isinstance(n, int) and isinstance(k, int)):
        raise ValueError("participant and threshold counts must be integers")
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
    products = _decode_received(task.generator[chosen], np.stack(stacked))
    return products.reshape(-1)[: task.source_rows]


def _decode_received(square: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the square system ``square @ y = rhs`` for ``y``; ``rhs`` is
    a vector or a matrix of right-hand sides.

    The LU factorization of ``square`` also solves a few fixed Gaussian
    probes z, and since E|B^-1 z|^2 = |B^-1|_F^2 for a square B, |B|_F
    times the root mean square of |B^-1 z| estimates the Frobenius
    condition number, which is at least the 2-norm one.  An exactly
    singular block, or an estimate beyond ``_DECODE_COND_LIMIT`` (a
    block whose solve could miss the round's 1e-8 accuracy), raises
    NumericalError rather than return a wrong decode.
    """
    unknowns = square.shape[0]
    width = rhs.size // unknowns
    probes = np.random.default_rng(_PROBE_SEED).standard_normal(
        (unknowns, _PROBES)
    )
    try:
        solved = np.linalg.solve(square, np.column_stack([rhs, probes]))
    except np.linalg.LinAlgError:
        cond = math.inf
    else:
        # A nearly singular block overflows here; inf or NaN fails the guard.
        with np.errstate(over="ignore", invalid="ignore"):
            mean_square = np.mean(np.sum(solved[:, width:] ** 2, axis=0))
            cond = float(np.linalg.norm(square)) * math.sqrt(mean_square)
    if not cond <= _DECODE_COND_LIMIT:
        raise NumericalError(
            "the coded rows to decode from are rank-deficient or "
            f"ill-conditioned (condition estimate {cond:.3g})"
        )
    return solved[:, :width].reshape(rhs.shape)


def _held_slots(
    slots: np.ndarray, loads: np.ndarray, workers: Sequence[int]
) -> np.ndarray:
    """The coded slots ``workers`` hold, worker by worker in that order.

    Slots are dealt in load order: with ``ends = cumsum(loads)``, worker
    w holds ``slots[ends[w] - loads[w]:ends[w]]``.
    """
    ends = np.cumsum(loads)
    lengths = loads[workers]
    first = np.repeat(ends[workers] - np.cumsum(lengths), lengths)
    return slots[first + np.arange(lengths.sum())]


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

    Participation follows each type's best response.  The scheme sets
    only the loads and the stopping rule: under the uniform scheme with
    recovery threshold k every participant computes ``ceil(rows / k)``
    coded rows and the round ends at the k-th finisher; under
    heterogeneous loads each worker's assigned rows are rounded to whole
    rows and the round ends once finished workers hold as many coded
    rows as the output has entries.  Either way the contributors hold at
    least ``rows`` coded rows.  Those rows are systematic copies of
    source rows or Gaussian parity rows, shuffled over the workers;
    arrived systematic rows fill their entries, and the u missing
    entries are solved from the first u received parity rows, a u-by-u
    system whose conditioning is verified first.  Finish times are drawn
    before the shuffle and the parity rows, so the race, its
    contributors and the costs of a seeded round do not depend on the
    code.  Workers are paid the announced reward of their reported type;
    a worker rounded down to zero rows is paid but does not compute.
    """
    source = np.asarray(A, dtype=float)
    vector = np.asarray(x, dtype=float)
    if source.ndim != 2 or source.size == 0:
        raise ValueError("matrix must be two-dimensional and nonempty")
    if vector.shape != (source.shape[1],):
        raise ValueError("vector length must match the matrix column count")
    if not (np.isfinite(source).all() and np.isfinite(vector).all()):
        raise ValueError("matrix and vector entries must be finite")
    rows = source.shape[0]
    if rows != mech.config.total_rows:
        raise ValueError(
            f"matrix has {rows} rows but the offer covers "
            f"{mech.config.total_rows}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    decisions = {m: best_response(m, mech, pop) for m in pop.ids}
    participants = tuple(
        m for m in pop.ids if decisions[m].participate and pop.counts[m - 1] > 0
    )
    if not participants:
        raise InfeasibleError("no worker participates in this round")
    index = np.array(participants) - 1
    counts = pop.counts[index].astype(int)
    type_of = np.repeat(participants, counts).tolist()
    n_workers = len(type_of)
    startup = np.repeat(pop.startup[index], counts)
    speed = np.repeat(pop.speed[index], counts)

    if mech.assignment.scheme == SCHEME_MDS:
        threshold = mech.assignment.recovery_threshold
        if n_workers < threshold:
            raise InfeasibleError(
                f"{n_workers} participators cannot reach the recovery "
                f"threshold {threshold}"
            )
        block_rows = -(-rows // threshold)  # ceil(rows / threshold)
        loads = np.full(n_workers, block_rows)
        need = threshold * block_rows
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
    order, realized = _race(times, loads[racing], need)
    contributors = racing[order[:realized]].tolist()
    runtime = float(times[order[realized - 1]])
    # Slot i < rows of the sum(loads) coded slots is systematic (its
    # worker computes A[i]·x); the rest are Gaussian parity rows.  The
    # shuffle is drawn after the finish times, so it cannot move them.
    held = _held_slots(rng.permutation(int(loads.sum())), loads, contributors)
    arrived = held[held < rows]
    decoded = np.empty(rows)
    known = np.zeros(rows, dtype=bool)
    known[arrived] = True
    unknowns = rows - arrived.size
    # Finite input can still overflow here; the decode is checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        decoded[arrived] = source[arrived] @ vector
        if unknowns:
            # The contributors hold at least rows coded slots, so at least
            # as many parity slots as missing entries; the first of them
            # are the only parity rows the decode reads, so only they are
            # drawn.  All of the round's linear algebra runs on NumPy's
            # BLAS: NumPy and SciPy wheels each bundle an OpenBLAS, and the
            # threads one leaves spinning after a call slow the other's
            # next call by a varying amount.
            parity = rng.standard_normal((unknowns, rows))
            received = (parity @ source) @ vector
            decoded[~known] = _decode_received(
                parity[:, ~known], received - parity[:, known] @ decoded[known]
            )
    if not np.isfinite(decoded).all():
        raise NumericalError("the product overflows, so the decode is not finite")

    finish_order = tuple(
        (int(racing[pos]), float(times[pos])) for pos in order
    )
    payments = {
        w: float(mech.rewards.get(decisions[type_of[w]].reported_type, 0.0))
        for w in range(n_workers)
    }
    cost_rates = pop.cost_rate.tolist()
    worker_payoffs = {
        w: payments[w] - cost_rates[type_of[w] - 1] * runtime for w in range(n_workers)
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
