"""Benchmark sweeps, configuration files, and CSV result tables.

A sweep re-solves the platform's offer while the total worker count N
grows, holding the per-type mix fixed.  The bundled default catalog is
a ten-type mixed population; headcounts are apportioned to N by
largest-remainder rounding.  Result tables carry enough metadata to be
re-run bit-exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .coding import _text_lines
from .errors import ConfigurationError, NumericalError
# No sweep calls ``best_response`` or ``solve_complete``; they stay
# imported because perfbench's traced runs wrap them by name here.
from .game import _best_payoffs, best_response
from .mechanisms import (
    PlatformConfig,
    _complete_offers,
    _prefix_costs,
    _private_offers,
    solve_complete,
    solve_incomplete,
)
from .numerics import _largest_remainder, _whole
from .runtime import expected_runtimes_hetero
from .workers import (
    Population,
    WorkerType,
    _profile_columns,
    _ranked_population,
    build_population,
    derive_profile,
)

__all__ = [
    "DEFAULT_TYPE_PARAMS",
    "EXPERIMENT_NAMES",
    "ExperimentSpec",
    "ResultTable",
    "default_worker_types",
    "default_population",
    "apportion",
    "load_config",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_custom",
    "run_experiment",
]

# Default worker catalog: (cost rate, speed, startup) per type.
DEFAULT_TYPE_PARAMS: tuple[tuple[float, float, float], ...] = (
    (1.0, 50.0, 0.012),
    (7.0, 100.0, 0.024),
    (8.0, 200.0, 0.033),
    (3.0, 10.0, 0.031),
    (16.0, 400.0, 0.040),
    (5.0, 20.0, 0.081),
    (21.0, 800.0, 0.044),
    (9.0, 40.0, 0.123),
    (12.0, 80.0, 0.153),
    (20.0, 160.0, 0.172),
)


def _parse_sweep(value: str) -> tuple[int, ...]:
    if ":" in value:
        parts = value.split(":")
        if len(parts) != 3:
            raise ValueError("sweep ranges use start:stop:step")
        start, stop, step = (int(p) for p in parts)
        if step < 1:
            raise ValueError("sweep step must be positive")
        return tuple(range(start, stop + 1, step))
    return tuple(int(p) for p in value.split(","))


# Every setting once, as config files and CSV metadata spell it:
# key -> (ExperimentSpec field, parser of its text, writer of its value).
_SETTINGS = {
    "gamma_time": ("gamma_time", float, repr),
    "gamma_pay": ("gamma_pay", float, repr),
    "total_rows": ("total_rows", float, repr),
    "sweep": ("n_sweep", _parse_sweep, lambda sweep: ",".join(map(str, sweep))),
    "replications": ("replications", int, str),
    "seed": ("seed", int, str),
    "probabilities": (
        "type_probabilities",
        lambda text: None if text == "uniform" else tuple(map(float, text.split(","))),
        lambda probs: "uniform" if probs is None else ",".join(map(repr, probs)),
    ),
}


def _worker_row(type_id: int, fields: Sequence) -> WorkerType:
    """The worker type of one `cost speed startup count` population row:
    a config line's tokens, a metadata entry's fields or a catalog entry."""
    if len(fields) != 4:
        raise ValueError("population rows need `cost speed startup count`")
    cost, speed, startup, count = fields
    return WorkerType(type_id, float(cost), float(speed), float(startup), int(count))


def apportion(total: int, weights: Sequence[float]) -> list[int]:
    """Split ``total`` across bins proportionally to ``weights``.

    Largest-remainder rounding: every bin gets the floor of its quota,
    then the largest fractional parts absorb the shortfall, ties going
    to the lower index.  The result always sums to ``total``.
    """
    total = _whole(total, "total")
    return [int(c) for c in _apportion_rows([total], weights)[0].tolist()]


def _apportion_rows(totals: Sequence[int], weights: Sequence[float]) -> np.ndarray:
    """:func:`apportion` of every total at once, as a ``(P, M)`` float
    counts matrix with one row per already checked total."""
    values = [float(v) for v in weights]
    if not values or any(v < 0 or not math.isfinite(v) for v in values):
        raise ValueError("weights must be nonnegative and finite")
    scale = math.fsum(values)
    if scale <= 0:
        raise ValueError("weights must not all be zero")
    totals = np.array(totals, dtype=float)
    return _largest_remainder(totals[:, None] * np.array(values) / scale, totals)


def default_worker_types(counts: Sequence[int] | None = None) -> list[WorkerType]:
    """The bundled ten-type catalog with the given headcounts."""
    if counts is None:
        counts = apportion(1400, [1.0] * len(DEFAULT_TYPE_PARAMS))
    if len(counts) != len(DEFAULT_TYPE_PARAMS):
        raise ValueError(
            f"expected {len(DEFAULT_TYPE_PARAMS)} counts, got {len(counts)}"
        )
    return [
        _worker_row(i + 1, (*params, count))
        for i, (params, count) in enumerate(zip(DEFAULT_TYPE_PARAMS, counts))
    ]


def default_population(total: int = 1400) -> Population:
    """The bundled catalog apportioned evenly to ``total`` workers."""
    counts = apportion(total, [1.0] * len(DEFAULT_TYPE_PARAMS))
    return build_population(default_worker_types(counts))


@functools.cache
def _default_catalog() -> Population:
    """The 1400-worker catalog every default spec shares: a population
    is frozen and its columns are read-only."""
    return default_population(1400)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to run a sweep reproducibly.

    ``n_sweep`` lists the total worker counts to visit;
    ``type_probabilities`` (aligned with the population's type ids)
    both weighs the apportionment and drives the sampled-headcount
    experiment, defaulting to uniform.
    """

    name: str = "custom"
    population: Population = field(default_factory=_default_catalog)
    gamma_time: float = 2000.0
    gamma_pay: float = 1.0
    total_rows: float = 1000.0
    n_sweep: tuple[int, ...] = tuple(range(100, 5001, 100))
    replications: int = 200
    seed: int = 0
    type_probabilities: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ConfigurationError(f"unknown experiment name {self.name!r}")
        sweep = tuple(_whole(n, "a sweep's worker count", 1) for n in self.n_sweep)
        if not sweep:
            raise ConfigurationError("sweep must list positive worker counts")
        object.__setattr__(self, "n_sweep", sweep)
        for name, least in (("replications", 1), ("seed", 0)):
            object.__setattr__(self, name, _whole(getattr(self, name), name, least))
        try:
            self.platform_config()
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
        if self.type_probabilities is not None:
            probs = tuple(float(p) for p in self.type_probabilities)
            object.__setattr__(self, "type_probabilities", probs)
            if len(probs) != self.population.size:
                raise ConfigurationError(
                    f"{self.population.size} types but {len(probs)} probabilities"
                )
            if any(not (0 <= p < math.inf) for p in probs):
                raise ConfigurationError("probabilities must be nonnegative and finite")
            if abs(math.fsum(probs) - 1.0) > 1e-9:
                raise ConfigurationError("probabilities must sum to 1")
            try:  # the bounds fig7's multinomial draw puts on them
                np.random.default_rng(0).multinomial(0, probs)
            except ValueError as exc:
                raise ConfigurationError(f"probabilities: {exc}") from exc

    def platform_config(self) -> PlatformConfig:
        """The platform valuations and workload the solvers take."""
        return PlatformConfig(
            gamma_time=self.gamma_time,
            gamma_pay=self.gamma_pay,
            total_rows=self.total_rows,
        )

    def weights(self) -> tuple[float, ...]:
        if self.type_probabilities is not None:
            return self.type_probabilities
        return tuple([1.0] * self.population.size)

    def to_metadata(self) -> dict[str, str]:
        """Metadata echo from which :meth:`from_metadata` rebuilds this
        spec bit-exactly (floats serialized via repr)."""
        from . import __version__  # the package defines it after importing us

        pop = self.population
        columns = (pop.cost_rate, pop.speed, pop.startup, pop.counts.astype(int))
        return {
            "name": self.name,
            "version": __version__,
            "population": ";".join(
                ",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns))
            ),
            **{
                key: write(getattr(self, attr))
                for key, (attr, _, write) in _SETTINGS.items()
            },
        }

    @classmethod
    def from_metadata(cls, meta: Mapping[str, str]) -> "ExperimentSpec":
        try:
            rows = [
                _worker_row(i + 1, chunk.split(","))
                for i, chunk in enumerate(meta["population"].split(";"))
            ]
            return cls(
                name=meta["name"],
                population=build_population(rows),
                **{attr: parse(meta[k]) for k, (attr, parse, _) in _SETTINGS.items()},
            )
        except (KeyError, ValueError, ArithmeticError) as exc:
            raise ConfigurationError(f"invalid metadata: {exc}") from exc


@dataclass(frozen=True, eq=False)
class ResultTable:
    """Rectangular sweep results plus the metadata to re-run them.

    Every value is finite: a non-finite one raises NumericalError.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    metadata: dict[str, str]

    def __post_init__(self):
        if set(map(len, self.rows)) - {len(self.columns)}:
            raise ValueError("every row must match the column count")
        if not all(map(math.isfinite, chain.from_iterable(self.rows))):
            raise NumericalError("a sweep value overflows to a non-finite number")

    def column(self, name: str) -> list[float]:
        if name not in self.columns:
            raise ValueError(f"unknown column {name!r}")
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def to_csv(self) -> str:
        """Comment-prefixed metadata, a header line, then one line per
        row at 17 significant digits."""
        lines = [f"# {key} = {value}" for key, value in self.metadata.items()]
        lines.append(",".join(self.columns))
        line = ",".join(["%.17g"] * len(self.columns)) + "\n"
        body = "".join([line] * len(self.rows)) % tuple(chain.from_iterable(self.rows))
        return "\n".join(lines) + "\n" + body


_SWEEP_COLUMNS = (
    "N",
    "targeted_complete",
    "targeted_incomplete",
    "cost_complete",
    "cost_incomplete",
    "gap",
)


def _sweep_table(spec: ExperimentSpec, columns: Sequence[str]) -> ResultTable:
    """The selected columns of the deterministic sweep: the complete-
    and private-cost offers made on every point in one batched pass,
    and priced in one more only if a cost or the gap is selected."""
    counts = _apportion_rows(spec.n_sweep, spec.weights())
    pop = spec.population
    cfg = spec.platform_config()
    complete, private = (
        rule(counts, pop, cfg)[:3] for rule in (_complete_offers, _private_offers)
    )
    table: dict[str, list[float]] = {
        "N": [float(n) for n in spec.n_sweep],
        "targeted_complete": complete[0].astype(float).tolist(),
        "targeted_incomplete": private[0].astype(float).tolist(),
    }
    if any(name not in table for name in columns):
        # A cost or the gap is selected: both scenarios' rows are priced
        # stacked, complete above private.
        thresholds, runtimes, rewards = map(np.concatenate, zip(complete, private))
        stacked = np.concatenate((counts, counts))
        costs = _prefix_costs(stacked, thresholds, rewards, cfg, runtimes)
        complete_costs, private_costs = np.split(costs, 2)
        table["cost_complete"] = complete_costs.tolist()
        table["cost_incomplete"] = private_costs.tolist()
        table["gap"] = (private_costs - complete_costs).tolist()
    return ResultTable(
        columns=tuple(columns),
        rows=tuple(zip(*(table[name] for name in columns))),
        metadata=spec.to_metadata(),
    )


def run_fig4(spec: ExperimentSpec) -> ResultTable:
    """Targeted type counts under both information scenarios, per N."""
    return _sweep_table(spec, _SWEEP_COLUMNS[:3])


def run_fig5(spec: ExperimentSpec) -> ResultTable:
    """Expected platform cost under both information scenarios and the
    cost of hiding, per N."""
    return _sweep_table(spec, ("N",) + _SWEEP_COLUMNS[3:])


def run_fig6(spec: ExperimentSpec) -> ResultTable:
    """Per-type expected payoffs under the private-cost offer, per N:
    each type's best response, with types that decline reported at
    payoff zero."""
    pop = spec.population
    counts = _apportion_rows(spec.n_sweep, spec.weights())
    offers = _private_offers(counts, pop, spec.platform_config())[:3]
    payoffs = _best_payoffs(*offers, pop)
    return ResultTable(
        columns=("N",) + tuple(f"payoff_type_{m}" for m in pop.ids),
        rows=tuple(
            (float(total), *row)
            for total, row in zip(spec.n_sweep, payoffs.tolist())
        ),
        metadata=spec.to_metadata(),
    )


def run_fig7(spec: ExperimentSpec) -> ResultTable:
    """Cost penalty when only the type distribution is known, per N.

    The platform commits to the offer built from expected headcounts;
    each replicate samples realized headcounts, prices the committed
    offer on them, and compares against the offer it would have built
    knowing the realization.  Reported as mean gap with its standard
    error.  A point's replicates are the rows of one multinomial draw on
    ``SeedSequence([seed, N])``, all priced in one batched pass.
    """
    cfg = spec.platform_config()
    pop = spec.population
    if spec.type_probabilities is None:
        probs = np.full(pop.size, 1.0 / pop.size)
    else:
        probs = np.asarray(spec.type_probabilities, dtype=float)
    rows = []
    for total in spec.n_sweep:
        committed = solve_incomplete(
            pop.with_counts(apportion(total, spec.weights())), cfg
        )
        realized = np.random.default_rng(
            np.random.SeedSequence([spec.seed, total])
        ).multinomial(total, probs, size=spec.replications).astype(float)
        thresholds, runtimes, rewards, _ = _private_offers(realized, pop, cfg)
        # A replicate whose informed threshold is the committed one already
        # has the committed prefix's runtime.  Only the others are priced
        # anew; they include every empty committed prefix, since the
        # informed prefix always has workers.
        committed_thresholds = np.full(spec.replications, committed.threshold_type)
        committed_runtimes = runtimes.copy()
        moved = np.flatnonzero(thresholds != committed.threshold_type)
        if moved.size:
            committed_runtimes[moved] = expected_runtimes_hetero(
                realized[moved], pop, committed_thresholds[moved], cfg.total_rows
            )
        # The committed and informed rows stacked, committed above.
        costs = _prefix_costs(
            np.concatenate((realized, realized)),
            np.concatenate((committed_thresholds, thresholds)),
            np.concatenate((np.broadcast_to(committed.rewards, rewards.shape), rewards)),
            cfg,
            np.concatenate((committed_runtimes, runtimes)),
        )
        committed_costs, informed_costs = np.split(costs, 2)
        # An overflowing statistic is left to the result table's check.
        with np.errstate(all="ignore"):
            gap_mean, gap_stderr = _mean_and_stderr(committed_costs - informed_costs)
            rows.append(
                (
                    float(total),
                    gap_mean,
                    gap_stderr,
                    float(committed_costs.sum() / spec.replications),
                    float(informed_costs.sum() / spec.replications),
                )
            )
    return ResultTable(
        columns=(
            "N",
            "gap_mean",
            "gap_stderr",
            "cost_committed_mean",
            "cost_informed_mean",
        ),
        rows=tuple(rows),
        metadata=spec.to_metadata(),
    )


def _mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
    """``np.mean(values)`` and ``np.std(values, ddof=1) / sqrt(R)`` (0.0
    for one value) of ``R`` values, bit for bit: the same reductions and
    divisions without NumPy's generic wrappers around them.  ``np.mean``
    is likewise ``values.sum() / R``."""
    count = values.size
    mean = values.sum(keepdims=True) / count
    if count == 1:
        return mean.item(), 0.0
    deviation = values - mean
    deviation *= deviation
    return mean.item(), math.sqrt(deviation.sum() / (count - 1)) / math.sqrt(count)


def run_custom(spec: ExperimentSpec) -> ResultTable:
    """Combined deterministic sweep: targeted counts, costs, and gap."""
    return _sweep_table(spec, _SWEEP_COLUMNS)


# Each experiment name once, with the sweep it runs.
_SWEEPS = {"fig4": run_fig4, "fig5": run_fig5, "fig6": run_fig6,
           "fig7": run_fig7, "custom": run_custom}
EXPERIMENT_NAMES = tuple(_SWEEPS)


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    """Dispatch a spec to its sweep by name."""
    return _SWEEPS[spec.name](spec)


def load_config(path: str) -> ExperimentSpec:
    """Parse an experiment configuration file.

    Population rows are `cost speed startup count`, one type per line;
    `key = value` lines set gamma_time, gamma_pay, total_rows, sweep
    (either `start:stop:step` or comma-separated), replications, seed,
    or probabilities (comma-separated, aligned with the population
    rows, or `uniform`), parsed as CSV metadata is.  `#` starts a
    comment.  Omitted settings fall back to the defaults; an omitted
    population falls back to the bundled catalog.  Numbers must be
    finite, and a population row whose performance profile cannot be
    derived is an error naming its file and line; a setting that parses
    but that :class:`ExperimentSpec` refuses is an error naming its file.
    """
    rows: list[WorkerType] = []
    lines: list[int] = []
    settings: dict[str, object] = {}
    for line_no, text in _text_lines(path):
        key, setting, value = text.partition("=")
        key = key.strip().lower().replace("-", "_")
        if setting and key not in _SETTINGS:
            raise ConfigurationError(
                f"{path}:{line_no}: unknown setting {key!r} "
                f"(expected one of {', '.join(_SETTINGS)})"
            )
        try:
            if setting:
                attr, parse, _ = _SETTINGS[key]
                settings[attr] = parse(value.strip())
            else:
                rows.append(_worker_row(len(rows) + 1, text.split()))
                lines.append(line_no)
        except (ValueError, ArithmeticError) as exc:
            raise ConfigurationError(f"{path}:{line_no}: {exc}") from exc
    rows = rows or default_worker_types()
    try:
        order, population = _ranked_population(_profile_columns(rows))
    except (ValueError, ArithmeticError):  # name the first row that fails alone
        for line_no, worker in zip(lines, rows):
            try:
                derive_profile(worker)
            except (ValueError, ArithmeticError) as exc:
                raise ConfigurationError(f"{path}:{line_no}: {exc}") from exc
        raise
    probs = settings.get("type_probabilities")
    if probs is not None:
        if len(probs) != len(rows):
            raise ConfigurationError(
                f"{path}: {len(rows)} population rows but {len(probs)} probabilities"
            )
        settings["type_probabilities"] = tuple(probs[i] for i in order)
    try:
        return ExperimentSpec(population=population, **settings)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
