"""Benchmark sweeps, configuration files, and CSV result tables.

A sweep re-solves the platform's offer while the total worker count N
grows, holding the per-type mix fixed.  The bundled default catalog is
a ten-type mixed population; headcounts are apportioned to N by
largest-remainder rounding.  Result tables carry enough metadata to be
re-run bit-exactly.
"""

from __future__ import annotations

import importlib.metadata
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .coding import _text_lines
from .errors import ConfigurationError
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
from .numerics import _largest_remainder
from .workers import (
    Population,
    WorkerType,
    build_population,
    derive_profile,
    population_order,
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

try:
    _VERSION = importlib.metadata.version("coded-incentives")
except importlib.metadata.PackageNotFoundError:
    _VERSION = "0+unknown"

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

EXPERIMENT_NAMES = ("fig4", "fig5", "fig6", "fig7", "custom")

_SETTING_KEYS = (
    "gamma_time",
    "gamma_pay",
    "total_rows",
    "sweep",
    "replications",
    "seed",
    "probabilities",
)


def apportion(total: int, weights: Sequence[float]) -> list[int]:
    """Split ``total`` across bins proportionally to ``weights``.

    Largest-remainder rounding: every bin gets the floor of its quota,
    then the largest fractional parts absorb the shortfall, ties going
    to the lower index.  The result always sums to ``total``.
    """
    return [int(c) for c in _apportion_rows([total], weights)[0].tolist()]


def _apportion_rows(totals: Sequence[int], weights: Sequence[float]) -> np.ndarray:
    """:func:`apportion` of every total at once, as a ``(P, M)`` float
    counts matrix with one row per total."""
    if any(not isinstance(t, int) or t < 0 for t in totals):
        raise ValueError(f"totals must be nonnegative integers, got {totals!r}")
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
        WorkerType(
            id=i + 1, cost_rate=c, speed=mu, startup=a, count=int(count)
        )
        for i, ((c, mu, a), count) in enumerate(
            zip(DEFAULT_TYPE_PARAMS, counts)
        )
    ]


def default_population(total: int = 1400) -> Population:
    """The bundled catalog apportioned evenly to ``total`` workers."""
    counts = apportion(total, [1.0] * len(DEFAULT_TYPE_PARAMS))
    return build_population(default_worker_types(counts))


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to run a sweep reproducibly.

    ``n_sweep`` lists the total worker counts to visit;
    ``type_probabilities`` (aligned with the population's type ids)
    both weighs the apportionment and drives the sampled-headcount
    experiment, defaulting to uniform.
    """

    name: str = "custom"
    population: Population = field(
        default_factory=lambda: default_population(1400)
    )
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
        object.__setattr__(self, "n_sweep", tuple(int(n) for n in self.n_sweep))
        if not self.n_sweep or any(n < 1 for n in self.n_sweep):
            raise ConfigurationError("sweep must list positive worker counts")
        if not (0 <= self.gamma_time < math.inf and 0 <= self.gamma_pay < math.inf):
            raise ConfigurationError("valuation weights must be nonnegative and finite")
        if not 0 < self.total_rows < math.inf:
            raise ConfigurationError("total_rows must be positive and finite")
        if not isinstance(self.replications, int) or self.replications < 1:
            raise ConfigurationError("replications must be a positive integer")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigurationError("seed must be a nonnegative integer")
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
        pop = self.population
        columns = (pop.cost_rate, pop.speed, pop.startup, pop.counts.astype(int))
        return {
            "name": self.name,
            "version": _VERSION,
            "population": ";".join(
                f"{cost!r},{speed!r},{startup!r},{count}"
                for cost, speed, startup, count in zip(*(c.tolist() for c in columns))
            ),
            "gamma_time": repr(self.gamma_time),
            "gamma_pay": repr(self.gamma_pay),
            "total_rows": repr(self.total_rows),
            "sweep": ",".join(str(n) for n in self.n_sweep),
            "replications": str(self.replications),
            "seed": str(self.seed),
            "probabilities": (
                "uniform"
                if self.type_probabilities is None
                else ",".join(repr(p) for p in self.type_probabilities)
            ),
        }

    @classmethod
    def from_metadata(cls, meta: Mapping[str, str]) -> "ExperimentSpec":
        try:
            raw = []
            for i, chunk in enumerate(meta["population"].split(";")):
                cost, speed, startup, count = chunk.split(",")
                raw.append(
                    WorkerType(
                        id=i + 1,
                        cost_rate=float(cost),
                        speed=float(speed),
                        startup=float(startup),
                        count=int(count),
                    )
                )
            probs_text = meta["probabilities"]
            return cls(
                name=meta["name"],
                population=build_population(raw),
                gamma_time=float(meta["gamma_time"]),
                gamma_pay=float(meta["gamma_pay"]),
                total_rows=float(meta["total_rows"]),
                n_sweep=tuple(int(n) for n in meta["sweep"].split(",")),
                replications=int(meta["replications"]),
                seed=int(meta["seed"]),
                type_probabilities=(
                    None
                    if probs_text == "uniform"
                    else tuple(float(p) for p in probs_text.split(","))
                ),
            )
        except (KeyError, ValueError) as exc:
            raise ConfigurationError(f"invalid metadata: {exc}") from exc


@dataclass(frozen=True, eq=False)
class ResultTable:
    """Rectangular sweep results plus the metadata to re-run them."""

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    metadata: dict[str, str]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("every row must match the column count")

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
        lines.extend(
            ",".join(format(value, ".17g") for value in row)
            for row in self.rows
        )
        return "\n".join(lines) + "\n"


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
    and private-cost offers priced on every point in one batched pass."""
    counts = _apportion_rows(spec.n_sweep, spec.weights())
    pop = spec.population
    cfg = spec.platform_config()
    table: dict[str, list[float]] = {"N": [float(n) for n in spec.n_sweep]}
    for scenario, rule in (
        ("complete", _complete_offers),
        ("incomplete", _private_offers),
    ):
        thresholds, runtimes, rewards = rule(counts, pop, cfg)
        table[f"targeted_{scenario}"] = thresholds.astype(float).tolist()
        table[f"cost_{scenario}"] = _prefix_costs(
            counts, thresholds, rewards, pop, cfg, runtimes
        )
    table["gap"] = [
        incomplete - complete
        for complete, incomplete in zip(
            table["cost_complete"], table["cost_incomplete"]
        )
    ]
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
    offers = _private_offers(counts, pop, spec.platform_config())
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
    error.  All replicates of a point are priced in one batched pass.
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
        realized = np.array(
            [
                np.random.default_rng(
                    np.random.SeedSequence([spec.seed, total, rep])
                ).multinomial(total, probs)
                for rep in range(spec.replications)
            ],
            dtype=float,
        )
        committed_costs = np.array(
            _prefix_costs(
                realized,
                np.full(spec.replications, committed.threshold_type),
                [committed.rewards[m] for m in pop.ids],
                pop,
                cfg,
            )
        )
        thresholds, runtimes, rewards = _private_offers(realized, pop, cfg)
        informed_costs = np.array(
            _prefix_costs(realized, thresholds, rewards, pop, cfg, runtimes)
        )
        gaps = committed_costs - informed_costs
        stderr = (
            float(np.std(gaps, ddof=1) / math.sqrt(spec.replications))
            if spec.replications > 1
            else 0.0
        )
        rows.append(
            (
                float(total),
                float(np.mean(gaps)),
                stderr,
                float(np.mean(committed_costs)),
                float(np.mean(informed_costs)),
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


def run_custom(spec: ExperimentSpec) -> ResultTable:
    """Combined deterministic sweep: targeted counts, costs, and gap."""
    return _sweep_table(spec, _SWEEP_COLUMNS)


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    """Dispatch a spec to its sweep by name."""
    runners = {
        "fig4": run_fig4,
        "fig5": run_fig5,
        "fig6": run_fig6,
        "fig7": run_fig7,
        "custom": run_custom,
    }
    return runners[spec.name](spec)


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


def load_config(path: str) -> ExperimentSpec:
    """Parse an experiment configuration file.

    Population rows are `cost speed startup count`, one type per line;
    `key = value` lines set gamma_time, gamma_pay, total_rows, sweep
    (either `start:stop:step` or comma-separated), replications, seed,
    or probabilities (comma-separated, aligned with the population
    rows).  `#` starts a comment.  Omitted settings fall back to the
    defaults; an omitted population falls back to the bundled catalog.
    Numbers must be finite, and a population row whose performance
    profile cannot be derived is an error naming its file and line.
    """
    raw_types: list[WorkerType] = []
    raw_probs: list[float] | None = None
    settings: dict[str, object] = {}
    for line_no, text in _text_lines(path):
        if "=" in text:
            key, _, value = text.partition("=")
            key = key.strip().lower().replace("-", "_")
            value = value.strip()
            if key not in _SETTING_KEYS:
                raise ConfigurationError(
                    f"{path}:{line_no}: unknown setting {key!r} "
                    f"(expected one of {', '.join(_SETTING_KEYS)})"
                )
            try:
                if key in ("gamma_time", "gamma_pay", "total_rows"):
                    settings[key] = float(value)
                elif key in ("replications", "seed"):
                    settings[key] = int(value)
                elif key == "sweep":
                    settings["n_sweep"] = _parse_sweep(value)
                else:
                    raw_probs = [float(p) for p in value.split(",")]
            except ValueError as exc:
                raise ConfigurationError(
                    f"{path}:{line_no}: {exc}"
                ) from exc
        else:
            tokens = text.split()
            if len(tokens) != 4:
                raise ConfigurationError(
                    f"{path}:{line_no}: population rows need "
                    f"`cost speed startup count`"
                )
            try:
                worker = WorkerType(
                    id=len(raw_types) + 1,
                    cost_rate=float(tokens[0]),
                    speed=float(tokens[1]),
                    startup=float(tokens[2]),
                    count=int(tokens[3]),
                )
                derive_profile(worker)
                raw_types.append(worker)
            except (ValueError, ArithmeticError) as exc:
                raise ConfigurationError(
                    f"{path}:{line_no}: {exc}"
                ) from exc
    if not raw_types:
        raw_types = default_worker_types()
    if raw_probs is not None:
        if len(raw_probs) != len(raw_types):
            raise ConfigurationError(
                f"{path}: {len(raw_types)} population rows but "
                f"{len(raw_probs)} probabilities"
            )
        order = population_order(raw_types)
        settings["type_probabilities"] = tuple(raw_probs[i] for i in order)
    return ExperimentSpec(population=build_population(raw_types), **settings)
