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

from .errors import ConfigurationError
from .game import best_response
from .mechanisms import (
    PlatformConfig,
    _hetero_costs,
    _private_offers,
    solve_complete,
    solve_incomplete,
)
from .workers import (
    Population,
    WorkerType,
    build_population,
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
    if not isinstance(total, int) or total < 0:
        raise ValueError(f"total must be a nonnegative integer, got {total!r}")
    values = [float(v) for v in weights]
    if not values or any(v < 0 or not math.isfinite(v) for v in values):
        raise ValueError("weights must be nonnegative and finite")
    scale = math.fsum(values)
    if scale <= 0:
        raise ValueError("weights must not all be zero")
    quotas = [total * v / scale for v in values]
    base = [math.floor(q) for q in quotas]
    deficit = total - sum(base)
    order = sorted(range(len(values)), key=lambda i: (base[i] - quotas[i], i))
    for i in order[:deficit]:
        base[i] += 1
    return base


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
        if self.gamma_time < 0 or self.gamma_pay < 0:
            raise ConfigurationError("valuation weights must be nonnegative")
        if not self.total_rows > 0:
            raise ConfigurationError("total_rows must be positive")
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
            if any(p < 0 for p in probs):
                raise ConfigurationError("probabilities must be nonnegative")
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
        return {
            "name": self.name,
            "version": _VERSION,
            "population": ";".join(
                f"{t.cost_rate!r},{t.speed!r},{t.startup!r},{t.count}"
                for t, _ in self.population.types
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


def _population_at(spec: ExperimentSpec, total: int) -> Population:
    return spec.population.with_counts(apportion(total, spec.weights()))


def run_fig4(spec: ExperimentSpec) -> ResultTable:
    """Targeted type counts under both information scenarios, per N."""
    cfg = spec.platform_config()
    rows = []
    for total in spec.n_sweep:
        pop = _population_at(spec, total)
        rows.append(
            (
                float(total),
                float(solve_complete(pop, cfg).threshold_type),
                float(solve_incomplete(pop, cfg).threshold_type),
            )
        )
    return ResultTable(
        columns=("N", "targeted_complete", "targeted_incomplete"),
        rows=tuple(rows),
        metadata=spec.to_metadata(),
    )


def run_fig5(spec: ExperimentSpec) -> ResultTable:
    """Expected platform cost under both information scenarios and the
    cost of hiding, per N."""
    cfg = spec.platform_config()
    rows = []
    for total in spec.n_sweep:
        pop = _population_at(spec, total)
        complete = solve_complete(pop, cfg).expected_cost
        incomplete = solve_incomplete(pop, cfg).expected_cost
        rows.append(
            (float(total), complete, incomplete, incomplete - complete)
        )
    return ResultTable(
        columns=("N", "cost_complete", "cost_incomplete", "gap"),
        rows=tuple(rows),
        metadata=spec.to_metadata(),
    )


def run_fig6(spec: ExperimentSpec) -> ResultTable:
    """Per-type expected payoffs under the private-cost offer, per N.

    Types that decline are reported at payoff zero.
    """
    cfg = spec.platform_config()
    columns = ["N"] + [f"payoff_type_{m}" for m in spec.population.ids]
    rows = []
    for total in spec.n_sweep:
        pop = _population_at(spec, total)
        mech = solve_incomplete(pop, cfg)
        rows.append(
            tuple(
                [float(total)]
                + [
                    best_response(m, mech, pop).expected_payoff
                    for m in pop.ids
                ]
            )
        )
    return ResultTable(
        columns=tuple(columns), rows=tuple(rows), metadata=spec.to_metadata()
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
    _, costs, throughputs, ratios = spec.population.arrays()
    if spec.type_probabilities is None:
        probs = np.full(spec.population.size, 1.0 / spec.population.size)
    else:
        probs = np.asarray(spec.type_probabilities, dtype=float)
    rows = []
    for total in spec.n_sweep:
        committed = solve_incomplete(_population_at(spec, total), cfg)
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
            _hetero_costs(
                realized,
                np.full(spec.replications, committed.threshold_type),
                [committed.rewards[m] for m in spec.population.ids],
                throughputs,
                cfg,
            )
        )
        thresholds, runtimes, rewards = _private_offers(
            realized, costs, throughputs, ratios, cfg
        )
        informed_costs = np.array(
            _hetero_costs(realized, thresholds, rewards, throughputs, cfg, runtimes)
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
    cfg = spec.platform_config()
    rows = []
    for total in spec.n_sweep:
        pop = _population_at(spec, total)
        com = solve_complete(pop, cfg)
        inc = solve_incomplete(pop, cfg)
        rows.append(
            (
                float(total),
                float(com.threshold_type),
                float(inc.threshold_type),
                com.expected_cost,
                inc.expected_cost,
                inc.expected_cost - com.expected_cost,
            )
        )
    return ResultTable(
        columns=(
            "N",
            "targeted_complete",
            "targeted_incomplete",
            "cost_complete",
            "cost_incomplete",
            "gap",
        ),
        rows=tuple(rows),
        metadata=spec.to_metadata(),
    )


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
    """
    raw_types: list[WorkerType] = []
    raw_probs: list[float] | None = None
    settings: dict[str, object] = {}
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    with handle:
        for line_no, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
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
                    raw_types.append(
                        WorkerType(
                            id=len(raw_types) + 1,
                            cost_rate=float(tokens[0]),
                            speed=float(tokens[1]),
                            startup=float(tokens[2]),
                            count=int(tokens[3]),
                        )
                    )
                except ValueError as exc:
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
