"""Platform-side solvers for the three information scenarios.

The platform announces a targeted set of worker types, per-type
expected rewards, and loads, trading expected overall runtime against
total payment.  Sorting types by cost-performance ratio reduces the
combinatorial selection to a threshold index:

* complete information: the platform observes every cost, pays each
  targeted type exactly its expected cost, and targets the largest
  prefix whose boundary ratio does not exceed the per-throughput cost
  of the prefix;
* incomplete information: costs are private, rewards must be
  proportional to throughput for truthfulness, and the prefix length
  minimizes runtime valuation per throughput plus the boundary ratio;
* cost-only heterogeneity: shared runtime distribution, uniform coded
  loads, a uniform reward, and a recovery threshold set to a fixed
  fraction of the participator count.

The two heterogeneous rules are written once over ``(R, M)`` counts
matrices, one row per headcount vector; the scalar solvers are their
one-row views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, InfeasibleError
from .numerics import mds_alpha, row_fsums
# No solver calls ``expected_runtime_hetero``; it stays imported because
# perfbench's traced runs wrap it by name in this module.
from .runtime import (
    SCHEME_MDS,
    LoadAssignment,
    assign_loads_hetero,
    expected_runtime_hetero,
    expected_runtime_mds,
    expected_runtimes_hetero,
)
from .workers import Population, WorkerType, build_population

__all__ = [
    "SCENARIO_COMPLETE",
    "SCENARIO_INCOMPLETE",
    "SCENARIO_COST_ONLY",
    "PlatformConfig",
    "Mechanism",
    "solve_complete",
    "solve_incomplete",
    "solve_cost_only",
    "platform_cost",
]

SCENARIO_COMPLETE = "complete-hetero"
SCENARIO_INCOMPLETE = "incomplete-hetero"
SCENARIO_COST_ONLY = "incomplete-cost-only"


@dataclass(frozen=True, slots=True)
class PlatformConfig:
    """Platform valuations and workload size.

    ``gamma_time`` weighs expected overall runtime, ``gamma_pay`` weighs
    total payment, ``total_rows`` is the per-round workload.  The
    solvers additionally require ``gamma_pay > 0``; the boundary
    ``gamma_pay = 0`` is accepted here so that pure-runtime cost
    evaluation remains expressible.
    """

    gamma_time: float
    gamma_pay: float
    total_rows: float

    def __post_init__(self):
        if not 0 <= self.gamma_time < math.inf:
            raise ValueError(
                f"gamma_time must be nonnegative and finite, got {self.gamma_time}"
            )
        if not 0 <= self.gamma_pay < math.inf:
            raise ValueError(
                f"gamma_pay must be nonnegative and finite, got {self.gamma_pay}"
            )
        if not 0 < self.total_rows < math.inf:
            raise ValueError(
                f"total_rows must be positive and finite, got {self.total_rows}"
            )


@dataclass(frozen=True)
class Mechanism:
    """A platform offer: targeted prefix, rewards for every type, loads,
    and the runtime the offer implies for participating workers.

    ``expected_runtime`` is the round runtime workers face when the
    targeted set participates; worker payoffs are measured against it.
    ``rewards`` is defined for all type ids (zero outside the targeted
    set under complete information).
    """

    scenario: str
    threshold_type: int
    rewards: Mapping[int, float]
    assignment: LoadAssignment
    expected_runtime: float
    expected_cost: float
    config: PlatformConfig

    @property
    def targeted(self) -> tuple[int, ...]:
        """The targeted type ids, the prefix ``1..threshold_type``."""
        return tuple(range(1, self.threshold_type + 1))

    @property
    def recovery_threshold(self) -> int | None:
        """The uniform scheme's recovery threshold k (None for others)."""
        return self.assignment.recovery_threshold

    def __post_init__(self):
        if self.scenario not in (
            SCENARIO_COMPLETE,
            SCENARIO_INCOMPLETE,
            SCENARIO_COST_ONLY,
        ):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if any(p < 0 for p in self.rewards.values()):
            raise ValueError("rewards must be nonnegative")


def _require_paying_config(cfg: PlatformConfig):
    if not cfg.gamma_pay > 0:
        raise ConfigurationError(
            "solvers require a positive payment valuation gamma_pay"
        )


def solve_complete(pop: Population, cfg: PlatformConfig) -> Mechanism:
    """Optimal offer when the platform observes every worker's cost.

    Targets the largest prefix whose boundary cost-performance ratio
    stays below the prefix's cost-per-throughput level, then pays each
    targeted type exactly its expected round cost, leaving zero payoff.
    """
    return _hetero_mechanism(SCENARIO_COMPLETE, _complete_offers, pop, cfg)


def solve_incomplete(pop: Population, cfg: PlatformConfig) -> Mechanism:
    """Optimal offer when costs are private.

    The prefix length minimizes runtime valuation per unit throughput
    plus the boundary cost-performance ratio; rewards are proportional
    to throughput for every type, scaled so the boundary type nets
    exactly zero.  Interior targeted types keep a positive information
    rent and types beyond the boundary cannot cover their costs.
    """
    return _hetero_mechanism(SCENARIO_INCOMPLETE, _private_offers, pop, cfg)


def _hetero_mechanism(
    scenario: str, rule, pop: Population, cfg: PlatformConfig
) -> Mechanism:
    """The offer the batched ``rule`` (:func:`_complete_offers` or
    :func:`_private_offers`) makes for ``pop``'s headcounts as one row."""
    counts = pop.counts[None, :]
    thresholds, runtimes, rewards = rule(counts, pop, cfg)
    threshold = int(thresholds[0])
    return Mechanism(
        scenario=scenario,
        threshold_type=threshold,
        rewards=dict(zip(pop.ids, rewards[0].tolist())),
        assignment=assign_loads_hetero(pop, range(1, threshold + 1), cfg.total_rows),
        expected_runtime=runtimes[0],
        expected_cost=_prefix_costs(counts, thresholds, rewards, pop, cfg, runtimes)[0],
        config=cfg,
    )


def _complete_offers(
    counts: np.ndarray, pop: Population, cfg: PlatformConfig
) -> tuple[np.ndarray, list[float], np.ndarray]:
    """Complete-information offer for each row of an ``(R, M)`` counts
    matrix over ``pop``'s types: threshold types, expected runtimes, and
    ``(R, M)`` per-type rewards (each targeted type's cost, zero beyond
    the threshold).

    The threshold is the largest populated prefix whose boundary ratio
    is at most ``(gamma_time + gamma_pay * prefix cost) / (gamma_pay *
    prefix throughput)``.
    """
    rates, cum_thru = _prefix_throughputs(counts, pop, cfg)
    populated = cum_thru > 0
    bound = np.divide(
        cfg.gamma_time + cfg.gamma_pay * (counts * pop.cost_rate).cumsum(axis=1),
        cfg.gamma_pay * cum_thru,
        out=np.full_like(cum_thru, -np.inf),
        where=populated,
    )
    holds = pop.ratio <= bound
    # The first populated prefix always satisfies its own inequality up
    # to rounding (it reduces to gamma_time >= 0), so the fallback to it
    # only guards against one-ulp misses when gamma_time is zero.
    size = counts.shape[1]
    thresholds = np.where(
        holds.any(axis=1),
        size - holds[:, ::-1].argmax(axis=1),
        populated.argmax(axis=1) + 1,
    )
    targeted = _prefix_mask(thresholds, size)
    runtimes = expected_runtimes_hetero(rates.tolist(), targeted, cfg.total_rows)
    rewards = np.where(targeted, pop.cost_rate * np.array(runtimes)[:, None], 0.0)
    return thresholds, runtimes, rewards


def _private_offers(
    counts: np.ndarray, pop: Population, cfg: PlatformConfig
) -> tuple[np.ndarray, list[float], np.ndarray]:
    """Private-cost offer for each row of an ``(R, M)`` counts matrix
    over ``pop``'s types: threshold types, expected runtimes, and
    ``(R, M)`` per-type rewards.

    The threshold minimizes ``gamma_time / cumsum(counts * throughput)
    + gamma_pay * ratio`` over the populated prefixes; ``argmin`` takes
    the first minimum, so ties go to the shorter prefix.
    """
    rates, cum_thru = _prefix_throughputs(counts, pop, cfg)
    per_thru = np.divide(
        cfg.gamma_time,
        cum_thru,
        out=np.full_like(cum_thru, np.inf),
        where=cum_thru > 0,
    )
    thresholds = (per_thru + cfg.gamma_pay * pop.ratio).argmin(axis=1) + 1
    runtimes = expected_runtimes_hetero(
        rates.tolist(), _prefix_mask(thresholds, counts.shape[1]), cfg.total_rows
    )
    # Rewards proportional to throughput, grouped so the boundary type's
    # reward equals its cost bit-exactly and its payoff is exactly zero.
    boundary = thresholds - 1
    boundary_pay = pop.cost_rate[boundary] * np.array(runtimes)
    throughputs = pop.throughput
    rewards = (throughputs / throughputs[boundary][:, None]) * boundary_pay[:, None]
    return thresholds, runtimes, rewards


def _prefix_throughputs(
    counts: np.ndarray, pop: Population, cfg: PlatformConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per-type and cumulative prefix throughput of each counts row, the
    inputs both batched rules start from; a row without workers has no
    feasible offer."""
    _require_paying_config(cfg)
    rates = counts * pop.throughput
    cum_thru = rates.cumsum(axis=1)
    if not min(cum_thru[:, -1].tolist()) > 0:
        raise InfeasibleError("population has no workers")
    return rates, cum_thru


def _prefix_mask(thresholds: np.ndarray, size: int) -> list[list[bool]]:
    """``(R, size)`` mask of each row's targeted prefix ``1..threshold``."""
    return (np.arange(size) < thresholds[:, None]).tolist()


def _prefix_costs(
    counts: np.ndarray,
    thresholds: np.ndarray,
    rewards: np.ndarray | list[float],
    pop: Population,
    cfg: PlatformConfig,
    runtimes: list[float] | None = None,
) -> list[float]:
    """Platform cost of each counts row when its targeted prefix
    ``1..threshold`` is paid the per-type ``rewards`` (one row for all,
    or one row each) and finishes in the prefix's expected runtime.

    ``runtimes`` passes those runtimes when the caller already has them;
    omitted, they are the heterogeneous assignment's.  The cost-only
    scenario always passes its exact harmonic runtime.
    """
    targeted = _prefix_mask(thresholds, counts.shape[1])
    if runtimes is None:
        runtimes = expected_runtimes_hetero(
            (counts * pop.throughput).tolist(), targeted, cfg.total_rows
        )
    payments = row_fsums((counts * rewards).tolist(), targeted)
    return [
        cfg.gamma_time * runtime + cfg.gamma_pay * payment
        for runtime, payment in zip(runtimes, payments)
    ]


def solve_cost_only(
    types: Sequence[WorkerType], cfg: PlatformConfig
) -> Mechanism:
    """Optimal offer when types differ only in cost rate.

    All types share one runtime distribution, so the selection metric
    reduces to the cost rate.  The platform uses uniform coded loads
    ``rows / k`` with recovery threshold ``k`` set to the optimal
    fraction :func:`mds_alpha` of the participator count (rounded to
    the cheaper of floor and ceil under the exact runtime).  Every type
    gets one uniform reward: the boundary type's cost rate times the
    load ``rows / k`` times the shared row time ``lam`` of
    :func:`solve_lambda`.  This load times ``lam`` is the logarithmic
    runtime form ``(rows / k) * (a - log1p(-alpha) / mu)``, because
    ``-log1p(-alpha) = log1p(mu*lam) = mu*(lam - a)`` is the speed
    equation, so the reward leaves the boundary type at exactly zero
    payoff under that form.
    """
    # Takes records because perfbench/workloads.py and perfbench/baseline.py
    # call it with them; the CLI passes its population to _cost_only_offer.
    return _cost_only_offer(build_population(types), cfg)


def _cost_only_offer(pop: Population, cfg: PlatformConfig) -> Mechanism:
    """:func:`solve_cost_only` on an already built population."""
    _require_paying_config(cfg)
    if any(np.ptp(c) > 1e-12 * c.max() for c in (pop.speed, pop.startup)):
        raise ConfigurationError(
            "cost-only solver requires all types to share speed and startup"
        )
    if pop.total == 0:
        raise InfeasibleError("population has no workers")
    cum_counts = np.cumsum(pop.counts)
    # Per-participator cost of each populated prefix; ``argmin`` takes
    # the first minimum, so ties go to the shorter prefix.
    per_worker = np.divide(
        cfg.gamma_time + cfg.gamma_pay * pop.cost_rate * cum_counts,
        cum_counts,
        out=np.full_like(cum_counts, np.inf),
        where=cum_counts > 0,
    )
    threshold = int(per_worker.argmin()) + 1
    participators = int(cum_counts[threshold - 1])
    speed, startup = float(pop.speed[0]), float(pop.startup[0])
    fractional_k = mds_alpha(speed, startup) * participators
    # Exact runtime of the floor and ceil thresholds; ties go to the floor.
    exact = {
        k: expected_runtime_mds(
            participators, k, cfg.total_rows, speed, startup
        ).expected_runtime
        for k in sorted(
            min(max(int(rounded(fractional_k)), 1), participators)
            for rounded in (math.floor, math.ceil)
        )
    }
    recovery = min(exact, key=exact.__getitem__)
    worker_runtime = (cfg.total_rows / recovery) * float(pop.row_time[0])
    reward = float(pop.cost_rate[threshold - 1] * worker_runtime)
    return Mechanism(
        scenario=SCENARIO_COST_ONLY,
        threshold_type=threshold,
        rewards={m: reward for m in pop.ids},
        assignment=LoadAssignment(
            loads={m: cfg.total_rows / recovery for m in range(1, threshold + 1)},
            total_rows=cfg.total_rows,
            scheme=SCHEME_MDS,
            recovery_threshold=recovery,
        ),
        expected_runtime=worker_runtime,
        expected_cost=_prefix_costs(
            pop.counts[None, :],
            np.array([threshold]),
            [reward] * pop.size,
            pop,
            cfg,
            [exact[recovery]],
        )[0],
        config=cfg,
    )


def platform_cost(mech: Mechanism, pop: Population, cfg: PlatformConfig) -> float:
    """Re-evaluate the platform objective from first principles.

    Runtime valuation times the scenario's expected runtime plus
    payment valuation times the total expected payment to targeted
    workers.  The cost-only scenario uses the exact harmonic runtime.
    """
    if mech.threshold_type > pop.size:
        raise ConfigurationError("mechanism targets types absent from population")
    if any(m not in mech.rewards for m in mech.targeted):
        raise ConfigurationError("mechanism lacks rewards for targeted types")
    runtimes = None
    if mech.scenario == SCENARIO_COST_ONLY:
        if mech.recovery_threshold is None:
            raise ConfigurationError("cost-only mechanism lacks recovery threshold")
        participators = int(sum(pop.counts[: mech.threshold_type].tolist()))
        if participators < mech.recovery_threshold:
            raise InfeasibleError(
                "fewer participators than the recovery threshold"
            )
        speed, startup = float(pop.speed[0]), float(pop.startup[0])
        runtimes = [
            expected_runtime_mds(
                participators, mech.recovery_threshold, cfg.total_rows, speed, startup
            ).expected_runtime
        ]
    return _prefix_costs(
        pop.counts[None, :],
        np.array([mech.threshold_type]),
        [mech.rewards.get(m, 0.0) for m in pop.ids],
        pop,
        cfg,
        runtimes,
    )[0]
