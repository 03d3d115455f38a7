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

``brute_force_complete`` enumerates every nonempty subset as an oracle
for the complete-information threshold rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, InfeasibleError
from .numerics import mds_alpha, row_fsums
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
    "brute_force_complete",
    "solve_incomplete",
    "solve_cost_only",
    "platform_cost",
    "order_reward_schedule",
]

SCENARIO_COMPLETE = "complete-hetero"
SCENARIO_INCOMPLETE = "incomplete-hetero"
SCENARIO_COST_ONLY = "incomplete-cost-only"

_BRUTE_FORCE_LIMIT = 20


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
        if self.gamma_time < 0:
            raise ValueError(f"gamma_time must be nonnegative, got {self.gamma_time}")
        if self.gamma_pay < 0:
            raise ValueError(f"gamma_pay must be nonnegative, got {self.gamma_pay}")
        if not self.total_rows > 0:
            raise ValueError(f"total_rows must be positive, got {self.total_rows}")


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
    targeted: tuple[int, ...]
    threshold_type: int
    rewards: Mapping[int, float]
    assignment: LoadAssignment
    expected_runtime: float
    expected_cost: float
    config: PlatformConfig
    recovery_threshold: int | None = None

    def __post_init__(self):
        if self.scenario not in (
            SCENARIO_COMPLETE,
            SCENARIO_INCOMPLETE,
            SCENARIO_COST_ONLY,
        ):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.targeted != tuple(range(1, self.threshold_type + 1)):
            raise ValueError("targeted set must be the prefix 1..threshold_type")
        if any(p < 0 for p in self.rewards.values()):
            raise ValueError("rewards must be nonnegative")


def _require_paying_config(cfg: PlatformConfig):
    if not cfg.gamma_pay > 0:
        raise ConfigurationError(
            "solvers require a positive payment valuation gamma_pay"
        )


def _prefix_sums(pop: Population):
    counts, costs, throughputs, ratios = pop.arrays()
    return (
        counts,
        costs,
        throughputs,
        ratios,
        np.cumsum(counts * costs),
        np.cumsum(counts * throughputs),
    )


def solve_complete(pop: Population, cfg: PlatformConfig) -> Mechanism:
    """Optimal offer when the platform observes every worker's cost.

    Targets the largest prefix whose boundary cost-performance ratio
    stays below the prefix's cost-per-throughput level, then pays each
    targeted type exactly its expected round cost, leaving zero payoff.
    """
    _require_paying_config(cfg)
    if pop.total == 0:
        raise InfeasibleError("population has no workers")
    counts, costs, throughputs, ratios, cum_cost, cum_thru = _prefix_sums(pop)
    threshold = 0
    for n in range(1, pop.size + 1):
        if cum_thru[n - 1] <= 0:
            continue
        bound = (cfg.gamma_time + cfg.gamma_pay * cum_cost[n - 1]) / (
            cfg.gamma_pay * cum_thru[n - 1]
        )
        if ratios[n - 1] <= bound:
            threshold = n
    if threshold == 0:
        # The first populated prefix always satisfies its own inequality
        # up to rounding (it reduces to gamma_time >= 0), so this only
        # guards against one-ulp misses when gamma_time is zero.
        threshold = next(
            n for n in range(1, pop.size + 1) if cum_thru[n - 1] > 0
        )
    targeted = tuple(range(1, threshold + 1))
    runtime = expected_runtime_hetero(pop, targeted, cfg.total_rows).expected_runtime
    rewards = [
        float(costs[m - 1] * runtime) if m <= threshold else 0.0 for m in pop.ids
    ]
    return Mechanism(
        scenario=SCENARIO_COMPLETE,
        targeted=targeted,
        threshold_type=threshold,
        rewards=dict(zip(pop.ids, rewards)),
        assignment=assign_loads_hetero(pop, targeted, cfg.total_rows),
        expected_runtime=runtime,
        expected_cost=_hetero_costs(
            counts[None, :], np.array([threshold]), rewards, throughputs, cfg, [runtime]
        )[0],
        config=cfg,
    )


def brute_force_complete(
    pop: Population, cfg: PlatformConfig
) -> tuple[tuple[int, ...], float]:
    """Exhaustive complete-information selection oracle.

    Evaluates the platform objective over every nonempty subset of
    types and returns the cheapest (ties resolve to the
    lexicographically smallest id tuple).  Guarded to small type counts
    because the enumeration is exponential.
    """
    _require_paying_config(cfg)
    m_count = pop.size
    if m_count > _BRUTE_FORCE_LIMIT:
        raise ConfigurationError(
            f"brute force limited to {_BRUTE_FORCE_LIMIT} types, got {m_count}"
        )
    counts, costs, throughputs, _, _, _ = _prefix_sums(pop)
    weighted_cost = counts * costs
    weighted_thru = counts * throughputs
    masks = np.arange(1, 2**m_count, dtype=np.int64)
    membership = (masks[:, None] >> np.arange(m_count)) & 1
    subset_cost = membership @ weighted_cost
    subset_thru = membership @ weighted_thru
    with np.errstate(divide="ignore"):
        objective = np.where(
            subset_thru > 0,
            (cfg.gamma_time + cfg.gamma_pay * subset_cost)
            * cfg.total_rows
            / subset_thru,
            np.inf,
        )
    best = float(np.min(objective))
    if not math.isfinite(best):
        raise InfeasibleError("population has no workers")
    tied = np.nonzero(objective == best)[0]
    subsets = [
        tuple(int(i) + 1 for i in range(m_count) if membership[j, i])
        for j in tied
    ]
    return min(subsets), best


def solve_incomplete(pop: Population, cfg: PlatformConfig) -> Mechanism:
    """Optimal offer when costs are private.

    The prefix length minimizes runtime valuation per unit throughput
    plus the boundary cost-performance ratio; rewards are proportional
    to throughput for every type, scaled so the boundary type nets
    exactly zero.  Interior targeted types keep a positive information
    rent and types beyond the boundary cannot cover their costs.
    """
    _require_paying_config(cfg)
    counts, costs, throughputs, ratios = pop.arrays()
    thresholds, runtimes, rewards = _private_offers(
        counts[None, :], costs, throughputs, ratios, cfg
    )
    threshold = int(thresholds[0])
    targeted = tuple(range(1, threshold + 1))
    return Mechanism(
        scenario=SCENARIO_INCOMPLETE,
        targeted=targeted,
        threshold_type=threshold,
        rewards=dict(zip(pop.ids, rewards[0].tolist())),
        assignment=assign_loads_hetero(pop, targeted, cfg.total_rows),
        expected_runtime=runtimes[0],
        expected_cost=_hetero_costs(
            counts[None, :], thresholds, rewards, throughputs, cfg, runtimes
        )[0],
        config=cfg,
    )


def _private_offers(
    counts: np.ndarray,
    costs: np.ndarray,
    throughputs: np.ndarray,
    ratios: np.ndarray,
    cfg: PlatformConfig,
) -> tuple[np.ndarray, list[float], np.ndarray]:
    """Private-cost offer for each row of an ``(R, M)`` counts matrix:
    threshold types, expected runtimes, and ``(R, M)`` per-type rewards.

    The threshold minimizes ``gamma_time / cumsum(counts * throughput)
    + gamma_pay * ratio`` over the populated prefixes; ``argmin`` takes
    the first minimum, so ties go to the shorter prefix.
    """
    rates = counts * throughputs
    cum_thru = rates.cumsum(axis=1)
    if not min(cum_thru[:, -1].tolist()) > 0:
        raise InfeasibleError("population has no workers")
    per_thru = np.divide(
        cfg.gamma_time,
        cum_thru,
        out=np.full_like(cum_thru, np.inf),
        where=cum_thru > 0,
    )
    thresholds = (per_thru + cfg.gamma_pay * ratios).argmin(axis=1) + 1
    runtimes = expected_runtimes_hetero(
        rates.tolist(), _prefix_mask(thresholds, counts.shape[1]), cfg.total_rows
    )
    # Rewards proportional to throughput, grouped so the boundary type's
    # reward equals its cost bit-exactly and its payoff is exactly zero.
    boundary = thresholds - 1
    boundary_pay = costs[boundary] * np.array(runtimes)
    rewards = (throughputs / throughputs[boundary][:, None]) * boundary_pay[:, None]
    return thresholds, runtimes, rewards


def _prefix_mask(thresholds: np.ndarray, size: int) -> list[list[bool]]:
    """``(R, size)`` mask of each row's targeted prefix ``1..threshold``."""
    return (np.arange(size) < thresholds[:, None]).tolist()


def _hetero_costs(
    counts: np.ndarray,
    thresholds: np.ndarray,
    rewards: np.ndarray | list[float],
    throughputs: np.ndarray,
    cfg: PlatformConfig,
    runtimes: list[float] | None = None,
) -> list[float]:
    """Platform cost of each counts row when its targeted prefix
    ``1..threshold`` is paid the per-type ``rewards`` (one row for all,
    or one row each) and finishes in the prefix's expected runtime.

    ``runtimes`` passes those runtimes when the caller already has them.
    """
    targeted = _prefix_mask(thresholds, counts.shape[1])
    if runtimes is None:
        runtimes = expected_runtimes_hetero(
            (counts * throughputs).tolist(), targeted, cfg.total_rows
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
    fraction of the participator count (rounded to the cheaper of floor
    and ceil under the exact runtime), and pays every type one uniform
    reward that leaves the boundary cost type at exactly zero payoff
    under the logarithmic runtime form the reward is built from.
    """
    _require_paying_config(cfg)
    types = list(types)
    if not types:
        raise ConfigurationError("cost-only solver needs at least one type")
    speeds = [t.speed for t in types]
    startups = [t.startup for t in types]
    if max(speeds) - min(speeds) > 1e-12 * max(speeds) or max(startups) - min(
        startups
    ) > 1e-12 * max(startups):
        raise ConfigurationError(
            "cost-only solver requires all types to share speed and startup"
        )
    pop = build_population(types)
    if pop.total == 0:
        raise InfeasibleError("population has no workers")
    counts, costs, _, _, _, _ = _prefix_sums(pop)
    cum_counts = np.cumsum(counts)
    best_value = math.inf
    threshold = 0
    for n in range(1, pop.size + 1):
        if cum_counts[n - 1] <= 0:
            continue
        value = (
            cfg.gamma_time + cfg.gamma_pay * costs[n - 1] * cum_counts[n - 1]
        ) / cum_counts[n - 1]
        if value < best_value:
            best_value = value
            threshold = n
    targeted = tuple(range(1, threshold + 1))
    participators = int(cum_counts[threshold - 1])
    speed = pop.member(1)[0].speed
    startup = pop.member(1)[0].startup
    alpha = mds_alpha(speed, startup)
    fractional_k = alpha * participators

    def exact_runtime(k: int) -> float:
        return expected_runtime_mds(
            participators, k, cfg.total_rows, speed, startup
        ).expected_runtime

    candidates = sorted(
        {
            min(max(int(math.floor(fractional_k)), 1), participators),
            min(max(int(math.ceil(fractional_k)), 1), participators),
        }
    )
    recovery = min(candidates, key=exact_runtime)
    worker_runtime = (cfg.total_rows / recovery) * (
        startup - math.log1p(-alpha) / speed
    )
    reward = float(costs[threshold - 1] * worker_runtime)
    rewards = {m: reward for m in pop.ids}
    assignment = LoadAssignment(
        loads={m: cfg.total_rows / recovery for m in targeted},
        total_rows=cfg.total_rows,
        scheme=SCHEME_MDS,
        recovery_threshold=recovery,
    )
    mech = Mechanism(
        scenario=SCENARIO_COST_ONLY,
        targeted=targeted,
        threshold_type=threshold,
        rewards=rewards,
        assignment=assignment,
        expected_runtime=worker_runtime,
        expected_cost=0.0,
        config=cfg,
        recovery_threshold=recovery,
    )
    return replace(mech, expected_cost=platform_cost(mech, pop, cfg))


def platform_cost(
    mech: Mechanism,
    pop: Population,
    cfg: PlatformConfig,
    runtime_model: str = "exact",
) -> float:
    """Re-evaluate the platform objective from first principles.

    Runtime valuation times the scenario's expected runtime plus
    payment valuation times the total expected payment to targeted
    workers.  For the cost-only scenario ``runtime_model`` selects the
    exact harmonic runtime (default) or the logarithmic approximation.
    """
    if runtime_model not in ("exact", "approx"):
        raise ValueError(f"unknown runtime_model {runtime_model!r}")
    known = set(pop.ids)
    if any(m not in known for m in mech.targeted):
        raise ConfigurationError("mechanism targets types absent from population")
    if any(m not in mech.rewards for m in mech.targeted):
        raise ConfigurationError("mechanism lacks rewards for targeted types")
    if mech.scenario == SCENARIO_COST_ONLY:
        if mech.recovery_threshold is None:
            raise ConfigurationError("cost-only mechanism lacks recovery threshold")
        participators = sum(pop.member(m)[0].count for m in mech.targeted)
        if participators < mech.recovery_threshold:
            raise InfeasibleError(
                "fewer participators than the recovery threshold"
            )
        speed = pop.member(mech.targeted[0])[0].speed
        startup = pop.member(mech.targeted[0])[0].startup
        estimate = expected_runtime_mds(
            participators, mech.recovery_threshold, cfg.total_rows, speed, startup
        )
        runtime = estimate.expected_runtime
        if runtime_model == "approx":
            if estimate.approx_runtime is None:
                raise NotImplementedError(
                    "logarithmic runtime undefined when every participator "
                    "must finish"
                )
            runtime = estimate.approx_runtime
        payment = math.fsum(
            pop.member(m)[0].count * mech.rewards[m] for m in mech.targeted
        )
        return cfg.gamma_time * runtime + cfg.gamma_pay * payment
    counts, _, throughputs, _ = pop.arrays()
    return _hetero_costs(
        counts[None, :],
        np.array([mech.threshold_type]),
        [mech.rewards.get(m, 0.0) for m in pop.ids],
        throughputs,
        cfg,
    )[0]


def order_reward_schedule(
    expected_reward: float, order_probs: Mapping[int, float]
) -> dict[int, float]:
    """Constant per-rank schedule realizing one expected reward.

    Given finish-rank probabilities that sum to one, paying the same
    amount at every rank reproduces the expected reward exactly.
    """
    if expected_reward < 0:
        raise ValueError("expected_reward must be nonnegative")
    total = math.fsum(order_probs.values())
    if abs(total - 1.0) > 1e-9:
        raise ConfigurationError(
            f"rank probabilities must sum to 1, got {total!r}"
        )
    return {rank: expected_reward for rank in order_probs}
