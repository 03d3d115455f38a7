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
* cost-only heterogeneity: one shared runtime distribution, the
  incomplete-information prefix, uniform coded loads, a uniform reward,
  and a recovery threshold a fixed fraction of the participator count.

The two heterogeneous rules are written once over ``(R, M)`` counts
matrices, one row per headcount vector; the scalar solvers are their
one-row views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, InfeasibleError, NumericalError
from .numerics import _all_finite, mds_alpha, row_fsums
# No solver calls ``assign_loads_hetero``; it stays imported because
# perfbench's traced runs wrap it by name in this module.
from .runtime import (
    LoadAssignment,
    _checked_row,
    _checked_groups,
    _group_throughputs,
    _prefix_loads,
    assign_loads_hetero,
    expected_runtime_hetero,
    expected_runtime_mds,
)
from .workers import Population, WorkerType, _read_only, build_population

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


@dataclass(frozen=True, eq=False)
class Mechanism:
    """A platform offer: targeted prefix, rewards for every type, loads,
    and the runtime the offer implies for participating workers.

    ``expected_runtime`` is the round runtime workers face when the
    targeted set participates; worker payoffs are measured against it.
    ``rewards`` is a read-only row indexed by type id - 1, like the loads
    (zero outside the targeted set under complete information).  The
    scenario decides the scheme: a cost-only offer's loads are uniform
    with a recovery threshold, every other offer's are heterogeneous.
    """

    scenario: str
    threshold_type: int
    rewards: np.ndarray
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
        scenarios = (SCENARIO_COMPLETE, SCENARIO_INCOMPLETE, SCENARIO_COST_ONLY)
        if self.scenario not in scenarios:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        rewards = _read_only(self.rewards)
        object.__setattr__(self, "rewards", rewards)
        if rewards.size and not 0 <= rewards.min() <= rewards.max() < np.inf:
            raise ValueError("rewards must be nonnegative and finite")
        if self.rewards.shape != self.assignment.loads.shape:
            raise ValueError("rewards and loads must be rows over the same types")
        if not 1 <= self.threshold_type <= self.rewards.size:
            raise ValueError(f"threshold type {self.threshold_type} is not offered")
        if not 0 < self.expected_runtime < math.inf:
            raise ValueError("expected_runtime must be positive and finite")
        cost_only = self.scenario == SCENARIO_COST_ONLY
        if cost_only != (self.recovery_threshold is not None):
            raise ValueError("an offer has a recovery threshold iff it is cost-only")


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
    :func:`_private_offers`) makes for ``pop``'s headcounts as one row,
    loaded by the group throughput the rule summed."""
    counts = pop.counts[None, :]
    thresholds, runtimes, rewards, groups = rule(counts, pop, cfg)
    threshold = int(thresholds[0])
    cost = _prefix_costs(counts, thresholds, rewards, cfg, runtimes).item()
    return Mechanism(
        scenario=scenario,
        threshold_type=threshold,
        rewards=rewards[0],
        assignment=_prefix_loads(pop, threshold, cfg.total_rows, groups),
        expected_runtime=runtimes.item(),
        expected_cost=cost,
        config=cfg,
    )


def _complete_offers(
    counts: np.ndarray, pop: Population, cfg: PlatformConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Complete-information offer for each row of an ``(R, M)`` counts
    matrix over ``pop``'s types: threshold types, expected runtimes,
    ``(R, M)`` per-type rewards (each targeted type's cost, zero beyond
    the threshold), and the targeted group throughputs the runtimes are
    ``total_rows`` over.

    The threshold is the largest populated prefix whose boundary ratio
    is at most ``(gamma_time + gamma_pay * prefix cost) / (gamma_pay *
    prefix throughput)``; a populated prefix whose bound overflows
    raises NumericalError.
    """
    with np.errstate(all="ignore"):
        rates, cum_thru = _prefix_throughputs(counts, pop, cfg)
        populated = cum_thru > 0
        bound = (
            cfg.gamma_time + cfg.gamma_pay * (counts * pop.cost_rate).cumsum(axis=1)
        ) / (cfg.gamma_pay * cum_thru)
        bound[~populated] = -np.inf  # no ratio meets an empty prefix's bound
        if not np.isfinite(bound[populated]).all():
            raise NumericalError("the complete-information prefix bound overflows")
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
        groups = _group_throughputs(rates, thresholds)
        runtimes = cfg.total_rows / groups
        rewards = pop.cost_rate * runtimes[:, None]
        rewards[np.arange(size) >= thresholds[:, None]] = 0.0
    _finite_offers(runtimes, rewards)
    return thresholds, runtimes, rewards, groups


def _private_offers(
    counts: np.ndarray, pop: Population, cfg: PlatformConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Private-cost offer for each row of an ``(R, M)`` counts matrix
    over ``pop``'s types: :func:`_private_thresholds`, expected
    runtimes, ``(R, M)`` per-type rewards, and the targeted group
    throughputs the runtimes are ``total_rows`` over."""
    with np.errstate(all="ignore"):
        rates, cum_thru = _prefix_throughputs(counts, pop, cfg)
        thresholds = _private_thresholds(cum_thru, pop, cfg)
        groups = _group_throughputs(rates, thresholds)
        runtimes = cfg.total_rows / groups
        # Rewards proportional to throughput, grouped so the boundary type's
        # reward equals its cost bit-exactly and its payoff is exactly zero.
        boundary = thresholds - 1
        boundary_pay = pop.cost_rate[boundary] * runtimes
        throughputs = pop.throughput
        rewards = (throughputs / throughputs[boundary][:, None]) * boundary_pay[:, None]
    _finite_offers(runtimes, rewards)
    return thresholds, runtimes, rewards, groups


def _private_thresholds(
    cum_thru: np.ndarray, pop: Population, cfg: PlatformConfig
) -> np.ndarray:
    """Threshold type of each row of :func:`_prefix_throughputs`'
    cumulative throughput under the private-cost rule both private-cost
    scenarios select with: the first populated prefix minimizing
    ``gamma_time / cum_thru + gamma_pay * ratio``.  With one throughput
    shared by all types this is the cost-only per-participator cost over
    it.  Where a ratio overflowed, its pay term is ``gamma_pay *
    cost_rate / throughput``, finite whenever the product is.  A row
    whose chosen objective is not finite raises NumericalError.  Runs
    under its caller's ``np.errstate(all="ignore")``."""
    per_thru = cfg.gamma_time / cum_thru
    per_thru[~(cum_thru > 0)] = np.inf  # an empty prefix, 0/0 at gamma_time 0
    pay = cfg.gamma_pay * pop.ratio
    if not pop.ratio[-1] < np.inf:  # ratios ascend: an overflowed one is last
        overflowed = cfg.gamma_pay * pop.cost_rate / pop.throughput
        pay = np.where(pop.ratio < np.inf, pay, overflowed)
    objective = per_thru + pay
    chosen = objective.argmin(axis=1)
    if not np.isfinite(objective[np.arange(chosen.size), chosen]).all():
        raise NumericalError("the private-cost prefix objective overflows")
    return chosen + 1


def _finite_offers(runtimes: np.ndarray, rewards: np.ndarray) -> None:
    """Check every offer's runtimes and rewards finite and its runtimes
    positive: an overflowing offer, or a runtime that rounds to zero,
    raises NumericalError."""
    if not (_all_finite(runtimes) and np.isfinite(rewards).all()):
        raise NumericalError("offer runtime or rewards overflow")
    if not runtimes.all():
        raise NumericalError("offer runtime underflows to zero")


def _prefix_throughputs(
    counts: np.ndarray, pop: Population, cfg: PlatformConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per-type throughput products ``counts * throughput`` of each
    counts row and their cumulative sums, the inputs both batched rules
    start from; a row whose whole population has no workers or overflows
    has no offer (see :func:`_checked_groups`).  Runs under its caller's
    ``np.errstate(all="ignore")``."""
    if not cfg.gamma_pay > 0:
        raise ConfigurationError(
            "solvers require a positive payment valuation gamma_pay"
        )
    rates = counts * pop.throughput
    cum_thru = rates.cumsum(axis=1)
    _checked_groups(cum_thru[:, -1])
    return rates, cum_thru


def _prefix_costs(
    counts: np.ndarray,
    thresholds: Sequence[int],
    rewards: np.ndarray | list[float],
    cfg: PlatformConfig,
    runtimes: np.ndarray | float,
) -> np.ndarray:
    """Platform cost of each counts row when its targeted prefix
    ``1..threshold`` is paid the per-type ``rewards`` (one row for all,
    or one row each) and finishes in the prefix's expected ``runtimes``:
    the heterogeneous assignment's, or the cost-only scenario's exact
    harmonic one.  A cost beyond the float range raises NumericalError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        paid = counts * rewards
        costs = cfg.gamma_time * runtimes + cfg.gamma_pay * row_fsums(paid, thresholds)
    if not _all_finite(costs):
        raise NumericalError("the offer's platform cost overflows")
    return costs


def solve_cost_only(
    types: Sequence[WorkerType], cfg: PlatformConfig
) -> Mechanism:
    """Optimal offer when types differ only in cost rate.

    All types share one runtime distribution, so the private-cost
    prefix rule of :func:`solve_incomplete` ranks them by cost rate
    alone.  The platform uses uniform coded loads ``rows / k`` with
    recovery threshold ``k`` the optimal fraction :func:`mds_alpha` of
    the participator count (rounded to the cheaper of floor and ceil
    under the exact runtime).  Every type
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
    if any(np.ptp(c) > 1e-12 * c.max() for c in (pop.speed, pop.startup)):
        raise ConfigurationError(
            "cost-only solver requires all types to share speed and startup"
        )
    with np.errstate(all="ignore"):
        cum_thru = _prefix_throughputs(pop.counts[None, :], pop, cfg)[1]
        threshold = int(_private_thresholds(cum_thru, pop, cfg)[0])
    participators = int(sum(pop.counts[:threshold].tolist()))
    speed, startup = float(pop.speed[0]), float(pop.startup[0])
    fractional_k = mds_alpha(speed, startup) * participators
    # Exact runtime of the floor and ceil thresholds; ties go to the floor.
    exact = {
        k: expected_runtime_mds(participators, k, cfg.total_rows, speed, startup)
        for k in sorted(
            min(max(int(rounded(fractional_k)), 1), participators)
            for rounded in (math.floor, math.ceil)
        )
    }
    recovery = min(exact, key=exact.__getitem__)
    worker_runtime = (cfg.total_rows / recovery) * float(pop.row_time[0])
    reward = float(pop.cost_rate[threshold - 1]) * worker_runtime
    _finite_offers(np.array([worker_runtime]), np.array([reward]))
    rewards = np.full(pop.size, reward)
    loads = np.where(np.arange(pop.size) < threshold, cfg.total_rows / recovery, 0.0)
    return Mechanism(
        scenario=SCENARIO_COST_ONLY,
        threshold_type=threshold,
        rewards=rewards,
        assignment=LoadAssignment(loads, cfg.total_rows, recovery),
        expected_runtime=worker_runtime,
        expected_cost=_prefix_costs(
            pop.counts[None, :], [threshold], rewards, cfg, exact[recovery]
        ).item(),
        config=cfg,
    )


def platform_cost(mech: Mechanism, pop: Population, cfg: PlatformConfig) -> float:
    """Re-evaluate the platform objective from first principles.

    Runtime valuation times the scenario's expected runtime plus
    payment valuation times the total expected payment to targeted
    workers.  The cost-only scenario uses the exact harmonic runtime.
    """
    _checked_row(mech.rewards, pop)
    threshold, k = mech.threshold_type, mech.recovery_threshold
    if k is None:
        runtime = expected_runtime_hetero(pop, threshold, cfg.total_rows)
    else:
        participators = int(sum(pop.counts[:threshold].tolist()))
        if participators < k:
            raise InfeasibleError("fewer participators than the recovery threshold")
        speed, startup = float(pop.speed[0]), float(pop.startup[0])
        runtime = expected_runtime_mds(participators, k, cfg.total_rows, speed, startup)
    counts = pop.counts[None, :]
    return _prefix_costs(counts, [threshold], mech.rewards, cfg, runtime).item()
