"""Worker-side analysis of a platform offer.

Workers privately know their cost rate; runtime behavior (unit row
time and startup factor) is observable by the platform, so a worker
can only claim the identity of a type with identical runtime
parameters, and only identities the offer actually targets.  This
module computes individual payoffs, each worker's best feasible
report, and checks the two properties a sound offer must satisfy:
participation is worthwhile for every targeted type (individual
rationality) and no feasible misreport beats an honest one (incentive
compatibility).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mechanisms import SCENARIO_COMPLETE, Mechanism
from .workers import Population

__all__ = [
    "WorkerDecision",
    "ComplianceReport",
    "worker_payoff",
    "best_response",
    "verify_ir_ic",
]

_REL_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class WorkerDecision:
    """Best feasible action for one worker type.

    ``expected_payoff`` is the best achievable payoff over feasible
    reports, or 0.0 when declining is strictly better or no feasible
    report exists.
    """

    type_id: int
    participate: bool
    reported_type: int
    expected_payoff: float


@dataclass(frozen=True, slots=True)
class ComplianceReport:
    """Outcome of individual-rationality and incentive checks.

    ``ir_violations`` holds ``(type_id, payoff)`` pairs for targeted
    types whose honest payoff is negative.  ``ic_violations`` holds
    ``(true_type, reported_type, gain)`` triples for profitable
    feasible misreports.  ``unrestricted_ic_violations`` repeats the
    incentive scan pretending every identity were claimable regardless
    of runtime parameters; it is diagnostic only, since such claims are
    detectable in practice and do not undermine the offer.
    """

    ir_violations: tuple[tuple[int, float], ...]
    ic_violations: tuple[tuple[int, int, float], ...]
    unrestricted_ic_violations: tuple[tuple[int, int, float], ...]

    @property
    def truthful(self) -> bool:
        return not self.ir_violations and not self.ic_violations

    def to_rows(self) -> list[tuple[str, int, int, float]]:
        """Violations as (kind, true type, reported type, magnitude)
        rows; individual-rationality rows repeat the type id."""
        rows: list[tuple[str, int, int, float]] = []
        for type_id, payoff in self.ir_violations:
            rows.append(("individual-rationality", type_id, type_id, payoff))
        for true_id, reported, gain in self.ic_violations:
            rows.append(("incentive", true_id, reported, gain))
        for true_id, reported, gain in self.unrestricted_ic_violations:
            rows.append(("unrestricted-incentive", true_id, reported, gain))
        return rows

    def to_text(self) -> str:
        lines = []
        if self.truthful:
            lines.append(
                "offer is individually rational and incentive compatible"
            )
        if self.ir_violations:
            lines.append("individual rationality violations:")
            for type_id, payoff in self.ir_violations:
                lines.append(f"  type {type_id}: honest payoff {payoff:.6g} < 0")
        if self.ic_violations:
            lines.append("incentive violations (feasible misreports):")
            for true_id, reported, gain in self.ic_violations:
                lines.append(
                    f"  type {true_id} gains {gain:.6g} reporting as type {reported}"
                )
        if self.unrestricted_ic_violations:
            lines.append(
                "diagnostic: profitable claims if identity checks were absent:"
            )
            for true_id, reported, gain in self.unrestricted_ic_violations:
                lines.append(
                    f"  type {true_id} gains {gain:.6g} claiming type {reported}"
                )
        return "\n".join(lines)


def worker_payoff(
    true_m: int, reported: int, mech: Mechanism, pop: Population
) -> float:
    """Expected payoff of a worker of type ``true_m`` reporting
    ``reported``: the reported identity's reward minus the true cost of
    working for the round.

    Misreporting is impossible when the platform already observes all
    worker parameters, so the complete-information scenario only
    accepts truthful reports.
    """
    if not (1 <= true_m <= pop.size and 1 <= reported <= pop.size):
        raise ValueError(f"unknown type id among {true_m}, {reported}")
    if mech.scenario == SCENARIO_COMPLETE and reported != true_m:
        raise ValueError("misreporting is not possible under complete information")
    reward = mech.rewards.get(reported, 0.0)
    return reward - pop.cost_rate.item(true_m - 1) * mech.expected_runtime


def _runtime_classes(pop: Population) -> list[list[int]]:
    """Type ids grouped by identical runtime parameters (speed and
    startup): the identities a worker can claim undetected."""
    classes: dict[tuple[float, float], list[int]] = {}
    for m, key in enumerate(zip(pop.speed.tolist(), pop.startup.tolist()), 1):
        classes.setdefault(key, []).append(m)
    return list(classes.values())


def _feasible_reports(mech: Mechanism, pop: Population, true_m: int) -> list[int]:
    if mech.scenario == SCENARIO_COMPLETE:
        return [true_m] if true_m in mech.targeted else []
    claimable = next(ids for ids in _runtime_classes(pop) if true_m in ids)
    return [m for m in mech.targeted if m in claimable]


def best_response(true_m: int, mech: Mechanism, pop: Population) -> WorkerDecision:
    """The payoff-maximizing feasible action for one worker type.

    Ties between reports prefer the honest one, then the smallest type
    id.  A worker with no feasible report, or whose best payoff is
    negative, declines and keeps payoff zero.  Participation at exactly
    zero payoff is accepted.
    """
    if not 1 <= true_m <= pop.size:
        raise ValueError(f"unknown type id {true_m}")
    payoffs = {
        m: worker_payoff(true_m, m, mech, pop)
        for m in _feasible_reports(mech, pop, true_m)
    }
    best_value = max(payoffs.values(), default=-math.inf)
    if best_value < 0:
        return WorkerDecision(
            type_id=true_m,
            participate=False,
            reported_type=true_m,
            expected_payoff=0.0,
        )
    if payoffs.get(true_m) == best_value:
        best_report = true_m
    else:
        best_report = min(m for m, p in payoffs.items() if p == best_value)
    return WorkerDecision(
        type_id=true_m,
        participate=True,
        reported_type=best_report,
        expected_payoff=best_value,
    )


def _best_payoffs(
    thresholds: np.ndarray,
    runtimes: list[float],
    rewards: np.ndarray,
    pop: Population,
) -> np.ndarray:
    """:func:`best_response`'s payoff for every type under each row of
    batched private-cost offers, as a ``(P, M)`` array.

    Row ``p`` targets the first ``thresholds[p]`` types at
    ``rewards[p]`` with expected runtime ``runtimes[p]``.  A type's best
    report is the largest reward among the targeted types of its
    runtime class; it declines at payoff zero when there is none or
    when its payoff is negative.
    """
    offered = np.where(np.arange(pop.size) < thresholds[:, None], rewards, -np.inf)
    best = np.empty_like(offered)
    for ids in _runtime_classes(pop):
        columns = [m - 1 for m in ids]
        best[:, columns] = offered[:, columns].max(axis=1, keepdims=True)
    payoffs = best - pop.cost_rate * np.array(runtimes)[:, None]
    return np.where(payoffs >= 0, payoffs, 0.0)


def verify_ir_ic(mech: Mechanism, pop: Population) -> ComplianceReport:
    """Check individual rationality over targeted types and incentive
    compatibility over all ordered (true, report) pairs.

    A worker outside the targeted set is compared against staying out
    (payoff zero); a targeted worker is compared against reporting
    honestly.  Gains below a relative tolerance of the payoff scale are
    treated as ties, not violations.  The unrestricted diagnostic
    repeats the incentive scan across every identity pair.
    """
    ir: list[tuple[int, float]] = []
    ic: list[tuple[int, int, float]] = []
    unrestricted: list[tuple[int, int, float]] = []
    for m in mech.targeted:
        payoff = worker_payoff(m, m, mech, pop)
        if payoff < -_REL_TOL * (1.0 + abs(payoff)):
            ir.append((m, payoff))
    for m in pop.ids:
        if m <= mech.threshold_type:
            baseline = worker_payoff(m, m, mech, pop)
        else:
            baseline = 0.0
        tol = _REL_TOL * (1.0 + abs(baseline))
        scans = [(_feasible_reports(mech, pop, m), ic)]
        if mech.scenario != SCENARIO_COMPLETE:
            scans.append((pop.ids, unrestricted))
        for reports, violations in scans:
            for reported in reports:
                if reported == m:
                    continue
                gain = worker_payoff(m, reported, mech, pop) - baseline
                if gain > tol:
                    violations.append((m, reported, gain))
    return ComplianceReport(
        ir_violations=tuple(ir),
        ic_violations=tuple(ic),
        unrestricted_ic_violations=tuple(unrestricted),
    )
