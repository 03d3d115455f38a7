"""Worker-side analysis of a platform offer.

Workers privately know their cost rate; runtime behavior (unit row
time and startup factor) is observable by the platform, so a worker
can only claim a targeted identity in its claim class: the type itself
under complete information, otherwise every type with the same speed
and startup.  One routine finds the classes, and every worker decision
reads it: each type's best feasible report, all types at once, and the
two properties a sound offer must satisfy: participation is worthwhile
for every targeted type (individual rationality) and no feasible
misreport beats an honest one (incentive compatibility).  Under one
offer every claim faces the same runtime, so a type's best payoff is
its class's largest targeted reward less its own cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap

import numpy as np

from .mechanisms import SCENARIO_COMPLETE, Mechanism
from .runtime import _checked_row
from .workers import Population

__all__ = [
    "ComplianceReport",
    "best_response",
    "verify_ir_ic",
]

_REL_TOL = 1e-9

# Each kind of violation once, for every view of a report: (CSV kind,
# text heading, text line over true type, reported type and magnitude).
_VIOLATION_KINDS = (
    ("individual-rationality", "individual rationality violations:",
     "  type {0}: honest payoff {2:.6g} < 0"),
    ("incentive", "incentive violations (feasible misreports):",
     "  type {0} gains {2:.6g} reporting as type {1}"),
    ("unrestricted-incentive",
     "diagnostic: profitable claims if identity checks were absent:",
     "  type {0} gains {2:.6g} claiming type {1}"),
)


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

    def _sections(self):
        """Each :data:`_VIOLATION_KINDS` entry with its :meth:`to_rows` rows."""
        ir = tuple((type_id, type_id, payoff) for type_id, payoff in self.ir_violations)
        rows = (ir, self.ic_violations, self.unrestricted_ic_violations)
        return zip(_VIOLATION_KINDS, rows)

    def to_rows(self) -> list[tuple[str, int, int, float]]:
        """Violations as (kind, true type, reported type, magnitude)
        rows; individual-rationality rows repeat the type id."""
        return [(kind, *row) for (kind, _, _), rows in self._sections() for row in rows]

    def to_text(self) -> str:
        truthful = "offer is individually rational and incentive compatible"
        lines = [truthful] if self.truthful else []
        for (_, heading, line), rows in self._sections():
            if rows:
                lines.append(heading)
                lines.extend(starmap(line.format, rows))
        return "\n".join(lines)

    def to_csv(self) -> str:
        """A header, then each :meth:`to_rows` row with 17 significant digits."""
        rows = (f"{kind},{t},{r},{v:.17g}\n" for kind, t, r, v in self.to_rows())
        return "kind,true_type,reported_type,value\n" + "".join(rows)


def _claim_classes(complete: bool, pop: Population):
    """Who can claim what: each type's claim class (numbered from 0),
    the type indices class by class, ascending within each class, and
    where each class starts in that order.

    Under complete information each type is its own class; otherwise a
    class is the types sharing a speed and a startup.
    """
    if complete:
        ids = np.arange(pop.size)
        return ids, ids, ids
    # Sorted by (speed, startup), each class is one run of types.
    order = np.lexsort((pop.startup, pop.speed))
    speed, startup = pop.speed[order], pop.startup[order]
    opens = np.ones(pop.size, dtype=bool)
    opens[1:] = (speed[1:] != speed[:-1]) | (startup[1:] != startup[:-1])
    classes = np.empty(pop.size, dtype=np.intp)
    classes[order] = np.cumsum(opens) - 1
    return classes, order, np.flatnonzero(opens)


def _report_table(mech: Mechanism, pop: Population) -> tuple[np.ndarray, np.ndarray]:
    """Payoff and feasibility of every report under ``mech``: two
    ``(M, M)`` arrays over true types and claimed identities.

    Entry ``(t, j)`` is j's reward less t's cost rate times the offer's
    expected runtime.  A claim is feasible when j is targeted and in t's
    claim class (:func:`_claim_classes`).
    """
    rewards = _checked_row(mech.rewards, pop)
    payoffs = rewards - pop.cost_rate[:, None] * mech.expected_runtime
    classes = _claim_classes(mech.scenario == SCENARIO_COMPLETE, pop)[0]
    claimable = classes[:, None] == classes
    return payoffs, claimable & (np.arange(pop.size) < mech.threshold_type)


def best_response(
    mech: Mechanism, pop: Population
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every type's payoff-maximizing feasible action, as three rows
    indexed by type id - 1: whether the type participates, the type id
    it reports, and its expected payoff.

    A type's best payoff is the largest targeted reward in its claim
    class less its cost rate times the runtime.  Ties between reports
    prefer the honest one, then the smallest type id.  A type with no
    feasible report, or whose best payoff is negative, declines,
    reports itself and keeps payoff zero.  Participation at exactly
    zero payoff is accepted.
    """
    rewards = _checked_row(mech.rewards, pop)
    classes, order, starts = _claim_classes(mech.scenario == SCENARIO_COMPLETE, pop)
    targeted = np.arange(pop.size) < mech.threshold_type
    offered = np.where(targeted, rewards, -np.inf)
    # Per class, the smallest id among the largest targeted rewards.
    first = np.lexsort((-offered, classes))[starts][classes]
    cost = pop.cost_rate * mech.expected_runtime
    best = offered[first] - cost
    participate = best >= 0
    claims = participate & ~(targeted & (rewards - cost == best))
    reported = np.where(claims, first, np.arange(pop.size))
    # Subtracting a cost is monotone in the reward, so a lower reward
    # ties only if the class's next lower one does; then scan the class.
    lower = np.where(offered < offered[first], offered, -np.inf)
    below = np.maximum.reduceat(lower[order], starts)[classes]
    for t in np.flatnonzero(claims & (below - cost == best)).tolist():
        members = np.flatnonzero(targeted & (classes == classes[t]))
        reported[t] = members[rewards[members] - cost[t] == best[t]][0]
    return participate, reported + 1, np.where(participate, best, 0.0)


def _best_payoffs(
    thresholds: np.ndarray,
    runtimes: np.ndarray,
    rewards: np.ndarray,
    pop: Population,
) -> np.ndarray:
    """:func:`best_response`'s payoff for every type under each row of
    batched private-cost offers, ``(R, M)``.

    Row ``r`` targets the first ``thresholds[r]`` types at
    ``rewards[r]`` with expected runtime ``runtimes[r]``.  A type's best
    payoff is the largest targeted reward in its claim class less its
    cost rate times the runtime, or 0 when that is negative or the class
    has no targeted type.
    """
    classes, order, starts = _claim_classes(False, pop)
    targeted = np.arange(pop.size) < thresholds[:, None]
    offered = np.where(targeted, rewards, -np.inf)[:, order]
    class_best = np.maximum.reduceat(offered, starts, axis=1)
    best = class_best[:, classes] - pop.cost_rate * runtimes[:, None]
    return np.where(best >= 0, best, 0.0)


def verify_ir_ic(mech: Mechanism, pop: Population) -> ComplianceReport:
    """Check individual rationality over targeted types and incentive
    compatibility over all ordered (true, report) pairs.

    A worker outside the targeted set is compared against staying out
    (payoff zero); a targeted worker is compared against reporting
    honestly.  Gains below a relative tolerance of the payoff scale are
    treated as ties, not violations.  The unrestricted diagnostic
    repeats the incentive scan across every identity pair.
    """
    payoffs, feasible = _report_table(mech, pop)
    honest = payoffs.diagonal()
    targeted = np.arange(pop.size) < mech.threshold_type
    baseline = np.where(targeted, honest, 0.0)
    tol = _REL_TOL * (1.0 + np.abs(baseline))
    gains = payoffs - baseline[:, None]
    profitable = (gains > tol[:, None]) & ~np.eye(pop.size, dtype=bool)

    def violations(mask):
        true, claimed = np.nonzero(mask)
        return tuple(
            (t + 1, j + 1, gains[t, j].item())
            for t, j in zip(true.tolist(), claimed.tolist())
        )

    ir = np.flatnonzero(targeted & (honest < -tol)).tolist()
    return ComplianceReport(
        ir_violations=tuple((t + 1, honest[t].item()) for t in ir),
        ic_violations=violations(profitable & feasible),
        unrestricted_ic_violations=(
            () if mech.scenario == SCENARIO_COMPLETE else violations(profitable)
        ),
    )
