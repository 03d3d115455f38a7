"""Worker-side analysis of a platform offer.

Workers privately know their cost rate; runtime behavior (unit row
time and startup factor) is observable by the platform, so a worker
can only claim a targeted identity in its claim class: the type itself
under complete information, otherwise every type with the same speed
and startup.  This module computes individual payoffs, each worker's
best feasible report, and checks the two properties a sound offer must
satisfy: participation is worthwhile for every targeted type
(individual rationality) and no feasible misreport beats an honest one
(incentive compatibility).  Under one offer every claim faces the same
runtime, so the batched sweep payoffs are per-class reward maxima less
each type's cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap

import numpy as np

from .mechanisms import SCENARIO_COMPLETE, Mechanism
from .numerics import _whole
from .runtime import _checked_row
from .workers import Population

__all__ = [
    "WorkerDecision",
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


def _report_table(
    mech: Mechanism, pop: Population, true: slice = slice(None)
) -> tuple[np.ndarray, np.ndarray]:
    """Payoff and feasibility of every report under ``mech``: two
    ``(T, M)`` arrays over the true types ``pop.ids[true]`` (all of them
    by default) and claimed identities.

    Entry ``(t, j)`` is j's reward less t's cost rate times the offer's
    expected runtime.  A claim is feasible when j is targeted and in t's
    claim class: t itself under complete information, otherwise every
    type with t's speed and startup.
    """
    rewards = _checked_row(mech.rewards, pop)
    payoffs = rewards - pop.cost_rate[true, None] * mech.expected_runtime
    if mech.scenario == SCENARIO_COMPLETE:
        claimable = np.arange(pop.size)[true, None] == np.arange(pop.size)
    else:
        claimable = (pop.speed[true, None] == pop.speed) & (
            pop.startup[true, None] == pop.startup
        )
    return payoffs, claimable & (np.arange(pop.size) < mech.threshold_type)


def best_response(true_m: int, mech: Mechanism, pop: Population) -> WorkerDecision:
    """The payoff-maximizing feasible action for one worker type.

    Ties between reports prefer the honest one, then the smallest type
    id.  A worker with no feasible report, or whose best payoff is
    negative, declines and keeps payoff zero.  Participation at exactly
    zero payoff is accepted.
    """
    true_m = _whole(true_m, "type id", None)
    if not 1 <= true_m <= pop.size:
        raise ValueError(f"unknown type id {true_m}")
    row = slice(true_m - 1, true_m)
    payoffs, feasible = (table[0] for table in _report_table(mech, pop, row))
    best_value = payoffs[feasible].max(initial=-np.inf).item()
    participate = best_value >= 0
    best = feasible & (payoffs == best_value)
    if participate and not best[true_m - 1]:
        reported = int(np.argmax(best)) + 1
    else:
        reported = true_m
    return WorkerDecision(
        type_id=true_m,
        participate=participate,
        reported_type=reported,
        expected_payoff=best_value if participate else 0.0,
    )


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
    payoff is the largest targeted reward in its claim class (the types
    with its speed and startup, as in :func:`_report_table`) less its
    cost rate times the runtime, or 0 when that is negative or the class
    has no targeted type.  Subtracting one cost is monotone in the
    reward, so this is bit for bit the best feasible entry of the type's
    :func:`_report_table` row.
    """
    # Sorted by (speed, startup), each class is one run of types.
    order = np.lexsort((pop.startup, pop.speed))
    speed, startup = pop.speed[order], pop.startup[order]
    opens = np.ones(pop.size, dtype=bool)
    opens[1:] = (speed[1:] != speed[:-1]) | (startup[1:] != startup[:-1])
    classes = np.empty(pop.size, dtype=np.intp)
    classes[order] = np.cumsum(opens) - 1
    targeted = np.arange(pop.size) < thresholds[:, None]
    offered = np.where(targeted, rewards, -np.inf)[:, order]
    class_best = np.maximum.reduceat(offered, np.flatnonzero(opens), axis=1)
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
