"""Independent reference implementations used to pin test expectations.

These deliberately avoid the package's own numerics: roots come from
plain interval bisection, optima from brute-force grids, expectations
from direct Monte Carlo.  Agreement with the package is then evidence,
not tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Decimal, localcontext

import numpy as np

from coded_incentives import coding
from coded_incentives.errors import ConfigurationError, InfeasibleError
from coded_incentives.workers import derive_profile

BRUTE_FORCE_LIMIT = 20


def bisect(func, lo: float, hi: float, iterations: int = 200) -> float:
    """Plain midpoint bisection; assumes a sign change on [lo, hi]."""
    sign_lo = func(lo) <= 0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if (func(mid) <= 0) == sign_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lambda_oracle(mu: float, a: float) -> float:
    """Positive root of exp(mu*(x - a)) = mu*x + 1 via bisection."""

    def residual(x: float) -> float:
        try:
            return math.exp(mu * (x - a)) - mu * x - 1.0
        except OverflowError:
            return math.inf

    lo = a
    hi = max(2.0 * a, a + 1.0 / mu)
    while residual(hi) <= 0:
        hi *= 2.0
    return bisect(residual, lo, hi)


def w_minus1_oracle(x: float) -> float:
    """Lower branch of w*exp(w) = x via bisection on w <= -1."""
    if not -1.0 / math.e <= x < 0:
        raise ValueError(f"x outside [-1/e, 0): {x}")

    def residual(w: float) -> float:
        return w * math.exp(w) - x

    lo = -2.0
    while residual(lo) < 0:
        lo *= 2.0
    return bisect(residual, lo, -1.0)


def population_records_oracle(raw):
    """Input positions in id order, and the ``(WorkerType,
    PerformanceProfile)`` pairs with ids relabeled 1..M, by a plain sort
    on ``(ratio, cost rate)`` that keeps input order on full ties: the
    record form a population had before it was held as columns."""
    entries = list(raw)
    ranked = sorted(
        enumerate(derive_profile(t) for t in entries),
        key=lambda item: (item[1].ratio, entries[item[0]].cost_rate),
    )
    return [j for j, _ in ranked], tuple(
        (replace(entries[j], id=i), profile)
        for i, (j, profile) in enumerate(ranked, start=1)
    )


def harmonic_oracle(n: int) -> float:
    return sum(1.0 / i for i in range(1, n + 1))


def mds_log_runtime_oracle(n: int, k: int, rows: float, mu: float, a: float) -> float:
    """Large-n logarithmic form of the k-th of n finishers' expected
    runtime, ``(rows/k) * (a + log(n / (n - k)) / mu)``, for ``k < n``."""
    return (rows / k) * (a + math.log(n / (n - k)) / mu)


def alpha_objective(alpha: float, mu: float, a: float) -> float:
    """Per-fraction runtime factor the recovery fraction minimizes."""
    return (a - math.log1p(-alpha) / mu) / alpha


def alpha_oracle(mu: float, a: float, points: int = 2_000_001) -> float:
    """Grid-search minimizer of the runtime factor over (0, 1)."""
    grid = np.linspace(1e-7, 1.0 - 1e-9, points)
    values = (a - np.log1p(-grid) / mu) / grid
    return float(grid[np.argmin(values)])


def order_statistic_mc(
    n: int,
    k: int,
    load: float,
    mu: float,
    a: float,
    reps: int,
    seed,
) -> tuple[float, float]:
    """Monte Carlo mean of the k-th smallest of n shifted-exponential
    completion times, with its standard error."""
    rng = np.random.default_rng(seed)
    times = load * (a + rng.standard_exponential((reps, n)) / mu)
    kth = np.partition(times, k - 1, axis=1)[:, k - 1]
    return float(kth.mean()), float(kth.std(ddof=1) / math.sqrt(reps))


@dataclass(frozen=True, eq=False)
class RaceEstimate:
    """Per-round runtimes and realized k of a race-only replay, and the
    summaries of them a runtime check reads."""

    runtimes: np.ndarray
    realized_k: np.ndarray
    boundary_payoffs: np.ndarray

    @property
    def mean_runtime(self) -> float:
        return float(self.runtimes.mean())

    @property
    def stderr(self) -> float:
        return float(self.runtimes.std(ddof=1) / math.sqrt(self.runtimes.size))

    @property
    def k_distribution(self) -> dict[int, float]:
        counts = np.bincount(self.realized_k) / self.realized_k.size
        return {k: float(p) for k, p in enumerate(counts.tolist()) if p > 0}

    @property
    def boundary_payoff(self) -> float:
        return float(self.boundary_payoffs.mean())


def race_only_rounds(mech, pop, seeds) -> RaceEstimate:
    """``simulate_round``'s rounds for ``seeds`` without their decodes.

    Not independent of the package: each round is the simulator's own
    race stage (``coding._race_round``) over the offer's round plan, on
    the stream ``simulate_round`` opens for that seed, so round i's
    runtime and realized k are the decoded round's, at a few percent of
    its cost.  The boundary type is the last participating one; its
    payoff is its reward less its cost rate times the runtime, as
    settlement pays it."""
    plan = coding._round_plan(mech, pop)
    runtimes, realized = [], []
    for seed in seeds:
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        _, times, k = coding._race_round(plan, rng)
        runtimes.append(times[k - 1])
        realized.append(k)
    runtimes = np.array(runtimes)
    boundary = [w for w, m in plan.worker_types if m == plan.participants[-1]][0]
    return RaceEstimate(
        runtimes=runtimes,
        realized_k=np.array(realized),
        boundary_payoffs=plan.pay[boundary] - plan.cost_rate[boundary] * runtimes,
    )


def row_fsums_oracle(values: np.ndarray, lengths) -> list[float]:
    """Correctly rounded sum of each row's first ``lengths[r]`` entries,
    one slice and one ``math.fsum`` per row."""
    return [math.fsum(row[:n]) for row, n in zip(values.tolist(), lengths)]


def prefix_cost_oracle(pop, threshold: int, rewards, cfg) -> float | None:
    """Platform cost of paying ``pop``'s prefix ``1..threshold`` the
    per-type ``rewards`` (indexed by id - 1), with runtime rows over the
    prefix's summed throughput; None when the prefix has no workers."""
    members = [pop.member(m) for m in range(1, threshold + 1)]
    group = math.fsum(t.count * p.throughput for t, p in members)
    if not group > 0:
        return None
    runtime = cfg.total_rows / group
    payment = math.fsum(t.count * rewards[t.id - 1] for t, _ in members)
    return cfg.gamma_time * runtime + cfg.gamma_pay * payment


def private_offer_oracle(pop, cfg) -> tuple[int, float, list[float], float]:
    """Private-cost offer by a plain scan: the first prefix with the
    smallest ``gamma_time / prefix throughput + gamma_pay * boundary
    ratio``, throughput-proportional rewards that pay the boundary type
    its cost, and that offer's platform cost.

    Returns ``(threshold, runtime, rewards, cost)``.
    """
    members = [pop.member(m) for m in pop.ids]
    best, threshold, prefix = math.inf, 0, 0.0
    for n, (worker, profile) in enumerate(members, start=1):
        prefix += worker.count * profile.throughput
        if prefix <= 0:
            continue
        value = cfg.gamma_time / prefix + cfg.gamma_pay * profile.ratio
        if value < best:
            best, threshold = value, n
    boundary, boundary_profile = members[threshold - 1]
    runtime = cfg.total_rows / math.fsum(
        t.count * p.throughput for t, p in members[:threshold]
    )
    boundary_pay = boundary.cost_rate * runtime
    rewards = [
        (p.throughput / boundary_profile.throughput) * boundary_pay
        for _, p in members
    ]
    return threshold, runtime, rewards, prefix_cost_oracle(pop, threshold, rewards, cfg)


def brute_force_complete(pop, cfg) -> tuple[tuple[int, ...], float]:
    """Exhaustive complete-information selection oracle.

    Evaluates the platform objective over every nonempty subset of
    types and returns the cheapest (ties resolve to the
    lexicographically smallest id tuple).  Guarded to small type counts
    because the enumeration is exponential.
    """
    if not cfg.gamma_pay > 0:
        raise ConfigurationError(
            "solvers require a positive payment valuation gamma_pay"
        )
    m_count = pop.size
    if m_count > BRUTE_FORCE_LIMIT:
        raise ConfigurationError(
            f"brute force limited to {BRUTE_FORCE_LIMIT} types, got {m_count}"
        )
    weighted_cost = pop.counts * pop.cost_rate
    weighted_thru = pop.counts * pop.throughput
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


def complete_offer_oracle(pop, cfg) -> tuple[int, float, list[float], float]:
    """Complete-information offer by a plain scan: the last prefix whose
    boundary ratio is at most ``(gamma_time + gamma_pay * prefix cost) /
    (gamma_pay * prefix throughput)``, else the first populated prefix;
    each targeted type paid its cost over the prefix's runtime, every
    other type nothing; and that offer's platform cost.

    Returns ``(threshold, runtime, rewards, cost)``.
    """
    members = [pop.member(m) for m in pop.ids]
    threshold, first, cum_cost, cum_thru = 0, 0, 0.0, 0.0
    for n, (worker, profile) in enumerate(members, start=1):
        cum_cost += worker.count * worker.cost_rate
        cum_thru += worker.count * profile.throughput
        if cum_thru <= 0:
            continue
        first = first or n
        bound = (cfg.gamma_time + cfg.gamma_pay * cum_cost) / (
            cfg.gamma_pay * cum_thru
        )
        if profile.ratio <= bound:
            threshold = n
    threshold = threshold or first
    runtime = cfg.total_rows / math.fsum(
        t.count * p.throughput for t, p in members[:threshold]
    )
    rewards = [
        t.cost_rate * runtime if n <= threshold else 0.0
        for n, (t, _) in enumerate(members, start=1)
    ]
    return threshold, runtime, rewards, prefix_cost_oracle(pop, threshold, rewards, cfg)


def apportion_oracle(total: int, weights) -> list[int]:
    """Largest-remainder apportionment, one total at a time: floors of
    the quotas, then the largest remainders (ties to the lower index)
    absorb the shortfall."""
    values = [float(v) for v in weights]
    scale = math.fsum(values)
    quotas = [total * v / scale for v in values]
    base = [math.floor(q) for q in quotas]
    deficit = total - sum(base)
    order = sorted(range(len(values)), key=lambda i: (base[i] - quotas[i], i))
    for i in order[:deficit]:
        base[i] += 1
    return base


def integerize_oracle(loads) -> list[int]:
    """Whole-row rounding by a plain sort: floors, then the largest
    fractional parts (ties to the lower index) take one more row each
    until the total is the ceiling of the fractional total."""
    values = [float(v) for v in loads]
    if any(not math.isfinite(v) or v < 0 for v in values):
        raise ValueError("loads must be finite and nonnegative")
    base = [math.floor(v) for v in values]
    deficit = math.ceil(math.fsum(values)) - sum(base)
    if deficit > 0:
        by_remainder = sorted(
            range(len(values)), key=lambda i: (base[i] - values[i], i)
        )
        for i in by_remainder[:deficit]:
            base[i] += 1
    return base


def parity_system_oracle(rng, source, vector, missing, known_values):
    """A round's parity system from one draw of every row's factors, one
    parity row per ``missing`` entry: the ``rows`` source rows on a
    ``height x width`` grid with ``width = isqrt(rows - 1) + 1``, each
    parity row the flattened outer product of its two factors, uniform
    on (-1, 1) and drawn as one ``(count, height + width)`` array, left
    factor first, cut to ``rows`` entries.  The rows are then dense:
    their ``missing`` columns, and their received results less the known
    entries' share, one product over each whole row with
    ``known_values``, which is zero at the missing entries."""
    rows, count = known_values.size, missing.size
    width = math.isqrt(rows - 1) + 1
    height = -(-rows // width)
    factors = rng.uniform(-1.0, 1.0, (count, height + width))
    outer = factors[:, :height, None] * factors[:, None, height:]
    parity = outer.reshape(count, height * width)[:, :rows]
    received = (parity @ source) @ vector
    return parity[:, missing], received - parity @ known_values


def cost_only_threshold_oracle(pop, cfg) -> int:
    """Cost-only threshold type by a plain prefix scan: the first
    populated prefix with the least ``(gamma_time + gamma_pay * boundary
    cost * prefix count) / prefix count``."""
    costs = pop.cost_rate
    cum_counts = np.cumsum(pop.counts)
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
    return threshold


def _payoff_oracle(true_m: int, reported: int, mech, pop) -> float:
    """A worker of type ``true_m``'s payoff reporting ``reported``: that
    identity's reward minus the true cost of working the round."""
    cost = pop.member(true_m)[0].cost_rate
    return float(mech.rewards[reported - 1]) - cost * mech.expected_runtime


def feasible_reports_oracle(true_m: int, mech, pop) -> list[int]:
    """Targeted identities ``true_m`` can claim: only its own under
    complete information, else any type with its speed and startup."""
    worker, _ = pop.member(true_m)
    if mech.scenario == "complete-hetero":
        return [true_m] if true_m in mech.targeted else []
    return [
        m
        for m in mech.targeted
        if (pop.member(m)[0].speed, pop.member(m)[0].startup)
        == (worker.speed, worker.startup)
    ]


def best_response_oracle(true_m: int, mech, pop) -> tuple[int, bool, int, float]:
    """``(type id, participate, reported type, payoff)`` by enumerating
    the feasible reports: decline at zero when there is none or the best
    payoff is negative, else report honestly if that is a best report,
    else the smallest best id."""
    payoffs = {
        m: _payoff_oracle(true_m, m, mech, pop)
        for m in feasible_reports_oracle(true_m, mech, pop)
    }
    best_value = max(payoffs.values(), default=-math.inf)
    if best_value < 0:
        return true_m, False, true_m, 0.0
    if payoffs.get(true_m) == best_value:
        return true_m, True, true_m, best_value
    best_report = min(m for m, p in payoffs.items() if p == best_value)
    return true_m, True, best_report, best_value


def compliance_rows_oracle(
    mech, pop, rel_tol: float = 1e-9
) -> list[tuple[str, int, int, float]]:
    """IR and IC violations as ``ComplianceReport.to_rows`` lists them,
    by nested loops: negative honest payoffs of targeted types, then
    feasible misreports gaining over the honest payoff (zero outside the
    targeted set), then the same scan over every identity pair unless
    information is complete.  Gains within ``rel_tol`` of the payoff
    scale are ties."""
    ir, ic, unrestricted = [], [], []
    for m in mech.targeted:
        payoff = _payoff_oracle(m, m, mech, pop)
        if payoff < -rel_tol * (1.0 + abs(payoff)):
            ir.append(("individual-rationality", m, m, payoff))
    for m in pop.ids:
        baseline = _payoff_oracle(m, m, mech, pop) if m in mech.targeted else 0.0
        tol = rel_tol * (1.0 + abs(baseline))
        scans = [(feasible_reports_oracle(m, mech, pop), ic, "incentive")]
        if mech.scenario != "complete-hetero":
            scans.append((pop.ids, unrestricted, "unrestricted-incentive"))
        for reports, violations, kind in scans:
            for reported in reports:
                if reported == m:
                    continue
                gain = _payoff_oracle(m, reported, mech, pop) - baseline
                if gain > tol:
                    violations.append((kind, m, reported, gain))
    return ir + ic + unrestricted


def lambda_decimal_oracle(mu: float, a: float, digits: int = 60) -> float:
    """Positive root of exp(mu*(x - a)) = mu*x + 1 in ``digits``-digit
    decimal arithmetic: Newton's method on ``expm1(w) - w = a*mu`` in
    ``w = mu*(x - a)``, rounded to a float at the end.  Below w = 1,
    ``expm1(w) - w`` is summed term by term so that it does not cancel;
    from w = 1 on, ``exp(w) - 1 - w`` loses less than one digit.  A
    root not reached in 200 steps raises ArithmeticError."""
    with localcontext() as ctx:
        ctx.prec = digits
        mu_d, a_d = Decimal(mu), Decimal(a)
        target = a_d * mu_d
        eps = Decimal(10) ** -digits

        def excess(w: Decimal) -> Decimal:
            if w >= 1:
                return w.exp() - 1 - w
            term, total, n = w * w / 2, Decimal(0), 2
            while term > total * eps:
                total += term
                n += 1
                term = term * w / n
            return total

        # The left side is convex and increasing, so Newton's method
        # descends onto the root from any start at or above it.  It is
        # at least w**2/2, so s = sqrt(2t) is such a start; when log(t +
        # s + 1) is smaller, so is it, since there the left side is t + s
        # - log(t + s + 1) >= t.  Far above the root each step only moves
        # about one unit, so for s > 1 the smaller start matters; for
        # tiny t the logarithm rounds to zero, so s is kept.
        w = (2 * target).sqrt()
        if w > 1:
            w = min(w, (target + w + 1).ln())
        for _ in range(200):
            step = (excess(w) - target) / (excess(w) + w)
            w -= step
            if abs(step) <= w * eps * 1000:
                return float((target + w) / mu_d)
        raise ArithmeticError(f"no root for mu={mu}, a={a} in 200 Newton steps")
