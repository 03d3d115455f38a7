"""Independent reference implementations used to pin test expectations.

These deliberately avoid the package's own numerics: roots come from
plain interval bisection, optima from brute-force grids, expectations
from direct Monte Carlo.  Agreement with the package is then evidence,
not tautology.
"""

from __future__ import annotations

import math

import numpy as np


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


def harmonic_oracle(n: int) -> float:
    return sum(1.0 / i for i in range(1, n + 1))


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
