"""End-to-end acceptance checks, one per release criterion.

Each test prints a single pass/fail line so a full run doubles as the
acceptance report: `pytest tests/test_acceptance.py -s -v`.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from coded_incentives import (
    ExperimentSpec,
    PlatformConfig,
    WorkerType,
    assign_loads_hetero,
    build_population,
    default_population,
    expected_runtime_hetero,
    expected_runtime_mds,
    mds_alpha,
    mds_decode,
    mds_encode,
    monte_carlo_runtime,
    run_fig4,
    run_fig5,
    run_fig7,
    simulate_round,
    solve_complete,
    solve_cost_only,
    solve_incomplete,
    solve_lambda,
    verify_ir_ic,
)
from conftest import random_cost_only_instance, random_hetero_instance
from oracles import (
    brute_force_complete,
    lambda_oracle,
    order_statistic_mc,
    w_minus1_oracle,
)


def _report(num: int, text: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {status} - {text}")


def test_c01_threshold_rule_matches_exhaustive_search():
    rng = np.random.default_rng(10_001)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        pop, cfg = random_hetero_instance(rng, max_types=12)
        mech = solve_complete(pop, cfg)
        subset, _ = brute_force_complete(pop, cfg)
        if mech.targeted != subset:
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 60.0
    _report(
        1,
        f"complete-information selection equals exhaustive argmin on "
        f"1000 instances ({mismatches} mismatches, {elapsed:.1f}s)",
        ok,
    )
    assert mismatches == 0
    assert elapsed < 60.0


def test_c02_solver_outputs_are_rational_and_truthful():
    rng = np.random.default_rng(10_002)
    violations = 0
    checked = 0
    for _ in range(1000):
        pop, cfg = random_hetero_instance(rng, max_types=12)
        for solver in (solve_complete, solve_incomplete):
            report = verify_ir_ic(solver(pop, cfg), pop)
            checked += 1
            violations += len(report.ir_violations) + len(report.ic_violations)
    for _ in range(1000):
        types, cfg = random_cost_only_instance(rng, max_workers=300)
        report = verify_ir_ic(solve_cost_only(types, cfg), build_population(types))
        checked += 1
        violations += len(report.ir_violations) + len(report.ic_violations)
    ok = violations == 0
    _report(
        2,
        f"zero rationality/incentive violations across {checked} solved "
        f"offers (tolerance 1e-9 relative)",
        ok,
    )
    assert violations == 0


def test_c03_order_statistic_runtime_matches_simulation():
    rows, mu, a = 1000.0, 2.0, 0.5
    worst = 0.0
    ok = True
    for n, k in ((5, 3), (10, 7), (50, 25), (100, 60)):
        exact = expected_runtime_mds(n, k, rows, mu, a)
        mean, stderr = order_statistic_mc(
            n, k, rows / k, mu, a, reps=100_000, seed=777_000 + 10 * n + k
        )
        pull = abs(mean - exact) / stderr
        worst = max(worst, pull)
        if pull > 3.0:
            ok = False
    _report(
        3,
        f"k-th finisher runtime matches the harmonic formula within 3 "
        f"standard errors at 1e5 replicates (worst pull {worst:.2f})",
        ok,
    )
    assert ok


def test_c04_group_throughput_runtime_at_scale():
    pop = default_population(5000)
    rows = 1000.0
    analytic = expected_runtime_hetero(pop, pop.size, rows)
    assignment = assign_loads_hetero(pop, pop.size, rows)
    estimate = monte_carlo_runtime(
        pop, assignment, pop.ids, rows, reps=200, seed=20260815
    )
    deviation = abs(estimate.expected_runtime - analytic) / analytic
    ok = deviation <= 0.02
    _report(
        4,
        f"simulated many-worker runtime within 2% of rows over group "
        f"throughput at N=5000 (deviation {100 * deviation:.3f}%)",
        ok,
    )
    assert ok


def test_c05_targeted_count_anchors_and_monotonicity():
    table = run_fig4(ExperimentSpec(name="fig4"))
    by_n = {row[0]: row for row in table.rows}
    complete_series = table.column("targeted_complete")
    incomplete_series = table.column("targeted_incomplete")
    complete_at_anchor = by_n[1400.0][1]
    incomplete_at_anchor = by_n[1400.0][2]
    complete_ok = complete_at_anchor == 3.0
    incomplete_ok = incomplete_at_anchor == 4.0
    monotone_ok = all(
        b <= a for a, b in zip(complete_series, complete_series[1:])
    ) and all(b <= a for a, b in zip(incomplete_series, incomplete_series[1:]))
    ok = complete_ok and incomplete_ok and monotone_ok
    _report(
        5,
        f"N=1400 targets 3 complete / 4 incomplete with nonincreasing "
        f"series (got {complete_at_anchor:.0f} complete, "
        f"{incomplete_at_anchor:.0f} incomplete, monotone={monotone_ok})",
        ok,
    )
    assert complete_ok
    assert monotone_ok
    assert incomplete_ok, (
        "the private-cost selection rule targets 3 types at N=1400 for "
        "every valuation ratio; reaching 4 requires gamma1/gamma2 >= 22554 "
        "and <= 7642 simultaneously, so no weighting attains it on this "
        "worker catalog"
    )


def test_c06_cost_gap_sign_threshold_and_non_monotonicity():
    table = run_fig5(
        ExperimentSpec(name="fig5", n_sweep=tuple(range(100, 5001)))
    )
    ns = table.column("N")
    gaps = table.column("gap")
    nonnegative = all(g >= 0.0 for g in gaps)
    first_zero = None
    for n, g in zip(ns, gaps):
        if g == 0.0:
            if first_zero is None:
                first_zero = n
        elif first_zero is not None:
            first_zero = None
    threshold_ok = first_zero is not None and 3000 <= first_zero <= 4000
    increases = sum(1 for a, b in zip(gaps, gaps[1:]) if b > a)
    ok = nonnegative and threshold_ok and increases >= 1
    _report(
        6,
        f"information gap nonnegative, vanishing from N={first_zero:.0f} "
        f"on, with {increases} local increases across the sweep",
        ok,
    )
    assert nonnegative
    assert threshold_ok
    assert increases >= 1


def test_c07_sampled_headcount_gap_vanishes():
    # The default sweep, as `experiment fig7` prints it: N = 100..5000,
    # 200 replications, seed 0.  The pull is |gap_mean| / gap_stderr.
    table = run_fig7(ExperimentSpec(name="fig7"))
    pulls = {
        n: abs(gap_mean) / gap_stderr if gap_stderr > 0 else math.inf
        for n, gap_mean, gap_stderr, _, _ in table.rows
    }
    tail = max(p for n, p in pulls.items() if n >= 2400)
    flat = max(p for n, p in pulls.items() if 1000 <= n <= 1400)
    bump = max(p for n, p in pulls.items() if 1500 <= n <= 2300)
    vanishes = tail <= 3.0
    not_monotone = flat <= 2.0 and bump > 3.0
    _report(
        7,
        f"committed-vs-informed cost gap within 3 standard errors of zero "
        f"for every N>=2400 (worst pull {tail:.2f}); not monotone: within 2 "
        f"over N=1000-1400 (worst {flat:.2f}) but {bump:.2f} at some N in "
        f"1500-2300",
        vanishes and not_monotone,
    )
    assert vanishes
    assert not_monotone


def test_c08_decode_correctness():
    # Three workers, two blocks: the sum shard replaces the straggler.
    A = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    x = np.array([1.0, 10.0])
    gen = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    task = mds_encode(A, 3, 2, generator=gen)
    z2 = task.shards[1] @ x
    z3 = task.shards[2] @ x
    decoded = mds_decode(task, {1: z2, 2: z3})
    exact_ok = np.array_equal(decoded, A @ x) and np.array_equal(
        decoded, np.concatenate([z3 - z2, z2])
    )
    # Cost-only rounds decode from their first k finishers, whichever
    # they are.
    rng = np.random.default_rng(10_008)
    worst = 0.0
    rounds_ok = True
    for count, rows in ((5, 24), (12, 40), (60, 200)):
        types = [
            WorkerType(id=1, cost_rate=1.0, speed=2.0, startup=1.0, count=count)
        ]
        cfg = PlatformConfig(gamma_time=5.0, gamma_pay=1.0, total_rows=rows)
        mech = solve_cost_only(types, cfg)
        pop = build_population(types)
        source = rng.standard_normal((rows, 6))
        vector = rng.standard_normal(6)
        scale = max(1.0, float(np.max(np.abs(source @ vector))))
        for seed in range(40):
            outcome = simulate_round(mech, pop, source, vector, seed)
            rounds_ok &= outcome.realized_k == mech.recovery_threshold
            worst = max(worst, outcome.max_error / scale)
    rounds_ok &= worst <= 1e-8
    ok = exact_ok and rounds_ok
    _report(
        8,
        f"straggler example decodes exactly and 120 cost-only rounds decode "
        f"from their first k finishers within 1e-8 relative (worst "
        f"{worst:.3g})",
        ok,
    )
    assert exact_ok
    assert rounds_ok


def test_c09_recovery_threshold_near_integer_grid_optimum():
    rng = np.random.default_rng(10_009)
    worst = 0.0
    checked = 0
    while checked < 100:
        types, cfg = random_cost_only_instance(rng, max_workers=500)
        mech = solve_cost_only(types, cfg)
        pop = build_population(types)
        participators = sum(pop.member(m)[0].count for m in mech.targeted)
        boundary_cost = pop.member(mech.threshold_type)[0].cost_rate
        speed = types[0].speed
        startup = types[0].startup
        weight = cfg.gamma_time + cfg.gamma_pay * participators * boundary_cost

        def cost_at(k: int) -> float:
            runtime = expected_runtime_mds(
                participators, k, cfg.total_rows, speed, startup
            )
            return weight * runtime

        grid_min = min(cost_at(k) for k in range(1, participators + 1))
        achieved = cost_at(mech.recovery_threshold)
        excess = achieved / grid_min - 1.0
        worst = max(worst, excess)
        checked += 1
    ok = worst <= 0.005
    _report(
        9,
        f"rounded recovery threshold within 0.5% of the integer-grid "
        f"cost minimum on {checked} instances (worst excess "
        f"{100 * worst:.4f}%)",
        ok,
    )
    assert ok


def test_c10_threshold_monotone_in_valuations():
    rng = np.random.default_rng(10_010)
    gamma_times = np.logspace(0.0, 4.0, 20)
    gamma_pays = np.logspace(-1.0, 1.0, 20)
    violations = 0
    for _ in range(50):
        pop, base = random_hetero_instance(rng, max_types=10)
        for solver in (solve_complete, solve_incomplete):
            thresholds = np.empty((20, 20), dtype=int)
            for i, gt in enumerate(gamma_times):
                for j, gp in enumerate(gamma_pays):
                    cfg = PlatformConfig(
                        gamma_time=float(gt),
                        gamma_pay=float(gp),
                        total_rows=base.total_rows,
                    )
                    thresholds[i, j] = solver(pop, cfg).threshold_type
            violations += int(np.sum(np.diff(thresholds, axis=0) < 0))
            violations += int(np.sum(np.diff(thresholds, axis=1) > 0))
    ok = violations == 0
    _report(
        10,
        f"targeted count nondecreasing in the runtime weight and "
        f"nonincreasing in the payment weight on 50 populations x 20x20 "
        f"grid ({violations} violations)",
        ok,
    )
    assert violations == 0


def test_c11_scalar_solvers_match_bisection_oracles():
    rng = np.random.default_rng(10_011)
    worst_lambda = 0.0
    for _ in range(10_000):
        mu = float(rng.uniform(0.05, 200.0))
        a = float(rng.uniform(0.002, 2.0))
        fast = solve_lambda(mu, a)
        slow = lambda_oracle(mu, a)
        worst_lambda = max(worst_lambda, abs(fast - slow) / abs(slow))
    # The recovery fraction read off the row-time root against the
    # Lambert-W closed form 1 + 1/W_-1(-exp(-a*mu - 1)).
    worst_alpha = 0.0
    for _ in range(10_000):
        a = float(rng.uniform(1.001, 40.0)) - 1.0
        fast = mds_alpha(1.0, a)
        slow = 1.0 + 1.0 / w_minus1_oracle(-math.exp(-a - 1.0))
        worst_alpha = max(worst_alpha, abs(fast - slow) / abs(slow))
    ok = worst_lambda <= 1e-9 and worst_alpha <= 1e-9
    _report(
        11,
        f"row-time solver and the recovery fraction match bisection "
        f"oracles on 1e4 inputs each (worst rel err {worst_lambda:.2e} / "
        f"{worst_alpha:.2e})",
        ok,
    )
    assert worst_lambda <= 1e-9
    assert worst_alpha <= 1e-9
