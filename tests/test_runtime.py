"""Load assignment and analytic / Monte Carlo runtime models."""

from __future__ import annotations

import math

import numpy as np
import pytest

from coded_incentives import (
    ConfigurationError,
    InfeasibleError,
    LoadAssignment,
    NumericalError,
    WorkerType,
    PlatformConfig,
    assign_loads_hetero,
    build_population,
    default_population,
    expected_runtime_hetero,
    expected_runtime_mds,
    monte_carlo_runtime,
    solve_incomplete,
)
from oracles import harmonic_oracle, order_statistic_mc


def _pop():
    return build_population(
        [
            WorkerType(id=0, cost_rate=1.0, speed=50.0, startup=0.012, count=4),
            WorkerType(id=0, cost_rate=7.0, speed=100.0, startup=0.024, count=3),
            WorkerType(id=0, cost_rate=9.0, speed=40.0, startup=0.123, count=5),
        ]
    )


class TestAssignLoadsHetero:
    def test_load_formula(self):
        pop = _pop()
        rows = 1000.0
        targeted = (1, 2)
        assignment = assign_loads_hetero(pop, 2, rows)
        group = math.fsum(
            pop.member(m)[0].count * pop.member(m)[1].throughput for m in targeted
        )
        for m in targeted:
            expected = rows / (pop.member(m)[1].row_time * group)
            assert assignment.loads[m - 1] == pytest.approx(expected, rel=1e-12)
        assert assignment.loads[2] == 0.0
        assert assignment.recovery_threshold is None

    def test_loads_equalize_finish_scale(self):
        # Every targeted type finishes on the same expected time scale
        # load * row_time, which equals the group expected runtime, and
        # throughput times that runtime covers the workload.
        pop = _pop()
        rows = 777.0
        assignment = assign_loads_hetero(pop, 3, rows)
        runtime = expected_runtime_hetero(pop, 3, rows)
        for m, load in zip(pop.ids, assignment.loads.tolist()):
            assert load * pop.member(m)[1].row_time == pytest.approx(
                runtime, rel=1e-12
            )
        covered = math.fsum(
            pop.member(m)[0].count * pop.member(m)[1].throughput * runtime
            for m in pop.ids
        )
        assert covered == pytest.approx(rows, rel=1e-9)

    def test_faster_worker_gets_more_rows(self):
        pop = _pop()
        assignment = assign_loads_hetero(pop, 3, 1000.0)
        row_times = {m: pop.member(m)[1].row_time for m in (1, 2, 3)}
        ordered = sorted((1, 2, 3), key=lambda m: row_times[m])
        loads = [assignment.loads[m - 1] for m in ordered]
        assert loads == sorted(loads, reverse=True)

    def test_rejects_bad_inputs(self):
        pop = _pop()
        with pytest.raises(ValueError, match="rows must be positive"):
            assign_loads_hetero(pop, 1, 0.0)
        for threshold in (0, 4):
            with pytest.raises(InfeasibleError, match=f"unknown type id {threshold}"):
                assign_loads_hetero(pop, threshold, 100.0)

    def test_zero_count_targeted_set_infeasible(self):
        pop = _pop().with_counts([0, 0, 5])
        with pytest.raises(InfeasibleError):
            assign_loads_hetero(pop, 2, 100.0)


class TestExpectedRuntimeHetero:
    def test_rows_over_group_throughput(self):
        pop = _pop()
        targeted = (1, 2)
        runtime = expected_runtime_hetero(pop, 2, 1000.0)
        group = math.fsum(
            pop.member(m)[0].count * pop.member(m)[1].throughput for m in targeted
        )
        assert runtime == pytest.approx(1000.0 / group)

    def test_linear_in_rows(self):
        pop = _pop()
        one = expected_runtime_hetero(pop, 3, 100.0)
        ten = expected_runtime_hetero(pop, 3, 1000.0)
        assert ten == pytest.approx(10.0 * one, rel=1e-12)


@pytest.mark.parametrize("view", [assign_loads_hetero, expected_runtime_hetero])
@pytest.mark.parametrize("count", [1e9, 5e8])
def test_overflowing_group_throughput_is_numerical_error(view, count):
    # Each type's throughput is about 3.2e299: at 1e9 workers per type the
    # per-type rates overflow to inf, at 5e8 they are finite (1.6e308) but
    # their sum is not.  Both must end in NumericalError; the suite turns
    # a RuntimeWarning into an error, so no overflow warning may escape.
    pop = build_population(
        [
            WorkerType(id=0, cost_rate=1.0, speed=1e300, startup=1e-300, count=count)
            for _ in range(2)
        ]
    )
    with pytest.raises(NumericalError):
        view(pop, 2, 1000.0)


class TestExpectedRuntimeMds:
    def test_exact_harmonic_form(self):
        rows, mu, a = 900.0, 2.0, 1.0
        for n, k in ((5, 3), (10, 7), (12, 12), (50, 25)):
            runtime = expected_runtime_mds(n, k, rows, mu, a)
            exact = (rows / k) * (
                a + (harmonic_oracle(n) - harmonic_oracle(n - k)) / mu
            )
            assert runtime == pytest.approx(exact, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_runtime_mds(5, 0, 100.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            expected_runtime_mds(5, 6, 100.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            expected_runtime_mds(5, 3, -1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            expected_runtime_mds(5, 3, 100.0, 0.0, 0.1)

    def test_matches_independent_order_statistic_simulation(self):
        n, k, rows, mu, a = 8, 5, 400.0, 3.0, 0.2
        runtime = expected_runtime_mds(n, k, rows, mu, a)
        mean, stderr = order_statistic_mc(
            n, k, rows / k, mu, a, reps=200_000, seed=424242
        )
        assert abs(runtime - mean) <= 4.0 * stderr


class TestLoadAssignmentValidation:
    def test_mds_requires_threshold_and_equal_loads(self):
        # Without a recovery threshold, unequal loads are heterogeneous.
        assert LoadAssignment([5.0, 6.0], 10.0).recovery_threshold is None
        with pytest.raises(ValueError, match="uniform loads must all be rows/k"):
            LoadAssignment([5.0, 6.0], 10.0, recovery_threshold=2)
        ok = LoadAssignment([5.0, 5.0], 10.0, recovery_threshold=2)
        assert ok.recovery_threshold == 2

    def test_hetero_scheme_has_no_recovery_threshold(self):
        with pytest.raises(ValueError, match="uniform loads must all be rows/k"):
            LoadAssignment([5.0, 5.0], 10.0, recovery_threshold=7)

    def test_positive_total_rows_required(self):
        with pytest.raises(ValueError, match="total_rows must be positive"):
            LoadAssignment(loads=[5.0], total_rows=0.0)

    @pytest.mark.parametrize("loads", [[5.0, -1.0], [5.0, math.inf], [[5.0]]])
    def test_loads_must_be_a_row_of_finite_nonnegative_values(self, loads):
        with pytest.raises(ValueError, match="loads must be a row of finite"):
            LoadAssignment(loads=loads, total_rows=10.0)

    def test_positive_loads_required(self):
        with pytest.raises(ValueError):
            LoadAssignment(loads=[0.0], total_rows=10.0)
        with pytest.raises(InfeasibleError):
            LoadAssignment(loads=[], total_rows=10.0)


class TestMonteCarloRuntime:
    def test_seeded_estimate_is_pinned(self):
        # The private-cost offer on the default 1400-worker catalog,
        # 200 replicates from seed 3.
        pop = default_population(1400)
        cfg = PlatformConfig(gamma_time=2000.0, gamma_pay=1.0, total_rows=1000.0)
        mech = solve_incomplete(pop, cfg)
        est = monte_carlo_runtime(
            pop, mech.assignment, mech.targeted, 1000.0, reps=200, seed=3
        )
        assert est.expected_runtime.hex() == "0x1.e7c223a74a2c6p-4"
        assert est.stderr.hex() == "0x1.061dfa458dd04p-12"
        assert {k: p.hex() for k, p in est.realized_k_distribution.items()} == {
            319: "0x1.47ae147ae147bp-6",
            320: "0x1.5c28f5c28f5c3p-4",
            321: "0x1.47ae147ae147bp-4",
            322: "0x1.a3d70a3d70a3dp-3",
            323: "0x1.eb851eb851eb8p-3",
            324: "0x1.851eb851eb852p-3",
            325: "0x1.d70a3d70a3d71p-4",
            326: "0x1.eb851eb851eb8p-5",
            327: "0x1.47ae147ae147bp-8",
        }

    def test_matches_analytic_hetero(self):
        pop = _pop()
        rows = 1000.0
        assignment = assign_loads_hetero(pop, 3, rows)
        analytic = expected_runtime_hetero(pop, 3, rows)
        estimate = monte_carlo_runtime(pop, assignment, (1, 2, 3), rows, 4000, 31)
        assert estimate.stderr is not None
        assert abs(estimate.expected_runtime - analytic) <= max(
            4.0 * estimate.stderr, 0.05 * analytic
        )

    def test_matches_exact_mds(self):
        mu, a, rows, n, k = 2.0, 1.0, 560.0, 10, 7
        pop = build_population(
            [WorkerType(id=0, cost_rate=1.0, speed=mu, startup=a, count=n)]
        )
        assignment = LoadAssignment([rows / k], rows, recovery_threshold=k)
        exact = expected_runtime_mds(n, k, rows, mu, a)
        estimate = monte_carlo_runtime(pop, assignment, (1,), rows, 20_000, 5)
        assert abs(estimate.expected_runtime - exact) <= 4.0 * estimate.stderr

    def test_deterministic_given_seed(self):
        pop = _pop()
        assignment = assign_loads_hetero(pop, 2, 500.0)
        first = monte_carlo_runtime(pop, assignment, (1, 2), 500.0, 50, 9)
        second = monte_carlo_runtime(pop, assignment, (1, 2), 500.0, 50, 9)
        assert first.expected_runtime == second.expected_runtime
        assert first.realized_k_distribution == second.realized_k_distribution

    def test_reps_prefix_stable(self):
        # Streams keyed by (seed, rep) make the first replicates of a
        # longer run identical to a shorter run.
        pop = _pop()
        assignment = assign_loads_hetero(pop, 1, 300.0)
        short = monte_carlo_runtime(pop, assignment, (1,), 300.0, 1, 12)
        longer = monte_carlo_runtime(pop, assignment, (1,), 300.0, 2, 12)
        assert short.stderr is None
        assert longer.stderr is not None

    def test_realized_k_distribution_sums_to_one(self):
        pop = _pop()
        targeted = (1, 2, 3)
        assignment = assign_loads_hetero(pop, 3, 800.0)
        estimate = monte_carlo_runtime(pop, assignment, targeted, 800.0, 400, 3)
        total = math.fsum(estimate.realized_k_distribution.values())
        assert total == pytest.approx(1.0, rel=1e-12)
        n_total = sum(pop.member(m)[0].count for m in targeted)
        assert all(1 <= k <= n_total for k in estimate.realized_k_distribution)

    def test_uncovered_workload_infeasible(self):
        pop = _pop()
        assignment = LoadAssignment(loads=[1.0, 1.0, 1.0], total_rows=1000.0)
        with pytest.raises(InfeasibleError):
            monte_carlo_runtime(pop, assignment, (1, 2, 3), 1000.0, 10, 0)

    def test_missing_loads_infeasible(self):
        pop = _pop()
        assignment = assign_loads_hetero(pop, 1, 100.0)
        with pytest.raises(InfeasibleError):
            monte_carlo_runtime(pop, assignment, (1, 2), 100.0, 10, 0)

    def test_rejects_bad_reps(self):
        pop = _pop()
        assignment = assign_loads_hetero(pop, 1, 100.0)
        with pytest.raises(ValueError):
            monte_carlo_runtime(pop, assignment, (1,), 100.0, 0, 0)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        pop = _pop()
        assignment = assign_loads_hetero(pop, 1, 100.0)
        with pytest.raises(ConfigurationError, match="nonnegative integer"):
            monte_carlo_runtime(pop, assignment, (1,), 100.0, 10, seed)

    def test_numpy_integer_seed_draws_its_replicates(self):
        pop = _pop()
        assignment = assign_loads_hetero(pop, 2, 500.0)
        plain = monte_carlo_runtime(pop, assignment, (1, 2), 500.0, 50, 5)
        typed = monte_carlo_runtime(pop, assignment, (1, 2), 500.0, 50, np.int64(5))
        assert typed.expected_runtime.hex() == plain.expected_runtime.hex()
        assert typed.stderr.hex() == plain.stderr.hex()
        assert typed.realized_k_distribution == plain.realized_k_distribution

    def test_rejects_nonpositive_rows(self):
        pop = _pop()
        assignment = assign_loads_hetero(pop, 1, 100.0)
        with pytest.raises(ValueError, match="rows must be positive, got 0.0"):
            monte_carlo_runtime(pop, assignment, (1,), 0.0, 10, 0)

    def test_empty_targeted_set_is_infeasible(self):
        pop = _pop()
        assignment = assign_loads_hetero(pop, 2, 100.0)
        with pytest.raises(InfeasibleError, match="^targeted set must not be empty$"):
            monte_carlo_runtime(pop, assignment, [], 100.0, 10, 0)

    def test_targeted_set_without_workers_is_infeasible(self):
        pop = _pop().with_counts([0, 3, 5])
        assignment = assign_loads_hetero(pop, 2, 100.0)
        with pytest.raises(InfeasibleError, match="no workers in the targeted set"):
            monte_carlo_runtime(pop, assignment, (1,), 100.0, 10, 0)

    def test_rows_other_than_the_loads_were_sized_for_are_refused(self):
        pop = _pop()
        assignment = assign_loads_hetero(pop, 2, 500.0)
        with pytest.raises(ConfigurationError, match="cover 500 rows, not 1000"):
            monte_carlo_runtime(pop, assignment, (1, 2), 1000.0, 10, 0)
