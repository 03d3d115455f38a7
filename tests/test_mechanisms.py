"""Platform solvers for the three information scenarios."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coded_incentives import (
    DEFAULT_TYPE_PARAMS,
    SCENARIO_COMPLETE,
    SCENARIO_COST_ONLY,
    SCENARIO_INCOMPLETE,
    ConfigurationError,
    InfeasibleError,
    Mechanism,
    PlatformConfig,
    WorkerType,
    build_population,
    default_population,
    expected_runtime_mds,
    mds_alpha,
    platform_cost,
    solve_complete,
    solve_cost_only,
    solve_incomplete,
)
from coded_incentives.mechanisms import (
    _complete_offers,
    _prefix_costs,
    _private_offers,
)
from conftest import random_cost_only_instance, random_hetero_instance
from oracles import (
    brute_force_complete,
    complete_offer_oracle,
    cost_only_threshold_oracle,
    mds_log_runtime_oracle,
    prefix_cost_oracle,
    private_offer_oracle,
)

# Cost-only offers recorded before the solver read the population
# columns; see TestSolveCostOnly.test_offers_match_recorded_bits.
_COST_ONLY_GOLDEN = json.loads(
    (Path(__file__).parent / "cost_only_bits.json").read_text(encoding="utf-8")
)


class TestPlatformConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlatformConfig(gamma_time=-1.0, gamma_pay=1.0, total_rows=10.0)
        with pytest.raises(ValueError):
            PlatformConfig(gamma_time=1.0, gamma_pay=-1.0, total_rows=10.0)
        with pytest.raises(ValueError):
            PlatformConfig(gamma_time=1.0, gamma_pay=1.0, total_rows=0.0)

    @pytest.mark.parametrize(
        "field", ["gamma_time", "gamma_pay", "total_rows"]
    )
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite(self, field, value):
        values = dict(gamma_time=1.0, gamma_pay=1.0, total_rows=10.0)
        values[field] = value
        with pytest.raises(ValueError, match="finite"):
            PlatformConfig(**values)

    def test_zero_valuations_constructible(self):
        cfg = PlatformConfig(gamma_time=0.0, gamma_pay=0.0, total_rows=10.0)
        assert cfg.gamma_pay == 0.0


class TestMechanismInvariants:
    def test_rewards_nonnegative(self, benchmark_population, benchmark_config):
        mech = solve_complete(benchmark_population, benchmark_config)
        bad = dict(mech.rewards)
        bad[1] = -0.5
        with pytest.raises(ValueError):
            Mechanism(
                scenario=mech.scenario,
                threshold_type=mech.threshold_type,
                rewards=bad,
                assignment=mech.assignment,
                expected_runtime=mech.expected_runtime,
                expected_cost=mech.expected_cost,
                config=mech.config,
            )


class TestSolveComplete:
    def test_benchmark_threshold(self, benchmark_population, benchmark_config):
        mech = solve_complete(benchmark_population, benchmark_config)
        assert mech.threshold_type == 3
        assert mech.targeted == (1, 2, 3)
        assert mech.scenario == SCENARIO_COMPLETE

    def test_rewards_cover_cost_exactly(
        self, benchmark_population, benchmark_config
    ):
        mech = solve_complete(benchmark_population, benchmark_config)
        for m in benchmark_population.ids:
            worker, _ = benchmark_population.member(m)
            if m in mech.targeted:
                assert mech.rewards[m] == float(
                    worker.cost_rate * mech.expected_runtime
                )
            else:
                assert mech.rewards[m] == 0.0

    def test_matches_brute_force_on_benchmark(
        self, benchmark_population, benchmark_config
    ):
        mech = solve_complete(benchmark_population, benchmark_config)
        subset, best = brute_force_complete(benchmark_population, benchmark_config)
        assert mech.targeted == subset
        assert mech.expected_cost == pytest.approx(best, rel=1e-9)

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            pop, cfg = random_hetero_instance(rng, max_types=8)
            mech = solve_complete(pop, cfg)
            subset, best = brute_force_complete(pop, cfg)
            assert mech.targeted == subset
            assert mech.expected_cost == pytest.approx(best, rel=1e-9)

    def test_requires_positive_payment_weight(self, benchmark_population):
        cfg = PlatformConfig(gamma_time=10.0, gamma_pay=0.0, total_rows=100.0)
        with pytest.raises(ConfigurationError):
            solve_complete(benchmark_population, cfg)

    def test_single_type(self):
        pop = build_population(
            [WorkerType(id=1, cost_rate=2.0, speed=10.0, startup=0.1, count=5)]
        )
        cfg = PlatformConfig(gamma_time=100.0, gamma_pay=1.0, total_rows=50.0)
        mech = solve_complete(pop, cfg)
        assert mech.targeted == (1,)


class TestBruteForce:
    def test_type_count_guard(self):
        types = [
            WorkerType(id=i, cost_rate=1.0 + i, speed=10.0, startup=0.1, count=1)
            for i in range(1, 23)
        ]
        pop = build_population(types)
        cfg = PlatformConfig(gamma_time=1.0, gamma_pay=1.0, total_rows=10.0)
        with pytest.raises(ConfigurationError):
            brute_force_complete(pop, cfg)

    def test_tie_resolves_to_smallest_tuple(self):
        # Two identical types with gamma_time = 0 make {1}, {2} and
        # {1, 2} all optimal; the reported subset must be (1,).
        twin = WorkerType(id=0, cost_rate=3.0, speed=20.0, startup=0.05, count=4)
        pop = build_population([twin, twin])
        cfg = PlatformConfig(gamma_time=0.0, gamma_pay=2.0, total_rows=100.0)
        subset, best = brute_force_complete(pop, cfg)
        assert subset == (1,)
        ratio = pop.member(1)[1].ratio
        assert best == pytest.approx(2.0 * ratio * 100.0, rel=1e-12)


class TestSolveIncomplete:
    def test_benchmark_threshold(self, benchmark_population, benchmark_config):
        mech = solve_incomplete(benchmark_population, benchmark_config)
        assert mech.threshold_type == 3
        assert mech.scenario == SCENARIO_INCOMPLETE

    def test_rewards_proportional_to_throughput(
        self, benchmark_population, benchmark_config
    ):
        mech = solve_incomplete(benchmark_population, benchmark_config)
        boundary = mech.threshold_type
        _, factor = benchmark_population.member(boundary)
        for m in benchmark_population.ids:
            _, profile = benchmark_population.member(m)
            expected = (profile.throughput / factor.throughput) * (
                benchmark_population.member(boundary)[0].cost_rate
                * mech.expected_runtime
            )
            assert mech.rewards[m] == pytest.approx(expected, rel=1e-12)

    def test_boundary_reward_equals_cost_bit_exactly(
        self, benchmark_population, benchmark_config
    ):
        mech = solve_incomplete(benchmark_population, benchmark_config)
        boundary = mech.threshold_type
        worker, _ = benchmark_population.member(boundary)
        assert mech.rewards[boundary] == worker.cost_rate * mech.expected_runtime

    def test_cost_identity(self, benchmark_population, benchmark_config):
        # Expected cost collapses to rows * min over prefixes of
        # (gamma_time / prefix throughput + gamma_pay * boundary ratio).
        mech = solve_incomplete(benchmark_population, benchmark_config)
        pop = benchmark_population
        cum_thru = np.cumsum(pop.counts * pop.throughput)
        values = (
            benchmark_config.gamma_time / cum_thru
            + benchmark_config.gamma_pay * pop.ratio
        )
        assert mech.expected_cost == pytest.approx(
            benchmark_config.total_rows * float(values.min()), rel=1e-9
        )

    def test_threshold_is_strict_argmin(self):
        rng = np.random.default_rng(515)
        for _ in range(20):
            pop, cfg = random_hetero_instance(rng, max_types=6)
            mech = solve_incomplete(pop, cfg)
            cum_thru = np.cumsum(pop.counts * pop.throughput)
            values = [
                cfg.gamma_time / cum_thru[n - 1] + cfg.gamma_pay * pop.ratio[n - 1]
                for n in range(1, pop.size + 1)
                if cum_thru[n - 1] > 0
            ]
            ids = [
                n for n in range(1, pop.size + 1) if cum_thru[n - 1] > 0
            ]
            best = min(values)
            assert mech.threshold_type == ids[values.index(best)]

    def test_requires_positive_payment_weight(self, benchmark_population):
        cfg = PlatformConfig(gamma_time=10.0, gamma_pay=0.0, total_rows=100.0)
        with pytest.raises(ConfigurationError):
            solve_incomplete(benchmark_population, cfg)



def _count_rows(size: int):
    """Headcount rows with zero-count types and a run of leading empty
    types, never entirely empty."""
    row = st.tuples(
        st.integers(min_value=0, max_value=size - 1),
        st.lists(
            st.one_of(st.just(0), st.integers(min_value=0, max_value=400)),
            min_size=size,
            max_size=size,
        ),
    ).map(lambda pair: [0] * pair[0] + pair[1][pair[0]:])
    return row.filter(any)


class TestBatchedPrivateOffers:
    """The batched private-cost rule and cost evaluator price every
    counts row bit for bit as a plain scalar scan does, and as the
    scalar solver does."""

    POP = default_population(1400)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(_count_rows(10), min_size=1, max_size=6),
        gamma_time=st.floats(min_value=0.0, max_value=1e4),
        gamma_pay=st.floats(min_value=0.01, max_value=10.0),
        total_rows=st.floats(min_value=1.0, max_value=5000.0),
    )
    def test_rows_match_scalar_oracle(self, rows, gamma_time, gamma_pay, total_rows):
        cfg = PlatformConfig(gamma_time, gamma_pay, total_rows)
        counts = np.array(rows, dtype=float)
        thresholds, runtimes, rewards = _private_offers(counts, self.POP, cfg)
        informed = _prefix_costs(counts, thresholds, rewards, self.POP, cfg)
        committed = solve_incomplete(self.POP, cfg)
        committed_rewards = [committed.rewards[m] for m in self.POP.ids]
        for i, row in enumerate(rows):
            pop = self.POP.with_counts(row)
            threshold, runtime, oracle_rewards, cost = private_offer_oracle(pop, cfg)
            assert int(thresholds[i]) == threshold
            assert float(runtimes[i]).hex() == runtime.hex()
            assert rewards[i].tolist() == oracle_rewards
            assert float(informed[i]).hex() == cost.hex()
            mech = solve_incomplete(pop, cfg)
            assert mech.threshold_type == threshold
            assert mech.expected_cost.hex() == cost.hex()
            expected = prefix_cost_oracle(
                pop, committed.threshold_type, committed_rewards, cfg
            )
            try:
                priced = _prefix_costs(
                    counts[i : i + 1],
                    np.array([committed.threshold_type]),
                    np.array(committed_rewards),
                    self.POP,
                    cfg,
                )[0]
            except InfeasibleError:
                priced = None
            assert (expected is None) == (priced is None)
            if priced is not None:
                assert float(priced).hex() == expected.hex()
                assert platform_cost(committed, pop, cfg).hex() == expected.hex()

    def test_tied_prefixes_resolve_to_the_shorter(self):
        # Type 2 copies type 1 and has no workers, so prefixes 1 and 2
        # reach the same objective value exactly.
        types = [
            WorkerType(id=1, cost_rate=1.0, speed=50.0, startup=0.012, count=40),
            WorkerType(id=2, cost_rate=1.0, speed=50.0, startup=0.012, count=0),
            WorkerType(id=3, cost_rate=7.0, speed=100.0, startup=0.024, count=40),
        ]
        pop = build_population(types)
        cfg = PlatformConfig(gamma_time=1.0, gamma_pay=1.0, total_rows=100.0)
        thresholds, _, _ = _private_offers(np.array([[40.0, 0.0, 40.0]]), pop, cfg)
        assert private_offer_oracle(pop, cfg)[0] == 1
        assert thresholds.tolist() == [1]
        assert solve_incomplete(pop, cfg).threshold_type == 1

    def test_row_without_workers_is_infeasible(self, benchmark_config):
        counts = np.array([[140.0] * 10, [0.0] * 10])
        with pytest.raises(InfeasibleError):
            _private_offers(counts, self.POP, benchmark_config)

    def test_empty_targeted_prefix_is_infeasible(self, benchmark_config):
        counts = np.array([[0.0, 0.0] + [140.0] * 8])
        with pytest.raises(InfeasibleError):
            _prefix_costs(
                counts, np.array([2]), np.ones(10), self.POP, benchmark_config
            )


class TestBatchedCompleteOffers:
    """The batched complete-information rule prices every counts row bit
    for bit as a plain scalar scan does, and as the scalar solver does."""

    POP = default_population(1400)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(_count_rows(10), min_size=1, max_size=6),
        gamma_time=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e4)),
        gamma_pay=st.floats(min_value=0.01, max_value=10.0),
        total_rows=st.floats(min_value=1.0, max_value=5000.0),
    )
    def test_rows_match_scalar_oracle(self, rows, gamma_time, gamma_pay, total_rows):
        cfg = PlatformConfig(gamma_time, gamma_pay, total_rows)
        counts = np.array(rows, dtype=float)
        thresholds, runtimes, rewards = _complete_offers(counts, self.POP, cfg)
        priced = _prefix_costs(counts, thresholds, rewards, self.POP, cfg)
        for i, row in enumerate(rows):
            pop = self.POP.with_counts(row)
            threshold, runtime, oracle_rewards, cost = complete_offer_oracle(pop, cfg)
            assert int(thresholds[i]) == threshold
            assert float(runtimes[i]).hex() == runtime.hex()
            assert [v.hex() for v in rewards[i].tolist()] == [
                v.hex() for v in oracle_rewards
            ]
            assert float(priced[i]).hex() == cost.hex()
            mech = solve_complete(pop, cfg)
            assert mech.threshold_type == threshold
            assert mech.expected_runtime.hex() == runtime.hex()
            assert [mech.rewards[m] for m in pop.ids] == oracle_rewards
            assert mech.expected_cost.hex() == cost.hex()

    def test_bound_met_with_equality_targets_the_longer_prefix(self):
        # Twin types at gamma_time = 0: prefix 2's bound is the shared
        # ratio exactly, so the largest prefix meeting it is 2.
        twin = WorkerType(id=0, cost_rate=3.0, speed=20.0, startup=0.05, count=1)
        pop = build_population([twin, twin])
        cfg = PlatformConfig(gamma_time=0.0, gamma_pay=1.0, total_rows=100.0)
        thresholds, _, _ = _complete_offers(np.array([[1.0, 1.0]]), pop, cfg)
        assert complete_offer_oracle(pop, cfg)[0] == 2
        assert thresholds.tolist() == [2]
        assert solve_complete(pop, cfg).threshold_type == 2

    def test_row_without_workers_is_infeasible(self, benchmark_config):
        counts = np.array([[140.0] * 10, [0.0] * 10])
        with pytest.raises(InfeasibleError):
            _complete_offers(counts, self.POP, benchmark_config)

    def test_requires_positive_payment_weight(self):
        cfg = PlatformConfig(gamma_time=10.0, gamma_pay=0.0, total_rows=100.0)
        with pytest.raises(ConfigurationError):
            _complete_offers(np.full((2, 10), 140.0), self.POP, cfg)


class TestSolveCostOnly:
    def _types(self):
        return [
            WorkerType(id=1, cost_rate=1.0, speed=2.0, startup=1.0, count=10),
            WorkerType(id=2, cost_rate=4.0, speed=2.0, startup=1.0, count=6),
            WorkerType(id=3, cost_rate=9.0, speed=2.0, startup=1.0, count=4),
        ]

    def test_threshold_minimizes_average_cost(self):
        cfg = PlatformConfig(gamma_time=50.0, gamma_pay=1.0, total_rows=100.0)
        mech = solve_cost_only(self._types(), cfg)
        counts = np.array([10.0, 6.0, 4.0])
        costs = np.array([1.0, 4.0, 9.0])
        cum = np.cumsum(counts)
        values = (cfg.gamma_time + cfg.gamma_pay * costs * cum) / cum
        assert mech.threshold_type == int(np.argmin(values)) + 1
        assert mech.scenario == SCENARIO_COST_ONLY

    @staticmethod
    def _shared_runtime(rates, counts):
        return [
            WorkerType(id=i + 1, cost_rate=c, speed=2.0, startup=1.0, count=n)
            for i, (c, n) in enumerate(zip(rates, counts))
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                # A few shared cost rates make exact value ties common.
                st.one_of(
                    st.sampled_from([0.5, 1.0, 3.0]), st.floats(0.1, 30.0)
                ),
                st.one_of(st.just(0), st.integers(0, 60)),
            ),
            min_size=1,
            max_size=8,
        ).filter(lambda pairs: any(n for _, n in pairs)),
        gamma_time=st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
        gamma_pay=st.floats(0.1, 10.0),
    )
    # Leading empty types; an empty type tying its cheaper neighbour.
    @example(
        pairs=[(0.5, 0), (0.5, 0), (1.0, 4), (3.0, 9)],
        gamma_time=50.0,
        gamma_pay=1.0,
    )
    @example(
        pairs=[(1.0, 3), (1.0, 0), (3.0, 2)], gamma_time=0.0, gamma_pay=1.0
    )
    def test_threshold_matches_scalar_oracle(self, pairs, gamma_time, gamma_pay):
        types = self._shared_runtime(*zip(*pairs))
        cfg = PlatformConfig(gamma_time, gamma_pay, total_rows=100.0)
        mech = solve_cost_only(types, cfg)
        oracle = cost_only_threshold_oracle(build_population(types), cfg)
        assert mech.threshold_type == oracle

    def test_recovery_threshold_is_best_rounding(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            types, cfg = random_cost_only_instance(rng, max_workers=200)
            mech = solve_cost_only(types, cfg)
            pop = build_population(types)
            participators = sum(
                pop.member(m)[0].count for m in mech.targeted
            )
            assert 1 <= mech.recovery_threshold <= participators
            speed = types[0].speed
            startup = types[0].startup
            alpha = mds_alpha(speed, startup)
            frac = alpha * participators
            floor_k = min(max(int(math.floor(frac)), 1), participators)
            ceil_k = min(max(int(math.ceil(frac)), 1), participators)

            def runtime(k):
                return expected_runtime_mds(
                    participators, k, cfg.total_rows, speed, startup
                ).expected_runtime

            assert runtime(mech.recovery_threshold) == min(
                runtime(floor_k), runtime(ceil_k)
            )

    def test_uniform_reward_for_all_types(self):
        cfg = PlatformConfig(gamma_time=50.0, gamma_pay=1.0, total_rows=100.0)
        mech = solve_cost_only(self._types(), cfg)
        values = set(mech.rewards.values())
        assert len(values) == 1
        reward = values.pop()
        boundary_cost = self._types()[mech.threshold_type - 1].cost_rate
        assert reward == boundary_cost * mech.expected_runtime

    @pytest.mark.parametrize(
        "speed, startup", [row[1:] for row in DEFAULT_TYPE_PARAMS]
    )
    def test_worker_runtime_is_load_times_row_time(self, speed, startup):
        types = [
            WorkerType(
                id=i + 1, cost_rate=c, speed=speed, startup=startup, count=n
            )
            for i, (c, n) in enumerate(((1.0, 30), (4.0, 50), (9.0, 20)))
        ]
        cfg = PlatformConfig(gamma_time=500.0, gamma_pay=1.0, total_rows=1000.0)
        mech = solve_cost_only(types, cfg)
        load = cfg.total_rows / mech.recovery_threshold
        row_time = build_population(types).member(1)[1].row_time
        assert mech.expected_runtime == load * row_time
        # The logarithmic runtime form of the same quantity.
        alpha = mds_alpha(speed, startup)
        log_form = load * (startup - math.log1p(-alpha) / speed)
        assert abs(mech.expected_runtime - log_form) <= 4 * math.ulp(log_form)

    @pytest.mark.parametrize("profile", DEFAULT_TYPE_PARAMS[:5])
    def test_offers_match_recorded_bits(self, profile):
        # float.hex of threshold type, k, expected runtime, reward,
        # expected cost and platform_cost at N = 100..5000, the catalog's
        # ten cost rates sharing one (speed, startup) pair, N/10 each.
        _, speed, startup = profile
        cfg = PlatformConfig(gamma_time=5000.0, gamma_pay=1.0, total_rows=1000.0)
        rows = []
        for n in range(100, 5001, 100):
            types = [
                WorkerType(i + 1, cost, speed, startup, n // 10)
                for i, (cost, _, _) in enumerate(DEFAULT_TYPE_PARAMS)
            ]
            mech = solve_cost_only(types, cfg)
            values = (
                mech.threshold_type,
                mech.recovery_threshold,
                mech.expected_runtime,
                mech.rewards[1],
                mech.expected_cost,
                platform_cost(mech, build_population(types), cfg),
            )
            rows.append(" ".join(float(v).hex() for v in values))
        assert rows == _COST_ONLY_GOLDEN[f"{speed!r} {startup!r}"]

    def test_uniform_loads(self):
        cfg = PlatformConfig(gamma_time=50.0, gamma_pay=1.0, total_rows=100.0)
        mech = solve_cost_only(self._types(), cfg)
        uniform = cfg.total_rows / mech.recovery_threshold
        assert all(
            load == uniform for load in mech.assignment.loads.values()
        )
        assert mech.assignment.recovery_threshold == mech.recovery_threshold

    def test_rejects_mixed_runtime_parameters(self):
        types = self._types()
        types[1] = WorkerType(
            id=2, cost_rate=4.0, speed=3.0, startup=1.0, count=6
        )
        cfg = PlatformConfig(gamma_time=50.0, gamma_pay=1.0, total_rows=100.0)
        with pytest.raises(ConfigurationError):
            solve_cost_only(types, cfg)

    def test_rejects_empty_and_unpaid(self):
        cfg = PlatformConfig(gamma_time=50.0, gamma_pay=1.0, total_rows=100.0)
        with pytest.raises(ConfigurationError):
            solve_cost_only([], cfg)
        free = PlatformConfig(gamma_time=50.0, gamma_pay=0.0, total_rows=100.0)
        with pytest.raises(ConfigurationError):
            solve_cost_only(self._types(), free)


class TestPlatformCost:
    def test_solver_costs_are_reproducible(
        self, benchmark_population, benchmark_config
    ):
        for solver in (solve_complete, solve_incomplete):
            mech = solver(benchmark_population, benchmark_config)
            assert mech.expected_cost == platform_cost(
                mech, benchmark_population, benchmark_config
            )

    def test_cost_only_exact_vs_approx(self):
        types = [
            WorkerType(id=1, cost_rate=1.0, speed=2.0, startup=1.0, count=10)
        ]
        cfg = PlatformConfig(gamma_time=50.0, gamma_pay=1.0, total_rows=100.0)
        mech = solve_cost_only(types, cfg)
        pop = build_population(types)
        assert mech.expected_cost == platform_cost(mech, pop, cfg)
        assert mech.recovery_threshold < pop.total
        args = (pop.total, mech.recovery_threshold, cfg.total_rows, 2.0, 1.0)
        exact = expected_runtime_mds(*args).expected_runtime
        approx = mds_log_runtime_oracle(*args)
        assert approx != exact
        assert approx == pytest.approx(exact, rel=0.2)

    def test_gamma_pay_zero_cost_evaluation(
        self, benchmark_population, benchmark_config
    ):
        # Cost evaluation (unlike solving) accepts a zero payment weight.
        mech = solve_complete(benchmark_population, benchmark_config)
        free = PlatformConfig(
            gamma_time=benchmark_config.gamma_time,
            gamma_pay=0.0,
            total_rows=benchmark_config.total_rows,
        )
        value = platform_cost(mech, benchmark_population, free)
        assert value == pytest.approx(
            benchmark_config.gamma_time * mech.expected_runtime
        )
