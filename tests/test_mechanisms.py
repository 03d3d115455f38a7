"""Platform solvers for the three information scenarios."""

from __future__ import annotations

import json
import math
from dataclasses import replace
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
    LoadAssignment,
    Mechanism,
    NumericalError,
    PlatformConfig,
    WorkerType,
    assign_loads_hetero,
    best_response,
    build_population,
    default_population,
    expected_runtime_hetero,
    expected_runtime_mds,
    mds_alpha,
    platform_cost,
    simulate_round,
    solve_complete,
    solve_cost_only,
    solve_incomplete,
    verify_ir_ic,
)
from coded_incentives.mechanisms import (
    _complete_offers,
    _cost_only_offer,
    _prefix_costs,
    _private_offers,
)
from coded_incentives.runtime import expected_runtimes_hetero
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
    @pytest.mark.parametrize(
        "field, value",
        [
            ("reward", math.nan),
            ("reward", math.inf),
            ("expected_runtime", math.nan),
            ("expected_runtime", math.inf),
            ("expected_runtime", -1.0),
            ("expected_runtime", 0.0),
        ],
    )
    def test_rejects_values_outside_their_range(
        self, benchmark_population, benchmark_config, field, value
    ):
        mech = solve_incomplete(benchmark_population, benchmark_config)
        if field == "reward":
            rewards = mech.rewards.copy()
            rewards[1] = value
            changes = {"rewards": rewards}
        else:
            changes = {field: value}
        with pytest.raises(ValueError, match="finite"):
            replace(mech, **changes)

    def test_rewards_nonnegative(self, benchmark_population, benchmark_config):
        mech = solve_complete(benchmark_population, benchmark_config)
        bad = mech.rewards.copy()
        bad[0] = -0.5
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

    def test_rejects_unknown_scenario(self, benchmark_population, benchmark_config):
        mech = solve_incomplete(benchmark_population, benchmark_config)
        with pytest.raises(ValueError, match="unknown scenario 'other'"):
            replace(mech, scenario="other")

    def test_scenario_and_scheme_cannot_disagree(
        self, benchmark_population, benchmark_config
    ):
        # The scenario decides the scheme: relabelling an offer across it,
        # which would play one scheme and price the other, is refused.
        types = [
            WorkerType(id=1, cost_rate=c, speed=50.0, startup=0.012, count=140)
            for c in (1.0, 7.0, 8.0)
        ]
        cost_only = solve_cost_only(types, benchmark_config)
        hetero = solve_incomplete(benchmark_population, benchmark_config)
        for mech, scenario in [
            (cost_only, SCENARIO_INCOMPLETE),
            (cost_only, SCENARIO_COMPLETE),
            (hetero, SCENARIO_COST_ONLY),
        ]:
            with pytest.raises(ValueError, match="recovery threshold iff"):
                replace(mech, scenario=scenario)

    def test_offers_are_the_prefix_views_bit_for_bit(self):
        # Over every prefix of random populations, the views equal the
        # per-type formula on the prefix's correctly rounded throughput,
        # and each solver's offer is the views at its threshold type.
        rng = np.random.default_rng(42)
        for _ in range(40):
            pop, cfg = random_hetero_instance(rng)
            rows, row_times = cfg.total_rows, pop.row_time.tolist()
            rates = (pop.counts * pop.throughput).tolist()
            for t in range(1, pop.size + 1):
                group = math.fsum(rates[:t])
                loads = assign_loads_hetero(pop, t, rows).loads.tolist()
                assert loads[:t] == [rows / (r * group) for r in row_times[:t]]
                assert loads[t:] == [0.0] * (pop.size - t)
                assert expected_runtime_hetero(pop, t, rows) == rows / group
            for solve in (solve_complete, solve_incomplete):
                mech = solve(pop, cfg)
                t = mech.threshold_type
                view = assign_loads_hetero(pop, t, rows).loads
                assert mech.assignment.loads.tobytes() == view.tobytes()
                assert mech.expected_runtime == expected_runtime_hetero(pop, t, rows)

    def test_offers_are_read_only_rows_over_the_population(
        self, benchmark_population, benchmark_config
    ):
        types = [
            WorkerType(id=1, cost_rate=c, speed=2.0, startup=1.0, count=n)
            for c, n in ((1.0, 10), (4.0, 6), (9.0, 4))
        ]
        cfg = PlatformConfig(gamma_time=50.0, gamma_pay=1.0, total_rows=100.0)
        cost_only = solve_cost_only(types, cfg)
        pop = benchmark_population
        offers = [
            (solve_complete(pop, benchmark_config), pop),
            (solve_incomplete(pop, benchmark_config), pop),
            (cost_only, build_population(types)),
        ]
        for mech, pop in offers:
            for row in (mech.rewards, mech.assignment.loads):
                assert row.shape == (pop.size,)
                assert row.dtype == np.float64
                with pytest.raises(ValueError, match="read-only"):
                    row[0] = 1.0
        # The cost-only loads are rows / k on the targeted prefix, 0 beyond.
        assert cost_only.threshold_type == 1
        uniform = cfg.total_rows / cost_only.recovery_threshold
        assert cost_only.assignment.loads.tolist() == [uniform, 0.0, 0.0]

    def test_targeted_type_without_a_positive_load_is_refused(
        self, benchmark_population
    ):
        # 5e-324 rows spread over three types' throughput rounds to 0.
        with pytest.raises(NumericalError, match="load rounds to zero"):
            assign_loads_hetero(benchmark_population, 3, 5e-324)


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
                assert mech.rewards[m - 1] == float(
                    worker.cost_rate * mech.expected_runtime
                )
            else:
                assert mech.rewards[m - 1] == 0.0

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
            assert mech.rewards[m - 1] == pytest.approx(expected, rel=1e-12)

    def test_boundary_reward_equals_cost_bit_exactly(
        self, benchmark_population, benchmark_config
    ):
        mech = solve_incomplete(benchmark_population, benchmark_config)
        boundary = mech.threshold_type
        worker, _ = benchmark_population.member(boundary)
        assert mech.rewards[boundary - 1] == worker.cost_rate * mech.expected_runtime

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


_CATALOG = default_population(1400)


@st.composite
def _populations_with_rows(draw):
    """The bundled catalog or a drawn population of 1 to 12 types, with
    1 to 6 headcount rows over it.  A drawn population's extra types are
    twins of a drawn type or tie its ratio exactly: doubling speed and
    cost and halving start-up doubles the throughput bit for bit."""
    if draw(st.booleans()):
        pop = _CATALOG
    else:
        size = draw(st.integers(min_value=1, max_value=12))
        params = draw(
            st.lists(
                st.tuples(
                    st.floats(min_value=0.5, max_value=25.0),
                    st.floats(min_value=5.0, max_value=500.0),
                    st.floats(min_value=0.005, max_value=0.2),
                ),
                min_size=1,
                max_size=size,
            )
        )
        extras = st.tuples(st.integers(0, len(params) - 1), st.booleans())
        more = size - len(params)
        for i, twin in draw(st.lists(extras, min_size=more, max_size=more)):
            cost, speed, startup = params[i]
            params.append(params[i] if twin else (2 * cost, 2 * speed, startup / 2))
        counts = draw(_count_rows(len(params)))
        pop = build_population(
            WorkerType(0, *type_params, count)
            for type_params, count in zip(params, counts)
        )
    return pop, draw(st.lists(_count_rows(pop.size), min_size=1, max_size=6))


class TestBatchedPrivateOffers:
    """The batched private-cost rule and cost evaluator price every
    counts row bit for bit as a plain scalar scan does, and as the
    scalar solver does."""

    POP = _CATALOG

    @settings(max_examples=60, deadline=None)
    @given(
        case=_populations_with_rows(),
        gamma_time=st.floats(min_value=0.0, max_value=1e4),
        gamma_pay=st.floats(min_value=0.01, max_value=10.0),
        total_rows=st.floats(min_value=1.0, max_value=5000.0),
    )
    def test_rows_match_scalar_oracle(self, case, gamma_time, gamma_pay, total_rows):
        base, rows = case
        cfg = PlatformConfig(gamma_time, gamma_pay, total_rows)
        counts = np.array(rows, dtype=float)
        thresholds, runtimes, rewards, _ = _private_offers(counts, base, cfg)
        informed = _prefix_costs(counts, thresholds, rewards, cfg, runtimes)
        committed = solve_incomplete(base, cfg)
        committed_rewards = committed.rewards.tolist()
        for i, row in enumerate(rows):
            pop = base.with_counts(row)
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
            committed_threshold = [committed.threshold_type]
            try:
                priced = _prefix_costs(
                    counts[i : i + 1],
                    committed_threshold,
                    np.array(committed_rewards),
                    cfg,
                    expected_runtimes_hetero(
                        counts[i : i + 1], base, committed_threshold, total_rows
                    ),
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
        thresholds = _private_offers(np.array([[40.0, 0.0, 40.0]]), pop, cfg)[0]
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
                counts,
                [2],
                np.ones(10),
                benchmark_config,
                expected_runtimes_hetero(
                    counts, self.POP, [2], benchmark_config.total_rows
                ),
            )


class TestBatchedCompleteOffers:
    """The batched complete-information rule prices every counts row bit
    for bit as a plain scalar scan does, and as the scalar solver does."""

    POP = _CATALOG

    @settings(max_examples=60, deadline=None)
    @given(
        case=_populations_with_rows(),
        gamma_time=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e4)),
        gamma_pay=st.floats(min_value=0.01, max_value=10.0),
        total_rows=st.floats(min_value=1.0, max_value=5000.0),
    )
    def test_rows_match_scalar_oracle(self, case, gamma_time, gamma_pay, total_rows):
        base, rows = case
        cfg = PlatformConfig(gamma_time, gamma_pay, total_rows)
        counts = np.array(rows, dtype=float)
        thresholds, runtimes, rewards, _ = _complete_offers(counts, base, cfg)
        priced = _prefix_costs(counts, thresholds, rewards, cfg, runtimes)
        for i, row in enumerate(rows):
            pop = base.with_counts(row)
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
            assert mech.rewards.tolist() == oracle_rewards
            assert mech.expected_cost.hex() == cost.hex()

    def test_bound_met_with_equality_targets_the_longer_prefix(self):
        # Twin types at gamma_time = 0: prefix 2's bound is the shared
        # ratio exactly, so the largest prefix meeting it is 2.
        twin = WorkerType(id=0, cost_rate=3.0, speed=20.0, startup=0.05, count=1)
        pop = build_population([twin, twin])
        cfg = PlatformConfig(gamma_time=0.0, gamma_pay=1.0, total_rows=100.0)
        thresholds = _complete_offers(np.array([[1.0, 1.0]]), pop, cfg)[0]
        assert complete_offer_oracle(pop, cfg)[0] == 2
        assert thresholds.tolist() == [2]
        assert solve_complete(pop, cfg).threshold_type == 2

    def test_row_without_workers_is_infeasible(self, benchmark_config):
        counts = np.array([[140.0] * 10, [0.0] * 10])
        with pytest.raises(InfeasibleError):
            _complete_offers(counts, self.POP, benchmark_config)

    def test_overflowing_bound_is_a_numerical_error(self, benchmark_config):
        # Prefix 2's payment sum 100 * 1e306 + 100 * 2e306 overflows.  At
        # 1e-300 of those costs only type 1 is targeted, so the infinite
        # bound, which every ratio meets, would wrongly admit type 2.
        def population(scale):
            return build_population(
                WorkerType(0, cost * scale, speed, startup, 100)
                for cost, speed, startup in ((1e306, 50.0, 0.012), (2e306, 60.0, 0.02))
            )

        assert solve_complete(population(1e-300), benchmark_config).targeted == (1,)
        with pytest.raises(NumericalError, match="prefix bound overflows"):
            solve_complete(population(1.0), benchmark_config)
        with pytest.raises(NumericalError, match="prefix bound overflows"):
            _complete_offers(np.full((2, 2), 100.0), population(1.0), benchmark_config)
        # The private-cost rule has no such bound and still prices the offer.
        assert solve_incomplete(population(1.0), benchmark_config).targeted == (1,)

    def test_requires_positive_payment_weight(self):
        cfg = PlatformConfig(gamma_time=10.0, gamma_pay=0.0, total_rows=100.0)
        with pytest.raises(ConfigurationError):
            _complete_offers(np.full((2, 10), 140.0), self.POP, cfg)


@pytest.mark.parametrize("rule", [_private_offers, _complete_offers])
class TestRuleErrorOrder:
    """Both batched rules check a batch as one: an empty row outranks an
    overflowing one, and a prefix without workers is never chosen."""

    # Each type's throughput is about 3.2e299: 5e8 workers of each give
    # finite per-type rates whose sum overflows, 1e10 overflow NumPy's
    # product itself.
    POP = build_population([WorkerType(0, 1.0, 1e300, 1e-300, 1)] * 2)

    @pytest.mark.parametrize("overflowing", [[5e8, 5e8], [1e10, 1e10]])
    def test_empty_row_outranks_an_overflowing_one(
        self, rule, overflowing, benchmark_config
    ):
        with pytest.raises(NumericalError, match="throughput overflows"):
            rule(np.array([overflowing]), self.POP, benchmark_config)
        with pytest.raises(InfeasibleError, match="targeted set has no workers"):
            rule(np.array([overflowing, [0.0, 0.0]]), self.POP, benchmark_config)

    def test_leading_empty_types_at_zero_time_weight(self, rule):
        # At gamma_time = 0 an empty prefix's time term is 0/0: it must
        # count as infinite, not as a NaN the private rule's argmin takes.
        cfg = PlatformConfig(gamma_time=0.0, gamma_pay=1.0, total_rows=1000.0)
        counts = np.array([[0.0, 0.0] + _CATALOG.counts[2:].tolist()])
        assert rule(counts, _CATALOG, cfg)[0].tolist() == [3]
        pop = _CATALOG.with_counts(counts[0])
        assert private_offer_oracle(pop, cfg)[0] == 3
        assert complete_offer_oracle(pop, cfg)[0] == 3


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
    # Per-participator costs 1 ulp apart that are equal in exact
    # arithmetic; see test_exact_tie_goes_to_the_shorter_prefix.
    @example(
        pairs=[(3.0, 3), (3.0, 1)],
        gamma_time=0.0,
        gamma_pay=1.2795789663082529,
    )
    def test_threshold_matches_scalar_oracle(self, pairs, gamma_time, gamma_pay):
        types = self._shared_runtime(*zip(*pairs))
        pop = build_population(types)
        cfg = PlatformConfig(gamma_time, gamma_pay, total_rows=100.0)
        threshold = solve_cost_only(types, cfg).threshold_type
        assert threshold == private_offer_oracle(pop, cfg)[0]
        # The per-participator cost scan is the same rule times the shared
        # throughput, so the two may split only a rounding tie.  Each
        # private objective is within (M + 2) u of its exact value (u =
        # 2**-53: M roundings build the prefix throughput, two more the
        # quotient and the sum), each scan value within 4 u, so where the
        # choices differ their scan values are within (2M + 12) u, that
        # many ulps of the larger.
        other = cost_only_threshold_oracle(pop, cfg)
        if other != threshold:
            cum_counts = np.cumsum(pop.counts)
            a, b = (
                (gamma_time + gamma_pay * pop.cost_rate[n - 1] * cum_counts[n - 1])
                / cum_counts[n - 1]
                for n in (threshold, other)
            )
            assert abs(a - b) <= (2 * pop.size + 12) * math.ulp(max(a, b))

    def test_exact_tie_goes_to_the_shorter_prefix(self):
        # Both prefixes cost 1.2795789663082529 * 3 per participator in
        # exact arithmetic; rounded as cost_only_threshold_oracle computes
        # it, the longer prefix's cost comes out 1 ulp lower.
        types = self._shared_runtime((3.0, 3.0), (3, 1))
        cfg = PlatformConfig(0.0, 1.2795789663082529, total_rows=100.0)
        mech = solve_cost_only(types, cfg)
        assert mech.threshold_type == 1
        assert mech.recovery_threshold == 3
        assert f"{mech.expected_cost:.6g}" == "672.785"

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
                )

            assert runtime(mech.recovery_threshold) == min(
                runtime(floor_k), runtime(ceil_k)
            )

    def test_uniform_reward_for_all_types(self):
        cfg = PlatformConfig(gamma_time=50.0, gamma_pay=1.0, total_rows=100.0)
        mech = solve_cost_only(self._types(), cfg)
        values = set(mech.rewards.tolist())
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
                mech.rewards[0],
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
            load == uniform
            for load in mech.assignment.loads[: mech.threshold_type].tolist()
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


class TestPrivateCostRule:
    # Type 1 has no workers, and the gamma_time term of every populated
    # prefix overflows, so no prefix has a finite objective.
    OVERFLOWING = [
        WorkerType(id=1, cost_rate=1e-200, speed=1e-300, startup=1e-12, count=0),
        WorkerType(id=2, cost_rate=1e-200, speed=1e-300, startup=1e-12, count=5),
    ]
    OVERFLOWING_CFG = PlatformConfig(1e300, 1e-300, 1e300)

    @pytest.mark.parametrize(
        "solver, message",
        [
            (solve_complete, "complete-information prefix bound overflows"),
            (solve_incomplete, "private-cost prefix objective overflows"),
            (_cost_only_offer, "private-cost prefix objective overflows"),
        ],
    )
    def test_no_finite_objective_is_a_numerical_error(self, solver, message):
        pop = build_population(self.OVERFLOWING)
        with pytest.raises(NumericalError, match=message):
            solver(pop, self.OVERFLOWING_CFG)

    def test_overflowing_ratio_keeps_a_finite_pay_term(self):
        # Type 2's ratio 1e308 / 0.37 overflows, yet gamma_pay times it is
        # 2.7e8, below the runtime term its throughput saves; taking the
        # pay term as gamma_pay * inf would rank that prefix as infinite.
        types = [
            WorkerType(1, 1.0, 50.0, 0.012, 10),
            WorkerType(2, 1e308, 0.5, 0.1, 1000),
        ]
        cfg = PlatformConfig(1e12, 1e-300, 0.1)
        pop = build_population(types)
        assert pop.ratio[1] == math.inf
        both = solve_incomplete(pop, cfg)
        first = solve_incomplete(build_population(types[:1]), cfg)
        assert both.threshold_type == 2
        assert both.expected_cost < first.expected_cost / 2

    @pytest.mark.parametrize(
        "solver", [solve_complete, solve_incomplete, _cost_only_offer]
    )
    def test_overflowing_summed_throughput_is_refused(self, solver):
        # 1e9 workers of throughput ~3.2e299 sum past the float range,
        # which every solver refuses the same way.
        pop = build_population([WorkerType(1, 1.0, 1e300, 1e-300, 10**9)])
        cfg = PlatformConfig(gamma_time=1.0, gamma_pay=1.0, total_rows=100.0)
        with pytest.raises(NumericalError, match="group throughput overflows"):
            solver(pop, cfg)


class TestPlatformCost:
    @pytest.mark.parametrize(
        "count, reward",
        # Each payment overflows, or only their correctly rounded sum does.
        [(100.0, 5e306), (1.0, 1e308)],
    )
    def test_overflowing_cost_is_a_numerical_error(
        self, benchmark_config, count, reward
    ):
        pop = build_population(
            [WorkerType(0, 1.0, 50.0, 0.012, 1), WorkerType(0, 2.0, 60.0, 0.02, 1)]
        )
        counts = np.full((1, 2), count)
        rows = benchmark_config.total_rows
        runtimes = expected_runtimes_hetero(counts, pop, [2], rows)
        with pytest.raises(NumericalError, match="platform cost overflows"):
            _prefix_costs(counts, [2], [reward] * 2, benchmark_config, runtimes)

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
        exact = expected_runtime_mds(*args)
        approx = mds_log_runtime_oracle(*args)
        assert approx != exact
        assert approx == pytest.approx(exact, rel=0.2)

    def test_rejects_offers_the_population_cannot_price(
        self, benchmark_population, benchmark_config
    ):
        mech = solve_incomplete(benchmark_population, benchmark_config)
        smaller = build_population([benchmark_population.types[0][0]])
        rows = int(benchmark_config.total_rows)
        entry_points = [
            lambda: platform_cost(mech, smaller, benchmark_config),
            lambda: best_response(1, mech, smaller),
            lambda: verify_ir_ic(mech, smaller),
            lambda: simulate_round(mech, smaller, np.ones((rows, 2)), np.ones(2), 0),
        ]
        for call in entry_points:
            with pytest.raises(
                ConfigurationError,
                match="the offer covers 10 types, not 1",
            ):
                call()
        # An offer whose rows disagree, or whose threshold lies beyond
        # them, is refused when it is built.
        with pytest.raises(ValueError, match="rewards and loads must be rows"):
            replace(mech, rewards=mech.rewards[1:])
        with pytest.raises(ValueError, match="threshold type 11 is not offered"):
            replace(mech, threshold_type=11)

    def test_rejects_a_threshold_type_that_is_not_an_integer(
        self, benchmark_population, benchmark_config
    ):
        mech = solve_incomplete(benchmark_population, benchmark_config)
        # Refused where the offer is built, not later by ``targeted``.
        with pytest.raises(
            ConfigurationError, match="threshold type must be an integer, got 3.0"
        ):
            replace(mech, threshold_type=3.0)
        offer = replace(mech, threshold_type=np.int64(3))
        assert type(offer.threshold_type) is int
        assert offer.targeted == (1, 2, 3)

    def test_rejects_cost_only_offers_without_a_feasible_threshold(self):
        types = [WorkerType(id=1, cost_rate=1.0, speed=2.0, startup=1.0, count=10)]
        cfg = PlatformConfig(gamma_time=50.0, gamma_pay=1.0, total_rows=100.0)
        mech = solve_cost_only(types, cfg)
        # A cost-only offer without a recovery threshold is refused when
        # it is built, so platform_cost never meets one.
        with pytest.raises(ValueError, match="recovery threshold iff it is cost-only"):
            replace(mech, assignment=LoadAssignment(mech.assignment.loads, 100.0))
        fewer = build_population([replace(types[0], count=mech.recovery_threshold - 1)])
        with pytest.raises(
            InfeasibleError, match="fewer participators than the recovery threshold"
        ):
            platform_cost(mech, fewer, cfg)

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


class TestArrayContracts:
    """Batched prices are float64 arrays, equal bit for bit to one
    ``math.fsum`` per row; the scalar views hand out Python floats."""

    POP = default_population(1400)
    CFG = PlatformConfig(gamma_time=1000.0, gamma_pay=0.5, total_rows=1000.0)

    def test_batched_prices_are_per_row_fsums(self):
        rng = np.random.default_rng(30)
        counts = rng.integers(0, 300, size=(50, 10)).astype(float)
        counts[0, :4] = 0.0  # leading empty types
        pop, cfg = self.POP, self.CFG
        for rule in (_private_offers, _complete_offers):
            thresholds, runtimes, rewards, groups = rule(counts, pop, cfg)
            costs = _prefix_costs(counts, thresholds, rewards, cfg, runtimes)
            for batch in (groups, runtimes, costs):
                assert isinstance(batch, np.ndarray)
                assert batch.dtype == np.float64 and batch.shape == (50,)
            for r, t in enumerate(thresholds.tolist()):
                group = math.fsum((counts[r] * pop.throughput)[:t].tolist())
                runtime = cfg.total_rows / group
                paid = math.fsum((counts[r] * rewards[r])[:t].tolist())
                cost = cfg.gamma_time * runtime + cfg.gamma_pay * paid
                assert groups[r].hex() == group.hex()
                assert runtimes[r].hex() == runtime.hex()
                assert costs[r].hex() == cost.hex()

    def test_zero_length_prefix_costs_only_its_runtime(self):
        counts = np.full((2, 10), 5.0)
        runtimes = np.array([2.0, 3.0])
        costs = _prefix_costs(counts, [0, 1], np.ones(10), self.CFG, runtimes)
        assert costs.tolist() == [1000.0 * 2.0, 1000.0 * 3.0 + 0.5 * 5.0]

    def test_scalar_views_return_python_floats(self):
        pop, cfg = self.POP, self.CFG
        cost_only = [
            WorkerType(id=1, cost_rate=c, speed=2.0, startup=1.0, count=10)
            for c in (1.0, 4.0, 9.0)
        ]
        mechs = [
            solve_incomplete(pop, cfg),
            solve_complete(pop, cfg),
            solve_cost_only(cost_only, cfg),
        ]
        pops = [pop, pop, build_population(cost_only)]
        for mech, own in zip(mechs, pops):
            values = [
                mech.expected_runtime,
                mech.expected_cost,
                platform_cost(mech, own, cfg),
                *mech.rewards.tolist(),
                *mech.assignment.loads.tolist(),
            ]
            assert all(type(v) is float for v in values), mech.scenario
            assert "np.float64" not in repr(mech)
        runtime = expected_runtime_hetero(pop, 3, cfg.total_rows)
        assert type(runtime) is float
