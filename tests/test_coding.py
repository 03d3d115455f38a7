"""Coded tasks, decoding, load rounding, and round simulation."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from coded_incentives import (
    SCHEME_HETERO,
    SCHEME_MDS,
    ConfigurationError,
    InfeasibleError,
    LoadAssignment,
    Mechanism,
    NumericalError,
    PlatformConfig,
    WorkerType,
    build_population,
    integerize_loads,
    mds_decode,
    mds_encode,
    monte_carlo_runtime,
    read_matrix,
    read_vector,
    simulate_round,
    solve_cost_only,
    vandermonde_generator,
)
from coded_incentives.coding import _COND_LIMIT, _decode_received
from coded_incentives.experiments import DEFAULT_TYPE_PARAMS
from oracles import integerize_oracle


class TestVandermondeGenerator:
    def test_shape_and_column_norms(self):
        gen = vandermonde_generator(7, 4)
        assert gen.shape == (7, 4)
        norms = np.linalg.norm(gen, axis=0)
        assert np.allclose(norms, 1.0, rtol=1e-12)

    def test_every_k_subset_invertible(self):
        gen = vandermonde_generator(5, 3)
        for subset in itertools.combinations(range(5), 3):
            det = np.linalg.det(gen[list(subset)])
            assert abs(det) > 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            vandermonde_generator(3, 0)
        with pytest.raises(ValueError):
            vandermonde_generator(3, 4)
        with pytest.raises(ValueError):
            vandermonde_generator(3.0, 2)


class TestMdsEncode:
    def test_identity_generator_reproduces_plain_split(self):
        A = np.arange(24.0).reshape(6, 4)
        task = mds_encode(A, 2, 2, generator=np.eye(2))
        assert task.padding == 0
        assert task.block_rows == 3
        assert np.array_equal(task.shards[0], A[:3])
        assert np.array_equal(task.shards[1], A[3:])

    def test_padding_recorded_and_stripped_on_decode(self):
        A = np.arange(10.0).reshape(5, 2)
        x = np.array([2.0, -1.0])
        task = mds_encode(A, 4, 3)
        assert task.padding == 1
        assert task.block_rows == 2
        assert task.source_rows == 5
        results = {i: task.shards[i] @ x for i in range(3)}
        decoded = mds_decode(task, results)
        assert decoded.shape == (5,)
        assert np.allclose(decoded, A @ x, atol=1e-10)

    def test_custom_generator_shape_checked(self):
        A = np.ones((4, 2))
        with pytest.raises(ValueError):
            mds_encode(A, 3, 2, generator=np.eye(2))

    def test_rejects_bad_matrix(self):
        with pytest.raises(ValueError):
            mds_encode(np.ones(4), 3, 2)
        with pytest.raises(ValueError):
            mds_encode(np.ones((0, 2)), 3, 2)

    def test_singular_custom_generator_detected(self):
        # With n = k = 2 the only 2-row subsystem is the whole generator,
        # so the spot check must flag the duplicated row.
        gen = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NumericalError):
            mds_encode(np.ones((4, 2)), 2, 2, generator=gen)


class TestMdsDecode:
    def test_returns_none_below_threshold(self):
        A = np.arange(12.0).reshape(6, 2)
        x = np.array([1.0, 1.0])
        task = mds_encode(A, 4, 3)
        results = {0: task.shards[0] @ x, 2: task.shards[2] @ x}
        assert mds_decode(task, results) is None
        assert mds_decode(task, {}) is None

    def test_any_threshold_subset_recovers(self):
        rng = np.random.default_rng(42)
        A = rng.standard_normal((9, 4))
        x = rng.standard_normal(4)
        exact = A @ x
        task = mds_encode(A, 5, 3)
        for subset in itertools.combinations(range(5), 3):
            results = {i: task.shards[i] @ x for i in subset}
            decoded = mds_decode(task, results)
            assert np.max(np.abs(decoded - exact)) <= 1e-8

    def test_sum_code_decodes_exactly_on_integers(self):
        # Workers hold the two halves and their sum; recovering from the
        # second half plus the sum is exact integer arithmetic.
        A = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
        x = np.array([1.0, 10.0])
        gen = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        task = mds_encode(A, 3, 2, generator=gen)
        z2 = task.shards[1] @ x
        z3 = task.shards[2] @ x
        decoded = mds_decode(task, {1: z2, 2: z3})
        assert np.array_equal(decoded, A @ x)

    def test_uses_first_threshold_results_in_arrival_order(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((6, 3))
        x = rng.standard_normal(3)
        task = mds_encode(A, 5, 2)
        results = {3: task.shards[3] @ x, 0: task.shards[0] @ x}
        results[4] = np.zeros(task.block_rows)  # must be ignored
        decoded = mds_decode(task, results)
        assert np.max(np.abs(decoded - A @ x)) <= 1e-8

    def test_rejects_unknown_worker_and_bad_shape(self):
        A = np.ones((4, 2))
        task = mds_encode(A, 3, 2)
        with pytest.raises(ValueError):
            mds_decode(task, {5: np.zeros(2)})
        with pytest.raises(ValueError):
            mds_decode(task, {0: np.zeros(3), 1: np.zeros(3)})


class TestIntegerizeLoads:
    def test_preserves_ceiling_total(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            loads = rng.uniform(0.0, 9.0, size=rng.integers(1, 12)).tolist()
            rounded = integerize_loads(loads)
            assert sum(rounded) == math.ceil(math.fsum(loads))
            assert all(
                math.floor(v) <= r <= math.ceil(v)
                for v, r in zip(loads, rounded)
            )

    def test_tie_goes_to_lower_index(self):
        assert integerize_loads([0.5, 0.5, 1.0]) == [1, 0, 1]

    def test_idempotent_on_integers(self):
        assert integerize_loads([3.0, 2.0, 0.0]) == [3, 2, 0]

    def test_empty(self):
        assert integerize_loads([]) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            integerize_loads([-0.1])
        with pytest.raises(ValueError):
            integerize_loads([math.inf])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
                # Quarters make exact remainder ties common.
                st.integers(0, 40).map(lambda q: q / 4),
                st.just(0.0),
            ),
            max_size=15,
        )
    )
    @example([0.5, 0.5, 0.5, 0.5, 0.5])
    @example([0.0, 2.25, 0.0, 1.25, 0.25])
    def test_matches_scalar_oracle(self, loads):
        assert integerize_loads(loads) == integerize_oracle(loads)


def _hetero_offer(pop, loads, rows, rewards, gamma_time=3.0, gamma_pay=2.0):
    cfg = PlatformConfig(
        gamma_time=gamma_time, gamma_pay=gamma_pay, total_rows=float(rows)
    )
    assignment = LoadAssignment(
        loads=loads, total_rows=float(rows), scheme=SCHEME_HETERO
    )
    targeted = tuple(sorted(loads))
    return Mechanism(
        scenario="incomplete-hetero",
        targeted=targeted,
        threshold_type=max(targeted),
        rewards=rewards,
        assignment=assignment,
        expected_runtime=1.0,
        expected_cost=0.0,
        config=cfg,
    )


def _two_type_population():
    return build_population(
        [
            WorkerType(id=0, cost_rate=1.0, speed=50.0, startup=0.012, count=10),
            WorkerType(id=0, cost_rate=2.0, speed=10.0, startup=0.031, count=5),
        ]
    )


class TestSimulateRoundHetero:
    def _setup(self, seed=5):
        pop = _two_type_population()
        rows = 53
        rng = np.random.default_rng(1)
        A = rng.standard_normal((rows, 2))
        x = rng.standard_normal(2)
        mech = _hetero_offer(
            pop, {1: 5.2, 2: 0.2}, rows, {1: 1000.0, 2: 1000.0}
        )
        return pop, mech, A, x, simulate_round(mech, pop, A, x, seed)

    def test_decodes_product(self):
        _, _, A, x, outcome = self._setup()
        assert outcome.scheme == SCHEME_HETERO
        assert outcome.decoded.shape == (53,)
        assert outcome.max_error <= 1e-8
        assert np.max(np.abs(outcome.decoded - A @ x)) == outcome.max_error

    def test_zero_row_workers_paid_but_not_racing(self):
        pop, mech, _, _, outcome = self._setup()
        # Remainder ties send the three extra rows to the first workers,
        # so every type-2 worker keeps zero rows.
        type2_workers = [w for w, m in outcome.worker_types if m == 2]
        racing = {w for w, _ in outcome.finish_order}
        assert type2_workers
        for w in type2_workers:
            assert w not in racing
            assert outcome.payments[w] == mech.rewards[2]

    def test_payment_and_cost_identity(self):
        _, mech, _, _, outcome = self._setup()
        total = math.fsum(outcome.payments.values())
        expected = (
            mech.config.gamma_time * outcome.runtime
            + mech.config.gamma_pay * total
        )
        assert outcome.platform_cost_realized == expected
        for w, m in outcome.worker_types:
            cost_rate = 1.0 if m == 1 else 2.0
            assert outcome.worker_payoffs[w] == (
                outcome.payments[w] - cost_rate * outcome.runtime
            )

    def test_contributors_cover_rows_and_set_runtime(self):
        _, _, _, _, outcome = self._setup()
        finish = dict(outcome.finish_order)
        assert outcome.runtime == max(finish[w] for w in outcome.contributors)
        assert outcome.realized_k == len(outcome.contributors)

    def test_contributors_are_shortest_covering_prefix(self):
        _, mech, _, _, outcome = self._setup()
        loads = integerize_loads(
            [mech.assignment.loads[m] for _, m in outcome.worker_types]
        )
        ordered = [w for w, _ in outcome.finish_order]
        k = outcome.realized_k
        assert list(outcome.contributors) == ordered[:k]
        covered = sum(loads[w] for w in outcome.contributors)
        assert covered >= 53
        assert covered - loads[outcome.contributors[-1]] < 53

    def test_deterministic_per_seed(self):
        pop, mech, A, x, outcome = self._setup(seed=5)
        repeat = simulate_round(mech, pop, A, x, 5)
        assert repeat.runtime == outcome.runtime
        assert repeat.payments == outcome.payments
        assert np.array_equal(repeat.decoded, outcome.decoded)
        other = simulate_round(mech, pop, A, x, 6)
        assert other.runtime != outcome.runtime

    def test_declining_types_are_absent(self):
        pop = _two_type_population()
        rows = 53
        rng = np.random.default_rng(1)
        A = rng.standard_normal((rows, 2))
        x = rng.standard_normal(2)
        # Type 2 cannot cover its cost and stays out.
        mech = _hetero_offer(pop, {1: 5.3, 2: 4.0}, rows, {1: 1000.0, 2: 0.0})
        outcome = simulate_round(mech, pop, A, x, 3)
        assert outcome.participants == (1,)
        assert all(m == 1 for _, m in outcome.worker_types)
        assert len(outcome.worker_types) == 10

    def test_no_participants_infeasible(self):
        pop = _two_type_population()
        rows = 10
        A = np.ones((rows, 2))
        x = np.ones(2)
        mech = _hetero_offer(pop, {1: 1.0, 2: 1.0}, rows, {1: 0.0, 2: 0.0})
        with pytest.raises(InfeasibleError):
            simulate_round(mech, pop, A, x, 0)

    def test_insufficient_rows_infeasible(self):
        pop = _two_type_population()
        rows = 53
        A = np.ones((rows, 2))
        x = np.ones(2)
        mech = _hetero_offer(pop, {1: 2.0, 2: 1.0}, rows, {1: 500.0, 2: 500.0})
        with pytest.raises(InfeasibleError):
            simulate_round(mech, pop, A, x, 0)

    def test_shape_validation(self):
        pop, mech, A, x, _ = self._setup()
        with pytest.raises(ValueError):
            simulate_round(mech, pop, A, np.ones(3), 0)
        with pytest.raises(ValueError):
            simulate_round(mech, pop, np.ones((10, 2)), np.ones(2), 0)


class TestDecodeReceived:
    def _system(self, rows, unknowns, seed=3):
        rng = np.random.default_rng(seed)
        code = rng.standard_normal((rows, unknowns))
        product = rng.standard_normal(unknowns)
        return code, code @ product, product

    @pytest.mark.parametrize("rows", [40, 43])
    def test_exact_cover_and_overshoot_decode(self, rows):
        code, received, product = self._system(rows, 40)
        decoded = _decode_received(code, received)
        assert np.max(np.abs(decoded - product)) <= 1e-8

    def test_duplicated_row_rejected(self):
        code, _, product = self._system(40, 40)
        code[17] = code[5]
        with pytest.raises(NumericalError):
            _decode_received(code, code @ product)

    @staticmethod
    def _conditioned(cond):
        rng = np.random.default_rng(4)
        left, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        right, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        return (left * np.geomspace(1.0, 1.0 / cond, 40)) @ right

    def test_condition_beyond_limit_rejected(self):
        code = self._conditioned(100.0 * _COND_LIMIT)
        assert np.linalg.cond(code) > _COND_LIMIT
        with pytest.raises(NumericalError):
            _decode_received(code, code @ np.ones(40))

    def test_condition_within_limit_decodes(self):
        code = self._conditioned(1e-3 * _COND_LIMIT)
        decoded = _decode_received(code.copy(), code @ np.ones(40))
        assert np.max(np.abs(decoded - 1.0)) <= 1e-3


class TestSimulateRoundMds:
    def test_seeded_realization_is_pinned(self):
        # float.hex of a cost-only round at seed 17 (ten workers, k = 8).
        types = [
            WorkerType(id=1, cost_rate=1.0, speed=2.0, startup=1.0, count=10)
        ]
        cfg = PlatformConfig(gamma_time=5.0, gamma_pay=1.0, total_rows=12.0)
        mech = solve_cost_only(types, cfg)
        rng = np.random.default_rng(0)
        A = rng.standard_normal((12, 2))
        x = rng.standard_normal(2)
        outcome = simulate_round(mech, build_population(types), A, x, 17)
        assert [(w, t.hex()) for w, t in outcome.finish_order] == [
            (9, "0x1.04cb13a5f8a4ep+1"),
            (1, "0x1.059d717fa2fe0p+1"),
            (6, "0x1.2332e964bf6e8p+1"),
            (4, "0x1.2cee15e12f61ep+1"),
            (2, "0x1.31edab8020437p+1"),
            (7, "0x1.332957a4f8b83p+1"),
            (3, "0x1.436af49db71fcp+1"),
            (5, "0x1.527db4120596ap+1"),
            (0, "0x1.c8607f5b6085ep+1"),
            (8, "0x1.cffc45be272dap+1"),
        ]
        assert outcome.contributors == (9, 1, 6, 4, 2, 7, 3, 5)
        assert outcome.runtime.hex() == "0x1.527db4120596ap+1"
        assert [v.hex() for v in outcome.decoded.tolist()] == [
            "0x1.9e68a740eb4ccp-4",
            "0x1.2d4b3dbbaadfbp-1",
            "-0x1.ccc42119d1f46p-2",
            "0x1.4464c18bd1bc8p+0",
            "-0x1.82711476bef4bp-1",
            "-0x1.1e52b490aaabcp-1",
            "-0x1.0f82566346abdp+1",
            "-0x1.31c9cdaf9085cp+0",
            "-0x1.0afc8686379f0p-1",
            "0x1.e12ec640f1e29p-2",
            "0x1.9443647308d1ap-7",
            "-0x1.22c8acf25920bp-1",
        ]

    def _mechanism(self, count=10, rows=56.0):
        types = [
            WorkerType(id=1, cost_rate=1.0, speed=2.0, startup=1.0, count=count)
        ]
        cfg = PlatformConfig(gamma_time=5.0, gamma_pay=1.0, total_rows=rows)
        return types, cfg, solve_cost_only(types, cfg)

    def test_round_stops_at_threshold_finisher(self):
        types, _, mech = self._mechanism()
        pop = build_population(types)
        rng = np.random.default_rng(0)
        A = rng.standard_normal((56, 3))
        x = rng.standard_normal(3)
        outcome = simulate_round(mech, pop, A, x, 17)
        k = mech.recovery_threshold
        assert outcome.scheme == SCHEME_MDS
        assert outcome.realized_k == k
        ordered = [w for w, _ in outcome.finish_order]
        assert list(outcome.contributors) == ordered[:k]
        assert outcome.runtime == outcome.finish_order[k - 1][1]
        # Stragglers beyond the threshold never contribute.
        assert set(ordered[k:]).isdisjoint(outcome.contributors)
        assert len(ordered) == 10
        assert outcome.max_error <= 1e-6
        assert np.allclose(outcome.decoded, A @ x, atol=1e-6)

    def test_threshold_unreachable_infeasible(self):
        types, cfg, mech = self._mechanism()
        shrunk = build_population(types).with_counts(
            [mech.recovery_threshold - 1]
        )
        A = np.ones((56, 2))
        x = np.ones(2)
        with pytest.raises(InfeasibleError):
            simulate_round(mech, shrunk, A, x, 0)

    def test_missing_recovery_threshold_configuration_error(self):
        types, cfg, mech = self._mechanism()
        pop = build_population(types)
        stripped = Mechanism(
            scenario=mech.scenario,
            targeted=mech.targeted,
            threshold_type=mech.threshold_type,
            rewards=mech.rewards,
            assignment=mech.assignment,
            expected_runtime=mech.expected_runtime,
            expected_cost=mech.expected_cost,
            config=mech.config,
            recovery_threshold=None,
        )
        A = np.ones((56, 2))
        x = np.ones(2)
        with pytest.raises(ConfigurationError):
            simulate_round(stripped, pop, A, x, 0)

    def test_overflowing_generator_is_a_numerical_error(self):
        # Catalog cost rates on one shared runtime, 40 workers per type:
        # 240 participators and threshold 145, where node powers overflow.
        types = [
            WorkerType(id=i + 1, cost_rate=cost, speed=50.0, startup=0.012, count=40)
            for i, (cost, _, _) in enumerate(DEFAULT_TYPE_PARAMS)
        ]
        cfg = PlatformConfig(gamma_time=2000.0, gamma_pay=1.0, total_rows=1000.0)
        mech = solve_cost_only(types, cfg)
        assert 40 * len(mech.targeted) == 240
        assert mech.recovery_threshold == 145
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError):
                simulate_round(
                    mech, build_population(types), np.ones((1000, 2)), np.ones(2), 0
                )

    def test_long_run_cost_matches_expectation(self):
        # Equal-load coded rounds with integer block sizes realize the
        # analytic order-statistic runtime with zero bias, so the mean
        # simulated cost must sit within Monte Carlo noise of the
        # announced expected cost.
        types, cfg, mech = self._mechanism()
        pop = build_population(types)
        rng = np.random.default_rng(1234)
        A = rng.standard_normal((56, 2))
        x = rng.standard_normal(2)
        reps = 10_000
        costs = np.empty(reps)
        for i in range(reps):
            costs[i] = simulate_round(mech, pop, A, x, i).platform_cost_realized
        stderr = float(costs.std(ddof=1)) / math.sqrt(reps)
        assert abs(float(costs.mean()) - mech.expected_cost) <= 3.0 * stderr


class TestRealizedContributorLaw:
    def test_simulation_matches_independent_estimator(self):
        # Four single-worker types with integer loads 3, 2, 2, 1 cover a
        # 7-row workload with either 3 or 4 contributors.  The round
        # simulator and the standalone runtime estimator implement the
        # same stopping law with independent sampling layouts, so their
        # contributor-count histograms must agree statistically.
        pop = build_population(
            [
                WorkerType(id=0, cost_rate=1.0, speed=50.0, startup=0.012, count=1),
                WorkerType(id=0, cost_rate=7.0, speed=100.0, startup=0.024, count=1),
                WorkerType(id=0, cost_rate=8.0, speed=200.0, startup=0.033, count=1),
                WorkerType(id=0, cost_rate=3.0, speed=10.0, startup=0.031, count=1),
            ]
        )
        loads = {1: 3.0, 2: 2.0, 3: 2.0, 4: 1.0}
        rows = 7
        mech = _hetero_offer(
            pop, loads, rows, {m: 1000.0 for m in pop.ids}
        )
        reference = monte_carlo_runtime(
            pop,
            mech.assignment,
            pop.ids,
            float(rows),
            reps=40_000,
            seed=321,
        )
        rng = np.random.default_rng(9)
        A = rng.standard_normal((rows, 2))
        x = rng.standard_normal(2)
        sim_reps = 4000
        observed = {3: 0, 4: 0}
        for i in range(sim_reps):
            outcome = simulate_round(mech, pop, A, x, 10_000 + i)
            observed[outcome.realized_k] += 1
        support = sorted(reference.realized_k_distribution)
        assert support == [3, 4]
        expected_counts = [
            reference.realized_k_distribution[k] * 40_000 for k in support
        ]
        table = np.array(
            [expected_counts, [observed[k] for k in support]]
        )
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > 0.001


class TestMatrixVectorIO:
    def test_matrix_roundtrip(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(
            "# demo matrix\n2 3\n1 2 3\n4 5 6  # trailing comment\n"
        )
        matrix = read_matrix(str(path))
        assert np.array_equal(matrix, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_vector_roundtrip(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("3\n1.5\n-2\n0.25\n")
        vector = read_vector(str(path))
        assert np.array_equal(vector, [1.5, -2.0, 0.25])

    def test_matrix_errors(self, tmp_path):
        bad_header = tmp_path / "a.txt"
        bad_header.write_text("2 0\n")
        with pytest.raises(ConfigurationError):
            read_matrix(str(bad_header))
        short = tmp_path / "b.txt"
        short.write_text("2 2\n1 2 3\n")
        with pytest.raises(ConfigurationError):
            read_matrix(str(short))
        token = tmp_path / "c.txt"
        token.write_text("1 1\nfoo\n")
        with pytest.raises(ConfigurationError):
            read_matrix(str(token))
        empty = tmp_path / "d.txt"
        empty.write_text("# nothing\n")
        with pytest.raises(ConfigurationError):
            read_matrix(str(empty))

    def test_vector_errors(self, tmp_path):
        short = tmp_path / "v.txt"
        short.write_text("3\n1 2\n")
        with pytest.raises(ConfigurationError):
            read_vector(str(short))
        with pytest.raises(ConfigurationError):
            read_vector(str(tmp_path / "absent.txt"))
