"""Coded tasks, decoding, load rounding, and round simulation."""

from __future__ import annotations

import collections
import copy
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from coded_incentives import coding
from coded_incentives import (
    ConfigurationError,
    InfeasibleError,
    LoadAssignment,
    Mechanism,
    NumericalError,
    PlatformConfig,
    WorkerType,
    build_population,
    default_population,
    integerize_loads,
    mds_decode,
    mds_encode,
    monte_carlo_runtime,
    read_matrix,
    read_vector,
    simulate_round,
    solve_cost_only,
    solve_incomplete,
)
from coded_incentives.coding import (
    _DECODE_COND_LIMIT,
    _PARITY_BLOCK,
    _PROBE_SEED,
    _PROBES,
    _REFINED_COND_LIMIT,
    _decode_received,
    _parity_system,
    _probes,
)
from coded_incentives.experiments import DEFAULT_TYPE_PARAMS
from oracles import integerize_oracle, parity_system_oracle, race_only_rounds


def _gaussian_generator(n, k):
    return np.random.default_rng(0).standard_normal((n, k))


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
        task = mds_encode(A, 4, 3, _gaussian_generator(4, 3))
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

    def test_rejects_bad_counts(self):
        A = np.ones((4, 2))
        with pytest.raises(
            ConfigurationError, match="n must be a nonnegative integer, got 3.0"
        ):
            mds_encode(A, 3.0, 2, _gaussian_generator(3, 2))
        with pytest.raises(
            ValueError, match="threshold must satisfy 1 <= k <= n, got k=4, n=3"
        ):
            mds_encode(A, 3, 4, _gaussian_generator(3, 4))

    def test_rejects_bad_matrix(self):
        with pytest.raises(ValueError):
            mds_encode(np.ones(4), 3, 2, _gaussian_generator(3, 2))
        with pytest.raises(ValueError):
            mds_encode(np.ones((0, 2)), 3, 2, _gaussian_generator(3, 2))

    def test_singular_custom_generator_detected(self):
        # With n = k = 2 the only 2-row subsystem is the whole generator,
        # so the spot check must flag the duplicated row.
        gen = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NumericalError):
            mds_encode(np.ones((4, 2)), 2, 2, generator=gen)

    @pytest.mark.parametrize("entry", [math.inf, math.nan])
    def test_non_finite_generator_detected(self, entry):
        gen = _gaussian_generator(4, 2)
        gen[:, 1] = entry
        with pytest.raises(NumericalError):
            mds_encode(np.ones((4, 2)), 4, 2, generator=gen)


class TestMdsDecode:
    def test_returns_none_below_threshold(self):
        A = np.arange(12.0).reshape(6, 2)
        x = np.array([1.0, 1.0])
        task = mds_encode(A, 4, 3, _gaussian_generator(4, 3))
        results = {0: task.shards[0] @ x, 2: task.shards[2] @ x}
        assert mds_decode(task, results) is None
        assert mds_decode(task, {}) is None

    def test_any_threshold_subset_recovers(self):
        rng = np.random.default_rng(42)
        A = rng.standard_normal((9, 4))
        x = rng.standard_normal(4)
        exact = A @ x
        task = mds_encode(A, 5, 3, _gaussian_generator(5, 3))
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
        task = mds_encode(A, 5, 2, _gaussian_generator(5, 2))
        results = {3: task.shards[3] @ x, 0: task.shards[0] @ x}
        results[4] = np.zeros(task.block_rows)  # must be ignored
        decoded = mds_decode(task, results)
        assert np.max(np.abs(decoded - A @ x)) <= 1e-8

    def test_rejects_unknown_worker_and_bad_shape(self):
        A = np.ones((4, 2))
        task = mds_encode(A, 3, 2, _gaussian_generator(3, 2))
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
        expected = integerize_oracle(loads)
        assert integerize_loads(loads) == expected


def _hetero_offer(pop, loads, rows, rewards, gamma_time=3.0, gamma_pay=2.0):
    cfg = PlatformConfig(
        gamma_time=gamma_time, gamma_pay=gamma_pay, total_rows=float(rows)
    )
    assignment = LoadAssignment(loads=loads, total_rows=float(rows))
    return Mechanism(
        scenario="incomplete-hetero",
        threshold_type=int(np.flatnonzero(loads)[-1]) + 1,
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
            pop, [5.2, 0.2], rows, [1000.0, 1000.0]
        )
        return pop, mech, A, x, simulate_round(mech, pop, A, x, seed)

    def test_decodes_product(self):
        _, _, A, x, outcome = self._setup()
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
            assert outcome.payments[w] == mech.rewards[1]

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
            [mech.assignment.loads[m - 1] for _, m in outcome.worker_types]
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
        mech = _hetero_offer(pop, [5.3, 4.0], rows, [1000.0, 0.0])
        outcome = simulate_round(mech, pop, A, x, 3)
        assert outcome.participants == (1,)
        assert all(m == 1 for _, m in outcome.worker_types)
        assert len(outcome.worker_types) == 10

    def test_no_participants_infeasible(self):
        pop = _two_type_population()
        rows = 10
        A = np.ones((rows, 2))
        x = np.ones(2)
        mech = _hetero_offer(pop, [1.0, 1.0], rows, [0.0, 0.0])
        with pytest.raises(InfeasibleError, match="no worker participates"):
            simulate_round(mech, pop, A, x, 0)

    def test_insufficient_rows_infeasible(self):
        pop = _two_type_population()
        rows = 53
        A = np.ones((rows, 2))
        x = np.ones(2)
        mech = _hetero_offer(pop, [2.0, 1.0], rows, [500.0, 500.0])
        with pytest.raises(
            InfeasibleError, match="participators cover 25 rows, need 53"
        ):
            simulate_round(mech, pop, A, x, 0)

    def test_joiner_without_a_load_infeasible(self):
        # Both types share speed and startup, so type 2 may claim type 1;
        # it joins on type 1's reward, but the offer gives type 2 no load.
        pop = build_population(
            [
                WorkerType(id=0, cost_rate=1.0, speed=50.0, startup=0.012, count=10),
                WorkerType(id=0, cost_rate=2.0, speed=50.0, startup=0.012, count=5),
            ]
        )
        A = np.ones((20, 2))
        x = np.ones(2)
        mech = _hetero_offer(pop, [2.0, 0.0], 20, [100.0, 0.0])
        with pytest.raises(
            InfeasibleError, match=r"no load assigned to participating types \[2\]"
        ):
            simulate_round(mech, pop, A, x, 0)

    def test_shape_validation(self):
        pop, mech, A, x, _ = self._setup()
        with pytest.raises(ConfigurationError, match="vector length"):
            simulate_round(mech, pop, A, np.ones(3), 0)
        with pytest.raises(
            ConfigurationError, match="matrix must be two-dimensional and nonempty"
        ):
            simulate_round(mech, pop, A[:, 0], np.ones(1), 0)
        with pytest.raises(ConfigurationError, match="matrix has 10 rows"):
            simulate_round(mech, pop, np.ones((10, 2)), np.ones(2), 0)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        pop, mech, A, x, _ = self._setup()
        with pytest.raises(ConfigurationError, match="nonnegative integer"):
            simulate_round(mech, pop, A, x, seed)

    def test_numpy_integer_seed_plays_its_round(self):
        pop, mech, A, x, outcome = self._setup(seed=5)
        fingerprint = TestSeededRoundPinned._fingerprint
        assert fingerprint(simulate_round(mech, pop, A, x, np.int64(5))) == (
            fingerprint(outcome)
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        pop, mech, A, x, _ = self._setup()
        bad_A, bad_x = A.copy(), x.copy()
        bad_A[7, 0] = bad
        bad_x[1] = bad
        with pytest.raises(ConfigurationError, match="finite"):
            simulate_round(mech, pop, bad_A, x, 0)
        with pytest.raises(ConfigurationError, match="finite"):
            simulate_round(mech, pop, A, bad_x, 0)

    def test_overflowing_product_is_a_numerical_error(self):
        # Every entry is finite, but each row's product 2e308 overflows.
        pop, mech, A, _, _ = self._setup()
        with pytest.raises(NumericalError, match="not finite"):
            simulate_round(mech, pop, np.full_like(A, 1e308), np.ones(2), 0)


def _anchor_round():
    """The paper's anchor offer: 1400 catalog workers, a 1000-row task."""
    pop = default_population(1400)
    cfg = PlatformConfig(gamma_time=2000.0, gamma_pay=1.0, total_rows=1000.0)
    rng = np.random.default_rng(0)
    A = rng.standard_normal((1000, 4))
    x = rng.standard_normal(4)
    return solve_incomplete(pop, cfg), pop, A, x


def _cost_only_anchor_round():
    """The anchor task under a cost-only offer: the catalog's cost rates
    on one shared runtime (speed 50, startup 0.012), 140 workers each."""
    types = [
        WorkerType(id=i + 1, cost_rate=cost, speed=50.0, startup=0.012, count=140)
        for i, (cost, _, _) in enumerate(DEFAULT_TYPE_PARAMS)
    ]
    cfg = PlatformConfig(gamma_time=2000.0, gamma_pay=1.0, total_rows=1000.0)
    rng = np.random.default_rng(0)
    A = rng.standard_normal((1000, 4))
    x = rng.standard_normal(4)
    return solve_cost_only(types, cfg), build_population(types), A, x


def _two_type_round():
    """Two catalog-like types, ten and five workers, on a 53-row task."""
    pop = _two_type_population()
    rng = np.random.default_rng(1)
    A = rng.standard_normal((53, 2))
    x = rng.standard_normal(2)
    return _hetero_offer(pop, [5.2, 0.2], 53, [1000.0, 1000.0]), pop, A, x


# (seed, runtime, cost, fingerprint) of seeded anchor and two-type rounds.
_ANCHOR_PINS = [
    (1, "0x1.f6e59dbf0c326p-4", "0x1.409c8a3c3f78dp+9",
     "ed18e49db86dc6acae46bec2d968b7685707ede4ed2e41e6dcb0187636109c03"),
    (2, "0x1.f9aa377bae654p-4", "0x1.414989c4cd124p+9",
     "3737cd012c23e50ee72565539df17a7c9227f471882f06a5d110ab91078dd126"),
    (3, "0x1.0d64bc9f0c22bp-3", "0x1.495fab52c3eb8p+9",
     "c0ba23e67cfbe3431d7dce98df2f01a457c6a80dec55d52eb3ac693a43ceba10"),
]
_TWO_TYPE_PINS = [
    (5, "0x1.3dd99a09357adp-2", "0x1.d4c3b98cce1bap+14",
     "ce8e8f4ea5634d4af069a88156922481387846f5c22541de80ecefa860e68641"),
    (6, "0x1.9839067a3d47fp-3", "0x1.d4c2645589b76p+14",
     "5c7596d6648e50558aff3458a5b3bfd5bb6af36d935e3fd80c573575cce9fbd6"),
    (7, "0x1.97eca9b96ac78p-2", "0x1.d4c4c7c5fd2c4p+14",
     "e2ac485bfab4708aa48994ff5c56483b85f8db941bfc3f35493f17a4517ce550"),
]


class TestSeededRoundPinned:
    """What a seeded heterogeneous round realizes besides its decode.

    Finish times are drawn before anything the code or the decode
    draws, so the race, the contributors, the runtime and the costs of
    a seeded round must not move when the code or the decode changes;
    only ``decoded`` and ``max_error`` may.  The fingerprint also holds
    the participating types, each worker's type and payoff.
    """

    @staticmethod
    def _fingerprint(outcome):
        text = "\n".join(
            [
                " ".join(f"{w}:{t.hex()}" for w, t in outcome.finish_order),
                " ".join(map(str, outcome.contributors)),
                outcome.runtime.hex(),
                " ".join(
                    f"{w}:{p.hex()}" for w, p in sorted(outcome.payments.items())
                ),
                outcome.platform_cost_realized.hex(),
                " ".join(map(str, outcome.participants)),
                " ".join(f"{w}:{t}" for w, t in outcome.worker_types),
                " ".join(
                    f"{w}:{p.hex()}"
                    for w, p in sorted(outcome.worker_payoffs.items())
                ),
            ]
        )
        return hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize("seed, runtime, cost, digest", _ANCHOR_PINS)
    def test_anchor_round(self, seed, runtime, cost, digest):
        mech, pop, A, x = _anchor_round()
        outcome = simulate_round(mech, pop, A, x, seed)
        assert outcome.runtime.hex() == runtime
        assert outcome.platform_cost_realized.hex() == cost
        assert self._fingerprint(outcome) == digest

    @pytest.mark.parametrize("seed, runtime, cost, digest", _TWO_TYPE_PINS)
    def test_two_type_round(self, seed, runtime, cost, digest):
        mech, pop, A, x = _two_type_round()
        outcome = simulate_round(mech, pop, A, x, seed)
        assert outcome.runtime.hex() == runtime
        assert outcome.platform_cost_realized.hex() == cost
        assert self._fingerprint(outcome) == digest


def _record_best_responses(monkeypatch):
    """Record how many types each ``best_response`` a round asks for
    decides."""
    calls = []
    best_response = coding.best_response

    def recording(mech, pop):
        rows = best_response(mech, pop)
        calls.append(rows[0].size)
        return rows

    monkeypatch.setattr(coding, "best_response", recording)
    return calls


class TestRoundPlan:
    """Participation, loads and payments are built once per offer and
    population object and reused by the rounds that replay them."""

    def test_participation_is_decided_once_per_offer(self, monkeypatch):
        calls = _record_best_responses(monkeypatch)
        mech, pop, A, x = _anchor_round()
        simulate_round(mech, pop, A, x, 1)
        assert calls == [pop.size]
        calls.clear()
        for seed in (2, 3, 4):
            simulate_round(mech, pop, A, x, seed)
        assert calls == []

    def test_a_new_offer_or_population_object_rebuilds_the_plan(self, monkeypatch):
        fingerprint = TestSeededRoundPinned._fingerprint
        calls = _record_best_responses(monkeypatch)
        mech, pop, A, x = _anchor_round()
        first = fingerprint(simulate_round(mech, pop, A, x, 1))
        # Equal values, new objects: the plan is keyed by identity.
        for offer, population in [
            (copy.copy(mech), pop),
            (mech, pop.with_counts(pop.counts)),
        ]:
            calls.clear()
            outcome = simulate_round(offer, population, A, x, 1)
            assert calls == [pop.size]
            assert fingerprint(outcome) == first

    def test_alternating_offers_replay_their_pinned_rounds(self):
        anchor = _anchor_round()
        two_type = _two_type_round()
        plays = [
            (anchor, _ANCHOR_PINS[0]),
            (anchor, _ANCHOR_PINS[1]),
            (two_type, _TWO_TYPE_PINS[0]),
            (anchor, _ANCHOR_PINS[2]),
            (two_type, _TWO_TYPE_PINS[1]),
            (two_type, _TWO_TYPE_PINS[2]),
        ]
        for (mech, pop, A, x), (seed, runtime, cost, digest) in plays:
            outcome = simulate_round(mech, pop, A, x, seed)
            assert outcome.runtime.hex() == runtime
            assert outcome.platform_cost_realized.hex() == cost
            assert TestSeededRoundPinned._fingerprint(outcome) == digest

    def test_each_outcome_owns_its_payments(self):
        mech, pop, A, x = _two_type_round()
        first = simulate_round(mech, pop, A, x, 5)
        expected = dict(first.payments)
        first.payments[0] = -1.0
        first.payments.clear()
        second = simulate_round(mech, pop, A, x, 5)
        assert second.payments == expected
        assert second.platform_cost_realized == mech.config.gamma_time * (
            second.runtime
        ) + mech.config.gamma_pay * math.fsum(expected.values())

    def test_plan_arrays_are_read_only(self):
        mech, pop, _, _ = _two_type_round()
        plan = coding._round_plan(mech, pop)
        arrays = [
            plan.racing, *plan.racers, plan.loads, plan.owner,
            plan.pay, plan.cost_rate,
        ]
        for array in arrays:
            with pytest.raises(ValueError):
                array.flags.writeable = True

    @pytest.mark.parametrize(
        "loads, rewards, message",
        [
            ([1.0, 1.0], [0.0, 0.0], "no worker participates"),
            ([2.0, 1.0], [500.0, 500.0], "participators cover 25 rows, need 53"),
        ],
    )
    def test_an_infeasible_offer_raises_on_every_call(
        self, monkeypatch, loads, rewards, message
    ):
        calls = _record_best_responses(monkeypatch)
        pop = _two_type_population()
        mech = _hetero_offer(pop, loads, 53, rewards)
        A, x = np.ones((53, 2)), np.ones(2)
        for seed in range(3):
            calls.clear()
            with pytest.raises(InfeasibleError, match=message):
                simulate_round(mech, pop, A, x, seed)
            assert calls == [pop.size]


def _ci_cost_only_round():
    """The cost-only offer CI's ``cost-only.cfg`` gives: cost rates 1, 7
    and 8 on one shared runtime (speed 50, startup 0.012), 140 workers
    each, on the default 1000-row task."""
    types = [
        WorkerType(id=i + 1, cost_rate=cost, speed=50.0, startup=0.012, count=140)
        for i, cost in enumerate([1.0, 7.0, 8.0])
    ]
    cfg = PlatformConfig(gamma_time=2000.0, gamma_pay=1.0, total_rows=1000.0)
    rng = np.random.default_rng(0)
    A = rng.standard_normal((1000, 4))
    x = rng.standard_normal(4)
    return solve_cost_only(types, cfg), build_population(types), A, x


class TestRaceOnlyReplay:
    """The race-only estimator's round i is ``simulate_round``'s round i
    without the decode."""

    @pytest.mark.parametrize(
        "build, seeds",
        [(_anchor_round, range(200)), (_ci_cost_only_round, range(50))],
        ids=["anchor", "cost-only"],
    )
    def test_runtime_and_realized_k_match_the_decoded_rounds(self, build, seeds):
        mech, pop, A, x = build()
        outcomes = [simulate_round(mech, pop, A, x, seed) for seed in seeds]
        replay = race_only_rounds(mech, pop, seeds)
        assert [o.runtime.hex() for o in outcomes] == [
            t.hex() for t in replay.runtimes.tolist()
        ]
        assert [o.realized_k for o in outcomes] == replay.realized_k.tolist()
        boundary = [w for w, m in outcomes[0].worker_types if m == mech.targeted[-1]][0]
        assert [o.worker_payoffs[boundary].hex() for o in outcomes] == [
            p.hex() for p in replay.boundary_payoffs.tolist()
        ]
        assert replay.mean_runtime == np.mean([o.runtime for o in outcomes])
        assert replay.boundary_payoff == np.mean(
            [o.worker_payoffs[boundary] for o in outcomes]
        )
        assert replay.k_distribution == {
            k: n / len(outcomes)
            for k, n in sorted(collections.Counter(replay.realized_k.tolist()).items())
        }
        assert replay.stderr > 0

    def test_the_replay_does_not_decode(self, monkeypatch):
        def no_decode(*args):
            raise AssertionError("a race-only round decodes nothing")

        monkeypatch.setattr(coding, "_decode_round", no_decode)
        mech, pop, _, _ = _anchor_round()
        assert race_only_rounds(mech, pop, range(3)).realized_k.size == 3


class TestLazyViews:
    """An outcome's ``finish_order``, ``contributors``, ``payments`` and
    ``worker_payoffs`` are built on first read from what it holds."""

    VIEWS = ("finish_order", "contributors", "payments", "worker_payoffs")

    def test_each_view_is_built_once(self):
        mech, pop, A, x = _two_type_round()
        outcome = simulate_round(mech, pop, A, x, 3)
        for name in self.VIEWS:
            assert getattr(outcome, name) is getattr(outcome, name)

    def test_each_outcome_owns_its_dicts(self):
        mech, pop, A, x = _two_type_round()
        first = simulate_round(mech, pop, A, x, 5)
        payments, payoffs = dict(first.payments), dict(first.worker_payoffs)
        pay = coding._round_plan(mech, pop).pay.tolist()
        first.payments[0] = -1.0
        first.worker_payoffs[0] = -1.0
        first.worker_payoffs.clear()
        first.payments.clear()
        second = simulate_round(mech, pop, A, x, 5)
        assert second.payments == payments == dict(enumerate(pay))
        assert second.worker_payoffs == payoffs
        assert coding._round_plan(mech, pop).pay.tolist() == pay
        assert first.payments == {} and first.worker_payoffs == {}

    def test_views_read_late_equal_views_read_at_once(self):
        mech, pop, A, x = _anchor_round()
        at_once = simulate_round(mech, pop, A, x, 7)
        expected = {name: getattr(at_once, name) for name in self.VIEWS}
        late = simulate_round(mech, pop, A, x, 7)
        for seed in range(100, 120):
            simulate_round(mech, pop, A, x, seed)
        assert {name: getattr(late, name) for name in self.VIEWS} == expected

    def test_held_arrays_are_read_only(self):
        mech, pop, A, x = _two_type_round()
        outcome = simulate_round(mech, pop, A, x, 2)
        for array in (
            outcome._finishers, outcome._finish_times, outcome._pay, outcome._payoffs
        ):
            with pytest.raises(ValueError):
                array[0] = 0


def _uniform_round(count, startup):
    """A cost-only offer on one type of ``count`` identical workers and a
    12-row task."""
    types = [
        WorkerType(id=1, cost_rate=1.0, speed=2.0, startup=startup, count=count)
    ]
    cfg = PlatformConfig(gamma_time=5.0, gamma_pay=1.0, total_rows=12.0)
    return solve_cost_only(types, cfg), build_population(types)


def _record_unknowns(monkeypatch):
    """Record how many missing entries each round solves for, 0 for a
    round every copy reached."""
    unknowns = []
    decode = coding._decode_round

    def recording(rng, source, vector, exact, owner, used):
        unknowns.append(source.shape[0] - int(used[owner].sum()))
        return decode(rng, source, vector, exact, owner, used)

    monkeypatch.setattr(coding, "_decode_round", recording)
    return unknowns


class TestSystematicCopies:
    """Once per offer the racing workers are ranked by expected finish
    time ``load * (startup + 1 / speed)``, ties by index, and dealt whole
    loads of systematic copies in that order until ``rows`` are dealt."""

    @staticmethod
    def _dealt_in_order(plan, pop, rows):
        """The copies each racing worker should hold, by racing position,
        dealt one worker at a time in (expected finish time, index)
        order."""
        startup = {m: pop.startup[m - 1] for m in plan.participants}
        speed = {m: pop.speed[m - 1] for m in plan.participants}
        loads, racing = plan.loads.tolist(), plan.racing.tolist()

        def expected(position):
            m = plan.worker_types[racing[position]][1]
            return loads[position] * (startup[m] + 1.0 / speed[m])

        copies, left = [0] * len(loads), rows
        for position in sorted(
            range(len(loads)), key=lambda p: (expected(p), racing[p])
        ):
            copies[position] = min(loads[position], left)
            left -= copies[position]
        return copies

    @pytest.mark.parametrize(
        "build", [_anchor_round, _two_type_round, _cost_only_anchor_round]
    )
    def test_copies_cover_the_rows_within_each_load(self, build):
        mech, pop, _, _ = build()
        plan = coding._round_plan(mech, pop)
        rows = int(mech.config.total_rows)
        copies = _copies(plan)
        assert copies.sum() == rows
        assert np.all((copies >= 0) & (copies <= plan.loads))

    @pytest.mark.parametrize("build", [_anchor_round, _two_type_round])
    def test_copies_go_to_the_first_expected_finishers(self, build):
        mech, pop, _, _ = build()
        plan = coding._round_plan(mech, pop)
        expected = self._dealt_in_order(plan, pop, int(mech.config.total_rows))
        assert _copies(plan).tolist() == expected

    def test_ties_go_to_the_lower_index(self):
        # Loads 5.3 and 0.6 round to 6 rows for worker 0, 5 for workers
        # 1-9 and 1 for each type-2 worker, expected to finish at 0.192,
        # 0.16 and 0.131.  Of 48 copies the type-2 workers take 5, then
        # the tied five-row workers take the rest by index.
        pop = _two_type_population()
        mech = _hetero_offer(pop, [5.3, 0.6], 48, [1000.0, 1000.0])
        plan = coding._round_plan(mech, pop)
        assert plan.loads.tolist() == [6] + [5] * 9 + [1] * 5
        assert _copies(plan).tolist() == [0] + [5] * 8 + [3] + [1] * 5

    def test_zero_row_workers_between_racing_ones(self, monkeypatch):
        # Loads 0.2 and 6.0 round to one row for workers 0 and 1, none
        # for workers 2-9 and six for each type-2 worker, so racing
        # position p is not worker p.  The one-row workers, expected to
        # finish first, take a copy each; the type-2 workers take the
        # other 26 in index order.
        pop = _two_type_population()
        mech = _hetero_offer(pop, [0.2, 6.0], 28, [1000.0, 1000.0])
        plan = coding._round_plan(mech, pop)
        assert plan.racing.tolist() == [0, 1, 10, 11, 12, 13, 14]
        assert plan.loads.tolist() == [1, 1, 6, 6, 6, 6, 6]
        assert _copies(plan).tolist() == self._dealt_in_order(plan, pop, 28)
        assert _copies(plan).tolist() == [1, 1, 6, 6, 6, 6, 2]
        calls = _record_decode(monkeypatch)
        rng = np.random.default_rng(1)
        A = rng.standard_normal((28, 3))
        x = rng.standard_normal(3)
        position = {w: p for p, w in enumerate(plan.racing.tolist())}
        for seed in range(20):
            outcome = simulate_round(mech, pop, A, x, seed)
            slots, loads, received = calls[-1]
            used = [position[w] for w in outcome.contributors]
            assert np.array_equal(received, _slots_of(slots, loads, sorted(used)))
            known = received[received < 28]
            assert np.array_equal(outcome.decoded[known], (A @ x)[known])
            assert outcome.max_error <= 1e-8 * max(1.0, np.max(np.abs(A @ x)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: _uniform_round(10, 1.0),
            lambda: _uniform_round(25, 0.1),
            lambda: _cost_only_anchor_round()[:2],
        ],
        ids=["10-workers", "25-workers", "anchor"],
    )
    def test_uniform_scheme_deals_by_index(self, build):
        mech, pop = build()
        plan = coding._round_plan(mech, pop)
        # Every worker races, so racing position w is worker w.
        assert plan.racing.tolist() == list(range(plan.loads.size))
        dealt = np.cumsum(plan.loads) - plan.loads
        rows = int(mech.config.total_rows)
        assert np.array_equal(_copies(plan), np.clip(rows - dealt, 0, plan.loads))

    def test_anchor_rounds_miss_few_entries(self, monkeypatch):
        # About 205 entries are missing per anchor round, against about
        # 251 with the copies spread over every slot.
        unknowns = _record_unknowns(monkeypatch)
        mech, pop, A, x = _anchor_round()
        for seed in range(500):
            simulate_round(mech, pop, A, x, seed)
        assert len(unknowns) == 500
        assert np.mean(unknowns) <= 215

    def test_anchor_rounds_refuse_nothing(self):
        mech, pop, A, x = _anchor_round()
        scale = max(1.0, float(np.max(np.abs(A @ x))))
        worst = max(
            simulate_round(mech, pop, A, x, seed).max_error
            for seed in range(100000, 101000)
        )
        assert worst <= 1e-8 * scale


def _record_cond(monkeypatch):
    """Record the shape of each matrix ``np.linalg.cond`` is asked about."""
    shapes = []
    cond = np.linalg.cond

    def recording(matrix, *args):
        shapes.append(matrix.shape)
        return cond(matrix, *args)

    monkeypatch.setattr(np.linalg, "cond", recording)
    return shapes


def _record_refine(monkeypatch):
    """Record the shape of each block ``coding._refine`` refines."""
    shapes = []
    refine = coding._refine

    def recording(square, *args):
        shapes.append(square.shape)
        return refine(square, *args)

    monkeypatch.setattr(coding, "_refine", recording)
    return shapes


def _copies(plan):
    """How many systematic copies each of ``plan``'s racing workers
    holds, counted from each copy's owner."""
    return np.bincount(plan.owner, minlength=plan.loads.size)


def _slots_of(slots, loads, workers):
    """The coded slots ``workers`` hold: slots are laid out in load order,
    so with ``ends = cumsum(loads)`` worker w holds
    ``slots[ends[w] - loads[w]:ends[w]]``."""
    ends = np.cumsum(loads)
    return np.concatenate([slots[ends[w] - loads[w]:ends[w]] for w in workers])


def _dealt_slots(rows, loads, copies, held):
    """Every worker's coded slots in load order, as ``_slots_of`` reads
    them: worker w's ``copies[w]`` systematic copies, of the source rows
    ``held`` gives them in worker order, then its parity slots, numbered
    ``rows`` on in the same order."""
    is_copy = np.arange(loads.max(initial=0)) < copies[:, None]
    is_copy = is_copy[np.arange(loads.max(initial=0)) < loads[:, None]]
    slots = np.empty(int(loads.sum()), dtype=int)
    slots[is_copy] = held
    slots[~is_copy] = rows + np.arange(slots.size - rows)
    return slots


def _record_decode(monkeypatch):
    """Record each round's dealt slots, loads and the slots it received,
    all by racing position, from the decode stage's inputs and the
    round's plan, the last one built; the permutation of the copies is
    replayed from a copy of the round's stream."""
    calls = []
    decode = coding._decode_round

    def recording(rng, source, vector, exact, owner, used):
        rows = source.shape[0]
        plan = coding._plan_memo[2]
        loads = plan.loads.astype(int)
        held = copy.deepcopy(rng).permutation(rows)
        slots = _dealt_slots(rows, loads, _copies(plan), held)
        calls.append((slots, loads, _slots_of(slots, loads, np.flatnonzero(used))))
        return decode(rng, source, vector, exact, owner, used)

    monkeypatch.setattr(coding, "_decode_round", recording)
    return calls


class TestSystematicDecode:
    @pytest.mark.parametrize("cols", [2, 256])
    def test_exact_cover_needs_no_parity(self, monkeypatch, cols):
        # Loads 6, 6, 6, 5, ..., 5 for type 1 and 0 for type 2 sum to
        # exactly 53 rows: every slot is systematic and nothing is solved,
        # so the decode is the round's product itself, bit for bit (a
        # copy of the arrived rows times x rounds apart from it at 256
        # columns, by 5e-15 to 7e-15).
        def no_solve(square, rhs):
            raise AssertionError("an exact cover has no missing entry")

        monkeypatch.setattr(coding, "_decode_received", no_solve)
        calls = _record_decode(monkeypatch)
        pop = _two_type_population()
        rng = np.random.default_rng(1)
        A = rng.standard_normal((53, cols))
        x = rng.standard_normal(cols)
        mech = _hetero_offer(pop, [5.2, 0.2], 53, [1000.0, 1000.0])
        for seed in range(5):
            outcome = simulate_round(mech, pop, A, x, seed)
            _, loads, received = calls[-1]
            assert loads.sum() == 53
            assert sorted(received.tolist()) == list(range(53))
            racing = sorted(w for w, _ in outcome.finish_order)
            assert sorted(outcome.contributors) == racing
            assert outcome.max_error == 0.0
            assert np.array_equal(outcome.decoded.view(np.uint64), (A @ x).view(np.uint64))

    def test_anchor_spreads_systematic_slots_over_types(self, monkeypatch):
        calls = _record_decode(monkeypatch)
        mech, pop, A, x = _anchor_round()
        outcome = simulate_round(mech, pop, A, x, 1)
        (slots, loads, _), = calls
        racing = coding._plan_memo[2].racing
        type_of = np.array([m for _, m in outcome.worker_types])[racing]
        assert len(outcome.participants) == 3
        for m in outcome.participants:
            with_rows = np.flatnonzero(type_of == m)
            assert with_rows.size
            assert np.any(_slots_of(slots, loads, with_rows) < 1000)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_decode_within_promised_accuracy(self, data):
        load1 = data.draw(st.floats(0.01, 8.0), label="type-1 load")
        load2 = data.draw(st.floats(0.01, 8.0), label="type-2 load")
        # Ten type-1 and five type-2 workers hold at least this many rows.
        capacity = int(10 * load1 + 5 * load2)
        assume(capacity >= 1)
        rows = data.draw(st.integers(1, capacity), label="rows")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        pop = _two_type_population()
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((rows, 3))
        x = rng.standard_normal(3)
        mech = _hetero_offer(
            pop, [load1, load2], rows, [1000.0, 1000.0]
        )
        with pytest.MonkeyPatch.context() as patch:
            calls = _record_decode(patch)
            outcome = simulate_round(mech, pop, A, x, seed)
        (_, _, received), = calls
        missing = rows - int(np.sum(received < rows))
        assert int(np.sum(received >= rows)) >= missing
        scale = max(1.0, float(np.max(np.abs(A @ x))))
        assert outcome.max_error <= 1e-8 * scale

    def test_small_blocks_never_refused(self, monkeypatch):
        # Loads 5.3 and 0.6 round to 56 slots for 53 rows, so a round
        # solves for at most 3 missing entries.  The 3 parity rows go to
        # the worker expected to finish last, worker 0 with 6 rows, whom
        # every round needs: each round receives all 3 and solves from
        # the first of them.  A uniform (-1, 1) block is never exactly
        # singular; a 2x2 block of +-1 entries is singular half the time.
        calls = _record_decode(monkeypatch)
        pop = _two_type_population()
        rng = np.random.default_rng(1)
        A = rng.standard_normal((53, 2))
        x = rng.standard_normal(2)
        scale = max(1.0, float(np.max(np.abs(A @ x))))
        mech = _hetero_offer(pop, [5.3, 0.6], 53, [1000.0, 1000.0])
        for seed in range(2000):
            assert simulate_round(mech, pop, A, x, seed).max_error <= 1e-8 * scale
        shapes = {
            (53 - int(np.sum(received < 53)), int(np.sum(received >= 53)))
            for _, _, received in calls
        }
        assert shapes == {(0, 3), (1, 3), (2, 3), (3, 3)}

    def test_ill_conditioned_parity_block_rejected(
        self, plant_ill_conditioned_parity
    ):
        pop = _two_type_population()
        rng = np.random.default_rng(1)
        A = rng.standard_normal((53, 2))
        x = rng.standard_normal(2)
        mech = _hetero_offer(pop, [8.0, 0.2], 53, [1000.0, 1000.0])
        assert simulate_round(mech, pop, A, x, 5).max_error <= 1e-8
        # The planted block's condition number is about 1e9, beyond what
        # 1e-8 accuracy allows.
        plant_ill_conditioned_parity(53)
        with pytest.raises(NumericalError):
            simulate_round(mech, pop, A, x, 5)


# (offer, seed, unknowns, refined, runtime, cost) of rounds whose block the
# condition estimate refuses or once refused.
_REFUSAL_PINS = [
    # Every round of 20,000 seeds of each offer (100000-119999)
    # whose block the estimate refuses, but cost-only 119679,
    # whose block is past the refined limit (below).
    ("anchor", 111029, 195, True, "0x1.0e1dc411f0d3ep-3", "0x1.49ba03f5dd960p+9"),
    ("anchor", 117524, 185, True, "0x1.ffa1679ce429ep-4", "0x1.42be6304e8b2cp+9"),
    ("cost-only", 105224, 420, True, "0x1.eb8836014e6c9p-4", "0x1.ec82cd12ced6ep+8"),
    ("cost-only", 105600, 384, True, "0x1.fd3bf1cc29b26p-4", "0x1.f5278fc4dbe80p+8"),
    ("cost-only", 107419, 412, True, "0x1.f1b9af22c2c83p-4", "0x1.ef88f53824a7ap+8"),
    ("cost-only", 111714, 388, True, "0x1.db1ee58424931p-4", "0x1.e47f60c5b167bp+8"),
    ("cost-only", 112795, 416, True, "0x1.f97311ae73711p-4", "0x1.f34e7a5659ea2p+8"),
    # Refused while the copies were shuffled over every slot;
    # 101235's block was past the decode limit itself.
    ("anchor", 101358, 220, False, "0x1.e50cee843f64bp-4", "0x1.3c4123746478ap+9"),
    ("anchor", 114016, 196, False, "0x1.edd8c570c3caep-4", "0x1.3e66e76d22cb9p+9"),
    ("anchor", 101235, 181, False, "0x1.0aa742f866332p-3", "0x1.480926ec64e58p+9"),
    ("cost-only", 102270, 364, False, "0x1.d0431dd5f1352p-4", "0x1.df321045a252dp+8"),
    ("cost-only", 112650, 384, False, "0x1.044abd1c8b5f0p-3", "0x1.fab247620ba6ap+8"),
]


class TestOnceRefusedRounds:
    """Anchor rounds whose square parity block the condition estimate
    refuses.  Each block's exact 2-norm condition number is within the
    refined limit, so the round's solve is refined once; neither check
    may move the pinned race and costs.  The rounds the estimate refused
    while the copies were spread over every slot by one shuffle keep
    their race and cost pins; dealt to the first expected finishers,
    their copies leave blocks the estimate accepts."""

    @pytest.mark.parametrize(
        "offer, seed, unknowns, refined, runtime, cost",
        _REFUSAL_PINS,
        ids=[f"{offer}-{seed}" for offer, seed, *_ in _REFUSAL_PINS],
    )
    def test_decodes_from_the_square_block(
        self, monkeypatch, offer, seed, unknowns, refined, runtime, cost
    ):
        solved = _record_unknowns(monkeypatch)
        conds = _record_cond(monkeypatch)
        refines = _record_refine(monkeypatch)
        build = _anchor_round if offer == "anchor" else _cost_only_anchor_round
        mech, pop, A, x = build()
        outcome = simulate_round(mech, pop, A, x, seed)
        assert solved == [unknowns]
        checked = [(unknowns, unknowns)] if refined else []
        assert conds == checked
        assert refines == checked
        scale = max(1.0, float(np.max(np.abs(A @ x))))
        assert outcome.max_error <= 1e-8 * scale
        assert outcome.runtime.hex() == runtime
        assert outcome.platform_cost_realized.hex() == cost

    def test_refined_rounds_keep_the_promise(self, monkeypatch):
        # Each anchor round's square block is moved to a target 2-norm
        # condition number by raising its smallest singular value; its
        # right-hand side, with the rounding it was formed with, moves
        # by the same rank-one change times the missing entries.  The
        # targets are just within the refined limit and the limit itself,
        # where an unrefined solve erred by up to 1.04 times the promise.
        parity_system = coding._parity_system

        def planted(rng, source, vector, missing, known_values):
            square, rhs = parity_system(rng, source, vector, missing, known_values)
            left, values, right = np.linalg.svd(square)
            shift = values[0] / target - values[-1]
            square += shift * np.outer(left[:, -1], right[-1])
            rhs += shift * left[:, -1] * (right[-1] @ (source @ vector)[missing])
            return square, rhs

        monkeypatch.setattr(coding, "_parity_system", planted)
        refines = _record_refine(monkeypatch)
        mech, pop, A, x = _anchor_round()
        scale = max(1.0, float(np.max(np.abs(A @ x))))
        for target in [0.99 * _REFINED_COND_LIMIT, 1.0 * _DECODE_COND_LIMIT]:
            for seed in range(20):
                outcome = simulate_round(mech, pop, A, x, seed)
                assert outcome.max_error <= 1e-8 * scale, (target, seed)
        assert len(refines) == 40

    def test_accepted_rounds_run_no_svd(self, monkeypatch):
        def no_svd(*args):
            raise AssertionError("an accepted block needs no second opinion")

        monkeypatch.setattr(np.linalg, "cond", no_svd)
        mech, pop, A, x = _anchor_round()
        scale = max(1.0, float(np.max(np.abs(A @ x))))
        for seed in range(50):
            assert simulate_round(mech, pop, A, x, seed).max_error <= 1e-8 * scale

    @pytest.mark.xfail(
        strict=True,
        raises=NumericalError,
        reason="ROADMAP item 17: the refined limit refuses a block whose "
        "refined solve keeps the promise",
    )
    def test_refused_cost_only_round_decodes_within_the_promise(self):
        # The one cost-only round of seeds 100000-119999 whose block is
        # past the refined limit: 412 unknowns, 2-norm condition number
        # 9.98e7, 1.5 times the limit.  One refined solve of that block
        # errs by 3.0e-10 of the scale.
        mech, pop, A, x = _cost_only_anchor_round()
        scale = max(1.0, float(np.max(np.abs(A @ x))))
        outcome = simulate_round(mech, pop, A, x, 119679)
        assert outcome.max_error <= 1e-8 * scale

    @pytest.mark.xfail(
        strict=True,
        raises=NumericalError,
        reason="ROADMAP item 17: the refined limit refuses a block whose "
        "refined solve keeps the promise",
    )
    def test_refused_anchor_round_decodes_within_the_promise(self):
        # The first heterogeneous round on record whose block is past the
        # refined limit: 205 unknowns, 2-norm condition number 6.91e7,
        # just past the limit's 6.75e7.  One refined solve of that block
        # errs by 7.5e-10 of the scale.
        mech, pop, A, x = _anchor_round()
        scale = max(1.0, float(np.max(np.abs(A @ x))))
        outcome = simulate_round(mech, pop, A, x, 627550221)
        assert outcome.max_error <= 1e-8 * scale

    def test_refused_benchmark_round_decodes_within_the_promise(self):
        # round-hetero's 27th round at seed 366, on that seed's own matrix
        # and vector.  With the copies spread over every slot by one
        # shuffle, its block's 2-norm condition number was 2.07e8, 3.1
        # times the refined limit, so the round was refused.  Dealt to
        # the first expected finishers, the copies leave a smaller block
        # that decodes as it is.
        mech, pop, _, _ = _anchor_round()
        rng = np.random.default_rng(366)
        A = rng.standard_normal((1000, 4))
        x = rng.standard_normal(4)
        scale = max(1.0, float(np.max(np.abs(A @ x))))
        outcome = simulate_round(mech, pop, A, x, 1202591379)
        assert outcome.max_error <= 1e-8 * scale


def _traced_peak(call):
    """``call()``'s result and its traced allocation peak in bytes."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


class TestParitySystem:
    """A round forms its parity system from the rows' factors, one
    parity row per missing entry; the square block must be the one a
    single draw of every row's factors builds at full width, bit for
    bit, and the received results must be as accurate as that dense
    build's."""

    @staticmethod
    def _inputs(rows, known_share=0.75, cols=4, seed=None, unknowns=None):
        """A source matrix and vector, the missing entries and the known
        values, zero at the missing entries: each entry known with
        probability ``known_share``, or ``unknowns`` of them missing."""
        rng = np.random.default_rng(rows if seed is None else seed)
        source = rng.standard_normal((rows, cols))
        vector = rng.standard_normal(cols)
        if unknowns is None:
            known = rng.random(rows) < known_share
        else:
            known = np.ones(rows, dtype=bool)
            known[rng.choice(rows, unknowns, replace=False)] = False
        known_values = np.where(known, source @ vector, 0.0)
        return source, vector, np.flatnonzero(~known), known_values

    @staticmethod
    def _assert_same_system(got, expected):
        # Only the summation order of the received results differs.
        (square, rhs), (square_ref, rhs_ref) = got, expected
        assert square.shape == square_ref.shape == (rhs.size, rhs.size)
        assert np.array_equal(square.view(np.uint64), square_ref.view(np.uint64))
        scale = float(np.max(np.abs(rhs_ref)))
        assert np.max(np.abs(rhs - rhs_ref)) <= 1e-12 * scale

    def _check_one_shot_draw(self, rows, unknowns, cols=4):
        source, vector, missing, known_values = self._inputs(
            rows, cols=cols, unknowns=unknowns
        )
        blocked, one_shot = np.random.default_rng(7), np.random.default_rng(7)
        square, rhs = _parity_system(blocked, source, vector, missing, known_values)
        self._assert_same_system(
            (square, rhs),
            parity_system_oracle(one_shot, source, vector, missing, known_values),
        )
        # LAPACK reads the block column by column.
        assert square.flags.f_contiguous
        # Both leave the stream at the same position.
        assert blocked.random() == one_shot.random()
        # Less the known share, a parity row's result is its missing
        # columns times the product's missing entries.
        expected = square @ (source @ vector)[missing]
        assert np.max(np.abs(rhs - expected)) <= 1e-12 * np.max(np.abs(rhs))

    @pytest.mark.parametrize("rows", [1, 2, 12, 1000])
    @pytest.mark.parametrize(
        "count", [1, _PARITY_BLOCK - 1, _PARITY_BLOCK, _PARITY_BLOCK + 1, 250]
    )
    def test_matches_one_shot_draw(self, rows, count):
        # ``count`` entries are missing; at 1, 2 and 12 rows a count past
        # the rows leaves no entry known.
        self._check_one_shot_draw(rows, min(count, rows))

    @pytest.mark.parametrize("count", [1, _PARITY_BLOCK + 1, 250])
    def test_matches_one_shot_draw_over_a_wide_matrix(self, count):
        # 256 columns against a 32-row grid: results are formed a few
        # parity rows at a time, so the chunks' seams are exercised.
        self._check_one_shot_draw(1000, count, cols=256)

    @staticmethod
    def _received_reference(rng, source, vector, missing, known_values):
        """The received results less the known share, as the dense
        oracle sums them, in extended precision."""
        rows, count = known_values.size, missing.size
        width = math.isqrt(rows - 1) + 1
        height = -(-rows // width)
        factors = rng.uniform(-1.0, 1.0, (count, height + width))
        factors = factors.astype(np.longdouble)
        source, vector = source.astype(np.longdouble), vector.astype(np.longdouble)
        known_values = known_values.astype(np.longdouble)
        reference = np.empty(count, dtype=np.longdouble)
        for start in range(0, count, _PARITY_BLOCK):
            block = factors[start : start + _PARITY_BLOCK]
            outer = block[:, :height, None] * block[:, None, height:]
            parity = outer.reshape(len(block), -1)[:, :rows]
            reference[start : start + _PARITY_BLOCK] = (
                parity @ source
            ) @ vector - parity @ known_values
        return reference

    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
        reason="the reference needs an extended-precision long double",
    )
    @pytest.mark.parametrize("rows", [1000, 4000])
    def test_received_results_as_accurate_as_dense_rows(self, rows):
        # Summed factor by factor, a received result errs by no more than
        # the full-width row's product does: 80 seeded inputs put the
        # ratio of the two errors at a median of 0.55 and a max of 0.88.
        for seed in range(10):
            inputs = self._inputs(rows, seed=[rows, seed])
            reference = self._received_reference(np.random.default_rng(seed), *inputs)
            _, rhs = _parity_system(np.random.default_rng(seed), *inputs)
            _, dense = parity_system_oracle(np.random.default_rng(seed), *inputs)
            error = float(np.max(np.abs(rhs - reference)))
            dense_error = float(np.max(np.abs(dense - reference)))
            assert error <= 1.5 * dense_error, (seed, error, dense_error)

    @pytest.mark.parametrize("rows, draws", [(1, 2), (12, 7), (1000, 64), (1025, 65)])
    def test_draws_one_factor_pair_per_row(self, rows, draws):
        # A rows-row round's grid is width = isqrt(rows - 1) + 1 wide and
        # ceil(rows / width) high: a parity row costs height + width
        # uniforms, about 2 sqrt(rows), not rows.
        unknowns = min(rows, 5)
        inputs = self._inputs(rows, unknowns=unknowns)
        drawn, fresh = np.random.default_rng(3), np.random.default_rng(3)
        _parity_system(drawn, *inputs)
        fresh.random((unknowns, draws))
        assert drawn.random() == fresh.random()

    @pytest.mark.parametrize("known_share", [0.0, 1.0])
    def test_no_known_or_no_missing_entry(self, known_share):
        # With no entry known the known share is zero; with none missing
        # the system is empty, draws nothing and sizes no chunk by its
        # zero count.
        source, vector, missing, known_values = self._inputs(12, known_share)
        drawn, fresh = np.random.default_rng(7), np.random.default_rng(7)
        got = _parity_system(drawn, source, vector, missing, known_values)
        expected = parity_system_oracle(fresh, source, vector, missing, known_values)
        if missing.size:
            self._assert_same_system(got, expected)
        else:
            assert [a.shape for a in got] == [(0, 0), (0,)]
        assert drawn.random() == fresh.random()

    @pytest.mark.parametrize("block", [1, 7, 64, 10**6])
    @pytest.mark.parametrize("cols, unknowns", [(4, 250), (256, 250)])
    def test_chunk_rule_keeps_the_system(self, monkeypatch, block, cols, unknowns):
        # A 1000-row grid is 32 x 32 with a partial last row.  However
        # many missing entries or parity rows a chunk takes, from one at a
        # time to one pass, the square block is the same bit for bit and
        # only the received results' summation order moves.
        inputs = self._inputs(1000, cols=cols, unknowns=unknowns)
        one_pass = _parity_system(np.random.default_rng(7), *inputs)
        monkeypatch.setattr(coding, "_PARITY_BLOCK", block)
        square, rhs = _parity_system(np.random.default_rng(7), *inputs)
        assert np.array_equal(square.view(np.uint64), one_pass[0].view(np.uint64))
        scale = float(np.max(np.abs(one_pass[1])))
        assert np.max(np.abs(rhs - one_pass[1])) <= 1e-13 * scale

    @pytest.mark.parametrize("rows, cols, unknowns", [(8000, 4, 1600), (1000, 256, 250)])
    def test_temporaries_stay_within_the_block_bound(self, rows, cols, unknowns):
        # Beside the square block it returns, the system holds its
        # factors and a few temporaries of at most _PARITY_BLOCK parity
        # rows at full width each; forming the 8000-row square block's
        # gather or the wide matrix's received results in one pass
        # would not fit.
        inputs = self._inputs(rows, cols=cols, unknowns=unknowns)
        (square, _), peak = _traced_peak(
            lambda: _parity_system(np.random.default_rng(7), *inputs)
        )
        width = math.isqrt(rows - 1) + 1
        height = -(-rows // width)
        assert peak < square.nbytes + 3 * _PARITY_BLOCK * height * width * 8

    def test_scaled_random_is_uniform_bit_for_bit(self):
        for seed in range(2000):
            shape = (1 + seed % 7, 1 + seed % 61)
            scaled = np.random.default_rng(seed).random(shape)
            scaled *= 2.0
            scaled -= 1.0
            uniform = np.random.default_rng(seed).uniform(-1.0, 1.0, shape)
            assert np.array_equal(scaled.view(np.uint64), uniform.view(np.uint64))

    @staticmethod
    def _anchor_round_peak(rows, cols):
        """The traced allocation peak of one seeded anchor round over a
        ``rows x cols`` matrix, and that round's decode error relative to
        the round's promise scale."""
        pop = default_population(1400)
        cfg = PlatformConfig(gamma_time=2000.0, gamma_pay=1.0, total_rows=float(rows))
        mech = solve_incomplete(pop, cfg)
        rng = np.random.default_rng(0)
        A = rng.standard_normal((rows, cols))
        x = rng.standard_normal(cols)
        outcome, peak = _traced_peak(lambda: simulate_round(mech, pop, A, x, 1))
        return peak, outcome.max_error / max(1.0, float(np.max(np.abs(A @ x))))

    def test_anchor_round_at_4000_rows_stays_small(self):
        # Forming every parity row at full width at once held ~1000 rows
        # of 4000 entries plus two gathers of them, a ~60 MiB peak; formed
        # from the factors, the round's largest array is the ~8 MiB square
        # block (8.9 MiB traced).
        peak, error = self._anchor_round_peak(4000, 4)
        assert peak < 20 * 2**20
        assert error <= 1e-8

    def test_anchor_round_over_a_wide_matrix_stays_small(self):
        # A 1000 x 256 round reads its arrived entries from its one
        # product and copies no source row; its parity system holds no
        # result as wide as the matrix beyond one chunk of 8 parity rows
        # (0.5 MiB), so the round's traced peak, the square block with
        # that chunk, is ~1.2 MiB.
        peak, error = self._anchor_round_peak(1000, 256)
        assert peak < 1.4 * 2**20
        assert error <= 1e-8


class TestDecodeReceived:
    def test_probes_are_a_fresh_draw_of_their_size(self):
        # Each size is cut from the table drawn at the next power of two:
        # 12 from 16 rows, 200 and 251 from one 256-row table.
        for unknowns, table in [(1, 1), (2, 2), (12, 16), (200, 256), (251, 256)]:
            probes = _probes(unknowns)
            fresh = np.random.default_rng(_PROBE_SEED).standard_normal(
                (unknowns, _PROBES)
            )
            assert np.array_equal(probes.view(np.uint64), fresh.view(np.uint64))
            assert not probes.flags.writeable
            assert not probes.base.flags.writeable
            assert probes.base.shape == (table, _PROBES)
        assert _probes(251).base is _probes(200).base

    def _system(self, rows, unknowns, seed=3):
        rng = np.random.default_rng(seed)
        code = rng.standard_normal((rows, unknowns))
        product = rng.standard_normal(unknowns)
        return code, code @ product, product

    @pytest.mark.parametrize("rows", [40, 43])
    def test_exact_cover_and_overshoot_decode(self, rows):
        # Holding more parity rows than unknowns, a round solves with the
        # leading square block.
        code, received, product = self._system(rows, 40)
        decoded = _decode_received(code[:40], received[:40])
        assert np.max(np.abs(decoded - product)) <= 1e-8

    def test_matrix_right_hand_side(self):
        # Block decodes solve several right-hand sides with one guard.
        code, _, _ = self._system(40, 40)
        products = np.random.default_rng(5).standard_normal((40, 3))
        decoded = _decode_received(code, code @ products)
        assert decoded.shape == (40, 3)
        assert np.max(np.abs(decoded - products)) <= 1e-8

    def test_duplicated_row_rejected(self):
        code, _, product = self._system(40, 40)
        code[17] = code[5]
        with pytest.raises(NumericalError):
            _decode_received(code, code @ product)

    @staticmethod
    def _conditioned(cond, rows=40):
        rng = np.random.default_rng(4)
        left, _ = np.linalg.qr(rng.standard_normal((rows, 40)))
        right, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        return (left * np.geomspace(1.0, 1.0 / cond, 40)) @ right

    def test_condition_beyond_limit_rejected(self):
        code = self._conditioned(100.0 * _DECODE_COND_LIMIT)
        assert _DECODE_COND_LIMIT < np.linalg.cond(code)
        with pytest.raises(NumericalError):
            _decode_received(code, code @ np.ones(40))

    def test_refined_between_the_limits(self, monkeypatch):
        code = self._conditioned(1.2 * _DECODE_COND_LIMIT)
        assert _DECODE_COND_LIMIT < np.linalg.cond(code) <= _REFINED_COND_LIMIT
        refines = _record_refine(monkeypatch)
        product = np.random.default_rng(5).standard_normal((40, 2))
        decoded = _decode_received(code, code @ product)
        assert refines == [(40, 40)]
        assert decoded.shape == (40, 2)
        assert np.max(np.abs(decoded - product)) <= 1e-8 * np.max(np.abs(product))

    def test_condition_past_the_refined_limit_rejected(self, monkeypatch):
        code = self._conditioned(2.0 * _REFINED_COND_LIMIT)
        assert _REFINED_COND_LIMIT < np.linalg.cond(code)
        refines = _record_refine(monkeypatch)
        with pytest.raises(NumericalError, match="2-norm condition number"):
            _decode_received(code, code @ np.ones(40))
        assert refines == []

    def test_condition_within_limit_decodes(self):
        code = self._conditioned(1e-3 * _DECODE_COND_LIMIT)
        decoded = _decode_received(code.copy(), code @ np.ones(40))
        assert np.max(np.abs(decoded - 1.0)) <= 1e-3

    def test_estimate_refusal_overruled_by_2_norm(self, monkeypatch):
        # 39 unit singular values and one of 2 / limit: the Frobenius
        # condition number is about 3 times the limit, the 2-norm one
        # half of it.
        rng = np.random.default_rng(4)
        left, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        right, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        code = (left * np.append(np.ones(39), 2.0 / _DECODE_COND_LIMIT)) @ right
        assert np.linalg.cond(code) < _DECODE_COND_LIMIT
        assert _DECODE_COND_LIMIT < np.linalg.cond(code, "fro")
        conds = _record_cond(monkeypatch)
        refines = _record_refine(monkeypatch)
        product = rng.standard_normal(40)
        decoded = _decode_received(code, code @ product)
        assert conds == [(40, 40)]
        assert refines == [(40, 40)]
        assert np.max(np.abs(decoded - product)) <= 1e-8 * np.max(np.abs(product))


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
        assert {w: p.hex() for w, p in outcome.payments.items()} == dict.fromkeys(
            range(10), "0x1.5080d0a3e1348p+1"
        )
        assert outcome.platform_cost_realized.hex() == "0x1.3c17caac0e7fep+5"
        assert [v.hex() for v in outcome.decoded.tolist()] == [
            "0x1.9e68a740e9457p-4",
            "0x1.2d4b3dbbaad8fp-1",
            "-0x1.ccc42119ccee1p-2",
            "0x1.4464c18bd1e66p+0",
            "-0x1.82711476cc1d4p-1",
            "-0x1.1e52b490aca19p-1",
            "-0x1.0f8256633ccd4p+1",
            "-0x1.31c9cdaf8d573p+0",
            "-0x1.0afc86867e2f7p-1",
            "0x1.e12ec640da832p-2",
            "0x1.944364859daa8p-7",
            "-0x1.22c8acf24d065p-1",
        ]

    def test_seeded_realization_with_25_workers_is_pinned(self):
        # A cost-only round at seed 1 with 25 workers and k = 11.  The race
        # digest covers the finish order, contributors, runtime, payments,
        # cost, participants, worker types and payoffs
        # (``TestSeededRoundPinned._fingerprint``).
        types = [
            WorkerType(id=1, cost_rate=1.0, speed=2.0, startup=0.1, count=25)
        ]
        cfg = PlatformConfig(gamma_time=5.0, gamma_pay=1.0, total_rows=12.0)
        mech = solve_cost_only(types, cfg)
        assert mech.recovery_threshold == 11
        rng = np.random.default_rng(0)
        A = rng.standard_normal((12, 2))
        x = rng.standard_normal(2)
        outcome = simulate_round(mech, build_population(types), A, x, 1)
        assert TestSeededRoundPinned._fingerprint(outcome) == (
            "a6c418eab40d063cd89ac1823a9c0d0b35f3cecc511600f1f6eb6d79bd207a50"
        )
        assert outcome.contributors == (8, 4, 15, 13, 11, 1, 3, 17, 6, 7, 18)
        assert outcome.runtime.hex() == "0x1.c708f2b9811c2p-1"
        assert {w: p.hex() for w, p in outcome.payments.items()} == dict.fromkeys(
            range(25), "0x1.af562d857bbefp-2"
        )
        assert outcome.platform_cost_realized.hex() == "0x1.df2e1f6a41060p+3"
        assert [v.hex() for v in outcome.decoded.tolist()] == [
            "0x1.9e68a740e9433p-4",
            "0x1.2d4b3dbbaad8fp-1",
            "-0x1.ccc42119ccee1p-2",
            "0x1.4464c18bd1e66p+0",
            "-0x1.82711476cc1d4p-1",
            "-0x1.1e52b490aca1ap-1",
            "-0x1.0f8256633ccd1p+1",
            "-0x1.31c9cdaf8d573p+0",
            "-0x1.0afc86867e2f7p-1",
            "0x1.e12ec640da7fcp-2",
            "0x1.944364859dc3bp-7",
            "-0x1.22c8acf24d065p-1",
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
        assert outcome.realized_k == k
        ordered = [w for w, _ in outcome.finish_order]
        assert list(outcome.contributors) == ordered[:k]
        assert outcome.runtime == outcome.finish_order[k - 1][1]
        # Stragglers beyond the threshold never contribute.
        assert set(ordered[k:]).isdisjoint(outcome.contributors)
        assert len(ordered) == 10
        assert outcome.max_error <= 1e-6
        assert np.allclose(outcome.decoded, A @ x, atol=1e-6)

    def test_k_finishers_hold_a_parity_row_per_missing_entry(self, monkeypatch):
        # Every worker holds ceil(56 / k) slots, so the first k finishers
        # hold at least 56: at least as many parity rows as missing entries.
        types, _, mech = self._mechanism()
        pop = build_population(types)
        rng = np.random.default_rng(0)
        A = rng.standard_normal((56, 3))
        x = rng.standard_normal(3)
        k = mech.recovery_threshold
        calls = _record_decode(monkeypatch)
        for seed in range(50):
            outcome = simulate_round(mech, pop, A, x, seed)
            _, loads, received = calls[-1]
            assert loads.tolist() == [math.ceil(56 / k)] * 10
            assert received.size == k * math.ceil(56 / k) >= 56
            missing = 56 - int(np.sum(received < 56))
            assert int(np.sum(received >= 56)) >= missing
            assert outcome.max_error <= 1e-8 * max(1.0, np.max(np.abs(A @ x)))

    def test_threshold_unreachable_infeasible(self):
        types, cfg, mech = self._mechanism()
        shrunk = build_population(types).with_counts(
            [mech.recovery_threshold - 1]
        )
        A = np.ones((56, 2))
        x = np.ones(2)
        k = mech.recovery_threshold
        with pytest.raises(
            InfeasibleError,
            match=f"{k - 1} participators cannot reach the recovery threshold {k}",
        ):
            simulate_round(mech, shrunk, A, x, 0)

    def test_240_participators_decode_within_promise(self):
        # Catalog cost rates on one shared runtime, 40 workers per type:
        # 240 participators and threshold 145.
        types = [
            WorkerType(id=i + 1, cost_rate=cost, speed=50.0, startup=0.012, count=40)
            for i, (cost, _, _) in enumerate(DEFAULT_TYPE_PARAMS)
        ]
        cfg = PlatformConfig(gamma_time=2000.0, gamma_pay=1.0, total_rows=1000.0)
        mech = solve_cost_only(types, cfg)
        assert 40 * len(mech.targeted) == 240
        assert mech.recovery_threshold == 145
        rng = np.random.default_rng(0)
        A = rng.standard_normal((1000, 2))
        x = rng.standard_normal(2)
        scale = max(1.0, float(np.max(np.abs(A @ x))))
        for seed in range(5):
            outcome = simulate_round(mech, build_population(types), A, x, seed)
            assert outcome.realized_k == 145
            assert outcome.max_error <= 1e-8 * scale

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
        loads = [3.0, 2.0, 2.0, 1.0]
        rows = 7
        mech = _hetero_offer(
            pop, loads, rows, [1000.0] * pop.size
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

    @pytest.mark.parametrize(
        "reader, header",
        [(read_matrix, "2 1.5"), (read_vector, "0"), (read_matrix, "")],
    )
    def test_header_is_the_shape(self, tmp_path, reader, header):
        path = tmp_path / "a.txt"
        path.write_text(f"# shape first\n{header}\n")
        with pytest.raises(ConfigurationError, match="a.txt: the header must give"):
            reader(str(path))

    def test_vector_errors(self, tmp_path):
        short = tmp_path / "v.txt"
        short.write_text("3\n1 2\n")
        with pytest.raises(ConfigurationError):
            read_vector(str(short))
        with pytest.raises(ConfigurationError):
            read_vector(str(tmp_path / "absent.txt"))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e309"])
    def test_non_finite_entries_name_file_and_line(self, tmp_path, bad):
        matrix = tmp_path / "m.txt"
        matrix.write_text(f"2 2\n1 2\n3 {bad}\n")
        with pytest.raises(ConfigurationError, match=r"m\.txt:3: .* not a finite"):
            read_matrix(str(matrix))
        vector = tmp_path / "v.txt"
        vector.write_text(f"# header next\n2\n{bad} 1\n")
        with pytest.raises(ConfigurationError, match=r"v\.txt:3: .* not a finite"):
            read_vector(str(vector))
        header = tmp_path / "h.txt"
        header.write_text(f"{bad} 2\n1 2\n")
        with pytest.raises(ConfigurationError, match=r"h\.txt:1: "):
            read_matrix(str(header))
