"""Worker types, derived profiles, and population construction."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coded_incentives import (
    ConfigurationError,
    NumericalError,
    PerformanceProfile,
    Population,
    WorkerType,
    build_population,
    derive_profile,
    sample_time,
    sample_times,
    solve_lambda,
)

from coded_incentives.workers import _profile_columns, _ranked_population
from oracles import population_records_oracle

COLUMNS = (
    "counts",
    "cost_rate",
    "speed",
    "startup",
    "row_time",
    "throughput",
    "ratio",
)


def _worker(cost=1.0, speed=10.0, startup=0.05, count=3, id=0):
    return WorkerType(id=id, cost_rate=cost, speed=speed, startup=startup, count=count)


class TestWorkerType:
    @pytest.mark.parametrize("field", ["cost", "speed", "startup"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            _worker(**{field: value})

    def test_field_validation(self):
        with pytest.raises(ValueError):
            _worker(cost=0.0)
        with pytest.raises(ValueError):
            _worker(speed=-1.0)
        with pytest.raises(ValueError):
            _worker(startup=0.0)
        with pytest.raises(ValueError):
            _worker(count=-1)
        with pytest.raises(ValueError):
            _worker(count=1.5)

    @pytest.mark.parametrize("count", [math.inf, -math.inf, math.nan])
    def test_non_finite_count_rejected_like_other_bad_counts(self, count):
        with pytest.raises(
            ValueError,
            match=rf"^count must be a nonnegative integer below 2\*\*53, got {count}$",
        ):
            _worker(count=count)

    @pytest.mark.parametrize("count", [True, False, np.True_])
    def test_bool_count_rejected_like_other_bad_counts(self, count):
        with pytest.raises(
            ValueError,
            match=rf"^count must be a nonnegative integer below 2\*\*53, got {count}$",
        ):
            _worker(count=count)

    @pytest.mark.parametrize("count", [3.0, np.int64(3)])
    def test_whole_valued_counts_accepted(self, count):
        assert _worker(count=count).count == 3

    # float64 holds every whole number below 2**53 exactly, and the
    # population's headcount column is float64.
    @pytest.mark.parametrize("count", [2**53, 2.0**53, 2**53 + 1, 10**22])
    def test_count_of_2_to_the_53_or_more_rejected(self, count):
        with pytest.raises(
            ValueError,
            match=rf"^count must be a nonnegative integer below 2\*\*53, got {count}$",
        ):
            _worker(count=count)

    def test_largest_exact_count_accepted(self):
        worker = _worker(count=2**53 - 1)
        assert build_population([worker]).member(1)[0].count == 2**53 - 1

    def test_zero_count_allowed(self):
        assert _worker(count=0).count == 0


class TestDeriveProfile:
    def test_formulas(self):
        w = _worker(cost=3.0, speed=40.0, startup=0.123)
        profile = derive_profile(w)
        lam = solve_lambda(40.0, 0.123)
        assert profile.row_time == lam
        assert profile.throughput == pytest.approx(40.0 / (1.0 + 40.0 * lam))
        assert profile.ratio == pytest.approx(3.0 / profile.throughput)

    def test_throughput_below_raw_speed(self):
        profile = derive_profile(_worker(speed=100.0, startup=0.024))
        assert 0.0 < profile.throughput < 100.0

    def test_throughput_where_speed_times_row_time_overflows(self):
        # speed * row_time = 1e600, yet 1 / (row_time + 1 / speed) is
        # 1e-300 to an ulp.
        profile = derive_profile(_worker(cost=1.0, speed=1e300, startup=1e300))
        assert profile.row_time == 1e300
        assert profile.throughput == pytest.approx(1e-300, rel=1e-15)
        assert profile.ratio == pytest.approx(1e300, rel=1e-15)

    @pytest.mark.parametrize("entry", [0, 1, 2])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_profile_entries_must_be_positive(self, entry, bad):
        values = [0.1, 2.0, 3.0]
        values[entry] = bad
        with pytest.raises(ValueError, match="profile entries must be positive"):
            PerformanceProfile(*values)


class TestBuildPopulation:
    def test_sorted_by_ratio_and_relabelled(self):
        raw = [
            _worker(cost=9.0, speed=40.0, startup=0.123),
            _worker(cost=1.0, speed=50.0, startup=0.012),
            _worker(cost=5.0, speed=20.0, startup=0.081),
        ]
        pop = build_population(raw)
        assert pop.ids == (1, 2, 3)
        assert pop.ratio.tolist() == sorted(pop.ratio.tolist())

    def test_ranked_order_matches_relabeling(self):
        raw = [
            _worker(cost=9.0, speed=40.0, startup=0.123, count=4),
            _worker(cost=1.0, speed=50.0, startup=0.012, count=7),
            _worker(cost=5.0, speed=20.0, startup=0.081, count=2),
        ]
        order, pop = _ranked_population(_profile_columns(raw))
        assert pop == build_population(raw)
        assert pop.__eq__(1) is NotImplemented
        assert pop != 1
        for new_id, src in enumerate(order.tolist(), start=1):
            worker, _ = pop.member(new_id)
            assert worker.cost_rate == raw[src].cost_rate
            assert worker.count == raw[src].count

    def test_full_tie_keeps_input_order(self):
        # Identical types produce identical ratios and cost rates, so the
        # sort must be stable on input position.
        a = _worker(cost=2.0, speed=10.0, startup=0.05, count=1)
        b = _worker(cost=2.0, speed=10.0, startup=0.05, count=2)
        pop = build_population([b, a])
        assert pop.member(1)[0].count == 2
        assert pop.member(2)[0].count == 1

    def test_empty_population_rejected(self):
        with pytest.raises(ConfigurationError):
            build_population([])

    def test_overflowing_row_time_is_a_numerical_error(self):
        # The row time a + w/mu = 1e308 + 1.15e308 overflows.
        huge = _worker(speed=1e-308, startup=1e308)
        with pytest.raises(
            NumericalError, match="the row time overflows for mu=1e-308, a=1e\\+308"
        ):
            build_population([_worker(), huge])

    def test_constructor_enforces_invariants(self):
        pop = build_population([_worker(cost=1.0), _worker(cost=10.0)])
        columns = {name: getattr(pop, name) for name in COLUMNS}
        assert Population(**columns) == pop
        with pytest.raises(ValueError, match="sorted"):
            Population(**{**columns, "ratio": columns["ratio"][::-1]})
        with pytest.raises(ValueError, match="aligned"):
            Population(**{**columns, "speed": columns["speed"][:1]})
        with pytest.raises(ValueError, match="aligned"):
            Population(**{**columns, "counts": np.ones((2, 1))})
        with pytest.raises(ConfigurationError):
            Population(**{name: [] for name in COLUMNS})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("cost_rate", math.nan),
            ("cost_rate", -1.0),
            ("cost_rate", math.inf),
            ("speed", 0.0),
            ("speed", math.inf),
            ("startup", math.nan),
            ("startup", -0.0),
            ("row_time", math.inf),
            ("throughput", math.nan),
            ("throughput", 0.0),
        ],
    )
    def test_constructor_names_a_column_outside_the_positive_floats(self, name, value):
        pop = build_population([_worker(cost=1.0), _worker(cost=10.0)])
        columns = {name: getattr(pop, name) for name in COLUMNS}
        columns[name] = [columns[name][0], value]
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            Population(**columns)

    @pytest.mark.parametrize(
        "ratio, match",
        [
            ([math.inf, math.nan, 5.0], "ratio must be positive"),
            ([1.0, math.nan, 5.0], "ratio must be positive"),
            ([0.0, 1.0, 5.0], "ratio must be positive"),
            ([-1.0, 1.0, 5.0], "ratio must be positive"),
            ([math.inf, 1.0, 5.0], "sorted"),
            ([1.0, 5.0, 2.0], "sorted"),
        ],
    )
    def test_constructor_refuses_nan_nonpositive_or_unsorted_ratios(self, ratio, match):
        pop = build_population([_worker(cost=c) for c in (1.0, 2.0, 3.0)])
        columns = {name: getattr(pop, name) for name in COLUMNS}
        with pytest.raises(ValueError, match=match):
            Population(**{**columns, "ratio": ratio})

    def test_constructor_takes_an_overflowed_last_ratio(self):
        pop = build_population([_worker(cost=c) for c in (1.0, 2.0, 3.0)])
        columns = {name: getattr(pop, name) for name in COLUMNS}
        ratio = [1.0, math.inf, math.inf]
        assert Population(**{**columns, "ratio": ratio}).ratio.tolist() == ratio

    def test_columns_are_read_only_copies(self):
        source = np.array([4.0, 6.0])
        pop = build_population([_worker(cost=1.0), _worker(cost=2.0)])
        pop = pop.with_counts(source)
        source[0] = 9.0
        assert pop.counts.tolist() == [4.0, 6.0]
        for name in COLUMNS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(pop, name)[0] = 1.0
            with pytest.raises(ValueError):
                getattr(pop, name).flags.writeable = True
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(pop, name, np.ones(2))

    def test_member_and_totals(self):
        pop = build_population(
            [_worker(cost=1.0, count=4), _worker(cost=2.0, count=6)]
        )
        assert pop.size == 2
        assert pop.total == 10
        worker, profile = pop.member(2)
        assert worker.cost_rate == 2.0
        assert profile.ratio > pop.member(1)[1].ratio
        with pytest.raises(ValueError):
            pop.member(0)
        with pytest.raises(ValueError):
            pop.member(3)

    def test_with_counts(self):
        pop = build_population(
            [_worker(cost=1.0, count=4), _worker(cost=2.0, count=6)]
        )
        resized = pop.with_counts([1, 0])
        assert resized.total == 1
        assert resized.member(1)[1] == pop.member(1)[1]
        with pytest.raises(ValueError):
            pop.with_counts([1])

    def test_with_counts_copies_only_the_headcounts(self):
        pop = build_population([_worker(cost=1.0), _worker(cost=2.0)])
        source = np.array([3.0, 5.0])
        resized = pop.with_counts(source)
        assert not np.shares_memory(resized.counts, source)
        assert not resized.counts.flags.writeable
        for name in COLUMNS[1:]:
            assert np.shares_memory(getattr(resized, name), getattr(pop, name))
        assert resized == build_population(
            [_worker(cost=1.0, count=3), _worker(cost=2.0, count=5)]
        )

    @pytest.mark.parametrize("bad", [2.5, -1.0, math.nan, math.inf])
    def test_with_counts_rejects_non_integer_counts(self, bad):
        pop = build_population([_worker(cost=1.0), _worker(cost=2.0)])
        with pytest.raises(ValueError, match="nonnegative integers"):
            pop.with_counts([bad, 1])

    @pytest.mark.parametrize("bad", [2.0**53, 1e22])
    def test_with_counts_rejects_counts_of_2_to_the_53_or_more(self, bad):
        pop = build_population([_worker(cost=1.0), _worker(cost=2.0)])
        with pytest.raises(ValueError, match=r"integers below 2\*\*53, got \["):
            pop.with_counts([bad, 1])
        assert pop.with_counts([2**53 - 1, 1]).counts.tolist() == [2**53 - 1, 1]

    # Scaling speed by s, startup by 1/s and cost by s (s a power of two)
    # scales the throughput by s exactly, so the ratio ties exactly and
    # only the cost rate breaks the tie; repeated draws tie completely
    # and keep input order.
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([1.0, 3.0, 7.0]),
                st.sampled_from([10.0, 50.0, 200.0]),
                st.sampled_from([0.012, 0.05, 0.123]),
                st.integers(min_value=0, max_value=5),
                st.sampled_from([0.5, 1.0, 2.0]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_columns_match_record_oracle(self, entries):
        raw = [
            _worker(cost=cost * s, speed=speed * s, startup=startup / s, count=n)
            for cost, speed, startup, n, s in entries
        ]
        order, records = population_records_oracle(raw)
        pop = build_population(raw)
        assert _ranked_population(_profile_columns(raw))[0].tolist() == order
        assert pop.ids == tuple(t.id for t, _ in records)
        assert pop.total == sum(t.count for t, _ in records)
        assert repr(pop.types) == repr(records)
        assert [repr(pop.member(m)) for m in pop.ids] == [repr(r) for r in records]


class TestSampling:
    def test_support_lower_bound(self):
        w = _worker(speed=5.0, startup=0.4)
        rng = np.random.default_rng(7)
        draws = sample_times((w.startup, w.speed), np.full(2000, 12.0), rng)
        assert np.all(draws >= 12.0 * 0.4)

    def test_mean_matches_model(self):
        w = _worker(speed=5.0, startup=0.4)
        rng = np.random.default_rng(8)
        draws = sample_times((w.startup, w.speed), np.full(200_000, 10.0), rng)
        expected = 10.0 * (0.4 + 1.0 / 5.0)
        stderr = float(np.std(draws)) / math.sqrt(draws.size)
        assert abs(float(np.mean(draws)) - expected) < 4.0 * stderr

    def test_scalar_and_vector_agree_in_distribution(self):
        w = _worker(speed=2.0, startup=1.0)
        one = sample_time(w, 3.0, np.random.default_rng(99))
        many = sample_times((w.startup, w.speed), [3.0], np.random.default_rng(99))
        assert one == many[0]

    def test_mixed_types_match_sequential_scalar_draws(self):
        fast = _worker(speed=5.0, startup=0.4)
        slow = _worker(speed=2.0, startup=1.0)
        kinds = [fast, slow, slow, fast]
        loads = np.array([3.0, 1.0, 7.0, 2.0])
        startup = np.array([w.startup for w in kinds])
        speed = np.array([w.speed for w in kinds])
        rng = np.random.default_rng(5)
        expected = [sample_time(w, load, rng) for w, load in zip(kinds, loads)]
        draws = sample_times((startup, speed), loads, np.random.default_rng(5))
        assert draws.tolist() == expected

    def test_array_loads_broadcast_against_one_type(self):
        w = _worker(speed=5.0, startup=0.4)
        loads = np.array([1.0, 4.0, 9.0])
        pair = (w.startup, w.speed)
        draws = sample_times(pair, loads, np.random.default_rng(3))
        expected = sample_times(pair, np.ones(3), np.random.default_rng(3)) * loads
        assert np.array_equal(draws, expected)

    def test_rejects_nonpositive_load(self):
        w = _worker()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_time(w, 0.0, rng)
        with pytest.raises(ValueError):
            sample_times((w.startup, w.speed), np.full(5, -1.0), rng)
        with pytest.raises(ValueError):
            sample_times((w.startup, w.speed), np.array([2.0, 0.0]), rng)
