"""Special-function solvers against independent oracles and identities."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coded_incentives import (
    InfeasibleError,
    IterationError,
    NumericalError,
    PlatformConfig,
    WorkerType,
    build_population,
    harmonic,
    mds_alpha,
    solve_lambda,
)
from coded_incentives import numerics
from coded_incentives.mechanisms import _finite_offers, _prefix_costs
from coded_incentives.runtime import _checked_groups, _group_throughputs
from oracles import (
    alpha_objective,
    alpha_oracle,
    harmonic_oracle,
    lambda_decimal_oracle,
    lambda_oracle,
    row_fsums_oracle,
)

BENCHMARK_PARAMS = (
    (50.0, 0.012),
    (100.0, 0.024),
    (200.0, 0.033),
    (10.0, 0.031),
    (400.0, 0.040),
    (20.0, 0.081),
    (800.0, 0.044),
    (40.0, 0.123),
    (80.0, 0.153),
    (160.0, 0.172),
)


class TestSolveLambda:
    def test_satisfies_defining_equation(self):
        for mu, a in BENCHMARK_PARAMS:
            lam = solve_lambda(mu, a)
            residual = math.exp(mu * (lam - a)) - mu * lam - 1.0
            assert abs(residual) <= 1e-9 * (1.0 + mu * lam)

    def test_root_exceeds_startup(self):
        for mu, a in BENCHMARK_PARAMS:
            assert solve_lambda(mu, a) > a

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            mu = float(rng.uniform(0.05, 200.0))
            a = float(rng.uniform(0.002, 2.0))
            lam = solve_lambda(mu, a)
            ref = lambda_oracle(mu, a)
            assert lam == pytest.approx(ref, rel=1e-9)

    def test_extreme_scales(self):
        for mu, a in ((1e-3, 1e-4), (1e4, 10.0), (1e3, 1e-6), (0.01, 50.0)):
            lam = solve_lambda(mu, a)
            assert lam > a
            assert lam == pytest.approx(lambda_oracle(mu, a), rel=1e-9)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            solve_lambda(0.0, 0.1)
        with pytest.raises(ValueError):
            solve_lambda(5.0, 0.0)
        with pytest.raises(ValueError):
            solve_lambda(-1.0, 0.1)

    @settings(max_examples=60, deadline=None)
    @given(
        mu=st.floats(min_value=1e-2, max_value=1e3),
        a=st.floats(min_value=1e-4, max_value=5.0),
    )
    def test_residual_property(self, mu, a):
        lam = solve_lambda(mu, a)
        assert lam > a
        residual = math.exp(mu * (lam - a)) - mu * lam - 1.0
        assert abs(residual) <= 1e-9 * (1.0 + mu * lam)

    def test_iteration_cap_raises_with_finite_best(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_ITER", 1)
        with pytest.raises(IterationError, match="no convergence within 1 ") as info:
            solve_lambda(50.0, 0.012)
        assert math.isfinite(info.value.best)

    def test_residual_above_tolerance_raises_with_finite_best(self, monkeypatch):
        # Newton's last iterate at (100, 0.024) leaves a residual of a few
        # ulps of the target 2.4, which a zero relative bound refuses.
        root = solve_lambda(100.0, 0.024)
        monkeypatch.setattr(numerics, "_REL_TOL", 0.0)
        with pytest.raises(
            IterationError, match="residual above tolerance for mu=100.0, a=0.024"
        ) as info:
            solve_lambda(100.0, 0.024)
        assert math.isfinite(info.value.best)
        assert info.value.best == root

    def test_arrays_of_two_shapes_are_refused(self):
        with pytest.raises(ValueError, match="one shape"):
            solve_lambda(np.ones(3), np.ones(2))


# Targets a*mu below this are the small-target range of the tests below.
_SMALL_TARGET = 1e-2
# sha256 of the space-joined ``float.hex`` roots of the 9,923 pairs of
# ``_grid()`` whose target a*mu is at least ``_SMALL_TARGET``, and the
# catalog's ten roots, each the correctly rounded root.
_GRID_ROOTS_ABOVE_CUTOFF = (
    "0137eb1957202f768feb4a540833a360da66f1f140e2fa49a0bca0cc1bf53357"
)
_CATALOG_ROOTS = (
    "0x1.f46299f5ffe3ap-6", "0x1.48a56a992945cp-5", "0x1.6c342f8f9371ap-5",
    "0x1.9c2c9413b2265p-4", "0x1.85072ac34712ep-5", "0x1.340f208953866p-3",
    "0x1.8e3162542c9aep-5", "0x1.665e08d0f0770p-3", "0x1.8057ffc420a43p-3",
    "0x1.8c9c8d21255d5p-3",
)


def _grid() -> tuple[np.ndarray, np.ndarray]:
    """20,000 ``(mu, a)`` pairs, mu log-uniform on [1e-6, 1e6] and a on
    [1e-8, 1e4]."""
    rng = np.random.default_rng(18)
    mus = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), 20_000))
    starts = np.exp(rng.uniform(math.log(1e-8), math.log(1e4), 20_000))
    return mus, starts


class TestSolveLambdaSmallTargets:
    @pytest.mark.parametrize("mu", [1e-300, 1e-6, 1.0, 1e6, 1e290])
    def test_matches_decimal_oracle_from_1e_305_to_the_cutoff(self, mu):
        rng = np.random.default_rng(int(math.log10(mu)) + 400)
        exponents = rng.uniform(-305, math.log10(_SMALL_TARGET), 300)
        for target in [1e-305, *(10.0**exponents).tolist()]:
            a = target / mu
            if not (a >= 2.3e-308 and math.isfinite(a)):
                continue
            ref = lambda_decimal_oracle(mu, a)
            assert abs(solve_lambda(mu, a) - ref) <= 2 * math.ulp(ref), (mu, a)

    @pytest.mark.parametrize(
        "mu, a",
        [
            (1.0, 1e-20), (1.0, 1e-12), (1e-300, 1e-5), (2.0, 0.0049),
            # a*mu underflows to 0 and to a subnormal.
            (1e-300, 1e-300), (1e-300, 1e-20),
            # A subnormal input; both, where w = mu*(lam - a) is subnormal.
            (1.0, 1e-320), (1e-320, 1.0), (1e-320, 1e-320),
            # mu / sigma overflows although the root, 2.41e-316, is a float.
            (1.7e308, 5e-324),
        ],
    )
    def test_cancelling_targets_keep_their_root(self, mu, a):
        ref = lambda_decimal_oracle(mu, a)
        assert abs(solve_lambda(mu, a) - ref) <= 2 * math.ulp(ref)

    def test_roots_at_or_above_the_cutoff_are_unchanged(self):
        mus, starts = _grid()
        roots = [
            solve_lambda(mu, a).hex()
            for mu, a in zip(mus.tolist(), starts.tolist())
            if a * mu >= _SMALL_TARGET
        ]
        assert len(roots) == 9923
        digest = hashlib.sha256(" ".join(roots).encode()).hexdigest()
        assert digest == _GRID_ROOTS_ABOVE_CUTOFF
        catalog = [solve_lambda(mu, a).hex() for mu, a in BENCHMARK_PARAMS]
        assert tuple(catalog) == _CATALOG_ROOTS
        for (mu, a), root in zip(BENCHMARK_PARAMS, catalog):
            assert float.fromhex(root) == lambda_decimal_oracle(mu, a)

    def test_one_array_call_matches_the_scalar_calls_bit_for_bit(self):
        mus, starts = _grid()
        roots = solve_lambda(mus, starts)
        assert roots.shape == mus.shape
        scalar = [solve_lambda(mu, a) for mu, a in zip(mus.tolist(), starts.tolist())]
        assert [r.hex() for r in roots.tolist()] == [r.hex() for r in scalar]

    def test_wrong_small_root_fails_the_relative_check(self, monkeypatch):
        # The residual of this root is about 1e-36 in absolute terms, far
        # inside any absolute bound, but not zero relative to the target
        # 1e-20, so a zero relative bound refuses it.
        monkeypatch.setattr(numerics, "_REL_TOL", 0.0)
        with pytest.raises(
            IterationError, match="residual above tolerance for mu=1.0, a=1e-20"
        ) as info:
            solve_lambda(1.0, 1e-20)
        assert math.isfinite(info.value.best)

    def test_series_matches_expm1_minus_w_where_it_does_not_cancel(self):
        for w in np.linspace(0.05, 1.0, 39).tolist():
            exact = math.expm1(w) - w
            series = w * w / 2.0 * numerics._excess_tail(np.array(w))
            assert series == pytest.approx(exact, rel=1e-14)


class TestSolveLambdaWholeRange:
    def test_log_uniform_pairs_match_the_decimal_oracle(self):
        # Both inputs log-uniform over every positive float, subnormals
        # included, then startups in the top 8 binades with speeds in the
        # bottom 74, where the root is a + w/mu and its overflow is decided:
        # each root is within 2 ulps of the oracle's, or the oracle's root
        # overflows and the solver says so.
        rng = np.random.default_rng(2036)
        tiny, top = math.ulp(0.0), math.log2(np.finfo(float).max)
        pairs = np.vstack([
            np.exp2(rng.uniform(math.log2(tiny), top, (3000, 2))),
            np.column_stack([
                np.exp2(rng.uniform(-1074, -1000, 300)),
                np.exp2(rng.uniform(1016, top, 300)),
            ]),
        ])
        pairs = np.maximum(pairs, tiny)
        overflowed = 0
        for mu, a in pairs.tolist():
            ref = lambda_decimal_oracle(mu, a)
            if ref == math.inf:
                with pytest.raises(NumericalError, match="the row time overflows"):
                    solve_lambda(mu, a)
                overflowed += 1
            else:
                assert abs(solve_lambda(mu, a) - ref) <= 2 * math.ulp(ref), (mu, a)
        # The draw reaches every region the solver scales for.
        with np.errstate(over="ignore", under="ignore"):
            targets = pairs[:, 0] * pairs[:, 1]
        assert np.count_nonzero((pairs < np.finfo(float).tiny).any(axis=1)) >= 100
        assert np.count_nonzero(targets == 0.0) >= 100
        assert np.count_nonzero(targets == math.inf) >= 100
        assert overflowed >= 100

    def test_overflowing_root_is_a_numerical_error(self):
        # The root, about 2.15e308, is past the float range.
        with pytest.raises(NumericalError, match="row time overflows for mu=1e-308"):
            solve_lambda(1e-308, 1e308)
        with pytest.raises(NumericalError, match="mu=1e-308, a=1e\\+308"):
            solve_lambda(np.array([1.0, 1e-308]), np.array([1.0, 1e308]))


def _oracle_pairs(seed: int, low: float, high: float, count: int = 400):
    """``count`` ``(mu, a)`` pairs, mu log-uniform on [1e-2, 1e8] and the
    target ``a * mu`` log-uniform on [low, high]."""
    rng = np.random.default_rng(seed)
    mus = 10.0 ** rng.uniform(-2, 8, count)
    targets = 10.0 ** rng.uniform(math.log10(low), math.log10(high), count)
    return [(mu, t / mu) for mu, t in zip(mus.tolist(), targets.tolist())]


class TestSolveLambdaLargeTargets:
    def test_decimal_oracle_reaches_roots_of_large_targets(self):
        # Far above the root Newton's method moves about one unit a step,
        # so from sqrt(2t) = 235 it would not reach w = 10.23 in 200 steps.
        assert lambda_decimal_oracle(2.76e4, 1.0) == 1.0003705064386714

    def test_matches_decimal_oracle_from_0_25_to_1e10(self):
        for mu, a in _oracle_pairs(31, 0.25, 1e10):
            ref = lambda_decimal_oracle(mu, a)
            assert abs(solve_lambda(mu, a) - ref) <= 2 * math.ulp(ref), (mu, a)

    def test_matches_decimal_oracle_from_the_cutoff_to_0_25(self):
        for mu, a in _oracle_pairs(32, _SMALL_TARGET, 0.25):
            ref = lambda_decimal_oracle(mu, a)
            assert abs(solve_lambda(mu, a) - ref) <= 2 * math.ulp(ref), (mu, a)

    def test_matches_lambert_w_closed_form(self):
        # W_-1(-exp(-a*mu - 1)) = -(1 + mu*lam) (Corless et al. 1996).
        lambertw = pytest.importorskip("scipy.special").lambertw
        pairs = _oracle_pairs(33, 1e-3, 500.0)
        mus, starts = np.array(pairs).T
        branch = lambertw(-np.exp(-starts * mus - 1.0), k=-1)
        assert np.all(branch.imag == 0)
        closed = -(1.0 + mus * solve_lambda(mus, starts))
        np.testing.assert_allclose(closed, branch.real, rtol=1e-12)


class TestMdsAlpha:
    def test_in_unit_interval(self):
        for mu, a in BENCHMARK_PARAMS:
            alpha = mds_alpha(mu, a)
            assert 0.0 <= alpha < 1.0

    def test_first_order_condition(self):
        # Optimal fraction balances marginal wait against block shrink:
        # alpha / (mu * (1 - alpha)) = a + log(1/(1 - alpha)) / mu.
        for mu, a in BENCHMARK_PARAMS:
            alpha = mds_alpha(mu, a)
            left = alpha / (mu * (1.0 - alpha))
            right = a - math.log1p(-alpha) / mu
            assert left == pytest.approx(right, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-10, 735.0, 744.0, 1000.0, 5000.0])
    def test_first_order_condition_at_extreme_scales(self, scale):
        # A tiny a*mu puts alpha near 0; a large one puts it near 1 and
        # makes exp(-a*mu - 1) subnormal or zero.
        for mu in (1.0, scale):
            a = scale / mu
            alpha = mds_alpha(mu, a)
            assert 0.0 < alpha < 1.0
            left = alpha / (mu * (1.0 - alpha))
            right = a - math.log1p(-alpha) / mu
            assert left == pytest.approx(right, rel=1e-9)

    def test_beats_grid_search(self):
        for mu, a in ((2.0, 1.0), (50.0, 0.012), (10.0, 0.5)):
            alpha = mds_alpha(mu, a)
            grid_best = alpha_oracle(mu, a)
            assert alpha_objective(alpha, mu, a) <= alpha_objective(
                grid_best, mu, a
            ) * (1.0 + 1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            mds_alpha(0.0, 0.1)
        with pytest.raises(ValueError):
            mds_alpha(2.0, -0.1)


class TestHarmonic:
    def test_matches_plain_sum(self):
        for n in (0, 1, 2, 10, 137, 5000):
            assert harmonic(n) == pytest.approx(harmonic_oracle(n), rel=1e-12)

    def test_asymptotic_tail_matches_exact_sum(self):
        # Past 2**20 terms the expansion replaces the sum; at the first
        # such n it must agree with the correctly rounded sum.
        n = 2**20 + 1
        exact = math.fsum(1.0 / i for i in range(1, n + 1))
        assert abs(harmonic(n) - exact) <= 2 * math.ulp(exact)
        assert harmonic(n - 1) < harmonic(n) < harmonic(10**12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            harmonic(-1)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            harmonic(2.5)


def _signed_magnitudes(rng, shape):
    """Random signs times magnitudes log-uniform over 1e-300..1e300."""
    signs = rng.choice([-1.0, 1.0], size=shape)
    return signs * 10.0 ** rng.uniform(-300, 300, size=shape)


def _bits(values):
    return [float(v).hex() for v in values]


class TestRowFsums:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 10), (200, 1), (200, 10), (7, 1000)])
    def test_mixed_and_equal_lengths_match_the_slice_loop(self, shape):
        rows, width = shape
        rng = np.random.default_rng(shape)
        values = _signed_magnitudes(rng, shape)
        mixed = rng.integers(1, width + 1, size=rows)
        # Every equal length up to 12 columns; twelve spread over 1..M beyond.
        equal = np.unique(np.linspace(1, width, min(width, 12)).astype(int))
        for lengths in [mixed, *(np.full(rows, n) for n in equal)]:
            assert _bits(numerics.row_fsums(values, lengths)) == _bits(
                row_fsums_oracle(values, lengths)
            )

    def test_entries_past_a_row_length_are_ignored(self):
        rng = np.random.default_rng(21)
        values = _signed_magnitudes(rng, (200, 10))
        lengths = rng.integers(1, 10, size=200)
        past = np.arange(10) >= lengths[:, None]
        values[past] = rng.choice([np.inf, -np.inf, np.nan], size=past.sum())
        # A negative-zero prefix stays whatever zeros pad it.
        values[0, : lengths[0]] = -0.0
        got = numerics.row_fsums(values, lengths)
        assert all(map(math.isfinite, got))
        assert _bits(got) == _bits(row_fsums_oracle(values, lengths))

    def test_finite_overflow_sums_to_inf_beside_the_slice_loop(self):
        rng = np.random.default_rng(22)
        values = _signed_magnitudes(rng, (50, 10))
        lengths = rng.integers(1, 11, size=50)
        values[7, :3], lengths[7] = [1e308, 1e308, -1e308], 3
        with pytest.raises(OverflowError):
            row_fsums_oracle(values[7:8], [3])
        got = numerics.row_fsums(values, lengths)
        assert got[7] == math.inf
        others = np.arange(50) != 7
        assert _bits(got[others]) == _bits(
            row_fsums_oracle(values[others], lengths[others])
        )
        # Cut before the second 1e308, the same row sums.
        assert numerics.row_fsums(values[7:8], [1]) == [1e308]

    def test_returns_float64_sums_with_empty_and_overflowing_rows(self):
        values = np.array([[1e308, 1e308, 5.0], [2.0, np.nan, 3.0], [0.1, 0.2, 0.3]])
        got = numerics.row_fsums(values, [2, 0, 3])
        assert isinstance(got, np.ndarray)
        assert got.dtype == np.float64 and got.shape == (3,)
        assert _bits(got) == _bits([math.inf, 0.0, math.fsum([0.1, 0.2, 0.3])])
        # Every row empty: no column is kept, and every sum is 0.0.
        assert _bits(numerics.row_fsums(values, [0, 0, 0])) == _bits([0.0] * 3)

    def test_batched_group_throughputs_overflow_is_numerical_error(self):
        # Each type's throughput is about 3.2e299, so 5e8 workers give
        # finite per-type rates (1.6e308) whose sum is not.
        pop = build_population(
            [
                WorkerType(id=0, cost_rate=1.0, speed=1e300, startup=1e-300, count=1)
                for _ in range(2)
            ]
        )
        rates = np.array([[1.0, 1.0], [5e8, 5e8]]) * pop.throughput
        assert math.isfinite(_group_throughputs(rates, [2, 1])[1])
        with pytest.raises(NumericalError, match="throughput overflows"):
            _group_throughputs(rates, [2, 2])

    def test_batched_group_throughputs_empty_row_outranks_either_overflow(self):
        # A row whose finite rates overflow math.fsum and a row whose
        # rates NumPy already overflowed raise alike beside an empty row.
        pop = build_population(
            [
                WorkerType(id=0, cost_rate=1.0, speed=1e300, startup=1e-300, count=1)
                for _ in range(2)
            ]
        )
        empty = [0.0, 0.0]
        raised = []
        for overflowing in ([5e8, 5e8], [1e10, 1e10]):
            with np.errstate(over="ignore"):
                rates = np.array([overflowing, empty]) * pop.throughput
            with pytest.raises(NumericalError, match="throughput overflows"):
                _group_throughputs(rates[:1], [2])
            with pytest.raises(InfeasibleError) as exc:
                _group_throughputs(rates, [2, 2])
            raised.append(str(exc.value))
        assert raised == ["targeted set has no workers"] * 2

    def test_batched_prefix_costs_overflow_is_numerical_error(self):
        pop = build_population(
            [WorkerType(0, 1.0, 50.0, 0.012, 1), WorkerType(0, 2.0, 60.0, 0.02, 1)]
        )
        cfg = PlatformConfig(gamma_time=50.0, gamma_pay=1.0, total_rows=100.0)
        counts = np.ones((2, 2))
        rewards = [1e308, 1e308]
        assert all(
            map(math.isfinite, _prefix_costs(counts, np.array([1, 1]), rewards, pop, cfg))
        )
        with pytest.raises(NumericalError, match="platform cost overflows"):
            _prefix_costs(counts, np.array([1, 2]), rewards, pop, cfg)


class TestShortRowFsums:
    """Several rows of at most two terms sum with one NumPy addition, bit
    for bit the slice loop's ``math.fsum`` per row."""

    @pytest.mark.parametrize("rows", [2, 200, 400])
    @pytest.mark.parametrize("width", [1, 2])
    def test_mixed_lengths_match_the_slice_loop(self, rows, width):
        rng = np.random.default_rng([rows, width])
        values = _signed_magnitudes(rng, (rows, 3))
        values[:, width:] = np.nan  # past every prefix
        lengths = rng.integers(0, width + 1, size=rows)
        lengths[0] = width
        assert _bits(numerics.row_fsums(values, lengths)) == _bits(
            row_fsums_oracle(values, lengths)
        )

    def test_sums_without_fsum(self, monkeypatch):
        rng = np.random.default_rng(45)
        values = _signed_magnitudes(rng, (200, 2))
        lengths = rng.integers(0, 3, size=200)
        want = row_fsums_oracle(values, lengths)

        def refuse(row):
            raise AssertionError("math.fsum called")

        monkeypatch.setattr(numerics.math, "fsum", refuse)
        assert _bits(numerics.row_fsums(values, lengths)) == _bits(want)

    def test_signed_zeros_subnormals_and_ties(self):
        tiny = 5e-324
        pairs = [
            [-0.0, -0.0],  # -0.0 + -0.0 is -0.0; fsum gives +0.0
            [-0.0, 0.0],
            [0.0, -0.0],
            [1.0, -1.0],
            [tiny, tiny],
            [tiny, -tiny],
            [2.2250738585072014e-308, -tiny],
            [2.0**53, 1.0],  # exact ties round to even
            [2.0**53, 3.0],
            [1.0, 2.0**-53],
            [1.0, 3 * 2.0**-53],
            [0.1, 0.2],
        ]
        values = np.array(pairs)
        for lengths in ([2] * len(pairs), [1] * len(pairs)):
            got = numerics.row_fsums(values, lengths)
            assert _bits(got) == _bits(row_fsums_oracle(values, lengths))

    def test_nan_and_overflow_fall_back_to_fsum(self):
        values = np.array(
            [[1e308, 1e308], [-1e308, -1e308], [np.nan, 1.0], [np.inf, 1.0], [0.5, 0.25]]
        )
        got = numerics.row_fsums(values, [2] * 5)
        # An overflowing row sums to +inf whatever its sign, as fsum's
        # OverflowError is read.
        assert _bits(got[:2]) == _bits([math.inf, math.inf])
        assert math.isnan(got[2])
        assert _bits(got[3:]) == _bits([math.inf, 0.75])
        assert _bits(numerics.row_fsums(values, [1, 1, 1, 1, 1])) == _bits(
            row_fsums_oracle(values, [1] * 5)
        )

    def test_opposite_infinities_raise_like_fsum(self):
        values = np.array([[np.inf, -np.inf], [1.0, 2.0]])
        with pytest.raises(ValueError):
            row_fsums_oracle(values, [2, 2])
        with pytest.raises(ValueError):
            numerics.row_fsums(values, [2, 2])
        assert numerics.row_fsums(values, [1, 2]).tolist() == [math.inf, 3.0]


def _verdict(check, values):
    """What ``check(values)`` gives: None, or its error's type and message."""
    try:
        check(values)
    except (InfeasibleError, NumericalError) as exc:
        return type(exc), str(exc)
    return None


_EMPTY = (InfeasibleError, "targeted set has no workers")
_GROUP_OVERFLOW = (NumericalError, "the targeted group throughput overflows")
_OFFER_OVERFLOW = (NumericalError, "offer runtime or rewards overflow")
_OFFER_ZERO = (NumericalError, "offer runtime underflows to zero")


class TestBatchedChecks:
    """The batched checks give one entry and 200 the same verdict and the
    same error: ``(entries, group verdict, offer verdict)`` per case, the
    entries spread among finite positive ones."""

    CASES = {
        "finite": ([2.0], None, None),
        "empty": ([0.0], _EMPTY, _OFFER_ZERO),
        "overflowing": ([math.inf], _GROUP_OVERFLOW, _OFFER_OVERFLOW),
        "nan": ([math.nan], _EMPTY, _OFFER_OVERFLOW),
        "empty then overflowing": ([0.0, math.inf], _EMPTY, _OFFER_OVERFLOW),
        "overflowing then empty": ([math.inf, 0.0], _EMPTY, _OFFER_OVERFLOW),
        "nan then overflowing": ([math.nan, math.inf], _EMPTY, _OFFER_OVERFLOW),
        "overflowing then nan": ([math.inf, math.nan], _EMPTY, _OFFER_OVERFLOW),
    }

    @staticmethod
    def _arrays(entries):
        """``entries`` spread over 200 entries, and alone if there is one."""
        spread = np.full(200, 3.0)
        spread[np.linspace(0, 199, len(entries)).astype(int)] = entries
        return [spread, np.array(entries)] if len(entries) == 1 else [spread]

    @pytest.mark.parametrize("case", CASES)
    def test_same_verdict_alone_and_batched(self, case):
        entries, group, offer = self.CASES[case]
        for values in self._arrays(entries):
            assert _verdict(_checked_groups, values) == group
            rewards = np.ones((values.size, 3))
            assert _verdict(lambda v: _finite_offers(v, rewards), values) == offer
            assert numerics._all_finite(values) is all(map(math.isfinite, entries))
