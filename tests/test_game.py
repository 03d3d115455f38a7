"""Worker payoffs, best responses, and offer compliance checks."""

from __future__ import annotations

from dataclasses import replace

import tracemalloc

import numpy as np
import pytest

from coded_incentives import (
    ComplianceReport,
    ExperimentSpec,
    Mechanism,
    PlatformConfig,
    WorkerType,
    assign_loads_hetero,
    best_response,
    build_population,
    expected_runtime_hetero,
    solve_complete,
    solve_cost_only,
    solve_incomplete,
    verify_ir_ic,
)
from coded_incentives import game, simulate_round
from coded_incentives.experiments import _apportion_rows
from coded_incentives.game import _best_payoffs
from coded_incentives.mechanisms import _private_offers
from conftest import random_cost_only_instance, random_hetero_instance
from oracles import best_response_oracle, compliance_rows_oracle


def _two_class_population():
    # Types 1 and 2 share runtime parameters (one performance class);
    # type 3 behaves differently.
    return build_population(
        [
            WorkerType(id=0, cost_rate=1.0, speed=50.0, startup=0.012, count=5),
            WorkerType(id=0, cost_rate=3.0, speed=50.0, startup=0.012, count=5),
            WorkerType(id=0, cost_rate=2.0, speed=10.0, startup=0.031, count=5),
        ]
    )


def _offer(pop, rewards, scenario, cfg=None):
    cfg = cfg or PlatformConfig(gamma_time=100.0, gamma_pay=1.0, total_rows=500.0)
    assignment = assign_loads_hetero(pop, pop.size, cfg.total_rows)
    runtime = expected_runtime_hetero(pop, pop.size, cfg.total_rows)
    return Mechanism(
        scenario=scenario,
        threshold_type=pop.size,
        rewards=rewards,
        assignment=assignment,
        expected_runtime=runtime,
        expected_cost=0.0,
        config=cfg,
    )


class TestBestResponse:
    @pytest.mark.parametrize("true_m", [0, 11])
    def test_rejects_unknown_type(self, benchmark_population, benchmark_config, true_m):
        mech = solve_incomplete(benchmark_population, benchmark_config)
        with pytest.raises(ValueError, match=f"unknown type id {true_m}"):
            best_response(true_m, mech, benchmark_population)

    def test_boundary_type_participates_at_exactly_zero(
        self, benchmark_population, benchmark_config
    ):
        mech = solve_incomplete(benchmark_population, benchmark_config)
        boundary = mech.threshold_type
        decision = best_response(boundary, mech, benchmark_population)
        assert decision.participate
        assert decision.reported_type == boundary
        assert decision.expected_payoff == 0.0

    def test_interior_types_keep_positive_rent(
        self, benchmark_population, benchmark_config
    ):
        mech = solve_incomplete(benchmark_population, benchmark_config)
        for m in mech.targeted[:-1]:
            decision = best_response(m, mech, benchmark_population)
            assert decision.participate
            assert decision.expected_payoff > 0.0

    def test_non_targeted_declines(self, benchmark_population, benchmark_config):
        mech = solve_incomplete(benchmark_population, benchmark_config)
        outside = [m for m in benchmark_population.ids if m not in mech.targeted]
        for m in outside:
            decision = best_response(m, mech, benchmark_population)
            assert not decision.participate
            assert decision.expected_payoff == 0.0
            assert decision.reported_type == m

    def test_payoff_matches_feasible_enumeration(self):
        rng = np.random.default_rng(888)
        for _ in range(25):
            pop, cfg = random_hetero_instance(rng, max_types=6)
            mech = solve_incomplete(pop, cfg)
            for m in pop.ids:
                decision = best_response(m, mech, pop)
                feasible = [
                    r
                    for r in mech.targeted
                    if pop.member(r)[0].speed == pop.member(m)[0].speed
                    and pop.member(r)[0].startup == pop.member(m)[0].startup
                ]
                if not feasible:
                    assert not decision.participate
                    continue
                cost = pop.member(m)[0].cost_rate * mech.expected_runtime
                best = max(mech.rewards[r - 1] - cost for r in feasible)
                if best < 0:
                    assert not decision.participate
                    assert decision.expected_payoff == 0.0
                else:
                    assert decision.participate
                    assert decision.expected_payoff == best

    def test_batched_payoffs_match_best_response(self):
        rng = np.random.default_rng(889)
        for _ in range(25):
            pop, cfg = random_hetero_instance(rng, max_types=6)
            counts = rng.integers(0, 4, size=(6, pop.size)).astype(float)
            counts[:, -1] += 1.0
            offers = _private_offers(counts, pop, cfg)[:3]
            for row, payoffs in zip(counts, _best_payoffs(*offers, pop)):
                at_row = pop.with_counts(row)
                mech = solve_incomplete(at_row, cfg)
                expected = [
                    best_response_oracle(m, mech, at_row)[3] for m in pop.ids
                ]
                assert [v.hex() for v in payoffs.tolist()] == [
                    v.hex() for v in expected
                ]

    def test_class_maxima_match_masked_table(self):
        # Three claim classes interleaved by cost-performance order, two
        # sharing a speed and two a startup, with equal-cost twins in each.
        rng = np.random.default_rng(4806)
        classes = [(120.0, 0.015), (300.0, 0.015), (300.0, 0.04)]
        costs = np.repeat(rng.uniform(1.0, 20.0, 100), 2)
        pop = build_population(
            WorkerType(id=0, cost_rate=c, speed=speed, startup=startup, count=3)
            for c, (speed, startup) in zip(
                costs.tolist(), (classes[i // 2 % 3] for i in range(len(costs)))
            )
        )
        assert pop.size == 200
        cfg = PlatformConfig(gamma_time=2000.0, gamma_pay=1.0, total_rows=500.0)
        counts = _apportion_rows(list(range(50, 3000, 60)), pop.counts.tolist())
        thresholds, runtimes, rewards = _private_offers(counts, pop, cfg)[:3]
        assert len(set(thresholds.tolist())) > 1
        # Private rewards are proportional to throughput, so they tie
        # across a class. The same rows again with rewards on a coarse
        # grid tie across classes and make untargeted rewards matter.
        grid = rng.integers(1, 6, rewards.shape) * (rewards.max() / 4)
        rewards = np.concatenate((rewards, grid))
        thresholds, runtimes = np.tile(thresholds, 2), np.tile(runtimes, 2)
        ids = np.arange(pop.size)
        feasible = (
            (pop.speed[:, None] == pop.speed)
            & (pop.startup[:, None] == pop.startup)
            & (ids < thresholds[:, None, None])
        )
        payoffs = rewards[:, None, :] - pop.cost_rate[:, None] * runtimes[:, None, None]
        best = np.where(feasible, payoffs, -np.inf).max(axis=2)
        one_pass = np.where(best >= 0, best, 0.0)
        assert (one_pass > 0).any() and (one_pass == 0).any()
        assert _bits(
            _best_payoffs(thresholds, runtimes, rewards, pop).ravel().tolist()
        ) == _bits(one_pass.ravel().tolist())

    def test_thousand_type_sweep_stays_within_memory(self):
        # The 1000-type catalog of CI's sweep step at the default 50
        # points: per-class maxima need a few (50, 1000) arrays (~2 MiB).
        rng = np.random.default_rng(2026)
        columns = (
            rng.uniform(1, 20, 1000),
            rng.uniform(10, 400, 1000),
            rng.uniform(0.01, 0.05, 1000),
        )
        spec = ExperimentSpec(
            population=build_population(
                WorkerType(id=0, cost_rate=c, speed=v, startup=a, count=5)
                for c, v, a in zip(*(column.tolist() for column in columns))
            )
        )
        counts = _apportion_rows(spec.n_sweep, spec.weights())
        offers = _private_offers(counts, spec.population, spec.platform_config())[:3]
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            payoffs = _best_payoffs(*offers, spec.population)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert payoffs.shape == (50, 1000)
        assert peak < 8 * 2**20

    def test_tie_prefers_truthful_report(self):
        pop = _two_class_population()
        rewards = [40.0, 40.0, 40.0]
        mech = _offer(pop, rewards, "incomplete-hetero")
        decision = best_response(2, mech, pop)
        assert decision.reported_type == 2

    def test_complete_scenario_never_misreports(
        self, benchmark_population, benchmark_config
    ):
        mech = solve_complete(benchmark_population, benchmark_config)
        for m in benchmark_population.ids:
            decision = best_response(m, mech, benchmark_population)
            assert decision.reported_type == m
            assert decision.participate == (m in mech.targeted)


class TestVerifyIrIc:
    def test_solver_outputs_are_truthful(self):
        rng = np.random.default_rng(777)
        for _ in range(15):
            pop, cfg = random_hetero_instance(rng, max_types=6)
            for solver in (solve_complete, solve_incomplete):
                report = verify_ir_ic(solver(pop, cfg), pop)
                assert report.truthful
        for _ in range(10):
            types, cfg = random_cost_only_instance(rng, max_workers=100)
            mech = solve_cost_only(types, cfg)
            report = verify_ir_ic(mech, build_population(types))
            assert report.truthful

    def test_flags_profitable_same_class_misreport(self):
        # Types 1 and 2 share runtime behavior; paying type 1 more than
        # type 2 invites type 2 to claim identity 1.
        pop = _two_class_population()
        runtime_cost = {
            m: pop.member(m)[0].cost_rate for m in pop.ids
        }
        mech = _offer(pop, [300.0, 100.0, 100.0], "incomplete-hetero")
        report = verify_ir_ic(mech, pop)
        assert any(
            true == 2 and claimed == 1 for true, claimed, _ in report.ic_violations
        )
        assert not report.truthful
        assert runtime_cost[2] > runtime_cost[1]

    def test_different_class_misreport_is_diagnostic_only(self):
        # Type 3 cannot imitate the fast class, so a tempting reward for
        # type 1 shows up only in the unrestricted scan.
        pop = _two_class_population()
        runtime = expected_runtime_hetero(pop, pop.size, 500.0)
        rewards = [
            10_000.0,
            10_000.0,
            2.0 * pop.member(3)[0].cost_rate * runtime,
        ]
        mech = _offer(pop, rewards, "incomplete-hetero")
        report = verify_ir_ic(mech, pop)
        cross = [
            (true, claimed)
            for true, claimed, _ in report.unrestricted_ic_violations
            if true == 3
        ]
        assert cross
        assert all(
            not (true == 3) for true, _, _ in report.ic_violations
        )

    def test_all_zero_rewards_violate_rationality(self):
        pop = _two_class_population()
        mech = _offer(pop, [0.0, 0.0, 0.0], "incomplete-hetero")
        report = verify_ir_ic(mech, pop)
        assert len(report.ir_violations) == len(pop.ids)
        assert not report.truthful

    def test_complete_scenario_skips_unrestricted_scan(
        self, benchmark_population, benchmark_config
    ):
        mech = solve_complete(benchmark_population, benchmark_config)
        report = verify_ir_ic(mech, benchmark_population)
        assert report.unrestricted_ic_violations == ()

    def test_report_rows_and_text(self):
        pop = _two_class_population()
        mech = _offer(pop, [300.0, 100.0, 0.0], "incomplete-hetero")
        report = verify_ir_ic(mech, pop)
        rows = report.to_rows()
        kinds = {kind for kind, _, _, _ in rows}
        assert "incentive" in kinds
        text = report.to_text()
        assert "reporting as type" in text

    def test_truthful_report_text(self, benchmark_population, benchmark_config):
        mech = solve_incomplete(benchmark_population, benchmark_config)
        report = verify_ir_ic(mech, benchmark_population)
        assert report.truthful
        assert "individually rational" in report.to_text()

    def test_every_view_renders_each_kind_alike(self):
        report = ComplianceReport(
            ir_violations=((2, -0.5),),
            ic_violations=((1, 3, 0.25),),
            unrestricted_ic_violations=((3, 1, 1 / 3),),
        )
        assert report.to_rows() == [
            ("individual-rationality", 2, 2, -0.5),
            ("incentive", 1, 3, 0.25),
            ("unrestricted-incentive", 3, 1, 1 / 3),
        ]
        assert report.to_text() == (
            "individual rationality violations:\n"
            "  type 2: honest payoff -0.5 < 0\n"
            "incentive violations (feasible misreports):\n"
            "  type 1 gains 0.25 reporting as type 3\n"
            "diagnostic: profitable claims if identity checks were absent:\n"
            "  type 3 gains 0.333333 claiming type 1"
        )
        assert report.to_csv() == (
            "kind,true_type,reported_type,value\n"
            "individual-rationality,2,2,-0.5\n"
            "incentive,1,3,0.25\n"
            "unrestricted-incentive,3,1,0.33333333333333331\n"
        )

    def test_empty_report_is_truthful(self):
        report = ComplianceReport(
            ir_violations=(), ic_violations=(), unrestricted_ic_violations=()
        )
        assert report.truthful
        assert report.to_rows() == []


def _scaled_rewards(mech, rng):
    """``mech`` with every reward scaled by its own factor in [0.5, 1.5),
    so that misreports and violations occur."""
    scale = rng.uniform(0.5, 1.5, size=len(mech.rewards)).tolist()
    rewards = [r * s for r, s in zip(mech.rewards.tolist(), scale)]
    return replace(mech, rewards=rewards)


def _oracle_instances(rng):
    for n in range(50):
        pop, cfg = random_hetero_instance(rng, max_types=6)
        if n >= 40:
            # Odd ids take type 1's speed and even ids its startup, so
            # many pairs share one runtime parameter but not the other.
            first, _ = pop.member(1)
            pop = build_population(
                replace(t, speed=first.speed)
                if t.id % 2
                else replace(t, startup=first.startup)
                for t, _ in pop.types
            )
        for solver in (solve_complete, solve_incomplete):
            yield solver(pop, cfg), pop
    for _ in range(15):
        types, cfg = random_cost_only_instance(rng, max_workers=100)
        yield solve_cost_only(types, cfg), build_population(types)


def _bits(values):
    # A NumPy scalar stays unconverted and so differs from any Python float.
    return tuple(v.hex() if type(v) is float else v for v in values)


@pytest.mark.parametrize("scaled", [False, True])
def test_decisions_and_violations_match_scalar_oracle(scaled):
    rng = np.random.default_rng(890)
    misreports = violations = 0
    for mech, pop in _oracle_instances(rng):
        if scaled:
            mech = _scaled_rewards(mech, rng)
        for m in pop.ids:
            decision = best_response(m, mech, pop)
            assert _bits(
                (
                    decision.type_id,
                    decision.participate,
                    decision.reported_type,
                    decision.expected_payoff,
                )
            ) == _bits(best_response_oracle(m, mech, pop))
            misreports += decision.reported_type != m
        rows = verify_ir_ic(mech, pop).to_rows()
        assert [_bits(row) for row in rows] == [
            _bits(row) for row in compliance_rows_oracle(mech, pop)
        ]
        violations += len(rows)
    if scaled:
        assert misreports and violations


def _many_types(rng, size=300, classes=30):
    """A seeded population of ``size`` types whose speed and startup
    come from ``classes`` shared pairs (one pair when ``classes`` is 1),
    with zero to five workers each."""
    pairs = [
        (float(rng.uniform(5.0, 500.0)), float(rng.uniform(0.005, 0.2)))
        for _ in range(classes)
    ]
    return build_population(
        WorkerType(
            id=0,
            cost_rate=float(rng.uniform(0.5, 25.0)),
            speed=pairs[j][0],
            startup=pairs[j][1],
            count=int(rng.integers(0, 6)),
        )
        for j in rng.integers(0, classes, size).tolist()
    )


class TestManyTypes:
    """Rounds and best responses over a population of hundreds of types,
    where building a type's row alone matters."""

    CFG = PlatformConfig(gamma_time=5000.0, gamma_pay=1.0, total_rows=500.0)

    @classmethod
    def _offer(cls, scenario):
        rng = np.random.default_rng(300)
        if scenario == "cost-only":
            pop = _many_types(rng, classes=1)
            return solve_cost_only([t for t, _ in pop.types], cls.CFG), pop
        pop = _many_types(rng)
        solver = solve_complete if scenario == "complete" else solve_incomplete
        return solver(pop, cls.CFG), pop

    @pytest.mark.parametrize("scenario", ["complete", "incomplete", "cost-only"])
    def test_best_response_matches_oracle_bit_for_bit(self, scenario):
        mech, pop = self._offer(scenario)
        assert pop.size >= 300 and 1 < mech.threshold_type < pop.size
        # Scaled rewards make same-class misreports profitable.
        scaled = _scaled_rewards(mech, np.random.default_rng(301))
        misreports = 0
        for offer in (mech, scaled):
            for m in pop.ids:
                decision = best_response(m, offer, pop)
                assert _bits(
                    (
                        decision.type_id,
                        decision.participate,
                        decision.reported_type,
                        decision.expected_payoff,
                    )
                ) == _bits(best_response_oracle(m, offer, pop))
                misreports += decision.reported_type != m
        assert misreports or scenario == "complete"

    def test_round_tabulates_one_true_type_per_table(self, monkeypatch):
        mech, pop = self._offer("incomplete")
        shapes = []

        def spy(*args, **kwargs):
            payoffs, feasible = report_table(*args, **kwargs)
            shapes.append((payoffs.shape, feasible.shape))
            return payoffs, feasible

        report_table = game._report_table
        monkeypatch.setattr(game, "_report_table", spy)
        rng = np.random.default_rng(302)
        simulate_round(
            mech, pop, rng.standard_normal((500, 3)), rng.standard_normal(3), seed=0
        )
        assert len(shapes) == pop.size
        assert all(p == f == (1, pop.size) for p, f in shapes)
