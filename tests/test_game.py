"""Worker payoffs, best responses, and offer compliance checks."""

from __future__ import annotations

import numpy as np
import pytest

from coded_incentives import (
    ComplianceReport,
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
    worker_payoff,
)
from coded_incentives.game import _best_payoffs
from coded_incentives.mechanisms import _private_offers
from conftest import random_cost_only_instance, random_hetero_instance


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


def _offer(pop, rewards, scenario, cfg=None, targeted=None):
    cfg = cfg or PlatformConfig(gamma_time=100.0, gamma_pay=1.0, total_rows=500.0)
    targeted = targeted or pop.ids
    assignment = assign_loads_hetero(pop, targeted, cfg.total_rows)
    runtime = expected_runtime_hetero(pop, targeted, cfg.total_rows).expected_runtime
    return Mechanism(
        scenario=scenario,
        targeted=tuple(targeted),
        threshold_type=max(targeted),
        rewards=rewards,
        assignment=assignment,
        expected_runtime=runtime,
        expected_cost=0.0,
        config=cfg,
    )


class TestWorkerPayoff:
    def test_reward_minus_cost(self, benchmark_population, benchmark_config):
        mech = solve_incomplete(benchmark_population, benchmark_config)
        for m in benchmark_population.ids:
            worker, _ = benchmark_population.member(m)
            expected = mech.rewards[m] - worker.cost_rate * mech.expected_runtime
            assert worker_payoff(m, m, mech, benchmark_population) == expected

    def test_misreport_uses_reported_reward_and_true_cost(
        self, benchmark_population, benchmark_config
    ):
        mech = solve_incomplete(benchmark_population, benchmark_config)
        worker, _ = benchmark_population.member(4)
        value = worker_payoff(4, 2, mech, benchmark_population)
        assert value == mech.rewards[2] - worker.cost_rate * mech.expected_runtime

    def test_complete_information_rejects_misreports(
        self, benchmark_population, benchmark_config
    ):
        mech = solve_complete(benchmark_population, benchmark_config)
        with pytest.raises(ValueError):
            worker_payoff(2, 1, mech, benchmark_population)
        # Truthful reports remain fine.
        assert worker_payoff(2, 2, mech, benchmark_population) == pytest.approx(0.0)

    def test_unknown_ids_rejected(self, benchmark_population, benchmark_config):
        mech = solve_incomplete(benchmark_population, benchmark_config)
        with pytest.raises(ValueError):
            worker_payoff(0, 1, mech, benchmark_population)
        with pytest.raises(ValueError):
            worker_payoff(1, 99, mech, benchmark_population)


class TestBestResponse:
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
                best = max(worker_payoff(m, r, mech, pop) for r in feasible)
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
            _, costs, throughputs, ratios = pop.arrays()
            offers = _private_offers(counts, costs, throughputs, ratios, cfg)
            for row, payoffs in zip(counts, _best_payoffs(*offers, pop)):
                at_row = pop.with_counts(row)
                mech = solve_incomplete(at_row, cfg)
                expected = [
                    best_response(m, mech, at_row).expected_payoff for m in pop.ids
                ]
                assert [v.hex() for v in payoffs.tolist()] == [
                    v.hex() for v in expected
                ]

    def test_tie_prefers_truthful_report(self):
        pop = _two_class_population()
        rewards = {1: 40.0, 2: 40.0, 3: 40.0}
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
        mech = _offer(pop, {1: 300.0, 2: 100.0, 3: 100.0}, "incomplete-hetero")
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
        runtime = expected_runtime_hetero(pop, pop.ids, 500.0).expected_runtime
        rewards = {
            1: 10_000.0,
            2: 10_000.0,
            3: 2.0 * pop.member(3)[0].cost_rate * runtime,
        }
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
        mech = _offer(pop, {1: 0.0, 2: 0.0, 3: 0.0}, "incomplete-hetero")
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
        mech = _offer(pop, {1: 300.0, 2: 100.0, 3: 0.0}, "incomplete-hetero")
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

    def test_empty_report_is_truthful(self):
        report = ComplianceReport(
            ir_violations=(), ic_violations=(), unrestricted_ic_violations=()
        )
        assert report.truthful
        assert report.to_rows() == []
