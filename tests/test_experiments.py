"""Sweeps, experiment specs, config parsing, and result tables."""

from __future__ import annotations

import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coded_incentives
from coded_incentives import (
    DEFAULT_TYPE_PARAMS,
    ConfigurationError,
    ExperimentSpec,
    InfeasibleError,
    NumericalError,
    ResultTable,
    apportion,
    build_population,
    default_population,
    default_worker_types,
    load_config,
    run_custom,
    run_experiment,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    WorkerType,
    solve_incomplete,
    solve_lambda,
)
from coded_incentives import experiments, workers
from coded_incentives.experiments import _apportion_rows, _mean_and_stderr
from coded_incentives.mechanisms import _prefix_costs, _private_offers
from coded_incentives.runtime import expected_runtimes_hetero
from oracles import apportion_oracle, best_response_oracle


class TestApportion:
    def test_sums_to_total(self):
        for total in (0, 1, 7, 100, 1399):
            for weights in ([1.0, 1.0, 1.0], [2.0, 1.0], [0.1, 0.2, 0.7]):
                assert sum(apportion(total, weights)) == total

    def test_proportional_within_one(self):
        counts = apportion(1000, [0.1, 0.2, 0.7])
        assert counts == [100, 200, 700]
        counts = apportion(10, [2.0, 1.0])
        assert counts == [7, 3]

    def test_tie_goes_to_lower_index(self):
        assert apportion(10, [1.0, 1.0, 1.0]) == [4, 3, 3]

    def test_zero_weight_gets_nothing(self):
        assert apportion(9, [1.0, 0.0, 2.0]) == [3, 0, 6]

    def test_validation(self):
        with pytest.raises(ValueError):
            apportion(-1, [1.0])
        with pytest.raises(ValueError):
            apportion(5, [])
        with pytest.raises(ValueError):
            apportion(5, [0.0, 0.0])
        with pytest.raises(ValueError):
            apportion(5, [-1.0, 2.0])

    @settings(max_examples=200, deadline=None)
    @given(
        totals=st.lists(
            st.integers(min_value=0, max_value=10_000), min_size=1, max_size=8
        ),
        weights=st.lists(
            st.one_of(
                st.just(0.0),
                st.just(1.0),
                st.floats(min_value=0.0, max_value=1e3),
            ),
            min_size=1,
            max_size=12,
        ).filter(lambda w: sum(w) > 0),
    )
    def test_rows_match_scalar_oracle(self, totals, weights):
        counts = _apportion_rows(totals, weights)
        assert counts.shape == (len(totals), len(weights))
        for total, row in zip(totals, counts.tolist()):
            assert row == apportion_oracle(total, weights)
            assert apportion(total, weights) == apportion_oracle(total, weights)

    @pytest.mark.parametrize("shift", range(10))
    def test_equal_weight_rows_match_scalar_oracle(self, shift):
        # The default sweep's equal weights: every remainder of a row ties,
        # so the lower indices take the shortfall of `shift` workers.
        spec = ExperimentSpec()
        totals = [total + shift for total in spec.n_sweep]
        counts = _apportion_rows(totals, spec.weights())
        assert counts.shape == (50, spec.population.size)
        for total, row in zip(totals, counts.tolist()):
            assert row == apportion_oracle(total, spec.weights())
            assert row[:shift] == [row[-1] + 1] * shift


class TestDefaultCatalog:
    def test_ten_types_presorted(self):
        pop = default_population(1400)
        assert pop.size == len(DEFAULT_TYPE_PARAMS)
        assert pop.total == 1400
        # The catalog is listed in ratio order, so ids keep its order.
        for (cost, speed, startup), (worker, _) in zip(
            DEFAULT_TYPE_PARAMS, pop.types
        ):
            assert worker.cost_rate == cost
            assert worker.speed == speed
            assert worker.startup == startup

    def test_even_apportionment(self):
        pop = default_population(1400)
        assert all(t.count == 140 for t, _ in pop.types)
        uneven = default_population(1404)
        counts = [t.count for t, _ in uneven.types]
        assert sum(counts) == 1404
        assert set(counts) == {140, 141}

    def test_default_specs_share_one_read_only_catalog(self, tmp_path):
        shared = ExperimentSpec().population
        assert ExperimentSpec().population is shared
        assert shared == default_population(1400)
        with pytest.raises(ValueError):
            shared.counts[0] = 1.0
        # No caller can make a shared column writeable again.
        for name in workers._COLUMNS:
            with pytest.raises(ValueError):
                getattr(shared, name).flags.writeable = True
        path = tmp_path / "catalog.cfg"
        path.write_text("seed = 3\n")
        assert load_config(str(path)).population is not shared
        # The shared catalog is no cache of default_population(total).
        with pytest.raises(ValueError):
            default_population(1400.0)

    def test_custom_counts(self):
        types = default_worker_types([1] * 10)
        assert [t.count for t in types] == [1] * 10
        with pytest.raises(ValueError):
            default_worker_types([1, 2, 3])


class TestExperimentSpec:
    def test_defaults(self):
        spec = ExperimentSpec()
        assert spec.name == "custom"
        assert spec.population.total == 1400
        assert spec.n_sweep == tuple(range(100, 5001, 100))
        assert spec.replications == 200
        assert spec.type_probabilities is None
        assert spec.weights() == tuple([1.0] * 10)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(name="fig9")
        with pytest.raises(ConfigurationError):
            ExperimentSpec(n_sweep=())
        with pytest.raises(ConfigurationError):
            ExperimentSpec(n_sweep=(0,))
        with pytest.raises(ConfigurationError):
            ExperimentSpec(gamma_time=-1.0)
        with pytest.raises(ConfigurationError):
            ExperimentSpec(total_rows=0.0)
        with pytest.raises(ConfigurationError):
            ExperimentSpec(replications=0)
        with pytest.raises(ConfigurationError):
            ExperimentSpec(seed=-1)

    @pytest.mark.parametrize(
        "field", ["gamma_time", "gamma_pay", "total_rows"]
    )
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ConfigurationError, match="finite"):
            ExperimentSpec(**{field: value})

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_probability(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            ExperimentSpec(type_probabilities=(value,) + (0.1,) * 9)

    def test_probability_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(type_probabilities=(0.5, 0.5))
        with pytest.raises(ConfigurationError):
            ExperimentSpec(type_probabilities=tuple([0.2] * 10))
        with pytest.raises(ConfigurationError):
            ExperimentSpec(
                type_probabilities=(0.5, 0.6, -0.1) + tuple([0.0] * 7)
            )
        # Within the sum tolerance, but beyond what fig7's multinomial
        # draw accepts; within the draw's own 1e-12 slack, kept as given.
        tail = (0.0,) * 7
        with pytest.raises(ConfigurationError, match="pvals > 1"):
            ExperimentSpec(type_probabilities=(1.0000000005,) + (0.0,) * 9)
        with pytest.raises(ConfigurationError, match=r"sum\(pvals\[:-1\]\) > 1"):
            ExperimentSpec(type_probabilities=(0.5, 0.5000000005, 0.0) + tail)
        probs = (0.5, 0.5 + 1e-12, 0.0) + tail
        assert ExperimentSpec(type_probabilities=probs).type_probabilities == probs

    def test_metadata_roundtrip_bit_exact(self):
        probs = (
            0.0625, 0.1875, 0.125, 0.125, 0.0625,
            0.0625, 0.125, 0.0625, 0.125, 0.0625,
        )
        spec = ExperimentSpec(
            name="fig7",
            gamma_time=2000.0000000000002,
            gamma_pay=0.1 + 0.2,
            total_rows=997.0,
            n_sweep=(100, 250, 333),
            replications=17,
            seed=99,
            type_probabilities=probs,
        )
        rebuilt = ExperimentSpec.from_metadata(spec.to_metadata())
        assert rebuilt == spec

    def test_metadata_roundtrip_custom_population(self):
        pop = build_population(
            [
                WorkerType(
                    id=0, cost_rate=1.1, speed=33.3, startup=0.017, count=12
                ),
                WorkerType(
                    id=0, cost_rate=6.6, speed=70.7, startup=0.029, count=3
                ),
            ]
        )
        spec = ExperimentSpec(population=pop, n_sweep=(10, 20))
        rebuilt = ExperimentSpec.from_metadata(spec.to_metadata())
        assert rebuilt == spec

    def test_csv_version_is_the_package_version(self):
        table = run_experiment(ExperimentSpec(name="fig4", n_sweep=(100,)))
        assert table.metadata["version"] == coded_incentives.__version__
        assert f"# version = {coded_incentives.__version__}\n" in table.to_csv()

    def test_bad_metadata_rejected(self):
        spec = ExperimentSpec()
        meta = spec.to_metadata()
        del meta["sweep"]
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_metadata(meta)
        meta = spec.to_metadata()
        meta["population"] = "1.0,2.0"
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_metadata(meta)

    def test_overflowing_row_time_metadata_rejected(self):
        meta = ExperimentSpec().to_metadata()
        meta["population"] = "1.0,1e-308,1e308,5"
        with pytest.raises(
            ConfigurationError, match="invalid metadata: the row time overflows"
        ):
            ExperimentSpec.from_metadata(meta)


class TestResultTable:
    def _table(self):
        return ResultTable(
            columns=("N", "value"),
            rows=((100.0, 1.5), (200.0, 2.5)),
            metadata={"name": "custom", "seed": "0"},
        )

    def test_column_access(self):
        table = self._table()
        assert table.column("N") == [100.0, 200.0]
        assert table.column("value") == [1.5, 2.5]
        with pytest.raises(ValueError):
            table.column("other")

    def test_row_length_validated(self):
        with pytest.raises(ValueError):
            ResultTable(
                columns=("N", "value"), rows=((1.0,),), metadata={}
            )

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_is_a_numerical_error(self, bad):
        with pytest.raises(NumericalError, match="non-finite"):
            ResultTable(
                columns=("N", "value"), rows=((1.0, 2.0), (2.0, bad)), metadata={}
            )

    @pytest.mark.parametrize("width", [1, 2, 7])
    def test_csv_rows_match_per_value_formatting(self, width):
        values = [-0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0, 0.0, 100.0, -7.0, 2.0**53]
        rows = tuple(
            tuple(values[(start + j) % len(values)] for j in range(width))
            for start in range(len(values))
        )
        table = ResultTable(
            columns=tuple(f"c{j}" for j in range(width)), rows=rows, metadata={}
        )
        body = table.to_csv().split("\n")[1:-1]
        assert body == [
            ",".join(format(value, ".17g") for value in row) for row in rows
        ]

    def test_csv_layout_and_precision(self):
        table = ResultTable(
            columns=("N", "value"),
            rows=((100.0, 1.0 / 3.0),),
            metadata={"name": "custom"},
        )
        text = table.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "# name = custom"
        assert lines[1] == "N,value"
        parsed = [float(v) for v in lines[2].split(",")]
        assert parsed[0] == 100.0
        assert parsed[1] == 1.0 / 3.0


def _small_spec(**overrides):
    defaults = dict(n_sweep=(200, 800, 1400), replications=2, seed=1)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestSweeps:
    def test_fig4_columns_and_benchmark_point(self):
        table = run_fig4(_small_spec(name="fig4"))
        assert table.columns == ("N", "targeted_complete", "targeted_incomplete")
        assert table.column("N") == [200.0, 800.0, 1400.0]
        by_n = {row[0]: row for row in table.rows}
        assert by_n[1400.0][1] == 3.0
        assert by_n[1400.0][2] == 3.0

    def test_fig4_series_nonincreasing(self):
        table = run_fig4(
            ExperimentSpec(name="fig4", n_sweep=tuple(range(100, 2001, 100)))
        )
        for column in ("targeted_complete", "targeted_incomplete"):
            series = table.column(column)
            assert all(b <= a for a, b in zip(series, series[1:]))

    def test_fig5_gap_identity(self):
        table = run_fig5(_small_spec(name="fig5"))
        assert table.columns == ("N", "cost_complete", "cost_incomplete", "gap")
        for _, complete, incomplete, gap in table.rows:
            assert gap == incomplete - complete
            assert gap >= -1e-9

    def test_fig6_payoff_columns(self):
        spec = _small_spec(name="fig6", n_sweep=(1400,))
        table = run_fig6(spec)
        assert table.columns[0] == "N"
        assert len(table.columns) == 1 + spec.population.size
        row = table.rows[0]
        payoffs = {m: row[m] for m in range(1, spec.population.size + 1)}
        # Types 1 and 2 keep rents, the boundary type 3 nets exactly
        # zero, everyone beyond declines to zero.
        assert payoffs[1] > 0.0
        assert payoffs[2] > 0.0
        assert payoffs[3] == 0.0
        assert all(payoffs[m] == 0.0 for m in range(4, 11))

    def test_fig7_columns_and_determinism(self):
        spec = _small_spec(name="fig7", n_sweep=(200, 400), replications=3)
        table = run_fig7(spec)
        assert table.columns == (
            "N",
            "gap_mean",
            "gap_stderr",
            "cost_committed_mean",
            "cost_informed_mean",
        )
        again = run_fig7(spec)
        assert table.rows == again.rows
        for _, gap_mean, _, committed, informed in table.rows:
            assert gap_mean == pytest.approx(committed - informed, rel=1e-9)

    def test_fig7_committed_prefix_without_workers_is_infeasible(self):
        # One worker: the committed offer targets type 1 alone, and most
        # draws realize that worker in another type.
        with pytest.raises(InfeasibleError):
            run_fig7(_small_spec(name="fig7", n_sweep=(1,), replications=20))

    def test_fig7_single_replication_has_zero_stderr(self):
        table = run_fig7(_small_spec(name="fig7", n_sweep=(300,), replications=1))
        assert table.column("gap_stderr") == [0.0]

    def test_custom_combines_all_series(self):
        spec = _small_spec(name="custom")
        table = run_custom(spec)
        assert table.columns == (
            "N",
            "targeted_complete",
            "targeted_incomplete",
            "cost_complete",
            "cost_incomplete",
            "gap",
        )
        fig4 = run_fig4(_small_spec(name="fig4"))
        assert table.column("targeted_complete") == fig4.column(
            "targeted_complete"
        )

    def test_run_experiment_dispatch(self):
        spec = _small_spec(name="fig5")
        direct = run_fig5(spec)
        routed = run_experiment(spec)
        assert routed.rows == direct.rows
        assert routed.metadata["name"] == "fig5"

    def test_metadata_reproduces_run(self):
        spec = _small_spec(name="fig5")
        table = run_fig5(spec)
        rebuilt = ExperimentSpec.from_metadata(table.metadata)
        again = run_fig5(rebuilt)
        assert again.rows == table.rows


# float.hex of every run_fig7 row for n_sweep=(100, 1400, 5000),
# replications=50, seed=7, recorded from the single-stream draw: each
# point's 50 headcount vectors are the rows of one
# multinomial(N, probabilities, size=50) on SeedSequence([seed, N]).
_FIG7_SKEWED = (0.05, 0.15, 0.1, 0.2, 0.05, 0.1, 0.1, 0.05, 0.1, 0.1)
_FIG7_GOLDEN = {
    None: (
        (
            "0x1.9000000000000p+6",
            "0x1.78f1559cf7d3dp+4",
            "0x1.89fc24f0398afp+3",
            "0x1.65913615aee8ep+11",
            "0x1.629f536a74f94p+11",
        ),
        (
            "0x1.5e00000000000p+10",
            "-0x1.76f8895d8ed0fp+1",
            "0x1.353eeaa8f7143p+1",
            "0x1.3c9b97034adc1p+9",
            "0x1.3e128f8ca86aep+9",
        ),
        (
            "0x1.3880000000000p+12",
            "-0x1.1b9cc0ddb381fp-1",
            "0x1.1e26d7661681dp-2",
            "0x1.fd6a375a751bcp+7",
            "0x1.fe85d41b52cf6p+7",
        ),
    ),
    _FIG7_SKEWED: (
        (
            "0x1.9000000000000p+6",
            "0x1.aa30e8f3aeb00p+4",
            "0x1.851f1ea389b4fp+3",
            "0x1.6fba8242c9917p+11",
            "0x1.6c662070e2341p+11",
        ),
        (
            "0x1.5e00000000000p+10",
            "-0x1.267335edb2966p+1",
            "0x1.371d6c920d0ddp+1",
            "0x1.3c926ffc0a2dfp+9",
            "0x1.3db8e331f7e08p+9",
        ),
        (
            "0x1.3880000000000p+12",
            "0x1.b8e2062fa9bd1p+2",
            "0x1.224e649f54bb7p+1",
            "0x1.c30e039665f84p+8",
            "0x1.bc2a7b7da7513p+8",
        ),
    ),
}


@pytest.mark.parametrize(
    "probabilities", [None, _FIG7_SKEWED], ids=["uniform", "skewed"]
)
def test_fig7_rows_match_recorded_bits(probabilities):
    spec = ExperimentSpec(
        name="fig7",
        n_sweep=(100, 1400, 5000),
        replications=50,
        seed=7,
        type_probabilities=probabilities,
    )
    rows = tuple(
        tuple(value.hex() for value in row) for row in run_fig7(spec).rows
    )
    assert rows == _FIG7_GOLDEN[probabilities]


def _fig7_pricing(monkeypatch, spec):
    """Per point of ``spec``: the realized counts matrix ``run_fig7``
    prices and the committed and informed cost rows it prices them at,
    captured from its batched calls: one pricing call per point, on the
    committed rows stacked above the informed ones."""
    counts_seen, costs_seen = [], []

    def private_offers(counts, *args):
        counts_seen.append(counts)
        return _private_offers(counts, *args)

    def prefix_costs(*args):
        costs_seen.append(_prefix_costs(*args))
        return costs_seen[-1]

    monkeypatch.setattr(experiments, "_private_offers", private_offers)
    monkeypatch.setattr(experiments, "_prefix_costs", prefix_costs)
    run_fig7(spec)
    monkeypatch.undo()
    assert len(costs_seen) == len(counts_seen) == len(spec.n_sweep)
    return [
        (counts, *np.split(costs, 2)) for counts, costs in zip(counts_seen, costs_seen)
    ]


def test_fig7_committed_costs_reuse_only_matching_runtimes(monkeypatch):
    # At N = 2100 the committed offer targets type 1, and 42 of the 200
    # informed offers target a longer prefix: both kinds of replicate
    # must price as the committed offer priced on its own.
    spec = ExperimentSpec(name="fig7", n_sweep=(2100,))
    pop, cfg = spec.population, spec.platform_config()
    [(realized, committed_costs, _)] = _fig7_pricing(monkeypatch, spec)
    committed = solve_incomplete(pop.with_counts(apportion(2100, spec.weights())), cfg)
    moved = _private_offers(realized, pop, cfg)[0] != committed.threshold_type
    assert 0 < moved.sum() < spec.replications
    thresholds = np.full(spec.replications, committed.threshold_type)
    alone = _prefix_costs(
        realized,
        thresholds,
        committed.rewards.tolist(),
        cfg,
        expected_runtimes_hetero(realized, pop, thresholds, cfg.total_rows),
    )
    assert [c.hex() for c in committed_costs] == [c.hex() for c in alone]


def test_fig7_replicates_are_prefixes_of_a_larger_run(monkeypatch):
    spec = ExperimentSpec(
        name="fig7",
        n_sweep=(100, 1400),
        replications=200,
        seed=7,
        type_probabilities=_FIG7_SKEWED,
    )
    full = _fig7_pricing(monkeypatch, spec)
    assert [counts.shape for counts, _, _ in full] == [(200, 10)] * 2
    for reps in (1, 37):
        part = _fig7_pricing(monkeypatch, replace(spec, replications=reps))
        for got, whole in zip(part, full, strict=True):
            assert np.array_equal(got[0], whole[0][:reps])
            assert [costs.tobytes() for costs in got[1:]] == [
                costs[:reps].tobytes() for costs in whole[1:]
            ]


def test_fig7_point_rows_do_not_depend_on_the_sweep(monkeypatch):
    spec = ExperimentSpec(
        name="fig7", n_sweep=(5000, 100, 2300, 1400), replications=50, seed=3
    )
    generators, numpy_default_rng = [], np.random.default_rng

    def default_rng(seed):
        generators.append(seed)
        return numpy_default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    table = run_fig7(spec)
    # One stream per point, not one per replicate.
    assert len(generators) == len(spec.n_sweep)
    monkeypatch.undo()
    for row in table.rows:
        alone = run_fig7(replace(spec, n_sweep=(int(row[0]),))).rows[0]
        assert [v.hex() for v in alone] == [v.hex() for v in row]


# float.hex of every row of the four deterministic sweeps at
# n_sweep=(1, 2, 3, 7, 13, 100, 1400, 5000), uniform and _FIG7_SKEWED
# probabilities, recorded from the per-point scalar implementation (one
# solve_complete and solve_incomplete per point, best_response per type).
_SWEEP_GOLDEN = json.loads(
    (Path(__file__).parent / "sweep_bits.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("name", ["fig4", "fig5", "fig6", "custom"])
def test_sweep_rows_match_recorded_bits(name):
    for label, probabilities in (("uniform", None), ("skewed", _FIG7_SKEWED)):
        spec = ExperimentSpec(
            name=name,
            n_sweep=(1, 2, 3, 7, 13, 100, 1400, 5000),
            type_probabilities=probabilities,
        )
        rows = [
            " ".join(value.hex() for value in row)
            for row in run_experiment(spec).rows
        ]
        assert rows == _SWEEP_GOLDEN[name][label], label


@pytest.mark.parametrize(
    "probabilities", [None, _FIG7_SKEWED], ids=["uniform", "skewed"]
)
def test_fig4_and_fig5_rows_are_custom_columns(probabilities):
    spec = ExperimentSpec(
        n_sweep=(1, 2, 3, 7, 13, 100, 1400, 5000), type_probabilities=probabilities
    )
    custom = run_custom(spec)
    for run in (run_fig4, run_fig5):
        table = run(spec)
        columns = [custom.column(name) for name in table.columns]
        assert [[v.hex() for v in row] for row in table.rows] == [
            [v.hex() for v in row] for row in zip(*columns)
        ]


@pytest.mark.parametrize("name, calls", [("fig4", 0), ("fig5", 1), ("custom", 1)])
def test_sweeps_price_costs_only_to_print_them(monkeypatch, name, calls):
    priced = []

    def prefix_costs(*args):
        priced.append(args[0].shape)
        return _prefix_costs(*args)

    monkeypatch.setattr(experiments, "_prefix_costs", prefix_costs)
    spec = ExperimentSpec(name=name)
    run_experiment(spec)
    # One pass over both scenarios' rows.
    assert priced == [(2 * len(spec.n_sweep), spec.population.size)] * calls


# (cost, speed, startup) per type, type probabilities and gamma_time of
# populations whose types share runtime classes.
_SHARED_CLASSES = {
    # Three runtime classes of two cost rates each.
    "three-classes": (
        [
            (cost, speed, startup)
            for speed, startup in ((50.0, 0.012), (100.0, 0.024), (10.0, 0.031))
            for cost in (1.0, 4.0)
        ],
        (0.05, 0.3, 0.1, 0.25, 0.2, 0.1),
        300.0,
    ),
    # Type 3 shares type 1's runtime class and, up to rounding, the
    # boundary type 2's ratio: untargeted, it gains about 1e-13 at N=1 by
    # claiming type 1's identity.
    "rounding-claim": (
        [
            (7.952339288062252, 345.273482739136, 0.0559023961105897),
            (9.031947307823318, 245.31721373392392, 0.0535448382388531),
            (9.194885328927498, 345.273482739136, 0.0559023961105897),
        ],
        (0.04974811218074341, 0.6828464761403216, 0.267405411678935),
        1213.7423433644344,
    ),
}


@pytest.mark.parametrize("case", sorted(_SHARED_CLASSES))
def test_fig6_payoffs_follow_best_response_with_shared_runtime_classes(case):
    params, probabilities, gamma_time = _SHARED_CLASSES[case]
    raw = [
        WorkerType(id=0, cost_rate=cost, speed=speed, startup=startup, count=1)
        for cost, speed, startup in params
    ]
    spec = ExperimentSpec(
        name="fig6",
        population=build_population(raw),
        gamma_time=gamma_time,
        n_sweep=(1, 2, 3, 5, 8, 40, 300, 2000),
        type_probabilities=probabilities,
    )
    cfg = spec.platform_config()
    table = run_fig6(spec)
    for total, row in zip(spec.n_sweep, table.rows):
        pop = spec.population.with_counts(apportion(total, spec.weights()))
        mech = solve_incomplete(pop, cfg)
        expected = [best_response_oracle(m, mech, pop)[3] for m in pop.ids]
        assert [v.hex() for v in row[1:]] == [v.hex() for v in expected]


# Two types already in ratio order, so probabilities keep their order.
_TWO_TYPES = "1.0 50.0 0.012 10\n3.0 10.0 0.031 10\n"

# One text per setting, read alike as a config line and a metadata value.
_SETTING_TEXTS = {
    "gamma_time": "1500.25",
    "gamma_pay": "0.3",
    "total_rows": "640",
    "sweep": "100,300,150",
    "replications": "7",
    "seed": "11",
    "probabilities": "0.25,0.75",
}


class TestLoadConfig:
    @pytest.mark.parametrize("key", list(_SETTING_TEXTS))
    def test_setting_reads_alike_from_config_and_metadata(self, tmp_path, key):
        base, path = tmp_path / "base.cfg", tmp_path / "exp.cfg"
        base.write_text(_TWO_TYPES)
        path.write_text(_TWO_TYPES + f"{key} = {_SETTING_TEXTS[key]}\n")
        meta = load_config(str(base)).to_metadata()
        meta[key] = _SETTING_TEXTS[key]
        from_config = load_config(str(path))
        assert from_config != load_config(str(base))
        assert ExperimentSpec.from_metadata(meta) == from_config

    def test_uniform_and_ranges_read_in_both(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "probabilities = 0.5,0.5\nprobabilities = uniform\nsweep = 2:6:2\n"
        )
        spec = load_config(str(path))
        assert spec.type_probabilities is None
        meta = spec.to_metadata()
        assert meta["probabilities"] == "uniform"
        meta["sweep"] = "2:6:2"
        assert ExperimentSpec.from_metadata(meta) == spec

    def test_derives_each_row_once(self, tmp_path, monkeypatch):
        # One root call per population, over all its rows in input order.
        speeds = []

        def counting(mu, a):
            speeds.append(np.asarray(mu).tolist())
            return solve_lambda(mu, a)

        monkeypatch.setattr(workers, "solve_lambda", counting)
        path = tmp_path / "exp.cfg"
        path.write_text(
            "9.0 10.0 0.05 10\n" + _TWO_TYPES + "probabilities = 0.2,0.3,0.5\n"
        )
        spec = load_config(str(path))
        assert speeds == [[10.0, 50.0, 10.0]]
        assert spec.type_probabilities == (0.3, 0.5, 0.2)
        speeds.clear()
        experiments.default_population()
        assert speeds == [[speed for _, speed, _ in DEFAULT_TYPE_PARAMS]]
        rng = np.random.default_rng(2026)
        rows = np.column_stack(
            (rng.uniform(1, 20, 1000), rng.uniform(10, 400, 1000),
             rng.uniform(0.01, 0.05, 1000), np.full(1000, 5))
        )
        path.write_text("".join(f"{c} {s} {a} {int(n)}\n" for c, s, a, n in rows))
        speeds.clear()
        assert load_config(str(path)).population.size == 1000
        assert speeds == [rows[:, 1].tolist()]

    def test_readme_example_config(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("### Configuration files")[1]
        block = section.split("```")[1]
        # Every documented key, commented out or not, is a setting.
        documented = re.findall(r"(?m)^#?\s*(\w+)\s*=", block)
        assert sorted(documented) == sorted(experiments._SETTINGS)
        path = tmp_path / "readme.cfg"
        path.write_text(block.replace("# probabilities", "probabilities"))
        spec = load_config(str(path))
        assert spec.population.size == 2
        assert spec.n_sweep == tuple(range(100, 5001, 100))
        assert spec.type_probabilities == (0.5, 0.5)

    def test_full_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# worker types: cost speed startup count\n"
            "1.0 50.0 0.012 140\n"
            "3.0 10.0 0.031 140  # slow type\n"
            "\n"
            "gamma_time = 1500\n"
            "gamma-pay = 2.0\n"
            "total_rows = 640\n"
            "sweep = 200:600:200\n"
            "replications = 7\n"
            "seed = 11\n"
        )
        spec = load_config(str(path))
        assert spec.population.size == 2
        assert spec.gamma_time == 1500.0
        assert spec.gamma_pay == 2.0
        assert spec.total_rows == 640.0
        assert spec.n_sweep == (200, 400, 600)
        assert spec.replications == 7
        assert spec.seed == 11

    def test_sweep_comma_list(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("sweep = 100,300,150\n")
        spec = load_config(str(path))
        assert spec.n_sweep == (100, 300, 150)
        assert spec.population.size == 10

    def test_empty_population_uses_catalog(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("seed = 3\n")
        spec = load_config(str(path))
        assert spec.population.size == 10
        assert spec.population.total == 1400

    def test_probabilities_follow_type_relabeling(self, tmp_path):
        # The expensive type is listed first but sorts to id 2, so its
        # probability must travel with it.
        path = tmp_path / "exp.cfg"
        path.write_text(
            "9.0 10.0 0.05 10\n"
            "1.0 10.0 0.05 10\n"
            "probabilities = 0.3, 0.7\n"
        )
        spec = load_config(str(path))
        assert spec.population.member(1)[0].cost_rate == 1.0
        assert spec.type_probabilities == (0.7, 0.3)

    def test_unknown_setting_rejected_with_location(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("gamma_time = 5\nworkers = 3\n")
        with pytest.raises(ConfigurationError, match=":2"):
            load_config(str(path))

    def test_malformed_population_row(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("1.0 50.0 0.012\n")
        with pytest.raises(ConfigurationError, match=":1"):
            load_config(str(path))

    def test_invalid_worker_values_wrapped(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("-1.0 50.0 0.012 10\n")
        with pytest.raises(ConfigurationError, match=":1"):
            load_config(str(path))

    def test_ratio_that_underflows_to_zero_is_named_by_line(self, tmp_path):
        # 1e-300 over a throughput of about 3.2e299 rounds to a zero ratio.
        path = tmp_path / "exp.cfg"
        path.write_text("1.0 50.0 0.012 10\n1e-300 1e300 1e-300 5\n")
        with pytest.raises(ConfigurationError, match=":2: profile entries must be"):
            load_config(str(path))

    def test_probability_count_mismatch(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "1.0 50.0 0.012 10\nprobabilities = 0.5, 0.25, 0.25\n"
        )
        with pytest.raises(ConfigurationError):
            load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(str(tmp_path / "absent.cfg"))

    def test_bad_sweep_text(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("sweep = 100:500\n")
        with pytest.raises(ConfigurationError, match=":1"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("seed = -1", "seed must be a nonnegative integer, got -1"),
            ("replications = 0", "replications must be a positive integer, got 0"),
            ("sweep = 0,100", "a sweep's worker count must be a positive integer, got 0"),
            ("gamma_pay = -1", "gamma_pay must be nonnegative and finite, got -1.0"),
        ],
    )
    def test_setting_the_spec_refuses_names_the_file(self, tmp_path, setting, message):
        path = tmp_path / "exp.cfg"
        path.write_text(setting + "\n")
        with pytest.raises(ConfigurationError) as raised:
            load_config(str(path))
        assert str(raised.value) == f"{path}: {message}"

    def test_sweep_step_below_one(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("sweep = 100:500:0\n")
        with pytest.raises(ConfigurationError, match=":1.*sweep step must be positive"):
            load_config(str(path))


@pytest.mark.parametrize("reps", [1, 2, 3, 200])
def test_fig7_statistics_match_numpy_bit_for_bit(reps):
    rng = np.random.default_rng(reps)
    samples = [rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), reps) for _ in range(20)]
    if reps > 1:
        samples.append(np.where(np.arange(reps) == 1, np.inf, samples[0]))
    for gaps in samples:
        with np.errstate(all="ignore"):
            mean, stderr = _mean_and_stderr(gaps)
            expected = (
                np.std(gaps, ddof=1) / math.sqrt(reps) if reps > 1 else 0.0
            )
        assert type(mean) is float and type(stderr) is float
        assert mean.hex() == float(np.mean(gaps)).hex()
        assert stderr.hex() == float(expected).hex()
