"""Sweeps, experiment specs, config parsing, and result tables."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coded_incentives import (
    DEFAULT_TYPE_PARAMS,
    ConfigurationError,
    ExperimentSpec,
    InfeasibleError,
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
    best_response,
    solve_incomplete,
)
from coded_incentives.experiments import _apportion_rows
from oracles import apportion_oracle


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

    def test_underflowing_throughput_metadata_rejected(self):
        meta = ExperimentSpec().to_metadata()
        meta["population"] = "1.0,1e300,1e300,5"
        with pytest.raises(ConfigurationError, match="underflows"):
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
# replications=50, seed=7, recorded from the per-replicate scalar
# implementation (one solve_incomplete per realized draw).
_FIG7_SKEWED = (0.05, 0.15, 0.1, 0.2, 0.05, 0.1, 0.1, 0.05, 0.1, 0.1)
_FIG7_GOLDEN = {
    None: (
        (
            "0x1.9000000000000p+6",
            "-0x1.75a2a043b98a4p+2",
            "0x1.6ad8f19c8349cp+3",
            "0x1.680610c4cf48fp+11",
            "0x1.68c0e214f125bp+11",
        ),
        (
            "0x1.5e00000000000p+10",
            "-0x1.2f299fe3d27a1p+2",
            "0x1.3003de8ae0384p+1",
            "0x1.3c409930a5d90p+9",
            "0x1.3e9eec706d7dfp+9",
        ),
        (
            "0x1.3880000000000p+12",
            "0x1.6c594283964b8p-3",
            "0x1.417a82e8dd3f9p-2",
            "0x1.f9183c3dac648p+7",
            "0x1.f8bd25ed0b7eep+7",
        ),
    ),
    _FIG7_SKEWED: (
        (
            "0x1.9000000000000p+6",
            "-0x1.0b502d0c36d1fp+2",
            "0x1.7b4b989b0c3a1p+3",
            "0x1.72c5197b05894p+11",
            "0x1.734ac1918ba4dp+11",
        ),
        (
            "0x1.5e00000000000p+10",
            "-0x1.72a50d4515a7bp+2",
            "0x1.1fd25761649b9p+1",
            "0x1.3bdd1e9736061p+9",
            "0x1.3ec268b1c0315p+9",
        ),
        (
            "0x1.3880000000000p+12",
            "0x1.0cbd0beea035ap+3",
            "0x1.564c3530bb077p+1",
            "0x1.c38b219b741d4p+8",
            "0x1.bb25393bff1bap+8",
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
        expected = [best_response(m, mech, pop).expected_payoff for m in pop.ids]
        assert [v.hex() for v in row[1:]] == [v.hex() for v in expected]


class TestLoadConfig:
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
