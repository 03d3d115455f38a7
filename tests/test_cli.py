"""Command-line interface: outputs, overrides, and exit codes."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import coded_incentives
from coded_incentives import DEFAULT_TYPE_PARAMS, cli, mds_alpha, read_matrix
from coded_incentives.cli import build_parser, main

# The benchmark's offers commands and the reference output each prints.
with pytest.MonkeyPatch.context() as _patch:
    _patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import COMMANDS, REFERENCE, same_output

# Runs this checkout's package in a fresh interpreter, installed or not.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [str(Path(coded_incentives.__file__).parents[1])]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ),
}


SMALL_HETERO = (
    "1.0 50.0 0.012 8\n"
    "3.0 10.0 0.031 6\n"
    "9.0 40.0 0.123 5\n"
    "gamma_time = 200\n"
    "total_rows = 60\n"
)

SMALL_COST_ONLY = (
    "1.0 2.0 1.0 6\n"
    "4.0 2.0 1.0 4\n"
    "gamma_time = 20\n"
    "total_rows = 56\n"
)

# ``solve --scenario cost-only`` on SMALL_COST_ONLY.
COST_ONLY_SOLVE = """\
scenario: incomplete-cost-only
targeted types: 1
expected round runtime: 19.6294
expected platform cost: 504.176
recovery threshold: 5

type   count      cost        reward        load
   1       6         1       19.6294        11.2
   2       4         4       19.6294           -
"""

# ``verify`` on an offer with no violation, not even a diagnostic one.
TRUTHFUL_VERIFY = """\
offer is individually rational and incentive compatible

kind,true_type,reported_type,value
"""


# Four types listed out of ratio order, every setting spelled out, and
# probabilities that must travel with their types through the relabeling.
POOL = (
    "# cost speed startup count\n"
    "9.0 40.0 0.123 5\n"
    "1.0 50.0 0.012 8\n"
    "3.0 10.0 0.031 6\n"
    "5.0 20.0 0.081 7\n"
    "gamma_time = 300\n"
    "gamma-pay = 1.5\n"
    "total_rows = 60\n"
    "sweep = 20:80:30\n"
    "replications = 5\n"
    "seed = 4\n"
    "probabilities = 0.1, 0.4, 0.3, 0.2\n"
)


def _pool_argv(command: str, tmp_path) -> list[str]:
    """``command`` on POOL, with a 60x3 ``--matrix`` file and a
    ``--vector`` file for ``simulate``."""
    cfg = tmp_path / "pool.cfg"
    cfg.write_text(POOL)
    argv = command.split() + ["--config", str(cfg)]
    if command.startswith("simulate"):
        matrix = np.random.default_rng(5).standard_normal((60, 3))
        m_path, v_path = tmp_path / "m.txt", tmp_path / "v.txt"
        rows = (" ".join(map(repr, row)) for row in matrix.tolist())
        m_path.write_text("60 3\n" + "\n".join(rows) + "\n")
        v_path.write_text("3  # length\n0.5 -1.25\n2.0\n")
        argv += ["--matrix", str(m_path), "--vector", str(v_path)]
    return argv


@pytest.fixture()
def hetero_cfg(tmp_path):
    path = tmp_path / "hetero.cfg"
    path.write_text(SMALL_HETERO)
    return str(path)


@pytest.fixture()
def cost_only_cfg(tmp_path):
    path = tmp_path / "cost.cfg"
    path.write_text(SMALL_COST_ONLY)
    return str(path)


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
        capsys.readouterr()

    def test_rejects_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig9"])
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--reps", "3"],
            ["verify", "--reps", "3"],
            ["encode-demo", "--config", "pool.cfg"],
            ["encode-demo", "--seed", "3"],
            ["encode-demo", "--reps", "3"],
        ],
        ids=" ".join,
    )
    def test_option_the_command_does_not_read_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSharedParser:
    """``main`` parses every call with one parser; nothing one call
    parses may reach the next."""

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_scenario_falls_back_to_its_default(self, capsys):
        assert main(["solve", "--scenario", "complete"]) == 0
        assert capsys.readouterr().out.startswith("scenario: complete-hetero\n")
        assert main(["solve"]) == 0
        assert capsys.readouterr().out.startswith("scenario: incomplete-hetero\n")

    def test_reps_falls_back_to_the_spec(self, capsys):
        assert main(["experiment", "fig7", "--reps", "2"]) == 0
        assert "# replications = 2\n" in capsys.readouterr().out
        assert main(["experiment", "fig4"]) == 0
        assert "# replications = 200\n" in capsys.readouterr().out

    def test_rejected_command_line_leaves_the_next_one_intact(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "fig9"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["verify"]) == 0
        expected = (REFERENCE / "verify.txt").read_text(encoding="utf-8")
        assert same_output(capsys.readouterr().out, expected)


@pytest.mark.parametrize("label, argv", COMMANDS, ids=[label for label, _ in COMMANDS])
def test_offers_command_prints_its_reference_output(label, argv, capsys):
    assert main(list(argv)) == 0
    expected = (REFERENCE / f"{label}.txt").read_text(encoding="utf-8")
    assert same_output(capsys.readouterr().out, expected)


# sha256 of each offers command's output, byte for byte with the
# `# version` metadata line masked, recorded before fig4 stopped pricing
# costs, the sweeps priced both scenarios in one pass and each command
# built one spec.
OFFERS_DIGESTS = {
    "solve": "681f29eb838ba03ef79fe5e884d905eaac08ed8374ebb10a58f54239ad58d354",
    "solve-complete": "e97e21c899f08cd566aedf457decfc608252efb7ee1319067dc43c1a7890a62d",
    "verify": "41cada2e98da710875053f60a98b50058d6ce730c08257b9627f4bc8479e9351",
    "fig4": "a2cb1a50a226fc7eb40356d9c83c0d398c0ba1f754a82f7d08a5a3efcb55c244",
    "fig5": "87e3846d7efff0e6655bf245e8f708df863ebc5c03246d6c26bf3db3e643e2c7",
    "fig6": "226050da76f6edf3a18968a197f79d9b19daf17853910870a96d2e12beeb4b01",
    "custom": "0c104097136410b9ada46a27e7fbedc2a880402a605a73f74bc55302b4deb44a",
}


@pytest.mark.parametrize("label, argv", COMMANDS, ids=[label for label, _ in COMMANDS])
def test_offers_command_output_is_pinned(label, argv, capsys):
    assert main(list(argv)) == 0
    out = re.sub(r"(?m)^# version = .*\n", "", capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == OFFERS_DIGESTS[label]


class TestSolve:
    def test_incomplete_default(self, capsys):
        assert main(["solve"]) == 0
        out = capsys.readouterr().out
        assert "scenario: incomplete-hetero" in out
        assert "targeted types: 1, 2, 3" in out

    def test_complete_scenario(self, capsys):
        assert main(["solve", "--scenario", "complete"]) == 0
        out = capsys.readouterr().out
        assert "scenario: complete-hetero" in out

    def test_cost_only_with_shared_runtime(self, cost_only_cfg, capsys):
        assert main(["solve", "--scenario", "cost-only", "--config", cost_only_cfg]) == 0
        assert capsys.readouterr().out == COST_ONLY_SOLVE

    def test_cost_only_rejects_mixed_runtime(self, capsys):
        assert main(["solve", "--scenario", "cost-only"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err

    @pytest.mark.parametrize("speed", [735.0, 744.0, 1000.0])
    def test_cost_only_at_large_startup_times_speed(self, tmp_path, capsys, speed):
        # At these startup*speed products the recovery fraction is within
        # 2e-3 of 1 and exp(-startup*speed - 1) is subnormal or zero.
        path = tmp_path / "fast.cfg"
        path.write_text(f"1.0 {speed} 1.0 100\ngamma_time = 20\n")
        assert main(["solve", "--scenario", "cost-only", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        k = int(re.search(r"recovery threshold: (\d+)", out).group(1))
        fractional_k = mds_alpha(speed, 1.0) * 100
        assert k in (math.floor(fractional_k), math.ceil(fractional_k))

    def test_cost_only_with_a_billion_workers_per_type(self, tmp_path, capsys):
        # The exact runtime reads harmonic numbers near 1e9, which must
        # not take a billion-term sum each.
        path = tmp_path / "billion.cfg"
        path.write_text("1.0 50 0.012 1000000000\n2.0 50 0.012 1000000000\n")
        assert main(["solve", "--scenario", "cost-only", "--config", str(path)]) == 0
        assert "recovery threshold: " in capsys.readouterr().out

    def test_missing_config_exits_2(self, capsys):
        assert main(["solve", "--config", "/nonexistent.cfg"]) == 2
        capsys.readouterr()

    def test_unknown_setting_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        assert main(["solve", "--config", str(path)]) == 2
        assert "unknown setting" in capsys.readouterr().err

    def test_empty_population_exits_4(self, tmp_path, capsys):
        path = tmp_path / "zero.cfg"
        path.write_text("1.0 50.0 0.012 0\n")
        assert main(["solve", "--config", str(path)]) == 4
        assert "infeasible" in capsys.readouterr().err

    def test_out_file(self, hetero_cfg, tmp_path, capsys):
        out_path = tmp_path / "offer.txt"
        assert main(["solve", "--config", hetero_cfg, "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        text = out_path.read_text()
        assert text.endswith("\n")
        assert "targeted types" in text

    def test_unwritable_out_exits_2(self, hetero_cfg, tmp_path, capsys):
        out_path = tmp_path / "missing" / "offer.txt"
        assert main(["solve", "--config", hetero_cfg, "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: cannot write {out_path}")
        assert captured.out == ""


class TestNonUtf8Input:
    @pytest.mark.parametrize("option", ["--config", "--matrix", "--vector"])
    def test_exits_2_naming_the_file(self, hetero_cfg, tmp_path, capsys, option):
        path = tmp_path / "latin1.txt"
        path.write_bytes("2 # caf\xe9\n1.0 2.0\n".encode("latin-1"))
        argv = ["simulate", "--config", hetero_cfg, option, str(path)]
        if option == "--config":
            argv = ["simulate", "--config", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot read {path}")


class TestNonFiniteConfig:
    @pytest.mark.parametrize(
        "setting", ["gamma_time = nan", "gamma_time = inf", "total_rows = inf"]
    )
    @pytest.mark.parametrize("argv", [["solve"], ["experiment", "fig5"]])
    def test_setting_exits_2(self, tmp_path, capsys, setting, argv):
        path = tmp_path / "bad.cfg"
        path.write_text(setting + "\n")
        assert main([*argv, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert "configuration error" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "row",
        [
            "1.0 inf 0.012 10",
            "1.0 50.0 nan 10",
            "nan 50.0 0.012 10",
            # A profile that cannot be derived: the row time overflows.
            "1.0 1e-308 1e308 10",
        ],
    )
    def test_population_row_exits_2_with_location(self, tmp_path, capsys, row):
        path = tmp_path / "bad.cfg"
        path.write_text("1.0 50.0 0.012 10\n" + row + "\n")
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert f"{path}:2" in err

    def test_overflowing_row_time_is_named(self, tmp_path, capsys):
        # The root of the speed equation, about 2.15e308, is past the float
        # range: the error names the row time, not the throughput after it.
        path = tmp_path / "slow.cfg"
        path.write_text("1.0 50.0 0.012 10\n1.0 1e-308 1e308 10\n")
        assert main(["solve", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"configuration error: {path}:2: the row time overflows "
            "for mu=1e-308, a=1e+308\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [["solve"], ["solve", "--scenario", "complete"],
         ["solve", "--scenario", "cost-only"], ["verify"]],
        ids=["incomplete", "complete", "cost-only", "verify"],
    )
    def test_row_whose_speed_times_row_time_overflows_solves(
        self, tmp_path, capsys, argv
    ):
        # speed * row_time = 1e600 overflows, yet the throughput is
        # 1 / (row_time + 1 / speed) = 1e-300, so the row has an offer:
        # runtime 100 rows * 1e300 and cost 2000 * 1e302 + 10 * 1e302.
        path = tmp_path / "slow.cfg"
        path.write_text("1.0 1e300 1e300 10\n")
        assert main([*argv, "--config", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if argv[0] == "solve":
            assert "expected round runtime: 1e+302\n" in captured.out
            assert "expected platform cost: 2.01e+305\n" in captured.out

    def test_row_whose_target_underflows_solves(self, tmp_path, capsys):
        # a*mu = 1e-600 underflows, yet the row time keeps its digits:
        # about sqrt(2) = 1.41421, far above the startup 1e-300.
        path = tmp_path / "tiny.cfg"
        path.write_text("1.0 50.0 0.012 10\n1.0 1e-300 1e-300 10\n")
        assert main(["solve", "--config", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("scenario: incomplete-hetero\n")
        assert captured.err == ""

    @pytest.mark.parametrize(
        "scenario, rows",
        [
            ("incomplete", ""),
            ("complete", ""),
            # Two types on one runtime: (rows / k) * row time rounds to zero.
            ("cost-only", "1.0 50.0 0.012 1000\n2.0 50.0 0.012 1000\n"),
        ],
        ids=["incomplete", "complete", "cost-only"],
    )
    def test_subnormal_workload_exits_3(self, tmp_path, capsys, scenario, rows):
        # rows / group throughput rounds to zero while each load stays
        # subnormal-positive.
        path = tmp_path / "subnormal.cfg"
        path.write_text(rows + "total_rows = 1e-320\n")
        assert main(["solve", "--scenario", scenario, "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert "numerical failure: offer runtime underflows to zero" in captured.err
        assert captured.out == ""


class TestOverflowingOffer:
    # Finite inputs whose offer overflows: near-zero throughputs put the
    # runtime and rewards beyond the float range, and a huge cost rate
    # times the cost-only runtime gives an infinite reward.
    CONFIGS = {
        "incomplete": "1.0 1e-300 1.0 1\n2.0 1e-300 1.0 1\ntotal_rows = 1e10\n",
        "complete": "1.0 1e-300 1.0 1\n2.0 1e-300 1.0 1\ntotal_rows = 1e10\n",
        "cost-only": "1e300 1.0 1.0 1\ntotal_rows = 1e300\n",
    }

    @pytest.mark.parametrize("scenario", list(CONFIGS))
    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_exits_3(self, tmp_path, capsys, command, scenario):
        path = tmp_path / "overflow.cfg"
        path.write_text(self.CONFIGS[scenario])
        argv = [command, "--scenario", scenario, "--config", str(path)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert "numerical failure: offer runtime or rewards overflow" in captured.err
        assert captured.out == ""

    # 1e9 workers of throughput ~3e299 each: every offer's group
    # throughput overflows, a typed numerical failure with no warning.
    THROUGHPUT = "1.0 1e300 1e-300 1000000000\n2.0 1e300 1e-300 1000000000\n"

    @pytest.mark.parametrize(
        "argv",
        [["solve"], ["solve", "--scenario", "complete"], ["verify"], ["simulate"]],
    )
    def test_overflowing_throughput_exits_3(self, tmp_path, capsys, argv):
        path = tmp_path / "throughput.cfg"
        path.write_text(self.THROUGHPUT)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--config", str(path)]) == 3
        assert not caught
        captured = capsys.readouterr()
        assert "numerical failure" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("name", ["fig4", "fig5", "fig6", "fig7", "custom"])
    def test_sweeps_exit_3(self, tmp_path, capsys, name):
        path = tmp_path / "overflow.cfg"
        path.write_text(self.CONFIGS["incomplete"])
        assert main(["experiment", name, "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert "numerical failure: offer runtime or rewards overflow" in captured.err
        assert captured.out == ""


class TestPrivateCostRule:
    # The boundary type's cost rate overflows every per-participator
    # cost; the cost-only offer once picked the empty first type, warned
    # of the overflow and crashed untyped.
    HUGE = "1e300 50 0.012 0\n1.7e308 50 0.012 5\n"
    # Type 1 has no workers and every populated objective overflows.
    NO_FINITE_OBJECTIVE = (
        "1e-200 1e-300 1e-12 0\n1e-200 1e-300 1e-12 5\n"
        "gamma_time = 1e300\ngamma_pay = 1e-300\ntotal_rows = 1e300\n"
    )

    def test_huge_cost_only_rates_exit_3_without_a_warning(self, tmp_path):
        path = tmp_path / "huge.cfg"
        path.write_text(self.HUGE)
        result = subprocess.run(
            [sys.executable, "-m", "coded_incentives", "solve",
             "--scenario", "cost-only", "--config", str(path)],
            capture_output=True, text=True, timeout=120, env=CHILD_ENV,
        )
        assert result.returncode == 3
        assert result.stderr == "numerical failure: offer runtime or rewards overflow\n"
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "scenario, message",
        [
            ("incomplete", "the private-cost prefix objective overflows"),
            ("complete", "the complete-information prefix bound overflows"),
        ],
    )
    def test_no_finite_objective_exits_3(self, tmp_path, capsys, scenario, message):
        path = tmp_path / "objective.cfg"
        path.write_text(self.NO_FINITE_OBJECTIVE)
        assert main(["solve", "--scenario", scenario, "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"numerical failure: {message}\n"
        assert captured.out == ""


class TestOverflowingBound:
    # Finite offers, but the complete-information bound's payment sum
    # 100 * 1e306 + 100 * 2e306 overflows, which once selected type 2.
    CONFIG = "1e306 50 0.012 100\n2e306 60 0.02 100\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--scenario", "complete"],
            ["verify", "--scenario", "complete"],
            ["experiment", "fig4"],
            ["experiment", "fig5"],
            ["experiment", "custom"],
        ],
    )
    def test_exits_3(self, tmp_path, capsys, argv):
        path = tmp_path / "bound.cfg"
        path.write_text(self.CONFIG + "sweep = 200\n")
        assert main(argv + ["--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert "prefix bound overflows" in captured.err
        assert captured.out == ""

    def test_private_cost_offer_is_unaffected(self, tmp_path, capsys):
        path = tmp_path / "bound.cfg"
        path.write_text(self.CONFIG)
        assert main(["solve", "--config", str(path)]) == 0
        assert "targeted types: 1\n" in capsys.readouterr().out


class TestOverflowingCost:
    # Finite rewards, but 100 workers times a reward near 5e306 overflows
    # the offer's payment sum.
    CONFIG = "1e307 50 0.012 100\n2e307 60 0.02 100\nsweep = 100\n"

    @pytest.mark.parametrize(
        "argv", [["solve"], ["verify"], ["simulate"], ["experiment", "fig7"]]
    )
    def test_exits_3(self, tmp_path, capsys, argv):
        path = tmp_path / "cost.cfg"
        path.write_text(self.CONFIG)
        assert main(argv + ["--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert "numerical failure: the offer's platform cost overflows" in captured.err
        assert captured.out == ""

    # CONFIG overflows the complete-information bound before any sweep
    # prices a cost. Here the bound's 100 * 1e306 is finite, and so are
    # both offers, but 100 workers times a reward near 5.1e307 is not.
    SWEEP = "1e306 50 0.012 100\ntotal_rows = 1e5\nsweep = 100\n"

    @pytest.mark.parametrize("name", ["fig5", "custom"])
    def test_sweeps_printing_a_cost_exit_3(self, tmp_path, capsys, name):
        path = tmp_path / "cost.cfg"
        path.write_text(self.SWEEP)
        assert main(["experiment", name, "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "numerical failure: the offer's platform cost overflows\n"
        assert captured.out == ""

    def test_fig4_prints_its_thresholds(self, tmp_path, capsys):
        # fig4 prints no cost, so it prices none.
        path = tmp_path / "cost.cfg"
        path.write_text(self.SWEEP)
        assert main(["experiment", "fig4", "--config", str(path)]) == 0
        captured = capsys.readouterr()
        header = "N,targeted_complete,targeted_incomplete\n"
        assert captured.out.endswith(f"\n{header}100,1,1\n")
        assert captured.err == ""


class TestOverflowingStatistic:
    # Every offer and cost is finite, but the spread of fig7's gaps
    # (about 1e300 each) overflows when squared.
    CONFIG = "1e300 50 0.012 10\n1e300 60 0.02 10\nsweep = 100,200\n"

    def test_fig7_exits_3(self, tmp_path, capsys):
        path = tmp_path / "stat.cfg"
        path.write_text(self.CONFIG)
        assert main(["experiment", "fig7", "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert "numerical failure: a sweep value overflows" in captured.err
        assert captured.out == ""

    def test_finite_sweeps_still_print(self, tmp_path, capsys):
        path = tmp_path / "stat.cfg"
        path.write_text(self.CONFIG)
        assert main(["experiment", "fig5", "--config", str(path)]) == 0
        assert "N,cost_complete,cost_incomplete,gap" in capsys.readouterr().out


class TestProbabilitiesMultinomialRefuses:
    """Probabilities within the spec's sum tolerance that NumPy's
    multinomial draw refuses: every command exits 2 naming them."""

    @pytest.mark.parametrize(
        "rows, probabilities",
        [(2, "1.0000000005, 0"), (3, "0.5, 0.5000000005, 0")],
        ids=["entry-above-1", "head-sums-above-1"],
    )
    @pytest.mark.parametrize("command", ["experiment fig7", "verify"])
    def test_exits_2(self, tmp_path, capsys, rows, probabilities, command):
        path = tmp_path / "probs.cfg"
        path.write_text(
            "".join(f"{c} {s} {a} 140\n" for c, s, a in DEFAULT_TYPE_PARAMS[:rows])
            + f"probabilities = {probabilities}\nsweep = 100\n"
        )
        assert main(command.split() + ["--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"configuration error: {path}: probabilities")


class TestOutOfMemory:
    # A run too large for memory (a simulate matrix of 1e12 rows, a fig7
    # point of 1e9 replicates) is a configuration error.  The stand-ins
    # raise MemoryError as NumPy does, without allocating anything.
    @pytest.mark.parametrize(
        "name, argv",
        [("run_experiment", ["experiment", "fig7"]), ("simulate_round", ["simulate"])],
    )
    def test_exits_2(self, monkeypatch, capsys, name, argv):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, name, exhausted)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "configuration error: not enough memory for this run "
            "(Unable to allocate 7.28 TiB for an array)\n"
        )
        assert captured.out == ""


class TestConfigDrivenOutputsPinned:
    """sha256 of each command's output on POOL, recorded before the
    settings table, the one row builder and the one array reader took
    over from separate readers, which had to produce the same bytes.
    The complete-information digests were recorded before group
    throughputs were summed by prefix length instead of by mask.
    The `# version` metadata line and the decode error, whose last
    digits depend on the BLAS build, are masked."""

    DIGESTS = {
        "solve": "aa0af4f88dd7ef04e779f519618027596eedb62f24f93994ba56eb3d5053d787",
        "verify": "6e6d7992bbbd9d0829b24f7e5d75973221ea938f08174f86a190bd8c6aa92cbc",
        "solve --scenario complete": "3c417a1db6e524141a358e7f6a1fdb7b26184c0b6b4401de0644b73f4f79fa9c",
        "verify --scenario complete": "6e6d7992bbbd9d0829b24f7e5d75973221ea938f08174f86a190bd8c6aa92cbc",
        "simulate --reps 2": "f4e3e19ea83dc62afb38f4c1fc66d1e1d9ee72ebc56ca026e5c8950161a05065",
        "experiment fig4": "55293a3852b6b5d329bc856e34c99303e32f7345e4a41fb88c279d2bbaf2dd9b",
        "experiment fig5": "752beec457ebbb612a0b61d81c5128813f8f79f6ee1fe039a0bfac0f43c08242",
        "experiment fig6": "5cc4321d358cc004c6bac3d45d86c9eebff77bf8934409e6c006c0caecd97386",
        "experiment fig7": "9bc7dbe92d00aa9b7abfd99bbae2f2f1225d31fb818bf12f6c2689986ce87999",
        "experiment custom": "575f30725921414d588f1ef464c1fd3711d22d211b3d2bf76a07aa17e12c43e7",
    }

    @pytest.mark.parametrize("command", list(DIGESTS))
    def test_digest(self, tmp_path, capsys, command):
        assert main(_pool_argv(command, tmp_path)) == 0
        out = re.sub(r"(?m)^# version = .*\n", "", capsys.readouterr().out)
        out = re.sub(r"decode error [^,]+", "decode error -", out)
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[command]


class TestVerify:
    def test_reports_compliance(self, hetero_cfg, capsys):
        assert main(["verify", "--config", hetero_cfg]) == 0
        out = capsys.readouterr().out
        assert "individually rational and incentive compatible" in out
        assert "kind,true_type,reported_type,value" in out

    def test_complete_scenario(self, hetero_cfg, capsys):
        assert main(["verify", "--scenario", "complete", "--config", hetero_cfg]) == 0
        assert capsys.readouterr().out == TRUTHFUL_VERIFY

    def test_cost_only_text(self, cost_only_cfg, capsys):
        argv = ["verify", "--scenario", "cost-only", "--config", cost_only_cfg]
        assert main(argv) == 0
        assert capsys.readouterr().out == TRUTHFUL_VERIFY


class TestSimulate:
    def test_single_round(self, hetero_cfg, capsys):
        assert main(["simulate", "--config", hetero_cfg, "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "round 0:" in out
        assert "mean realized cost over 1 round(s)" in out
        assert "announced expected cost" in out

    def test_reps_override(self, hetero_cfg, capsys):
        assert main(["simulate", "--config", hetero_cfg, "--reps", "3"]) == 0
        out = capsys.readouterr().out
        assert "round 2:" in out
        assert "over 3 round(s)" in out

    def test_seed_changes_outcome(self, hetero_cfg, capsys):
        main(["simulate", "--config", hetero_cfg, "--seed", "1"])
        first = capsys.readouterr().out
        main(["simulate", "--config", hetero_cfg, "--seed", "1"])
        repeat = capsys.readouterr().out
        main(["simulate", "--config", hetero_cfg, "--seed", "2"])
        other = capsys.readouterr().out
        assert first == repeat
        assert first != other

    def test_cost_only_round(self, cost_only_cfg, capsys):
        assert main(
            ["simulate", "--scenario", "cost-only", "--config", cost_only_cfg]
        ) == 0
        out = capsys.readouterr().out
        assert "round 0:" in out

    def test_matrix_and_vector_files(self, hetero_cfg, tmp_path, capsys):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((60, 2))
        m_path = tmp_path / "m.txt"
        m_path.write_text(
            "60 2\n"
            + "\n".join(f"{float(a)!r} {float(b)!r}" for a, b in matrix)
            + "\n"
        )
        v_path = tmp_path / "v.txt"
        v_path.write_text("2\n0.5 -1.25\n")
        assert (
            main(
                [
                    "simulate",
                    "--config",
                    hetero_cfg,
                    "--matrix",
                    str(m_path),
                    "--vector",
                    str(v_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "decode error" in out
        assert np.allclose(read_matrix(str(m_path)), matrix)

    def test_matrix_row_mismatch_exits_2(self, hetero_cfg, tmp_path, capsys):
        m_path = tmp_path / "m.txt"
        m_path.write_text("2 2\n1 2\n3 4\n")
        assert (
            main(["simulate", "--config", hetero_cfg, "--matrix", str(m_path)])
            == 2
        )
        assert "matrix has 2 rows but the offer covers 60" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_matrix_entry_exits_2(self, hetero_cfg, tmp_path, capsys, bad):
        m_path = tmp_path / "m.txt"
        m_path.write_text("60 2\n" + "1.5 -0.5\n" * 7 + f"{bad} 2\n" + "1 2\n" * 52)
        argv = ["simulate", "--config", hetero_cfg, "--matrix", str(m_path)]
        assert main(argv) == 2
        assert f"m.txt:9: '{bad}' is not a finite number" in capsys.readouterr().err

    def test_non_finite_vector_entry_exits_2(self, hetero_cfg, tmp_path, capsys):
        v_path = tmp_path / "v.txt"
        v_path.write_text("2\n0.5 inf\n")
        assert main(["simulate", "--config", hetero_cfg, "--vector", str(v_path)]) == 2
        assert "v.txt:2: 'inf' is not a finite number" in capsys.readouterr().err

    def test_overflowing_product_exits_3(self, hetero_cfg, tmp_path, capsys):
        m_path = tmp_path / "m.txt"
        m_path.write_text("60 2\n" + "1e308 1e308\n" * 60)
        v_path = tmp_path / "v.txt"
        v_path.write_text("2\n1 1\n")
        argv = ["simulate", "--config", hetero_cfg, "--matrix", str(m_path)]
        assert main(argv + ["--vector", str(v_path)]) == 3
        assert "decode is not finite" in capsys.readouterr().err

    def test_vector_length_mismatch_exits_2(self, hetero_cfg, tmp_path, capsys):
        v_path = tmp_path / "v.txt"
        v_path.write_text("3\n1 2 3\n")
        assert (
            main(["simulate", "--config", hetero_cfg, "--vector", str(v_path)])
            == 2
        )
        assert "vector length" in capsys.readouterr().err

    def test_bad_input_file_blames_no_round(self, tmp_path, capsys):
        # The default matrix has 4 columns and 1000 rows; a file that does
        # not fit it is the command's input, not round 0's.
        v_path = tmp_path / "v3.txt"
        v_path.write_text("3\n1 2 3\n")
        m_path = tmp_path / "m.txt"
        m_path.write_text("2 4\n" + "1 2 3 4\n" * 2)
        assert main(["simulate", "--vector", str(v_path)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: vector length must match the matrix column count\n"
        )
        assert main(["simulate", "--matrix", str(m_path)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: matrix has 2 rows but the offer covers 1000\n"
        )

    def test_fractional_rows_exits_2(self, tmp_path, capsys):
        path = tmp_path / "frac.cfg"
        path.write_text(SMALL_HETERO.replace("total_rows = 60", "total_rows = 60.5"))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "integer total row count" in capsys.readouterr().err

    def test_zero_reps_exits_2(self, hetero_cfg, capsys):
        # --reps is simulate's round count; fig7's replications setting
        # is left alone, so the round check is the one that reports.
        for reps in ("0", "-1"):
            assert main(["simulate", "--config", hetero_cfg, "--reps", reps]) == 2
            assert capsys.readouterr().err == (
                "configuration error: simulate needs at least one round\n"
            )

    def test_ill_conditioned_code_exits_3(
        self, cost_only_cfg, plant_ill_conditioned_parity, capsys
    ):
        # Parity rows planted within 1e-8 of one row make the 56-row
        # round's decode ill-conditioned beyond the guard.  Workers 0-4
        # hold the copies, so at seed 0, where worker 5 finishes last,
        # every copy arrives and nothing is solved; at seed 1 twelve
        # entries are.
        plant_ill_conditioned_parity(56)
        argv = ["simulate", "--scenario", "cost-only", "--config", cost_only_cfg]
        assert main([*argv, "--seed", "1"]) == 3
        assert "numerical failure: round 0 (seed 1): " in capsys.readouterr().err

    def test_once_refused_round_decodes(self, capsys):
        # The condition estimate refuses this round's 195x195 block; its
        # 2-norm condition number, 1.14e7, is within the refined limit, so
        # the solve is refined.
        assert main(["simulate", "--seed", "111029"]) == 0
        assert capsys.readouterr().out.startswith("round 0: ")
        assert main(["simulate", "--seed", "111020", "--reps", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:-2]] == [
            f"round {i}" for i in range(10)
        ]

    def test_refined_round_decodes(self, capsys):
        # The condition estimate refuses this round's 185x185 block, at a
        # 2-norm condition number of 9.66e6; within the refined limit, the
        # refined solve decodes it.
        assert main(["simulate", "--seed", "117524"]) == 0
        assert capsys.readouterr().out.startswith("round 0: ")

    def test_paper_anchor_cost_only_round_decodes(self, tmp_path, capsys):
        # The catalog's first three cost rates on one shared runtime, 140
        # workers each: 420 participators and the default 1000 rows.
        path = tmp_path / "anchor.cfg"
        path.write_text(
            "1.0 50.0 0.012 140\n"
            "7.0 50.0 0.012 140\n"
            "8.0 50.0 0.012 140\n"
        )
        assert main(
            ["simulate", "--scenario", "cost-only", "--config", str(path),
             "--reps", "5"]
        ) == 0
        rounds = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("round ")
        ]
        assert len(rounds) == 5
        for line in rounds:
            assert "used 254 of 420 workers" in line
            # The decode error is printed relative to max(1, |Ax|_inf).
            error = line.split("decode error ")[1].split(",")[0]
            assert error.endswith(" (relative)")
            assert float(error.split()[0]) <= 1e-8


# ``encode-demo``'s output, byte for byte.
ENCODE_DEMO = """\
coded matrix-vector demo: 3 workers, any 2 suffice

a 4x2 matrix splits into 2 blocks of 2 rows:
  worker 0 gets the top block,
  worker 1 gets the bottom block,
  worker 2 gets the sum of both blocks.

worker 1 finishes: [11. 15.]
worker 2 finishes: [14. 22.]
worker 0 straggles, and its result is never needed:
subtracting worker 1's block from worker 2's recovers the top block.

decoded product:    [ 3.  7. 11. 15.]
direct computation: [ 3.  7. 11. 15.]
agreement: True
"""


class TestEncodeDemo:
    def test_walkthrough(self, capsys):
        assert main(["encode-demo"]) == 0
        assert capsys.readouterr().out == ENCODE_DEMO

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "demo.txt"
        assert main(["encode-demo", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text(encoding="utf-8") == ENCODE_DEMO


class TestExperiment:
    def test_fig4_csv(self, hetero_cfg, tmp_path, capsys):
        out_path = tmp_path / "fig4.csv"
        assert (
            main(
                [
                    "experiment",
                    "fig4",
                    "--config",
                    hetero_cfg,
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "# name = fig4"
        header_index = next(
            i for i, line in enumerate(lines) if not line.startswith("#")
        )
        assert lines[header_index] == "N,targeted_complete,targeted_incomplete"

    def test_custom_stdout(self, tmp_path, capsys):
        path = tmp_path / "sweep.cfg"
        path.write_text(SMALL_HETERO + "sweep = 100,200\n")
        assert main(["experiment", "custom", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "N,targeted_complete,targeted_incomplete," in out
        assert out.endswith("\n")

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_nonpositive_reps_exits_2(self, capsys, reps):
        assert main(["experiment", "fig7", "--reps", reps]) == 2
        assert capsys.readouterr().err == (
            "configuration error: replications must be a positive integer, "
            f"got {reps}\n"
        )

    def test_seed_and_reps_override_metadata(self, tmp_path, capsys):
        path = tmp_path / "sweep.cfg"
        path.write_text(SMALL_HETERO + "sweep = 50,100\nreplications = 2\n")
        assert (
            main(
                [
                    "experiment",
                    "fig7",
                    "--config",
                    str(path),
                    "--seed",
                    "42",
                    "--reps",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "# seed = 42" in out
        assert "# replications = 3" in out


# Imports the package, lists the SciPy modules that import loaded, then
# blocks SciPy and runs ``solve`` and ``verify``.
WITHOUT_SCIPY = """
import contextlib, io, json, sys
import coded_incentives
from coded_incentives.cli import main
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
sys.modules["scipy"] = None
runs = []
for argv in (["solve"], ["verify"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([main(argv), out.getvalue()])
print(json.dumps({"loaded": loaded, "runs": runs}))
"""


class TestWithoutScipy:
    def test_solve_and_verify_run_without_scipy(self, capsys):
        child = subprocess.run(
            [sys.executable, "-c", WITHOUT_SCIPY],
            capture_output=True, text=True, timeout=120, env=CHILD_ENV,
        )
        assert child.returncode == 0, child.stderr
        record = json.loads(child.stdout)
        assert record["loaded"] == []
        for argv, (code, text) in zip((["solve"], ["verify"]), record["runs"]):
            assert main(argv) == 0
            assert (code, text) == (0, capsys.readouterr().out)


# Prints the modules that importing the CLI adds in a fresh interpreter;
# whatever the interpreter's site hooks loaded before does not count.
COLD_IMPORT = """
import json, sys
before = set(sys.modules)
import coded_incentives.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


class TestColdStart:
    def test_cli_import_loads_neither_metadata_nor_statistics(self):
        # ``importlib.metadata``'s version lookup scans sys.path, and
        # ``statistics`` pulls in ``fractions`` and ``decimal``; a fresh
        # CLI call needs neither.
        child = subprocess.run(
            [sys.executable, "-c", COLD_IMPORT],
            capture_output=True, text=True, timeout=120, env=CHILD_ENV,
        )
        assert child.returncode == 0, child.stderr
        added = set(json.loads(child.stdout))
        assert "coded_incentives.cli" in added
        assert not added & {"importlib.metadata", "statistics"}


class TestConsoleScript:
    def test_python_m(self):
        # perfbench/baseline.py runs the CLI module itself.
        for module in ("coded_incentives", "coded_incentives.cli"):
            result = subprocess.run(
                [sys.executable, "-m", module, "encode-demo"],
                capture_output=True, text=True, timeout=120, env=CHILD_ENV,
            )
            assert result.returncode == 0, result.stderr
            assert "agreement: True" in result.stdout

    def test_installed_entry_point(self):
        result = subprocess.run(
            ["coded-incentives", "encode-demo"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "agreement: True" in result.stdout
