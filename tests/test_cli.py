"""Command-line interface: outputs, overrides, and exit codes."""

from __future__ import annotations

import math
import re
import subprocess

import numpy as np
import pytest

from coded_incentives import mds_alpha, read_matrix
from coded_incentives.cli import build_parser, main


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
            # Profiles that cannot be derived: the row time underflows,
            # or the throughput does.
            "1.0 1e-300 1e-300 10",
            "1.0 1e300 1e300 10",
        ],
    )
    def test_population_row_exits_2_with_location(self, tmp_path, capsys, row):
        path = tmp_path / "bad.cfg"
        path.write_text("1.0 50.0 0.012 10\n" + row + "\n")
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert f"{path}:2" in err


class TestVerify:
    def test_reports_compliance(self, hetero_cfg, capsys):
        assert main(["verify", "--config", hetero_cfg]) == 0
        out = capsys.readouterr().out
        assert "individually rational and incentive compatible" in out
        assert "kind,true_type,reported_type,value" in out

    def test_complete_scenario(self, hetero_cfg, capsys):
        assert main(["verify", "--scenario", "complete", "--config", hetero_cfg]) == 0
        capsys.readouterr()

    def test_cost_only_text(self, cost_only_cfg, capsys):
        argv = ["verify", "--scenario", "cost-only", "--config", cost_only_cfg]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "offer is individually rational and incentive compatible\n"
            "\n"
            "kind,true_type,reported_type,value\n"
        )


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
        assert "matrix has 2 rows" in capsys.readouterr().err

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

    def test_fractional_rows_exits_2(self, tmp_path, capsys):
        path = tmp_path / "frac.cfg"
        path.write_text(SMALL_HETERO.replace("total_rows = 60", "total_rows = 60.5"))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "integer total row count" in capsys.readouterr().err

    def test_zero_reps_exits_2(self, hetero_cfg, capsys):
        assert main(["simulate", "--config", hetero_cfg, "--reps", "0"]) == 2
        capsys.readouterr()

    def test_ill_conditioned_code_exits_3(
        self, cost_only_cfg, plant_ill_conditioned_parity, capsys
    ):
        # Two nearly equal parity rows make the 56-row round's decode block
        # ill-conditioned beyond the guard.
        plant_ill_conditioned_parity(56)
        assert (
            main(["simulate", "--scenario", "cost-only", "--config", cost_only_cfg])
            == 3
        )
        assert "numerical failure" in capsys.readouterr().err

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
            error = float(line.split("decode error ")[1].split(",")[0])
            assert error <= 1e-8


class TestEncodeDemo:
    def test_walkthrough(self, capsys):
        assert main(["encode-demo"]) == 0
        out = capsys.readouterr().out
        assert "any 2 suffice" in out
        assert "agreement: True" in out


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


class TestConsoleScript:
    def test_installed_entry_point(self):
        result = subprocess.run(
            ["coded-incentives", "encode-demo"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "agreement: True" in result.stdout
