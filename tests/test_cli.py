import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cvsteer import build_network_state, cli, optimize, qss_scenario, sampler
from cvsteer.cli import (
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_USAGE,
    InputDataError,
    NumericalError,
    RunConfig,
    UsageError,
    cmd_certify,
    cmd_montecarlo,
    cmd_scan,
    cmd_table_a1,
    format_report_json,
    format_scan_csv,
    format_scan_json,
    load_config_file,
    main,
    parse_eta_grid,
    parse_split_spec,
    read_cov_matrix_file,
    write_cov_matrix_file,
)
from conftest import THREE_MODE_PPT, FOUR_MODE_PPT, two_user_params

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
EYE4 = "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"


def _src_env() -> dict[str, str]:
    """The environment with ``src`` first on ``PYTHONPATH``, for child interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


class TestGridAndConfig:
    def test_eta_grid(self):
        assert parse_eta_grid("0.1:1.0:10") == (0.1, 1.0, 10)

    def test_eta_grid_errors(self):
        for bad in ("0.1:1.0", "a:b:c", "0.1:1.0:0", "0.1:1.5:3"):
            with pytest.raises(UsageError):
                parse_eta_grid(bad)

    def test_config_file_roundtrip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nscenario=qss\neta_grid=0.5:1.0:6\nv_dis=2.0\nseed=7\n")
        entries = load_config_file(str(cfg))
        assert entries["scenario"] == "qss"
        assert entries["v_dis"] == "2.0"

    def test_flags_win_over_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario=qss\neta_grid=0.5:1.0:6\n")
        import argparse

        args = argparse.Namespace(scenario="two_user", eta_grid=None, set=["v_dis=2.5"],
                                  config=str(cfg), out=None, format=None, seed=None,
                                  shots=None)
        from cvsteer.cli import build_run_config

        config = build_run_config(args)
        assert config.scenario == "two_user"      # flag wins
        assert config.eta_steps == 6              # file survives where no flag
        assert config.overrides == {"v_dis": 2.5}

    def test_unknown_override_key(self):
        config = RunConfig()
        import argparse

        args = argparse.Namespace(scenario=None, eta_grid=None, set=["v_q=1"],
                                  config=None, out=None, format=None, seed=None, shots=None)
        from cvsteer.cli import build_run_config

        with pytest.raises(UsageError, match="unknown parameter"):
            build_run_config(args)


class TestScan:
    def test_two_user_columns_and_shape(self):
        result = cmd_scan(RunConfig(scenario="two_user", eta_start=0.1, eta_stop=1.0,
                                    eta_steps=4))
        assert result.columns == ("eta", "f_b", "PPT_A", "G_A_to_B", "G_B_to_A")
        assert len(result.rows) == 4

    def test_two_user_steering_positive_and_decreasing_with_loss(self):
        result = cmd_scan(RunConfig(scenario="two_user", eta_start=0.1, eta_stop=1.0,
                                    eta_steps=3))
        g = result.column("G_A_to_B")
        assert np.all(g > 0)
        assert np.all(np.diff(g) > 0)  # grid ascends in eta, steering follows

    def test_descending_grid_keeps_row_order(self):
        result = cmd_scan(RunConfig(scenario="two_user", eta_start=1.0, eta_stop=0.1,
                                    eta_steps=3))
        np.testing.assert_allclose(result.column("eta"), [1.0, 0.55, 0.1])
        g = result.column("G_A_to_B")
        assert np.all(g > 0)
        assert np.all(np.diff(g) < 0)

    def test_three_user_no_bob_to_david_steering(self):
        result = cmd_scan(RunConfig(scenario="three_user", eta_start=1.0, eta_stop=1.0,
                                    eta_steps=1))
        row = result.rows[0]
        assert row["G_B_to_D"] == 0.0
        assert row["G_A_to_BD"] >= max(row["G_A_to_B"], row["G_A_to_D"])
        assert row["PPT_A"] < 1 and row["PPT_B"] < 1 and row["PPT_D"] < 1

    def test_qss_threshold_location(self):
        result = cmd_scan(RunConfig(scenario="qss", eta_start=0.7, eta_stop=1.0,
                                    eta_steps=4))
        g = result.column("G_BD_to_A")
        assert g[0] == 0.0 and g[-1] > 0
        assert result.rows[-1]["key_rate"] > 0

    def test_appendix_e_columns(self):
        result = cmd_scan(RunConfig(scenario="appendix_e", eta_start=0.9, eta_stop=1.0,
                                    eta_steps=2))
        assert "G_BD_to_A_qss" in result.columns
        assert result.rows[1]["G_A_to_B"] > result.rows[0]["G_A_to_B"] > 0

    def test_appendix_e_qss_column_matches_qss_scenario(self):
        config = RunConfig(scenario="appendix_e", eta_start=0.5, eta_stop=1.0, eta_steps=11)
        result = cmd_scan(config)
        reference = qss_scenario(config.etas(), eta_sa_follows=True).column("G_BD_to_A")
        np.testing.assert_array_equal(result.column("G_BD_to_A_qss"), reference)
        assert reference[-1] > 0

    def test_appendix_e_overrides_skip_the_reference_columns(self):
        # --set reaches the two-user columns, not the fixed secret-sharing reference
        def row(**overrides):
            return cmd_scan(RunConfig(scenario="appendix_e", eta_start=0.9, eta_stop=0.9,
                                      eta_steps=1, overrides=overrides)).rows[0]

        plain, moved = row(), row(v_dis=2.5)
        assert plain["PPT_A"] == pytest.approx(0.738564, abs=1e-6)
        assert moved["PPT_A"] == pytest.approx(0.747917, abs=1e-6)
        for column in ("G_BD_to_A_qss", "key_rate_qss"):
            assert moved[column] == plain[column]

    def test_override_pins_coefficient(self):
        result = cmd_scan(RunConfig(scenario="two_user", eta_start=1.0, eta_stop=1.0,
                                    eta_steps=1, overrides={"f_b": 0.5}))
        assert result.rows[0]["f_b"] == 0.5

    def test_csv_golden_file(self):
        result = cmd_scan(RunConfig(scenario="two_user", eta_start=0.2, eta_stop=1.0,
                                    eta_steps=5))
        expected = (GOLDEN / "scan_two_user.csv").read_text()
        assert format_scan_csv(result) == expected

    @pytest.mark.parametrize("golden, argv", [
        ("scan_three_user.csv", ["--scenario", "three_user", "--eta-grid", "0.2:1.0:5"]),
        ("scan_qss.csv", ["--scenario", "qss", "--eta-grid", "0.2:1.0:5"]),
        ("scan_appendix_e.csv", ["--scenario", "appendix_e", "--eta-grid", "0.2:1.0:5"]),
        ("scan_two_user_overrides.csv", ["--scenario", "two_user", "--eta-grid", "0.2:1.0:5",
                                         "--set", "v_dis=2.2", "--set", "t2=0.4"]),
    ])
    def test_cli_golden_files(self, tmp_path, golden, argv):
        out = tmp_path / golden
        assert main(["scan", *argv, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_json_shape(self):
        result = cmd_scan(RunConfig(scenario="two_user", eta_start=1.0, eta_stop=1.0,
                                    eta_steps=1))
        payload = json.loads(format_scan_json(result))
        assert payload["columns"][0] == "eta"
        assert payload["rows"][0]["eta"] == 1.0

    @pytest.mark.parametrize("scenario", ["three_user", "qss"])
    def test_large_noise_variance(self, scenario, capsys):
        # states built at a 1e6 scale carry float drift above 1e-10 absolute
        assert main(["scan", "--scenario", scenario, "--set", "v_dis=1e6",
                     "--eta-grid", "0.5:1:3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_deterministic_repeat(self):
        config = RunConfig(scenario="three_user", eta_start=0.3, eta_stop=0.9, eta_steps=4)
        assert format_scan_csv(cmd_scan(config)) == format_scan_csv(cmd_scan(config))


class TestCovMatrixFile:
    def test_read_reference(self, three_mode_file):
        labels, cov = read_cov_matrix_file(three_mode_file)
        assert labels == ("A", "B0", "C1")
        assert cov.shape == (6, 6)

    def test_published_asymmetry_tolerated(self, four_mode_file):
        labels, cov = read_cov_matrix_file(four_mode_file)
        np.testing.assert_allclose(cov, cov.T)  # symmetrized on ingestion

    def test_default_labels(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 0\n0 1\n")
        labels, _ = read_cov_matrix_file(str(path))
        assert labels == ("M1",)

    def test_errors_are_distinct(self, tmp_path):
        cases = {
            "nonnumeric.txt": ("1 x\n0 1\n", "non-numeric"),
            "ragged.txt": ("1 0\n0\n", "ragged"),
            "notsquare.txt": ("1 0\n", "not square"),
            "odd.txt": ("1 0 0\n0 1 0\n0 0 1\n", "odd"),
            "asym.txt": ("1 0.5\n0 1\n", "asymmetric"),
            "empty.txt": ("# labels: A\n", "no matrix data"),
            "nan.txt": ("1 0\n0 nan\n", "non-finite"),
            "inf.txt": ("inf 0\n0 1\n", "non-finite"),
            "duplicate.txt": ("# labels: A A\n" + EYE4, "duplicate mode labels"),
        }
        for name, (content, message) in cases.items():
            path = tmp_path / name
            path.write_text(content)
            with pytest.raises(InputDataError, match=message):
                read_cov_matrix_file(str(path))

    def test_missing_file(self):
        with pytest.raises(InputDataError):
            read_cov_matrix_file("/nonexistent/path.txt")

    def test_write_read_roundtrip(self, tmp_path):
        state = build_network_state(two_user_params(0.8), "final_two_user")
        path = tmp_path / "state.txt"
        write_cov_matrix_file(str(path), state)
        labels, cov = read_cov_matrix_file(str(path))
        assert labels == ("A", "B")
        np.testing.assert_allclose(cov, state.cov, atol=1e-5)


class TestSplitSpec:
    def test_parse(self):
        assert parse_split_spec(" A | B0 , C1 ", ("A", "B0", "C1")) == (("A",), ("B0", "C1"))

    def test_errors(self):
        labels = ("A", "B0", "C1")
        with pytest.raises(InputDataError, match="exactly two"):
            parse_split_spec("A|B0|C1", labels)
        with pytest.raises(InputDataError, match="unknown mode label"):
            parse_split_spec("A|Z", labels)
        with pytest.raises(InputDataError, match="empty party"):
            parse_split_spec("A|", labels)
        with pytest.raises(InputDataError, match="repeats"):
            parse_split_spec("A|A,B0", labels)


class TestCertify:
    def test_three_mode_reference_values(self, three_mode_file):
        report = cmd_certify(three_mode_file)
        values = list(report.ppt_by_split.values())
        for got, expected in zip(values, THREE_MODE_PPT):
            assert got == pytest.approx(expected, abs=0.01)
        assert report.verdicts["A|B0,C1"] == "inseparable"
        assert report.verdicts["C1|A,B0"] == "separable"

    def test_four_mode_reference_values(self, four_mode_file):
        report = cmd_certify(four_mode_file)
        for got, expected in zip(report.ppt_by_split.values(), FOUR_MODE_PPT):
            assert got == pytest.approx(expected, abs=0.01)

    def test_explicit_splits(self, three_mode_file):
        report = cmd_certify(three_mode_file, splits=["B0|A,C1"])
        assert set(report.ppt_by_split) == {"B0|A,C1"}
        assert "B0->A,C1" in report.steer_by_direction

    def test_identity_separable(self, tmp_path):
        path = tmp_path / "id.txt"
        path.write_text("\n".join(" ".join("1" if i == j else "0" for j in range(4))
                                  for i in range(4)) + "\n")
        report = cmd_certify(str(path))
        assert all(v == "separable" for v in report.verdicts.values())
        assert all(v == 0.0 for v in report.steer_by_direction.values())

    def test_not_positive_definite(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0 0 0\n0 -1 0 0\n0 0 1 0\n0 0 0 1\n")
        with pytest.raises(NumericalError):
            cmd_certify(str(path))

    @pytest.mark.parametrize("golden, fixture, splits", [
        ("certify_three_mode.json", "three_mode_file", []),
        ("certify_four_mode.json", "four_mode_file", []),
        # a partial union, a full one and a repeated steered party, in the order given
        ("certify_three_mode_splits.json", "three_mode_file", ["B0|A", "A,B0|C1", "C1|A"]),
    ])
    def test_certify_golden_files(self, request, tmp_path, golden, fixture, splits):
        out = tmp_path / golden
        argv = ["certify", request.getfixturevalue(fixture), "--out", str(out)]
        assert main(argv + [a for s in splits for a in ("--split", s)]) == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_roundtrip_matches_in_memory(self, tmp_path):
        from cvsteer import Partition, ppt_min, steerability

        state = build_network_state(two_user_params(0.9), "final_two_user")
        path = tmp_path / "state.txt"
        write_cov_matrix_file(str(path), state)
        report = cmd_certify(str(path))
        assert report.ppt_by_split["A|B"] == pytest.approx(ppt_min(state, ["A"]), abs=1e-4)
        direct = steerability(state, Partition((0,), (1,)))
        assert report.steer_by_direction["A->B"] == pytest.approx(direct, abs=1e-4)


class TestTableA1:
    def test_values(self):
        lines = cmd_table_a1().strip().splitlines()
        assert lines[0].split() == ["eta", "F_B", "F_D"]
        expected_fd = {"1.0": 1.752, "0.8": 1.567, "0.6": 1.357, "0.4": 1.108, "0.2": 0.784}
        for line in lines[1:]:
            eta, f_b, f_d = line.split()
            assert abs(float(f_b) - 1.239) <= 0.001
            assert abs(float(f_d) - expected_fd[eta]) <= 0.001


class TestMonteCarloCommand:
    def test_report_structure_and_determinism(self):
        config = RunConfig(scenario="two_user", eta_start=1.0, eta_stop=1.0, eta_steps=1,
                           seed=99, shots=20000)
        a = cmd_montecarlo(config)
        b = cmd_montecarlo(config)
        assert a == b
        assert "max abs deviation" in a
        assert "flagged elements (> 5 SE): none" in a

    @pytest.mark.parametrize("scenario, n_modes", [
        ("two_user", 2), ("three_user", 3), ("qss", 3), ("appendix_e", 2)])
    def test_shot_minimum(self, scenario, n_modes, capsys):
        argv = ["montecarlo", "--scenario", scenario, "--shots"]
        assert main(argv + [str(2 * n_modes)]) == EXIT_USAGE
        assert f"--shots must be at least {2 * n_modes + 1}" in capsys.readouterr().err
        assert main(argv + [str(2 * n_modes + 1)]) == 0

    def test_tiny_run_does_not_crash(self):
        config = RunConfig(scenario="three_user", eta_start=0.8, eta_stop=0.8, eta_steps=1,
                           seed=1, shots=10)
        report = cmd_montecarlo(config)
        assert "monte carlo validation" in report

    def test_dump_shots(self, tmp_path):
        config = RunConfig(scenario="two_user", seed=5, shots=50,
                           eta_start=1.0, eta_stop=1.0, eta_steps=1)
        path = tmp_path / "shots.csv"
        cmd_montecarlo(config, dump_shots=str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x_A,p_A,x_B,p_B"
        assert len(lines) == 51

    def test_streamed_dump_is_pinned(self, tmp_path):
        # two blocks, the second partial, written as they arrive; the digest is
        # that of the file written from the whole batch at once
        config = RunConfig(scenario="two_user", seed=99, shots=70001,
                           eta_start=1.0, eta_stop=1.0, eta_steps=1)
        path = tmp_path / "shots.csv"
        cmd_montecarlo(config, dump_shots=str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "c1c9d3f5cc4591d64edaa78600b436ffc4b13ada801585706b44d4f20747a071")

    def test_golden_report(self, tmp_path):
        # the certificate lines come from full_report on the analytic and estimated states
        out = tmp_path / "mc.txt"
        assert main(["montecarlo", "--scenario", "three_user", "--eta-grid", "0.8:0.8:1",
                     "--shots", "20000", "--seed", "7", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "montecarlo_three_user.txt").read_bytes()

    def test_unwritable_dump_fails_before_sampling(self, tmp_path, monkeypatch, capsys):
        def drawn(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(sampler, "_propagate_block", drawn)
        path = tmp_path / "missing" / "d.csv"
        assert main(["montecarlo", "--shots", "100", "--dump-shots", str(path)]) == EXIT_USAGE
        assert f"cannot write {path}: No such file or directory" in capsys.readouterr().err

    def test_peak_memory_does_not_grow_with_shots(self):
        # one block is held at a time, so four times the shots is not four times the memory
        peaks = []
        for shots in (200_000, 800_000):
            config = RunConfig(scenario="three_user", seed=4, shots=shots,
                               eta_start=0.9, eta_stop=0.9, eta_steps=1)
            tracemalloc.start()
            try:
                cmd_montecarlo(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]


class TestMainEntry:
    def test_scan_to_file(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(["scan", "--scenario", "two_user", "--eta-grid", "0.5:1.0:2",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("eta,f_b,PPT_A")

    def test_certify_ok(self, three_mode_file, capsys):
        assert main(["certify", three_mode_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ppt"]["A|B0,C1"] == pytest.approx(0.701, abs=0.01)

    def test_usage_error_exit_code(self, capsys):
        assert main(["scan", "--eta-grid", "bogus"]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["scan", "--eta-grid", "0.5:1:2", "--set", "v_s=nan"], "v_s must be finite"),
        # one efficiency per run: a longer grid is refused, not silently cut to its start
        (["montecarlo", "--eta-grid", "0.2:1:5", "--shots", "100"], "5 steps"),
        # a source below the uncertainty bound is refused where it enters
        (["scan", "--eta-grid", "0.5:1:2", "--set", "v_s=0.1", "--set", "v_a=2"],
         "uncertainty relation"),
        # the auto coefficients divide by the grid efficiency: name the coefficient and point
        (["scan", "--eta-grid", "0:1:3"], "optimal f_b is undefined at eta = 0: t2 and eta_sb "
         "must be positive (start the grid above 0 or --set f_b)"),
        *((["scan", "--scenario", scenario, "--eta-grid", "0:1:3"],
           "optimal f_b is undefined at eta = 0: ") for scenario in ("three_user", "appendix_e")),
        (["scan", "--eta-grid", "0.5:1:2", "--set", "t2=0"],
         "optimal f_b is undefined at eta = 0.5: t2 and eta_sb must be positive (--set f_b)"),
        # a Philox key out of range is named as the seed, not as numpy's key
        (["montecarlo", "--seed", "-1", "--shots", "100"],
         "seed must lie in [0, 2**128), got -1"),
    ])
    def test_rejected_run_settings_exit_code(self, capsys, argv, message):
        assert main(argv) == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_input_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "odd.txt"
        path.write_text("1 0 0\n0 1 0\n0 0 1\n")
        assert main(["certify", str(path)]) == EXIT_INPUT
        for name, content, message in (
            ("duplicate.txt", "# labels: A A\n" + EYE4, "duplicate mode labels"),
            ("one_mode.txt", "1 0\n0 1\n", "need at least two modes"),
            ("sub_vacuum.txt", "0.5 0 0 0\n0 0.5 0 0\n0 0 1 0\n0 0 0 1\n",
             "smallest symplectic eigenvalue 0.5 "),
            # G = 1.652 both ways at the parent; its smallest symplectic eigenvalue is 0.48
            ("over_correlated.txt",
             "1.2 0 1.1 0\n0 1.2 0 -1.1\n1.1 0 1.2 0\n0 -1.1 0 1.2\n",
             "smallest symplectic eigenvalue 0.4796 "),
        ):
            path = tmp_path / name
            path.write_text(content)
            capsys.readouterr()
            assert main(["certify", str(path)]) == EXIT_INPUT
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_matrix_entry_exit_code(self, tmp_path, capsys, entry):
        path = tmp_path / "nonfinite.txt"
        path.write_text(f"1 0 0 0\n0 {entry} 0 0\n0 0 1 0\n0 0 0 1\n")
        assert main(["certify", str(path)]) == EXIT_INPUT

    def test_unknown_label_exit_code(self, three_mode_file, capsys):
        assert main(["certify", three_mode_file, "--split", "A|Z"]) == EXIT_INPUT

    def test_numeric_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "npd.txt"
        path.write_text("1 0 0 0\n0 -1 0 0\n0 0 1 0\n0 0 0 1\n")
        assert main(["certify", str(path)]) == EXIT_NUMERIC

    def test_singular_steering_block_in_scan_exit_code(self, capsys):
        # a numerical failure, not a usage error
        assert main(["scan", "--scenario", "qss", "--set", "v_dis=1e15",
                     "--eta-grid", "0.5:1:3"]) == EXIT_NUMERIC
        assert "singular" in capsys.readouterr().err

    def test_ill_conditioned_certify_exit_code(self, tmp_path, capsys):
        # positive definite, but the steering block has condition number 1e14
        path = tmp_path / "illcond.txt"
        path.write_text("1e7 0 0 0\n0 1e-7 0 0\n0 0 1 0\n0 0 0 1\n")
        assert main(["certify", str(path)]) == EXIT_NUMERIC
        assert "singular" in capsys.readouterr().err

    @pytest.mark.parametrize("exc", [ArithmeticError("pairing"),
                                     np.linalg.LinAlgError("no convergence")])
    def test_escaped_numerical_errors_exit_code(self, monkeypatch, capsys, exc):
        def fail(config):
            raise exc

        monkeypatch.setattr(cli, "cmd_scan", fail)
        assert main(["scan", "--eta-grid", "1:1:1"]) == EXIT_NUMERIC
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--seed", "5"], ["--shots", "2"]])
    def test_scan_rejects_monte_carlo_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--eta-grid", "0.5:1:2", *flag])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["scan", "--eta-grid", "1:1:1"], ["certify", "{file}"],
                                         ["table-a1"], ["montecarlo", "--shots", "100"]])
    def test_unwritable_out_exit_code(self, three_mode_file, tmp_path, monkeypatch, capsys,
                                      command):
        # the output opens before the run: no shot is drawn, no row or report computed
        def worked(*args, **kwargs):
            raise AssertionError("the run started")

        for module, name in ((sampler, "_propagate_block"), (optimize, "_scan_row"),
                             (cli, "cmd_certify"), (cli, "cmd_table_a1")):
            monkeypatch.setattr(module, name, worked)
        path = tmp_path / "missing" / "x.out"
        argv = [a.format(file=three_mode_file) for a in command]
        assert main([*argv, "--out", str(path)]) == EXIT_USAGE
        assert f"error: cannot write {path}: No such file or directory" in capsys.readouterr().err

    def test_calls_share_no_state(self, three_mode_file, tmp_path, capsys):
        # main reuses one parser: no call's flags or errors may reach the next call
        first, second, scan = tmp_path / "first.json", tmp_path / "second.json", tmp_path / "s.csv"
        assert main(["certify", three_mode_file, "--split", "A|B0", "--out", str(first)]) == 0
        assert main(["certify", three_mode_file, "--split", "C1|A,B0",
                     "--out", str(second)]) == 0
        assert list(json.loads(first.read_text())["ppt"]) == ["A|B0"]
        assert list(json.loads(second.read_text())["ppt"]) == ["C1|A,B0"]
        with pytest.raises(SystemExit) as exc:
            main(["certify", three_mode_file, "--bogus"])
        assert exc.value.code == EXIT_USAGE
        assert main(["certify", three_mode_file]) == 0
        assert list(json.loads(capsys.readouterr().out)["ppt"]) == [
            "A|B0,C1", "B0|A,C1", "C1|A,B0"]
        assert main(["scan", "--eta-grid", "0.2:1.0:5", "--out", str(scan)]) == 0
        assert scan.read_bytes() == (GOLDEN / "scan_two_user.csv").read_bytes()
        assert cli.build_parser() is not cli.build_parser()

    def test_table_a1_stdout(self, capsys):
        assert main(["table-a1"]) == 0
        assert "1.239" in capsys.readouterr().out

    def test_subprocess_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "cvsteer", "scan", "--scenario", "two_user",
             "--eta-grid", "1:1:1"],
            capture_output=True, text=True, env=_src_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("eta,")

    def test_subprocess_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cvsteer", "scan", "--scenario", "marble"],
            capture_output=True, text=True, env=_src_env(),
        )
        assert proc.returncode == EXIT_USAGE

    def test_json_format_flag(self, capsys):
        assert main(["scan", "--scenario", "two_user", "--eta-grid", "1:1:1",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["G_B_to_A"] == 0.0


def test_certify_report_json_is_deterministic(three_mode_file):
    a = format_report_json(cmd_certify(three_mode_file))
    b = format_report_json(cmd_certify(three_mode_file))
    assert a == b
