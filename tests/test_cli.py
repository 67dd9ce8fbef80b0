import ast
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cvsteer import (Partition, build_network_state, cli, optimize, qss_params, sampler,
                     steerability)
from cvsteer.cli import (
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_USAGE,
    InputDataError,
    RunConfig,
    cmd_certify,
    cmd_montecarlo,
    cmd_scan,
    cmd_table_a1,
    format_report_json,
    format_scan_csv,
    format_scan_json,
    main,
    parse_eta_grid,
    parse_split_spec,
    read_cov_matrix_file,
)
from conftest import (THREE_MODE_PPT, FOUR_MODE_PPT, two_user_params, unpaired_spectrum,
                      write_cov_matrix_file)

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
        # a one-step grid runs at one efficiency: its stop used to be dropped unread
        for bad, message in (
                ("0.1:1.0", "eta grid must look like start:stop:steps, got '0.1:1.0'"),
                ("a:b:c", "bad eta grid 'a:b:c': could not convert"),
                ("0.1:1.0:0", "eta grid needs at least one step"),
                ("0.1:1.5:3", r"eta grid bounds must lie in \[0, 1\], got 1.5"),
                ("0.2:0.9:1", "a one-step eta grid needs start = stop, got '0.2:0.9:1'")):
            with pytest.raises(ValueError, match=f"^{message}"):
                parse_eta_grid(bad)

    @pytest.mark.parametrize("command, entry, flag", [
        ("scan", "scenario=marble", ["--scenario", "marble"]),
        ("montecarlo", "seed=abc", ["--seed", "abc"]),
        ("montecarlo", "shots=1e3", ["--shots", "1e3"]),
        ("scan", "format=xml", ["--format", "xml"])])
    def test_bad_file_value_fails_as_the_flag_would(self, capsys, command, entry, flag):
        # each case is the key=value entry and the flag that carries it; argparse names the value
        with pytest.raises(SystemExit) as exc:
            main([command, *flag])
        assert exc.value.code == EXIT_USAGE
        error = capsys.readouterr().err.splitlines()[-1]
        assert "invalid" in error
        assert repr(entry.partition("=")[2]) in error


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

    def test_appendix_e_qss_column_matches_lossy_dealer_steering(self):
        # the reference column is collective BD -> A steering with the dealer's link lossy too
        config = RunConfig(scenario="appendix_e", eta_start=0.5, eta_stop=1.0, eta_steps=11)
        result = cmd_scan(config)
        reference = [steerability(build_network_state(qss_params(eta).replace(eta_sa=eta),
                                                      "final_three_user"),
                                  Partition((1, 2), (0,)))
                     for eta in config.etas()]
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

    @pytest.mark.parametrize("scenario", ["three_user", "qss", "two_user", "appendix_e"])
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
        state = read_cov_matrix_file(three_mode_file)
        assert state.labels == ("A", "B0", "C1")
        assert state.cov.shape == (6, 6)

    def test_published_asymmetry_tolerated(self, four_mode_file):
        cov = read_cov_matrix_file(four_mode_file).cov
        np.testing.assert_allclose(cov, cov.T)  # symmetrized on ingestion

    def test_default_labels(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 0\n0 1\n")
        assert read_cov_matrix_file(str(path)).labels == ("M1",)

    def test_errors_are_distinct(self, tmp_path):
        cases = {
            "nonnumeric.txt": ("1 x\n0 1\n", "non-numeric"),
            "ragged.txt": ("1 0\n0\n", "ragged"),
            "notsquare.txt": ("1 0\n", "not square"),
            "odd.txt": ("1 0 0\n0 1 0\n0 0 1\n", "2n x 2n"),
            "asym.txt": ("1 0.5\n0 1\n", "asymmetric"),
            "empty.txt": ("# labels: A\n", "no matrix data"),
            "nan.txt": ("1 0\n0 nan\n", "non-finite"),
            "inf.txt": ("inf 0\n0 1\n", "non-finite"),
            "duplicate.txt": ("# labels: A A\n" + EYE4, "duplicate mode labels"),
            # the last header used to win, even one after the rows
            "two_headers.txt": ("# labels: A B\n# labels: X Y\n" + EYE4,
                                ":2: second or late '# labels:' line"),
            "late_header.txt": ("# labels: A B\n" + EYE4 + "# labels: X Y\n",
                                ":6: second or late '# labels:' line"),
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
        write_cov_matrix_file(path, state.labels, state.cov)
        read = read_cov_matrix_file(str(path))
        assert read.labels == ("A", "B")
        np.testing.assert_allclose(read.cov, state.cov, atol=1e-5)


class TestSplitSpec:
    def test_parse(self, three_mode_file):
        state = read_cov_matrix_file(three_mode_file)
        assert parse_split_spec(" A | B0 , C1 ", state) == Partition((0,), (1, 2))
        report = cmd_certify(three_mode_file, [" A | B0 , C1 "])
        assert list(report.ppt_by_split) == ["A|B0,C1"]

    def test_errors(self, three_mode_file, capsys):
        # "A,A|B0" used to reach the Cholesky factorisation and exit 4
        for split, message in (("A|B0|C1", "exactly two"), ("A|Z", "unknown mode label 'Z'"),
                               ("A|", "nonempty"), ("A|A,B0", "twice"), ("A,A|B0", "twice"),
                               ("A|B0,B0", "twice")):
            assert main(["certify", three_mode_file, "--split", split]) == EXIT_INPUT
            err = capsys.readouterr().err
            assert f"error: split {split!r}" in err and message in err

    def test_split_given_twice(self, three_mode_file, capsys):
        # the second used to overwrite the first, printing a single entry
        argv = ["certify", three_mode_file, "--split", "A|B0", "--split", "C1|A",
                "--split", "A|B0"]
        assert main(argv) == EXIT_INPUT
        assert "split 'A|B0' is given twice" in capsys.readouterr().err


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
        message = f"^{re.escape(str(path))}: matrix is not positive definite$"
        with pytest.raises(ArithmeticError, match=message):
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
        write_cov_matrix_file(path, state.labels, state.cov)
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
        a = cmd_montecarlo("two_user", 1.0, {}, 20000, 99)
        b = cmd_montecarlo("two_user", 1.0, {}, 20000, 99)
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
        report = cmd_montecarlo("three_user", 0.8, {}, 10, 1)
        assert "monte carlo validation" in report

    def test_dump_shots(self, tmp_path):
        path = tmp_path / "shots.csv"
        cmd_montecarlo("two_user", 1.0, {}, 50, 5, dump_shots=str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x_A,p_A,x_B,p_B"
        assert len(lines) == 51

    def test_streamed_dump_is_pinned(self, tmp_path):
        # five blocks, the last one partial, written as they arrive; the digest is
        # that of the file written from the whole batch at once
        path = tmp_path / "shots.csv"
        cmd_montecarlo("two_user", 1.0, {}, 70001, 99, dump_shots=str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "c11b9deab164791636b92d46d5bb5253bac796e1144fcad5779b94443e88951c")

    def test_golden_report(self, tmp_path):
        # the certificate lines come from full_report on the analytic and estimated states
        out = tmp_path / "mc.txt"
        assert main(["montecarlo", "--scenario", "three_user", "--eta-grid", "0.8:0.8:1",
                     "--shots", "20000", "--seed", "7", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "montecarlo_three_user.txt").read_bytes()

    def test_report_states_its_detection_floor(self):
        # read as the benchmark reads a report: "key: value" lines, one flag line
        lines = cmd_montecarlo("two_user", 0.7, {}, 40_000, 3).splitlines()
        report = dict(line.split(": ", 1) for line in lines
                      if ": " in line and not line.startswith(" "))
        assert [k for k in report if k.startswith("flagged elements")] == [
            "flagged elements (> 5 SE)"]
        low, high = map(float, report["detection floor (5 SE)"].split(" to "))
        assert 0 < low < high
        assert float(report["expected false flags"]) == pytest.approx(10 * 5.733e-7, rel=1e-3)

    def test_unwritable_dump_fails_before_sampling(self, tmp_path, monkeypatch, capsys):
        def drawn(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(sampler, "_propagate_block", drawn)
        path = tmp_path / "missing" / "d.csv"
        assert main(["montecarlo", "--shots", "100", "--dump-shots", str(path)]) == EXIT_USAGE
        assert f"cannot write {path}: No such file or directory" in capsys.readouterr().err

    def test_dump_to_the_output_file_is_refused(self, tmp_path, monkeypatch, capsys):
        # the dump truncated the open report file and the report then overwrote its head
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "mc.txt"
        path.write_bytes(b"kept\n")
        for argv in (["--out", str(path), "--dump-shots", str(path)],
                     ["--out", "mc.txt", "--dump-shots", str(path)],
                     ["--out", "n.txt", "--dump-shots", "./n.txt"]):  # neither exists yet
            assert main(["montecarlo", "--shots", "2000", *argv]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert "--out and --dump-shots name the same file" in err, argv
            assert path.read_bytes() == b"kept\n"
        assert not (tmp_path / "n.txt").exists()

    def test_output_naming_an_input_is_refused(self, three_mode_file, tmp_path, monkeypatch,
                                               capsys):
        # certify truncated its matrix to 0 bytes and exited 3
        monkeypatch.chdir(tmp_path)
        for argv, path, pair in (
                (["certify", three_mode_file, "--out", three_mode_file], three_mode_file,
                 "--out and the matrix file"),
                (["certify", three_mode_file, "--out", os.path.relpath(three_mode_file)],
                 three_mode_file, "--out and the matrix file")):
            before = Path(path).read_bytes()
            assert main(argv) == EXIT_USAGE, argv
            assert f"{pair} name the same file" in capsys.readouterr().err, argv
            assert Path(path).read_bytes() == before, argv

    def test_peak_memory_does_not_grow_with_shots(self):
        # each pool thread reuses one buffer, so four times the shots is not four times the memory
        peaks = []
        for shots in (200_000, 800_000):
            tracemalloc.start()
            try:
                cmd_montecarlo("three_user", 0.9, {}, shots, 4)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    @pytest.mark.parametrize("k", [1, 64])
    def test_peak_memory_is_set_by_the_pool_not_the_shots(self, monkeypatch, k):
        # the claim above on a pinned CPU set: the pool is capped below the 13 blocks of
        # the smaller run, so it is as large in both, however many cores the host has
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
        self.test_peak_memory_does_not_grow_with_shots()

    def test_report_and_dump_identical_across_cpu_sets(self, tmp_path, monkeypatch):
        # four blocks, the last truncated to 5 shots, drawn by pools of 1, 2 and 4 threads
        monkeypatch.setattr(sampler, "_MAX_THREADS", 4)
        outputs = []
        for k in (1, 2, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)),
                                raising=False)
            settings = ("two_user", 0.7, {}, 3 * sampler._BLOCK + 5, 2**100)
            dump = tmp_path / f"shots_{k}.csv"
            report = cmd_montecarlo(*settings, dump_shots=str(dump))
            outputs.append((report, dump.read_bytes(), cmd_montecarlo(*settings)))
        assert outputs[0][0] == outputs[0][2]
        assert outputs[0][1].count(b"\n") == 3 * sampler._BLOCK + 6
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_worker_exception_reaches_main(self, monkeypatch):
        # not a CLI error: it leaves main as raised on the pool thread
        error = RuntimeError("drawing failed")

        def failing(*args):
            raise error

        monkeypatch.setattr(sampler, "_propagate_block", failing)
        with pytest.raises(RuntimeError) as raised:
            main(["montecarlo", "--shots", "200000"])
        assert raised.value is error


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

    def test_blank_line_between_rows_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "gap.txt"
        path.write_text("1 0 0 0\n0 1 0 0\n\n0 0 1 0\n0 0 0 1\n")
        assert main(["certify", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"] == {"M1|M2": "separable",
                                                                   "M2|M1": "separable"}

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
        # a seed out of range is named as the seed, not as numpy's entropy
        (["montecarlo", "--seed", "-1", "--shots", "100"],
         "seed must lie in [0, 2**128), got -1"),
        (["scan", "--set", "v_s"], "override must look like key=value, got 'v_s'"),
        (["scan", "--set", "v_s=abc"], "value for 'v_s' is not a number: 'abc'"),
        (["scan", "--set", "bogus=1"], "error: no column of this scenario reads bogus;"),
        # an override that no column reads used to leave the printed rows unchanged in silence:
        # David's weight and splitter in two_user, and in appendix_e a link only its
        # secret-sharing reference columns read, which overrides skip
        (["scan", "--eta-grid", "0.5:0.5:1", "--set", "f_d=3", "--set", "t3=0.1"],
         "error: no column of this scenario reads f_d, t3; it reads eta_ab, eta_sa, eta_sb, "
         "f_a, f_b, f_c, t1, t2, v_a, v_dis, v_s\n"),
        (["montecarlo", "--shots", "100", "--set", "t3=0.1"],
         "error: no column of this scenario reads t3;"),
        (["scan", "--scenario", "appendix_e", "--eta-grid", "0.5:0.5:1", "--set", "eta_bd=0.3"],
         "error: no column of this scenario reads eta_bd;"),
        # one rule for a key, the scenario's: `users` is a field but no column reads it
        (["scan", "--set", "users=3"], "error: no column of this scenario reads users;"),
        (["montecarlo", "--shots", "100", "--set", "bogus=1"],
         "error: no column of this scenario reads bogus;"),
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

    def test_label_with_a_separator_exit_code(self, tmp_path, capsys):
        # certified with exit 0 at keys such as "A,B|C|D,E" that --split cannot address
        path = tmp_path / "separators.txt"
        rows = "".join(" ".join(map(str, row)) + "\n" for row in np.eye(6, dtype=int))
        path.write_text("# labels: A,B C|D E\n" + rows)
        assert main(["certify", str(path)]) == EXIT_INPUT
        assert "labels may not be empty or hold" in capsys.readouterr().err

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
        # a numerical failure, not a usage error; at this variance the states are refused
        # before a steering block is read, which test_ill_conditioned_certify_exit_code
        # still reaches
        assert main(["scan", "--scenario", "qss", "--set", "v_dis=1e15",
                     "--eta-grid", "0.5:1:3"]) == EXIT_NUMERIC
        assert "error: float64 cannot resolve this network: eps x largest variance = " in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("v_dis, value", [("1e12", "0.000111"), ("1e16", "1.11")])
    def test_unresolvable_noise_variance_exit_code(self, capsys, v_dis, value):
        # float64 reads G_A_to_B 0.133531 and 0.693147 at 1e16, where the network's value
        # is 0.0308949 and 0.0627748 at any variance: a wrong certificate must not exit 0
        assert main(["scan", "--scenario", "three_user", "--set", f"v_dis={v_dis}",
                     "--eta-grid", "0.5:1:2"]) == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            f"error: float64 cannot resolve this network: eps x largest variance = {value} "
            f"exceeds 1e-09 (lower v_dis or the displacement weights)\n")

    @pytest.mark.parametrize("argv", [
        ["scan", "--set", "f_b=1e160", "--eta-grid", "0.5:0.5:1"],
        ["montecarlo", "--set", "v_dis=1e308", "--set", "f_b=10", "--shots", "100"],
    ], ids=["scan", "montecarlo"])
    def test_overflowing_network_exit_code(self, capsys, argv):
        # numpy warned of an invalid value in matmul, then the non-finite covariance was
        # refused as a usage error (exit 2)
        assert main(argv) == EXIT_NUMERIC
        assert "error: overflow encountered in matmul" in capsys.readouterr().err

    @pytest.mark.parametrize("value, message", [
        ("1.7e308", "sqrt(v_dis) x f_b overflows float64 (v_dis = 1.5); lower v_dis or f_b"),
        ("1e160", "overflow encountered in matmul"),  # finite, but its square is not
    ])
    def test_overflowing_noise_weight_exit_code(self, capsys, value, message):
        # sqrt(v_dis) * f_b overflowed to inf unnoticed, and the first splitter's S @ M then
        # exited 4 with "invalid value encountered in matmul", naming neither
        assert main(["scan", "--set", f"f_b={value}", "--eta-grid", "0.5:0.5:1"]) == (
            EXIT_NUMERIC)
        assert capsys.readouterr().err == f"error: {message}\n"

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

    def test_unpaired_symplectic_spectrum_exit_code(self, tmp_path, monkeypatch, capsys):
        # an x-p entry keeps the matrix on the Hermitian route, whose pairing guard this is
        cov = np.eye(6)
        cov[0, 3] = cov[3, 0] = 0.5
        path = write_cov_matrix_file(tmp_path / "xp.txt", ("A", "B", "C"), cov)
        monkeypatch.setattr(np.linalg, "eigvalsh", unpaired_spectrum)
        assert main(["certify", path]) == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            f"error: {path}: symplectic eigenvalues failed +/- pairing check\n")

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

    def test_module_entry_point(self):
        # python -m cvsteer runs __main__, which exits with main's code and its output
        run = [sys.executable, "-m", "cvsteer"]
        proc = subprocess.run(run + ["table-a1"], capture_output=True, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == cli.cmd_table_a1().encode()
        proc = subprocess.run(run + ["certify"], capture_output=True, env=_src_env())
        assert proc.returncode == EXIT_USAGE

    def test_import_loads_no_thread_pool(self):
        # sampler._ordered_map imports its pool late: concurrent.futures loads logging, which
        # every command, certify and scan included, would otherwise pay for at startup
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, cvsteer.cli; "
             "print(sorted({'logging', 'concurrent.futures'} & sys.modules.keys()))"],
            capture_output=True, text=True, env=_src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_readme_examples_parse(self):
        # an example naming a retired flag or subcommand would otherwise stay in the README
        readme = (SRC.parent / "README.md").read_text()
        examples = [shlex.split(line, comments=True)[1:]
                    for block in re.findall(r"```bash\n(.*?)```", readme, re.S)
                    for line in block.splitlines() if line.startswith("cvsteer ")]
        assert examples
        parser = cli.build_parser()
        for argv in examples:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README example does not parse: cvsteer {shlex.join(argv)}")

    def test_readme_quickstart_runs_as_its_comments_say(self):
        # each bare expression of the README's Python block, in order, against its comment
        readme = (SRC.parent / "README.md").read_text()
        (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
        namespace, values = {}, []
        for node in ast.parse(block).body:
            if isinstance(node, ast.Expr):
                values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"),
                                   namespace))
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
        ppt_a, g_a_to_bd, g_b_to_a, ppt_c1, key_rates = values
        assert ppt_a < 1
        assert g_a_to_bd > 0
        assert g_b_to_a == 0
        assert ppt_c1 >= 1
        assert len(key_rates) == 3

    def test_json_format_flag(self, capsys):
        assert main(["scan", "--scenario", "two_user", "--eta-grid", "1:1:1",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["G_B_to_A"] == 0.0


def test_certify_report_json_is_deterministic(three_mode_file):
    a = format_report_json(cmd_certify(three_mode_file))
    b = format_report_json(cmd_certify(three_mode_file))
    assert a == b
