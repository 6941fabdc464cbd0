import filecmp

import numpy as np
import pytest

from drcontract.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, main

TOY_CONFIG = """
thetas = 110, 140
alphas = 0.5, 0.5
n_train = 30
n_eval = 10
itr_max = 400
extreme_counts = 0
shift_magnitudes = 0, 10
"""


@pytest.fixture
def toy_config(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(TOY_CONFIG)
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestGenData:
    def test_writes_sample_files(self, tmp_path, toy_config):
        out = tmp_path / "out"
        assert run("gen-data", "--config", toy_config, "--out", out) == 0
        train = (out / "train.csv").read_text().splitlines()
        assert train[0] == "xi"
        assert len(train) == 31
        assert len((out / "eval.csv").read_text().splitlines()) == 11
        assert (out / "profile.csv").exists()


class TestSolve:
    def test_solve_writes_monotone_menu(self, tmp_path):
        out = tmp_path / "out"
        assert run("solve", "--out", out, "--seed", "0") == 0
        lines = (out / "menu.csv").read_text().strip().splitlines()
        assert lines[0] == "type_index,L,R"
        assert len(lines) == 9
        lat = [float(row.split(",")[1]) for row in lines[1:]]
        rew = [float(row.split(",")[2]) for row in lines[1:]]
        assert lat == sorted(lat)
        assert rew == sorted(rew)
        trace_header = (out / "trace.csv").read_text().splitlines()[0]
        assert trace_header.startswith("iter,objective,lambda,L_1")

    def test_solve_consumes_generated_data(self, tmp_path, toy_config):
        data_dir = tmp_path / "data"
        assert run("gen-data", "--config", toy_config, "--out", data_dir) == 0
        cfg2 = tmp_path / "with_files.cfg"
        cfg2.write_text(
            TOY_CONFIG
            + f"train_csv = {data_dir / 'train.csv'}\n"
            + f"eval_csv = {data_dir / 'eval.csv'}\n"
        )
        out = tmp_path / "out"
        assert run("solve", "--config", cfg2, "--method", "sp", "--out", out) == 0
        assert (out / "trace.csv").read_text().splitlines()[0].startswith("method,iter")

    def test_trace_subcommand(self, tmp_path, toy_config):
        out = tmp_path / "out"
        assert run("trace", "--config", toy_config, "--out", out) == 0
        assert (out / "trace.csv").exists()
        assert not (out / "menu.csv").exists()


class TestEvaluate:
    def test_round_trip_solve_then_evaluate(self, tmp_path, toy_config, capsys):
        out = tmp_path / "out"
        assert run("solve", "--config", toy_config, "--out", out) == 0
        cfg2 = tmp_path / "eval.cfg"
        cfg2.write_text(TOY_CONFIG + f"menu_csv = {out / 'menu.csv'}\n")
        assert run("evaluate", "--config", cfg2, "--out", out) == 0
        printed = capsys.readouterr().out
        lines = [l for l in printed.splitlines() if l.startswith(("teleop_utility", "asp_utility"))]
        assert lines[0].startswith("teleop_utility ")
        assert len([l for l in lines if l.startswith("asp_utility ")]) == 2

    def test_missing_menu_is_data_error(self, toy_config, tmp_path):
        assert run("evaluate", "--config", toy_config, "--out", tmp_path / "o") == EXIT_DATA


class TestBench:
    def test_row_counts_for_single_contamination(self, tmp_path, toy_config, capsys):
        out = tmp_path / "out"
        assert run("bench", "--config", toy_config, "--out", out) == 0
        rows = (out / "metrics.csv").read_text().strip().splitlines()
        # 3 methods x 2 shifts x 1 contamination level + header
        assert len(rows) == 1 + 3 * 2
        asp_rows = (out / "asp_utility.csv").read_text().strip().splitlines()
        assert len(asp_rows) == 1 + 3 * 2

    def test_default_shift_ladder_gives_21_rows(self, tmp_path):
        cfg = tmp_path / "b.cfg"
        cfg.write_text(
            "thetas = 110, 140\nalphas = 0.5, 0.5\nn_train = 30\nn_eval = 10\n"
            "itr_max = 400\nextreme_counts = 0\n"
        )
        out = tmp_path / "out"
        assert run("bench", "--config", cfg, "--out", out) == 0
        rows = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 3 * 7  # 3 methods x 7 default shifts

    def test_byte_identical_reruns(self, tmp_path, toy_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("bench", "--config", toy_config, "--seed", "5", "--out", out1) == 0
        assert run("bench", "--config", toy_config, "--seed", "5", "--out", out2) == 0
        assert filecmp.cmp(out1 / "metrics.csv", out2 / "metrics.csv", shallow=False)
        assert filecmp.cmp(out1 / "asp_utility.csv", out2 / "asp_utility.csv", shallow=False)


class TestOracleCommand:
    def test_prints_gap_within_tolerance(self, tmp_path, capsys):
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text(
            "thetas = 110, 140\n"
            "n_train = 20\n"
            "itr_max = 1500\n"
            "oracle_grid_step = 0.05\n"
            "oracle_l_max = 50\n"
            "oracle_lambda_max = 10\n"
        )
        assert run("oracle", "--config", cfg, "--seed", "0", "--out", tmp_path / "o") == 0
        printed = capsys.readouterr().out
        gap_line = [l for l in printed.splitlines() if l.startswith("gap ")][0]
        assert abs(float(gap_line.split()[1])) <= 1e-2


class TestExitCodes:
    def test_bad_config_exits_two(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("tau = 1.5\n")
        assert run("solve", "--config", bad, "--out", tmp_path / "o") == EXIT_CONFIG

    def test_unparseable_config_exits_two(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no equals sign here\n")
        assert run("solve", "--config", bad, "--out", tmp_path / "o") == EXIT_CONFIG

    def test_missing_data_file_exits_three(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("train_csv = /nonexistent/train.csv\n")
        assert run("solve", "--config", cfg, "--out", tmp_path / "o") == EXIT_DATA

    def test_malformed_data_file_exits_three(self, tmp_path):
        data = tmp_path / "train.csv"
        data.write_text("xi\nnot-a-number\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"train_csv = {data}\n")
        code = run("solve", "--config", cfg, "--out", tmp_path / "o")
        assert code == EXIT_DATA

    def test_non_finite_training_row_exits_three(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        data.write_text("xi\n80.0\nnan\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"train_csv = {data}\n")
        assert run("solve", "--config", cfg, "--out", tmp_path / "o") == EXIT_DATA
        assert f"data error: {data}:3:" in capsys.readouterr().err

    def test_non_finite_menu_latency_exits_three(self, tmp_path, toy_config, capsys):
        menu = tmp_path / "menu.csv"
        menu.write_text("type_index,L,R\n1,0.0,0.0\n2,nan,0.1\n")
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(TOY_CONFIG + f"menu_csv = {menu}\n")
        assert run("evaluate", "--config", cfg, "--out", tmp_path / "o") == EXIT_DATA
        assert f"data error: {menu}:3:" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["oracle_l_max = -1", "oracle_lambda_max = -2"])
    def test_negative_oracle_bound_exits_two(self, tmp_path, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"thetas = 110, 140\nn_train = 20\nitr_max = 20\noracle_grid_step = 0.5\n{key}\n")
        assert run("oracle", "--config", cfg, "--out", tmp_path / "o") == EXIT_CONFIG

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_iterate_exits_four(self, tmp_path, capsys):
        # from lam = 0 the multiplier gradient is positive, and this step
        # size overflows it
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lambda_init = 0\neta_lambda = 1e308\n")
        assert run("solve", "--config", cfg, "--out", tmp_path / "o") == EXIT_NUMERIC
        assert "numeric failure: multiplier iterate inf" in capsys.readouterr().err
