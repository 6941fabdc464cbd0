import ast
import filecmp
import re
from pathlib import Path

import pytest

from drcontract import ContractMenu, RunConfig, cli, errors, load_config, radius
from drcontract import read_menu_csv, write_menu_csv
from drcontract.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, main
from drcontract.evaluation import CANONICAL_METHODS
from conftest import feasibility_violations

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

    def test_status_line_names_the_stop_reason(self, tmp_path, capsys):
        assert run("solve", "--out", tmp_path / "out", "--seed", "0") == 0
        status = capsys.readouterr().out.splitlines()[0]
        assert status.startswith("dro: converged after 700 iterations")
        assert status.endswith("stop reason tol")

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
        assert (out / "trace.csv").read_text().splitlines()[0].startswith("iter,objective,lambda")


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

    def test_sp_menu_on_its_training_data_scores_its_objective(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run("gen-data", "--seed", "0", "--out", data) == 0
        cfg = tmp_path / "sp.cfg"
        cfg.write_text(f"train_csv = {data / 'train.csv'}\n")
        out = tmp_path / "out"
        assert run("solve", "--config", cfg, "--method", "sp", "--seed", "0", "--out", out) == 0
        header, *_, last = (out / "trace.csv").read_text().splitlines()
        objective = last.split(",")[header.split(",").index("objective")]
        cfg.write_text(f"menu_csv = {out / 'menu.csv'}\neval_csv = {data / 'train.csv'}\n")
        capsys.readouterr()
        assert run("evaluate", "--config", cfg, "--seed", "0", "--out", out) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"teleop_utility {objective}"

    def test_missing_menu_is_data_error(self, toy_config, tmp_path):
        assert run("evaluate", "--config", toy_config, "--out", tmp_path / "o") == EXIT_DATA

    def test_menu_with_scaled_rewards_breaks_participation(self, tmp_path, toy_config, capsys):
        out = tmp_path / "out"
        assert run("solve", "--config", toy_config, "--out", out) == 0
        solved = read_menu_csv(out / "menu.csv")
        scaled = ContractMenu(solved.latencies, 0.1 * solved.rewards)
        menu = tmp_path / "scaled.csv"
        write_menu_csv(scaled, menu)
        # both kinds of constraint break; the first participation one is named
        violations = feasibility_violations(scaled, load_config(toy_config).profile(), 1.0)
        assert "participation" in violations[0] and "self-selection" in violations[-1]
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(TOY_CONFIG + f"menu_csv = {menu}\n")
        capsys.readouterr()
        assert run("evaluate", "--config", cfg, "--out", out) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"data error: {menu}: {violations[0]}\n"

    def test_menu_whose_latencies_decrease_is_data_error(self, tmp_path, capsys):
        # types 1 and 2 share theta, and each of their bundles gives both
        # utility 0: participation and self-selection hold, but the
        # latencies fall
        menu = tmp_path / "menu.csv"
        menu.write_text(f"type_index,L,R\n1,20.0,{20 / 110!r}\n2,10.0,{10 / 110!r}\n3,50.0,0.4\n")
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(f"thetas = 110, 110, 140\nalphas = 0.3, 0.3, 0.4\nmenu_csv = {menu}\n")
        assert run("evaluate", "--config", cfg, "--out", tmp_path / "o") == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        expected = "type 2 breaks monotonicity: latency 10.0 below type 1's 20.0"
        assert captured.err == f"data error: {menu}: {expected}\n"

    def test_menu_breaking_self_selection_alone_is_data_error(self, tmp_path, toy_config, capsys):
        # both types participate, but the low type prefers the high bundle:
        # 110 * 0.2 - 10 = 12 over its own 0
        menu = tmp_path / "menu.csv"
        menu.write_text("type_index,L,R\n1,0.0,0.0\n2,10.0,0.2\n")
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(TOY_CONFIG + f"menu_csv = {menu}\n")
        assert run("evaluate", "--config", cfg, "--out", tmp_path / "o") == EXIT_DATA
        expected = f"data error: {menu}: type 1 breaks self-selection: prefers type 2's bundle by "
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(expected) and float(line[len(expected) :]) == pytest.approx(12.0)


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


def readme_file_formats():
    """README's "File formats" table: each row's file and the header its
    schema cell names first."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("|")]
    return {name.strip(): re.search(r"`([^`]*)`", schema)[1] for name, schema in rows[2:]}


class TestFileFormats:
    def test_readme_table_is_what_each_command_writes(self, tmp_path, toy_config):
        # the toy config's two types expand the trace's L_1..L_I
        documented = {
            name: schema.replace("L_1..L_I", "L_1,L_2")
            for name, schema in readme_file_formats().items()
        }
        data, bench = tmp_path / "data", tmp_path / "bench"
        assert run("gen-data", "--config", toy_config, "--out", data) == 0
        written = {
            "samples CSV": [data / "train.csv", data / "eval.csv"],
            "profile CSV": [data / "profile.csv"],
            "menu CSV": [],
            "trace CSV": [],
            "metrics.csv": [bench / "metrics.csv"],
            "asp_utility.csv": [bench / "asp_utility.csv"],
        }
        for method in CANONICAL_METHODS:
            out = tmp_path / f"solve-{method}"
            assert run("solve", "--config", toy_config, "--method", method, "--out", out) == 0
            written["menu CSV"].append(out / "menu.csv")
            written["trace CSV"].append(out / "trace.csv")
        assert run("bench", "--config", toy_config, "--out", bench) == 0
        assert written.keys() == documented.keys()
        for name, paths in written.items():
            for path in paths:
                assert path.read_text().splitlines()[0] == documented[name], path


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

    def test_four_types_within_budget(self, tmp_path, capsys):
        # 11 grid values per type: 1001 latency tuples x 20 samples
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text(
            "thetas = 110, 140, 175, 200\n"
            "n_train = 20\n"
            "itr_max = 20\n"
            "oracle_grid_step = 5\n"
        )
        assert run("oracle", "--config", cfg, "--seed", "0", "--out", tmp_path / "o") == 0
        printed = capsys.readouterr().out
        lat_line = [l for l in printed.splitlines() if l.startswith("oracle_latencies ")][0]
        assert len(lat_line.split()[1].split(",")) == 4

    @pytest.mark.parametrize("n_types", [64, 70])
    def test_one_grid_value_at_many_types(self, tmp_path, capsys, n_types):
        cfg = tmp_path / "oracle.cfg"
        thetas = ", ".join(str(100 + 2 * i) for i in range(n_types))
        cfg.write_text(f"thetas = {thetas}\noracle_l_max = 0\n")
        assert run("oracle", "--config", cfg, "--out", tmp_path / "o") == 0
        printed = capsys.readouterr().out
        lat_line = [l for l in printed.splitlines() if l.startswith("oracle_latencies ")][0]
        assert lat_line.split()[1].split(",") == ["0.0"] * n_types

    def test_grid_past_the_evaluation_budget_exits_two_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        # 50001 grid values per type at 8 types and 200 samples
        calls = []
        monkeypatch.setattr(cli, "train_method", lambda *args: calls.append(args))
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("oracle_grid_step = 0.001\n")
        assert run("oracle", "--config", cfg, "--out", tmp_path / "o") == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: 969509760234812507804087185403751 latency points x 200 samples "
            "exceeds the 1e+08 evaluation budget\n"
        )
        assert calls == []

    @pytest.mark.parametrize("lambda_max", ["10", "20"])
    def test_unbounded_training_data_exits_three(self, tmp_path, capsys, monkeypatch, lambda_max):
        # three anchors outside [60, 100]: mean distance 65.9 / 8 = 8.2375 to
        # the support, beyond the radius of 8 samples at tau = 0.1; refused
        # before the dro training, as a grid past a budget is
        calls = []
        monkeypatch.setattr(cli, "train_method", lambda *args: calls.append(args))
        data = tmp_path / "train.csv"
        data.write_text("xi\n46.2\n60\n120.9\n60\n100\n131.2\n100\n60\n")
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text(
            "thetas = 110, 140\n"
            "tau = 0.1\n"
            "oracle_grid_step = 1\n"
            f"oracle_lambda_max = {lambda_max}\n"
            f"train_csv = {data}\n"
        )
        assert run("oracle", "--config", cfg, "--out", tmp_path / "o") == EXIT_DATA
        captured = capsys.readouterr()
        assert "gap" not in captured.out
        numbers = [float(x) for x in re.findall(r"\d+\.\d+", captured.err)]
        assert numbers == [pytest.approx(8.2375), radius(8, 0.1, 40.0)]
        assert calls == []


class TestExitCodes:
    def test_every_error_belongs_to_a_mapped_family(self):
        # the CLI catches these three families and no bare library error; a
        # subclass exists only where code catches it by name or reads a field
        families = (errors.ValidationError, errors.DataError, errors.NumericError)
        classes = {
            cls
            for cls in vars(errors).values()
            if isinstance(cls, type) and cls.__module__ == errors.__name__
        }
        assert {cls.__name__ for cls in classes} == {
            "ContractSolverError",
            "ValidationError",
            "DataError",
            "ParseError",
            "NumericError",
            "NonPositiveLogArgument",
        }
        assert issubclass(errors.ParseError, errors.DataError)
        assert issubclass(errors.NonPositiveLogArgument, errors.NumericError)
        for cls in classes - {errors.ContractSolverError}:
            assert issubclass(cls, families), cls.__name__

    def test_no_invariant_is_an_assert(self):
        # `python -O` strips assert statements, so an invariant checked by one
        # would pass silently there instead of raising an error with an exit code
        package = Path(cli.__file__).parent
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Assert)
        ]
        assert len(list(package.glob("*.py"))) > 1
        assert found == []

    def test_every_imported_name_is_used(self):
        # a name that only a docstring mentions counts as unused; the
        # package's __init__ imports names to export them
        package = Path(cli.__file__).parent
        unused = []
        for path in sorted(package.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"
                ):
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        if name not in used:
                            unused.append(f"{path.name}:{node.lineno} {name}")
        assert len(list(package.glob("*.py"))) > 1
        assert unused == []

    def test_every_raise_is_a_library_error(self):
        # dispatch maps the three families to exit codes and lets any other
        # class through as a traceback; a bare raise passes on what its
        # handler caught, and a helper whose return annotation names a
        # family member may build the error
        package = Path(cli.__file__).parent
        families = (errors.ValidationError, errors.DataError, errors.NumericError)
        library = {
            name
            for name, cls in vars(errors).items()
            if isinstance(cls, type) and issubclass(cls, families)
        }
        trees = {
            path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(package.glob("*.py"))
        }
        builders = {
            node.name
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and isinstance(node.returns, ast.Name)
            and node.returns.id in library
        }
        assert builders == {"_nonpositive_log_argument"}
        foreign = []
        for name, tree in trees.items():
            for node in ast.walk(tree):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if not (isinstance(exc, ast.Name) and exc.id in library | builders):
                        foreign.append(f"{name}:{node.lineno}")
        assert len(trees) > 1
        assert foreign == []

    def test_bad_config_exits_two(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("tau = 1.5\n")
        assert run("solve", "--config", bad, "--out", tmp_path / "o") == EXIT_CONFIG

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_out_of_range_exits_two(self, tmp_path, capsys, seed):
        assert run("gen-data", "--seed", seed, "--out", tmp_path / "o") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: seed must lie in [0, 2**64 - 1], got {seed}\n"

    def test_unparseable_config_exits_two(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no equals sign here\n")
        assert run("solve", "--config", bad, "--out", tmp_path / "o") == EXIT_CONFIG

    def test_repeated_config_key_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 1\nseed = 2\n")
        assert run("gen-data", "--config", cfg, "--out", tmp_path / "o") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: {cfg}:2: config key 'seed' repeats line 1\n"

    def test_undecodable_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"\xff\xfeseed = 1\n")
        assert run("gen-data", "--config", cfg, "--out", tmp_path / "o") == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: {cfg}: cannot read config: ")

    def test_undecodable_data_file_exits_three(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        data.write_bytes(b"\xff\xfexi\n80.0\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"train_csv = {data}\n")
        assert run("solve", "--config", cfg, "--out", tmp_path / "o") == EXIT_DATA
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"data error: {data}: cannot decode text: ")

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

    def test_negative_menu_latency_exits_three(self, tmp_path, toy_config, capsys):
        menu = tmp_path / "menu.csv"
        menu.write_text("type_index,L,R\n1,0.0,0.0\n2,-1.0,0.1\n")
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(TOY_CONFIG + f"menu_csv = {menu}\n")
        assert run("evaluate", "--config", cfg, "--out", tmp_path / "o") == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: {menu}: latencies are inverse latencies and must be >= 0\n"

    @pytest.mark.parametrize("key", ["oracle_l_max = -1", "oracle_lambda_max = -2"])
    def test_negative_oracle_bound_exits_two(self, tmp_path, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"thetas = 110, 140\nn_train = 20\nitr_max = 20\noracle_grid_step = 0.5\n{key}\n")
        assert run("oracle", "--config", cfg, "--out", tmp_path / "o") == EXIT_CONFIG

    @pytest.mark.parametrize(
        "key",
        [
            "eta_l = nan",
            "eta_lambda = nan",
            "lambda_init = nan",
            "gamma3 = nan",
            "l_init = nan",
            "l_init = inf",
            "extreme_value = nan",
            "extreme_value = inf",
            "shift_magnitudes = 0, nan",
            # every subcommand checks the shift ladder, not only bench
            "shift_magnitudes = 10, 0",
            "gen_mean = nan",
            "gen_mean = inf",
            "gen_sd = nan",
            "gen_sd = inf",
            "eta_l = inf",
            "support_hi = inf",
            # finite, but no mass on the support [60, 100]
            "gen_mean = 1000",
            # outside the seed range [0, 2**64 - 1]
            "seed = -3",
            "seed = 18446744073709551616",
            # past numpy's largest array size
            "n_train = 10000000000000000000000",
            "n_eval = 10000000000000000000000",
        ],
    )
    def test_non_finite_or_hopeless_setting_exits_two(self, tmp_path, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"thetas = 110, 140\nn_train = 20\nitr_max = 20\n{key}\n")
        assert run("solve", "--config", cfg, "--out", tmp_path / "o") == EXIT_CONFIG

    def test_oracle_grid_past_the_float_range_exits_two(self, tmp_path, capsys):
        # l_max / grid_step overflows to inf
        cfg = tmp_path / "c.cfg"
        cfg.write_text("oracle_grid_step = 1e-300\noracle_l_max = 1e10\n")
        assert run("oracle", "--config", cfg, "--out", tmp_path / "o") == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: ") and line.endswith("table budget")

    def test_non_finite_iterate_exits_four(self, tmp_path, capsys):
        # the check's line alone, although pyproject turns a RuntimeWarning
        # into an error: a warning on the way would end in a traceback
        for settings, message in [
            # from lam = 0 the multiplier gradient is positive, and this
            # step size overflows it
            ("lambda_init = 0\neta_lambda = 1e308", "multiplier iterate inf"),
            # the start point's evaluation overflows lam*|anchor - lo|
            ("lambda_init = 1e308\neta_lambda = 0", "objective -inf at lam=1e+308"),
            # the first latency step overflows eta_l times the gradient
            ("gamma2 = 1e-6\neta_l = 1e308", "latency step [inf, inf"),
        ]:
            cfg = tmp_path / "c.cfg"
            cfg.write_text(settings + "\n")
            assert run("solve", "--config", cfg, "--out", tmp_path / "o") == EXIT_NUMERIC
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith(f"numeric failure: {message}")

    @pytest.mark.parametrize(
        "method, code", [("dro", EXIT_NUMERIC), ("sp", 0), ("ro", EXIT_NUMERIC)]
    )
    def test_nonpositive_log_argument_exits_four(self, tmp_path, capsys, method, code):
        # dro and ro take logs at the support floor, -10, where gamma2*xi +
        # gamma3*L is -10 at the start's zero latencies, and the line names
        # the floor; sp takes them at the training anchors only, which are
        # all positive
        cfg = tmp_path / "c.cfg"
        cfg.write_text("support_lo = -10\n")
        assert run("solve", "--config", cfg, "--method", method, "--out", tmp_path / "o") == code
        err = capsys.readouterr().err.splitlines()
        expected = [
            "numeric failure: support floor -10.0: log argument -10.0 at xi=-10.0 must be > 0"
        ]
        assert err == (expected if code else [])

    def test_nonpositive_log_argument_at_a_training_sample_names_it(self, tmp_path, capsys):
        # sp takes logs at its samples, 0-based: sample 1 is -3
        data = tmp_path / "train.csv"
        data.write_text("xi\n80\n-3\n90\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"train_csv = {data}\n")
        code = run("solve", "--config", cfg, "--method", "sp", "--out", tmp_path / "o")
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "numeric failure: sample 1: log argument -3.0 at xi=-3.0 must be > 0\n"
        )

    def test_header_only_training_csv_exits_three(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        data.write_text("xi\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"train_csv = {data}\n")
        assert run("solve", "--config", cfg, "--out", tmp_path / "o") == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {data} contains no observations\n"

    def test_header_only_menu_exits_three(self, tmp_path, toy_config, capsys):
        menu = tmp_path / "menu.csv"
        menu.write_text("type_index,L,R\n")
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(TOY_CONFIG + f"menu_csv = {menu}\n")
        assert run("evaluate", "--config", cfg, "--out", tmp_path / "o") == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {menu}:1: no data rows\n"

    def test_unknown_subcommand_exits_two_before_any_output(self, tmp_path, capsys):
        # the parser refuses it for main; dispatch, called directly, too
        out = tmp_path / "o"
        assert cli.dispatch("nope", RunConfig(), out=out) == EXIT_CONFIG
        assert capsys.readouterr().err == "unknown subcommand 'nope'\n"
        assert not out.exists()
