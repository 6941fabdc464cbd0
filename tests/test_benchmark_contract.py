"""What the benchmark in ``perfbench/`` needs of the program.

The benchmark wraps program functions from outside the package, at the
module attributes listed in ``perfbench/layers.py``, and its observers read
the wrapped calls' arguments by name.  It pairs its timed training and
scoring calls with the benchmark grid by position.  These tests pin that
surface, so a refactor that breaks it fails here rather than in a benchmark
run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from drcontract import ContractMenu, QualitySampleSet, bcd, evaluation
from drcontract.config import RunConfig
from drcontract.evaluation import CANONICAL_METHODS, run_benchmark

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"

# the arguments each top-level observer reads by name
OBSERVED = {
    "evaluation.train": {"method"},
    "evaluation.score": {"menu", "eval_samples"},
    "evaluation.oracle": {"profile", "samples", "grid_step", "l_max"},
}


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module, attr):
    return getattr(importlib.import_module(module), attr)


def parameters(function):
    return set(inspect.signature(function).parameters)


def test_every_top_level_site_resolves_with_its_observed_arguments(layers):
    assert {span for _, _, span in layers.TOP_LEVEL} == set(OBSERVED)
    for module, attr, span in layers.TOP_LEVEL:
        function = resolve(module, attr)
        assert callable(function), (module, attr)
        assert OBSERVED[span] <= parameters(function), (module, attr)


def test_the_writers_take_a_path_and_grad_lambda_is_on_bcd(layers):
    writers = [(module, attr) for module, attr, span, _ in layers.FINE if span == "io.write"]
    assert ("drcontract.cli", "write_metrics_csv") in writers
    assert ("drcontract.cli", "write_asp_csv") in writers
    for module, attr in writers:
        assert "path" in parameters(resolve(module, attr)), (module, attr)
    assert ("drcontract.bcd", "grad_lambda", "bcd.grad_lambda", False) in layers.FINE
    assert callable(bcd.grad_lambda)


# the fine sites that name a function of today's program; the other seven
# name deleted functions, and their layers read null
LIVE_FINE = {
    ("drcontract.evaluation", "solve"),
    ("drcontract.bcd", "grad_lambda"),
    ("drcontract.bcd", "iron_monotone"),
    ("drcontract.bcd", "rewards_from_latencies"),
    ("drcontract.evaluation", "shift_samples"),
    ("drcontract.evaluation", "inject_extreme_points"),
    ("drcontract.config", "generate_quality_samples"),
    ("drcontract.config", "generate_alphas"),
    ("drcontract.ambiguity", "write_samples_csv"),
    ("drcontract.cli", "write_samples_csv"),
    ("drcontract.cli", "write_metrics_csv"),
    ("drcontract.cli", "write_asp_csv"),
    ("drcontract.cli", "write_menu_csv"),
    ("drcontract.cli", "write_trace_csv"),
    ("drcontract.cli", "write_profile_csv"),
}


def test_every_live_fine_site_still_resolves(layers):
    # a site that stops resolving turns its per-layer figures null, silently
    assert LIVE_FINE <= {(module, attr) for module, attr, _, _ in layers.FINE}
    for module, attr in sorted(LIVE_FINE):
        assert callable(resolve(module, attr)), (module, attr)
    # the ironing observer compares its ``latencies`` argument with the result
    assert ("drcontract.bcd", "iron_monotone", "bcd.iron", False) in layers.FINE
    assert "latencies" in parameters(bcd.iron_monotone)


def test_the_scored_arguments_count_their_samples_and_types():
    # the scoring observer reads ``eval_samples.n`` and ``menu.n_types``
    assert QualitySampleSet([60.0, 70.0, 80.0]).n == 3
    assert ContractMenu(latencies=[0.0, 1.0], rewards=[0.0, 0.01]).n_types == 2


def test_the_grid_trains_and_scores_once_per_group_and_cell_in_canonical_order(monkeypatch):
    cfg = RunConfig(
        thetas=(110.0, 140.0),
        alphas=(0.5, 0.5),
        n_train=40,
        n_eval=15,
        shift_magnitudes=(0.0, 10.0),
        extreme_counts=(0, 5),
        seed=3,
    )
    calls = []
    train, score = evaluation.train_method, evaluation.eval_teleop_utility

    def recorded(name, function):
        signature = inspect.signature(function)

        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            calls.append((name, signature.bind(*args, **kwargs).arguments, result))
            return result

        return wrapper

    monkeypatch.setattr(evaluation, "train_method", recorded("train", train))
    monkeypatch.setattr(evaluation, "eval_teleop_utility", recorded("score", score))
    teleop_rows, asp_rows = run_benchmark(cfg)

    shifts = [float(s) for s in cfg.shift_magnitudes]
    groups = [(count, method) for count in cfg.extreme_counts for method in CANONICAL_METHODS]
    assert [name for name, _, _ in calls] == ["train", *["score"] * len(shifts)] * len(groups)
    trains = [(arguments, report) for name, arguments, report in calls if name == "train"]
    scores = [(arguments, value) for name, arguments, value in calls if name == "score"]
    assert [arguments["method"] for arguments, _ in trains] == [m for _, m in groups]
    for _, report in trains:
        assert isinstance(report.iterations_used, int) and report.iterations_used > 0
        assert isinstance(report.converged, bool)
    # each cell scores its group's menu and writes its row in the same place
    cells = [(count, method, s) for count, method in groups for s in shifts]
    for k, ((count, method, shift), (arguments, value)) in enumerate(zip(cells, scores)):
        assert arguments["menu"] is trains[k // len(shifts)][1].menu
        assert arguments["eval_samples"].n == cfg.n_eval
        assert teleop_rows[k] == (method, count, shift, value)
    assert len(teleop_rows) == len(cells)
    assert len(asp_rows) == len(groups) * len(cfg.thetas)
