"""The traced run reproduces the seed facts of the reference solve: the
ec = 0 DRO cell of ``bench-grid`` at seed 0."""

import pytest

from layers import Recorder
from tracer import Tracer
from workloads import build_config


@pytest.fixture(scope="module")
def reference_cell(tmp_path_factory):
    from drcontract import evaluation

    cfg = build_config("bench-grid", 0, 0, tmp_path_factory.mktemp("inputs"))
    train = cfg.train_samples()
    tracer = Tracer()
    recorder = Recorder(tracer, traced=True)
    recorder.install()
    try:
        evaluation.train_method(
            "dro",
            train,
            cfg.profile(),
            cfg.params(),
            cfg.ambiguity_for(train.n),
            cfg.bcd_config(),
            cfg.inner_config(),
        )
    finally:
        tracer.uninstall()
    return tracer, recorder


def test_iterations(reference_cell):
    _, recorder = reference_cell
    assert recorder.solves == [
        {"method": "dro", "iterations": 700, "converged": True,
         "lam_walk_iters": recorder.solves[0]["lam_walk_iters"]}
    ]


def test_objective_calls_and_repeats(reference_cell):
    tracer, recorder = reference_cell
    m = recorder.layer_metrics()
    assert m["bcd.objective.calls"] == 1400
    assert tracer.counters["objective.repeats"] == 699


def test_inner_calls_and_winners(reference_cell):
    _, recorder = reference_cell
    m = recorder.layer_metrics()
    assert m["inner.solve_inner.calls"] == 280_000
    assert (m["inner.win.anchor"], m["inner.win.lo"]) == (279_600, 400)
    assert (m["inner.win.stationary"], m["inner.win.hi"]) == (0, 0)


def test_bisection_never_finds_a_root(reference_cell):
    tracer, recorder = reference_cell
    m = recorder.layer_metrics()
    assert m["inner.bisect.calls"] == 279_600
    assert tracer.counters["bisect.roots"] == 0
    assert m["inner.bisect.useful_ratio"] == 0.0


def test_pava_calls_and_changes(reference_cell):
    tracer, recorder = reference_cell
    m = recorder.layer_metrics()
    assert m["bcd.iron.calls"] == 701
    assert tracer.counters["iron.changed"] == 598
