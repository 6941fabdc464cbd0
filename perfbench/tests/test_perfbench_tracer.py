"""Tracer arithmetic, refactor tolerance and what each mode installs."""

import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
from layers import FINE, TOP_LEVEL, Recorder
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fake_module(monkeypatch):
    """``outer`` spends 1.0, calls ``inner`` (2.0 each) twice, then 0.5."""
    clock = FakeClock()
    mod = types.ModuleType("perfbench_fake")

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        mod.inner()
        mod.inner()
        clock.now += 0.5

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "perfbench_fake", mod)
    return mod, clock


def test_self_time_is_duration_minus_children(fake_module):
    mod, clock = fake_module
    tracer = Tracer(clock=clock)
    tracer.wrap("perfbench_fake", "inner", "inner")
    tracer.wrap("perfbench_fake", "outer", "outer", keep=True)
    mod.outer()
    assert tracer.layer("outer") == (1, 5.5, 1.5)
    assert tracer.layer("inner") == (2, 4.0, 4.0)
    assert tracer.aggregate[("inner", "outer")] == [2, 4.0, 4.0]
    (span,) = tracer.dump()["spans"]
    assert (span["name"], span["start"], span["end"], span["self_s"]) == ("outer", 0.0, 5.5, 1.5)


def test_observer_time_is_charged_to_nobody(fake_module):
    mod, clock = fake_module
    tracer = Tracer(clock=clock)

    def slow_observer(args, kwargs, result):
        clock.now += 10.0

    tracer.wrap("perfbench_fake", "inner", "inner", observe=slow_observer)
    tracer.wrap("perfbench_fake", "outer", "outer")
    mod.outer()
    assert tracer.layer("outer")[2] == 1.5
    assert tracer.layer("inner") == (2, 4.0, 4.0)


def test_uninstall_restores_originals(fake_module):
    mod, clock = fake_module
    original = mod.inner
    tracer = Tracer(clock=clock)
    tracer.wrap("perfbench_fake", "inner", "inner")
    assert mod.inner is not original
    tracer.uninstall()
    assert mod.inner is original


def test_missing_function_reads_as_absent_with_a_note(monkeypatch):
    from drcontract import inner

    monkeypatch.delattr(inner, "solve_xi_p")
    tracer = Tracer()
    recorder = Recorder(tracer, traced=True)
    recorder.install()
    tracer.uninstall()
    metrics = recorder.layer_metrics()
    assert metrics["inner.bisect.calls"] is None
    assert metrics["inner.bisect.self_s"] is None
    assert metrics["inner.bisect.useful_ratio"] is None
    assert metrics["inner.solve_inner.calls"] == 0
    assert any("solve_xi_p" in note for note in tracer.notes)


def test_untraced_mode_wraps_only_top_level_calls():
    from drcontract import bcd, cli, evaluation, inner

    originals = {
        (module, attr): getattr(sys.modules[module], attr) for module, attr, *_ in FINE
    }
    tracer = Tracer()
    Recorder(tracer, traced=False).install()
    try:
        assert sorted(tracer.wrapped_sites()) == sorted(f"{m}.{a}" for m, a, _ in TOP_LEVEL)
        for (module, attr), original in originals.items():
            assert getattr(sys.modules[module], attr) is original
        assert bcd.solve_inner is inner.solve_inner
        assert cli.train_method.__wrapped__ is evaluation.train_method.__wrapped__
    finally:
        tracer.uninstall()


def test_declared_metrics_are_all_produced():
    end_to_end, per_layer = run.declared_metrics()
    execution = dict.fromkeys(
        ("wall_s", "setup_s", "train_s", "score_s", "oracle_s", "peak_rss_mb"), 1.0
    )
    execution["iterations"] = 1
    produced = run.end_to_end([execution], 1, 0)
    assert {m["name"] for m in end_to_end} <= set(produced)
    layers = set(Recorder(Tracer(), traced=True).layer_metrics()) | {"trace.overhead_ratio"}
    assert {m["name"] for m in per_layer} <= layers


def test_a_run_without_executions_reports_no_figures():
    result = {"attempted": 1, "failed": 1, "metrics": run.end_to_end([], 1, 1)}
    line = run.result_line(result, trace=0)
    assert not line["correct"]
    assert all(m["value"] is None for m in line["metrics"].values())


def test_every_run_seed_has_a_recorded_reference():
    import checks
    from workloads import WORKLOADS

    for workload in WORKLOADS:
        for seed in (0, 7, 25, 1234567):
            runner = run.Runner(workload, seed, ROOT / ".perfbench_out" / "unused")
            assert checks.load_reference(workload, runner.seed) is not None


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
