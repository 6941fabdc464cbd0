import importlib.util
import json
import math
import os
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from drcontract.bcd import BcdConfig, SolveReport
from drcontract.config import RunConfig

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_kernels.py"
SRC = SCRIPT.parent.parent / "src"


def load_bench_script():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_kernel_runs_once_on_a_small_instance():
    bench = load_bench_script()
    cfg = replace(RunConfig(seed=0), thetas=(110.0, 140.0, 175.0), n_train=12)
    calls, solve = bench.kernels(cfg, BcdConfig(max_iters=2))
    assert list(calls) == ["objectives", "weighted_log", "iron_monotone", "rewards_from_latencies"]
    # the solver's batch cap at 3 types and 13 points: 2**15 // 39 menus
    omegas, wins = calls["objectives"]()
    assert np.isfinite(omegas).all() and omegas.shape == (840,) and wins.shape == (840, 12)
    assert calls["weighted_log"]().shape == (12,)
    for name in ("iron_monotone", "rewards_from_latencies"):
        assert calls[name]().shape == (3,)
    report = solve()
    assert isinstance(report, SolveReport)
    assert report.iterations_used <= 2


def test_contaminated_solve_runs_the_whole_budget():
    report = load_bench_script().contaminated_solve()()
    assert (report.iterations_used, report.stop_reason) == (1500, "unbounded")


def test_every_oracle_call_runs_once():
    bench = load_bench_script()
    calls = bench.oracle_calls()
    assert list(calls) == ["oracle_criterion_05", "oracle_three_type"]
    for n_types, call in zip((2, 3), calls.values()):
        omega, lat = call()
        assert np.isfinite(omega) and lat.shape == (n_types,)


def test_ab_mode_records_paired_ratios(tmp_path, monkeypatch):
    bench = load_bench_script()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # main() pins them; restored afterwards
    monkeypatch.setattr(bench, "BUDGET_S", 1e-3)
    monkeypatch.setattr(bench, "REPEATS", 3)

    def tiny(package):
        bcd, config = bench.modules(package, "bcd", "config")
        cfg = replace(config.RunConfig(seed=0), thetas=(110.0, 140.0, 175.0), n_train=12)
        return [("tiny", cfg, bcd.BcdConfig(max_iters=2))]

    def tiny_oracle(package):
        config, evaluation = bench.modules(package, "config", "evaluation")
        cfg = replace(config.RunConfig(seed=0), thetas=(110.0, 140.0), n_train=5)
        samples = cfg.train_samples()
        args = (cfg.profile(), samples, cfg.params(), cfg.ambiguity_for(samples.n), 1.0)
        return {"oracle_tiny": lambda: evaluation.oracle_menu_search(*args, l_max=20.0)}

    def tiny_solve(package):
        bcd, config = bench.modules(package, "bcd", "config")
        cfg = replace(config.RunConfig(seed=0), thetas=(110.0, 140.0), n_train=5)
        samples = cfg.train_samples()
        args = (samples, cfg.profile(), cfg.params(), cfg.ambiguity_for(samples.n))
        return lambda: bcd.solve(*args, bcd.BcdConfig(max_iters=3))

    monkeypatch.setattr(bench, "instances", tiny)
    monkeypatch.setattr(bench, "contaminated_solve", tiny_solve)
    monkeypatch.setattr(bench, "oracle_calls", tiny_oracle)
    # the before side's script is this module, so both sides time the tiny instances
    monkeypatch.setattr(bench, "load_script", lambda path, name: bench)
    out = tmp_path / "bench.json"
    argv = ["--ab", str(SRC), "--label", "same", "--out", str(out)]
    assert bench.main(argv) == 0
    data = json.loads(out.read_text())
    assert "machine" not in data
    run = data["ab"]["same"]
    assert run["before_sha256"] == run["after_sha256"]
    assert run["pairs"] == 3
    assert run["machine"]["nproc"] == os.cpu_count()
    assert run["unpaired"] == {}
    assert list(run["tiny"]) == [
        "objectives",
        "weighted_log",
        "iron_monotone",
        "rewards_from_latencies",
        "solve_per_iteration",
    ]
    assert list(run["I8_N200_extreme100"]) == ["solve_per_iteration"]
    assert list(run["oracle"]) == ["oracle_tiny"]
    groups = ("tiny", "I8_N200_extreme100", "oracle")
    for stats in [stats for group in groups for stats in run[group].values()]:
        assert list(stats) == ["before_us", "after_us", "ratio", "ratio_q1", "ratio_q3"]
        assert all(math.isfinite(value) and value > 0 for value in stats.values())
        assert stats["ratio_q1"] <= stats["ratio"] <= stats["ratio_q3"]


def test_a_figure_that_one_side_times_is_not_paired(tmp_path, monkeypatch):
    bench = load_bench_script()
    monkeypatch.setattr(bench, "REPEATS", 3)
    loaded = []

    def sampler():
        return 1e-6

    def stub_script(path, name):
        loaded.append(path)
        groups = {"tiny": {"shared": sampler, "dropped": sampler}, "old": {"gone": sampler}}
        return SimpleNamespace(samplers=lambda package: groups)

    def after_samplers(package):
        return {"tiny": {"shared": sampler, "added": sampler}}

    monkeypatch.setattr(bench, "load_script", stub_script)
    monkeypatch.setattr(bench, "samplers", after_samplers)
    out = tmp_path / "bench.json"
    assert bench.main(["--ab", str(SRC), "--label", "stub", "--out", str(out)]) == 0
    run = json.loads(out.read_text())["ab"]["stub"]
    # the before side's samplers come from the script beside its src
    assert loaded == [SCRIPT]
    assert run["unpaired"] == {"old/gone": "before", "tiny/dropped": "before", "tiny/added": "after"}
    assert list(run["tiny"]) == ["shared"]
    assert "old" not in run
    assert run["tiny"]["shared"]["ratio"] == 1.0
