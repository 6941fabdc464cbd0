import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from drcontract.bcd import BcdConfig, SolveReport
from drcontract.config import RunConfig

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_kernels.py"


def load_bench_script():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_kernel_runs_once_on_a_small_instance():
    bench = load_bench_script()
    cfg = replace(RunConfig(seed=0), thetas=(110.0, 140.0, 175.0), n_train=12)
    calls, solve = bench.kernels(cfg, BcdConfig(max_iters=2))
    assert list(calls) == [
        "objective",
        "weighted_log",
        "grad_L",
        "iron_monotone",
        "rewards_from_latencies",
    ]
    omega, wins = calls["objective"]()
    assert np.isfinite(omega) and wins.shape == (12,)
    assert calls["weighted_log"]().shape == (12,)
    for name in ("grad_L", "iron_monotone", "rewards_from_latencies"):
        assert calls[name]().shape == (3,)
    report = solve()
    assert isinstance(report, SolveReport)
    assert report.iterations_used <= 2


def test_every_oracle_call_runs_once():
    bench = load_bench_script()
    calls = bench.oracle_calls()
    assert list(calls) == ["oracle_criterion_05", "oracle_three_type"]
    for n_types, call in zip((2, 3), calls.values()):
        omega, lat = call()
        assert np.isfinite(omega) and lat.shape == (n_types,)
