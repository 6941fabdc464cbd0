"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every tolerance and runtime budget is pinned here.
"""

import filecmp
import time

import numpy as np
import pytest

from drcontract import (
    AmbiguityConfig,
    AspTypeProfile,
    ContractMenu,
    SupportInterval,
    UtilityParams,
    check_feasibility,
    eval_asp_utilities,
    generate_alphas,
    inner_candidates,
    inner_minima,
    oracle_menu_search,
    radius,
    rewards_from_latencies,
    run_benchmark,
    shift_samples,
    solve,
    train_method,
    wasserstein_1d,
    weighted_log,
)
from drcontract.cli import main as cli_main
from drcontract.config import RunConfig, generate_quality_samples
from drcontract.contracts import FEASIBILITY_TOL

PARAMS = UtilityParams()
SUPPORT = SupportInterval(60.0, 100.0)


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="module")
def default_cfg():
    return RunConfig()


@pytest.fixture(scope="module")
def seed0_train(default_cfg):
    return default_cfg.train_samples()


@pytest.fixture(scope="module")
def seed0_profile(default_cfg):
    return default_cfg.profile()


@pytest.fixture(scope="module")
def seed0_ambiguity(default_cfg, seed0_train):
    return default_cfg.ambiguity_for(seed0_train.n)


@pytest.fixture(scope="module")
def dro_report(seed0_train, seed0_profile, seed0_ambiguity):
    t0 = time.perf_counter()
    report = solve(seed0_train, seed0_profile, PARAMS, seed0_ambiguity, RunConfig())
    report.wall_seconds = time.perf_counter() - t0
    return report


@pytest.fixture(scope="module")
def benchmark_tables(default_cfg):
    t0 = time.perf_counter()
    teleop_rows, _ = run_benchmark(default_cfg)
    return teleop_rows, time.perf_counter() - t0


def test_criterion_01_feasibility_suite():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        thetas = np.sort(rng.uniform(50.0, 500.0, n))
        alphas = rng.dirichlet(np.ones(n))
        lat = np.sort(rng.uniform(0.0, 300.0, n))
        profile = AspTypeProfile(thetas=thetas, alphas=alphas / alphas.sum())
        rewards = rewards_from_latencies(lat, profile, 1.0)
        menu = ContractMenu(latencies=lat, rewards=rewards)
        check_feasibility(menu, profile, 1.0)
        assert abs(thetas[0] * rewards[0] - lat[0]) <= 1e-9
        for i in range(n - 1):
            own = thetas[i + 1] * rewards[i + 1] - lat[i + 1]
            cross = thetas[i + 1] * rewards[i] - lat[i]
            assert abs(own - cross) <= 1e-9
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        1,
        checked == 1000 and FEASIBILITY_TOL == 1e-9 and elapsed < 5.0,
        f"{checked} constructed menus pass IR/IC at 1e-9 with exact bindings "
        f"in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_radius_reference_value():
    got = radius(200, 0.99, 40.0)
    _report(2, abs(got - 8.584) <= 1e-3, f"radius(200, 0.99, 40) = {got:.6f} (8.584 +/- 1e-3)")


def test_criterion_03_inner_solver_oracle():
    rng = np.random.default_rng(1003)
    xs = np.linspace(SUPPORT.lo, SUPPORT.hi, 40001)  # step 1e-3
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        lat = np.sort(rng.uniform(0.0, 150.0, n))
        alphas = rng.dirichlet(np.ones(n))
        lam = float(rng.uniform(0.0, 2.0))
        anchor = float(rng.uniform(0.0, 140.0))
        candidates = inner_candidates(np.array([anchor]), SUPPORT)
        h = weighted_log(candidates.points, lat, alphas, PARAMS)
        f_min, _ = inner_minima(h, lam, candidates)
        grid = xs if not SUPPORT.lo <= anchor <= SUPPORT.hi else np.append(xs, anchor)
        total = np.zeros_like(grid)
        for a, l in zip(alphas, lat):
            total += a * np.log(grid + l)
        total += lam * np.abs(grid - anchor)
        worst = max(worst, abs(float(f_min[0]) - float(total.min())))
    elapsed = time.perf_counter() - t0
    _report(
        3,
        worst <= 1e-4 and elapsed < 10.0,
        f"100 instances, max |solver - grid| = {worst:.2e} (<= 1e-4) in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_04_shift_transport_consistency(seed0_train):
    worst = 0.0
    for magnitude in (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0):
        shifted = shift_samples(seed0_train, magnitude)
        worst = max(worst, abs(wasserstein_1d(seed0_train, shifted) - magnitude))
    _report(4, worst <= 1e-9, f"max |transport - magnitude| over shifts 0..60 = {worst:.2e}")


def test_criterion_05_outer_oracle():
    t0 = time.perf_counter()
    thetas = [110.0, 140.0]
    profile = AspTypeProfile(thetas=thetas, alphas=generate_alphas(2, 0))
    samples = generate_quality_samples(20, 0, "train-data", 85.0, 8.0, SUPPORT)
    amb = AmbiguityConfig.derive(SUPPORT, 0.99, 20)
    report = solve(samples, profile, PARAMS, amb, RunConfig())
    # the grid reaches the program's optimum, whose L_2 is theta_2 - lo
    l_max = thetas[1] - SUPPORT.lo
    best_omega, _ = oracle_menu_search(
        profile, samples, PARAMS, amb, 0.05, l_max=l_max, lambda_max=10.0
    )
    gap = abs(report.objective - best_omega)
    elapsed = time.perf_counter() - t0
    _report(
        5,
        gap <= 1e-2 and elapsed < 120.0,
        f"|BCD - grid max| = {gap:.4f} (<= 1e-2) on the grid up to l_max = {l_max:g} "
        f"in {elapsed:.1f}s (< 2min)",
    )


def test_criterion_06_default_configuration_converges(dro_report):
    ok = (
        dro_report.converged
        and dro_report.iterations_used <= 1500
        and bool(np.all(np.diff(dro_report.menu.latencies) >= -1e-12))
        and dro_report.wall_seconds < 30.0
    )
    _report(
        6,
        ok,
        f"seed-0 reference run converged in {dro_report.iterations_used} iterations "
        f"(<= 1500), monotone latencies, {dro_report.wall_seconds:.1f}s (< 30s)",
    )


def test_criterion_07_asp_utility_monotonicity(
    dro_report, default_cfg, seed0_train, seed0_profile
):
    menus = {"dro": dro_report.menu}
    for method in ("sp", "ro"):
        menus[method] = train_method(method, seed0_train, default_cfg).menu
    worst_first, ok = 0.0, True
    for method, menu in menus.items():
        utilities = eval_asp_utilities(menu, seed0_profile, PARAMS.gamma1)
        worst_first = max(worst_first, abs(float(utilities[0])))
        ok = ok and abs(float(utilities[0])) <= 1e-9
        ok = ok and bool(np.all(np.diff(utilities) >= -1e-9))
    _report(
        7,
        ok,
        f"dro/sp/ro provider utilities nondecreasing with first element 0 "
        f"(max |first| = {worst_first:.1e} <= 1e-9)",
    )


def test_criterion_08_robustness_ordering(benchmark_tables):
    teleop_rows, elapsed = benchmark_tables
    teleop = {(method, shift, count): u for method, count, shift, u in teleop_rows}
    shifts = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
    ro_dominated = all(teleop["ro", s, 0] <= teleop["dro", s, 0] for s in shifts)
    dro_beats_sp = teleop["dro", 60.0, 100] >= teleop["sp", 60.0, 100]
    d0, s0 = teleop["dro", 0.0, 0], teleop["sp", 0.0, 0]
    rel_gap = abs(d0 - s0) / abs(s0)
    ok = ro_dominated and dro_beats_sp and rel_gap <= 0.05 and elapsed < 300.0
    _report(
        8,
        ok,
        f"(a) RO <= DRO at all shifts: {ro_dominated}; "
        f"(b) DRO >= SP at 100 extremes, shift 60: {dro_beats_sp}; "
        f"(c) clean shift-0 |DRO-SP|/SP = {rel_gap:.3f} (<= 0.05); "
        f"grid in {elapsed:.0f}s (< 5min)",
    )


def test_criterion_09_linear_sample_scaling(seed0_profile):
    cfg = RunConfig(itr_max=60, conv_tol=1e-15)
    sizes = (10_000, 20_000)
    inputs = {
        n: (
            generate_quality_samples(n, 0, "train-data", 85.0, 8.0, SUPPORT),
            AmbiguityConfig.derive(SUPPORT, 0.99, n),
        )
        for n in sizes
    }

    def per_iter_seconds(n):
        samples, amb = inputs[n]
        t0 = time.perf_counter()
        report = solve(samples, seed0_profile, PARAMS, amb, cfg)
        return (time.perf_counter() - t0) / report.iterations_used

    # Measured where per-sample work dominates the fixed per-iteration
    # overhead (about 0.2 ms); at N = 100/200 the vectorized iteration is
    # nearly all overhead and the ratio reads about 1.0 whatever the scaling.
    # The two sizes alternate over the rounds, so a transient slowdown of
    # the machine hits both sides alike; each side keeps its fastest round.
    per_iter_seconds(10_000)  # warm-up
    best = {n: float("inf") for n in sizes}
    for _ in range(5):
        for n in sizes:
            best[n] = min(best[n], per_iter_seconds(n))
    ratio = best[20_000] / best[10_000]
    _report(
        9,
        1.5 <= ratio <= 3.0,
        f"per-iteration wall time ratio N=20000/N=10000 = {ratio:.2f} (within [1.5, 3.0])",
    )


def test_criterion_10_bench_determinism(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "thetas = 110, 140, 175\n"
        "n_train = 40\n"
        "n_eval = 15\n"
        "itr_max = 500\n"
        "extreme_counts = 0, 10\n"
    )
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = cli_main(["bench", "--config", str(cfg), "--seed", "0", "--out", str(out1)])
    code2 = cli_main(["bench", "--config", str(cfg), "--seed", "0", "--out", str(out2)])
    identical = filecmp.cmp(out1 / "metrics.csv", out2 / "metrics.csv", shallow=False)
    identical = identical and filecmp.cmp(
        out1 / "asp_utility.csv", out2 / "asp_utility.csv", shallow=False
    )
    _report(
        10,
        code1 == 0 and code2 == 0 and identical,
        "two bench invocations with identical config and seed wrote "
        "byte-identical metrics.csv and asp_utility.csv",
    )
