import numpy as np
import pytest

from drcontract import (
    AspTypeProfile,
    BcdConfig,
    QualitySampleSet,
    SupportInterval,
    UtilityParams,
    check_feasibility,
    eval_teleop_utility,
    solve_ro,
    solve_sp,
)
from drcontract.bcd import solve_pinned

PARAMS = UtilityParams()
SUPPORT = SupportInterval(60.0, 100.0)


def instance(n_types=3, n_samples=30, seed=13):
    rng = np.random.default_rng(seed)
    thetas = np.sort(rng.uniform(100, 260, n_types))
    alphas = rng.dirichlet(np.ones(n_types))
    profile = AspTypeProfile(thetas=thetas, alphas=alphas / alphas.sum())
    samples = QualitySampleSet(rng.uniform(60, 100, n_samples))
    return profile, samples


class TestSampleAverage:
    def test_engine_reduction_equivalence(self):
        # the baseline IS the shared engine run in pinned mode with zero
        # radius and a resting multiplier
        profile, samples = instance()
        direct = solve_sp(samples, profile, PARAMS, BcdConfig())
        engine = solve_pinned(
            samples.samples,
            profile,
            PARAMS,
            BcdConfig(lambda_init=0.0),
        )
        assert direct.objective == pytest.approx(engine.objective, abs=1e-6)
        np.testing.assert_allclose(direct.menu.latencies, engine.menu.latencies, atol=1e-9)
        assert np.all(direct.lambda_trace == 0.0)

    def test_permutation_invariance(self):
        profile, samples = instance()
        shuffled = QualitySampleSet(samples.samples[::-1].copy())
        a = solve_sp(samples, profile, PARAMS)
        b = solve_sp(shuffled, profile, PARAMS)
        assert a.objective == pytest.approx(b.objective, abs=1e-12)
        np.testing.assert_allclose(a.menu.latencies, b.menu.latencies, atol=1e-12)

    def test_degenerate_theta_rests_at_zero(self):
        # theta = 1: the marginal reward cost always exceeds the log benefit
        # slope on this support, so the latency stays clamped at zero, which
        # is also the scalar grid optimum
        profile = AspTypeProfile(thetas=[1.0], alphas=[1.0])
        samples = QualitySampleSet(np.linspace(60, 100, 20))
        report = solve_sp(samples, profile, PARAMS)
        assert report.menu.latencies[0] == 0.0
        values = samples.samples
        grid = np.arange(0.0, 50.0, 0.01)
        objs = [float(np.mean(np.log(values + lat))) - lat / 1.0 for lat in grid]
        assert grid[int(np.argmax(objs))] == 0.0

    def test_single_type_objective_matches_scalar_grid(self):
        profile = AspTypeProfile(thetas=[200.0], alphas=[1.0])
        rng = np.random.default_rng(17)
        samples = QualitySampleSet(rng.uniform(60, 100, 40))
        report = solve_sp(samples, profile, PARAMS)
        values = samples.samples
        grid = np.arange(0.0, 250.0, 0.01)
        objs = np.array(
            [float(np.mean(np.log(values + lat))) - lat / 200.0 for lat in grid]
        )
        assert report.objective == pytest.approx(float(objs.max()), abs=1e-3)
        # the stationary point satisfies mean 1/(xi + L) = 1/theta
        stat = grid[int(np.argmax(objs))]
        assert float(np.mean(1.0 / (values + stat))) == pytest.approx(1 / 200.0, abs=1e-5)

    def test_menu_feasible(self):
        profile, samples = instance(n_types=5)
        report = solve_sp(samples, profile, PARAMS)
        assert check_feasibility(report.menu, profile, 1.0, tol=1e-9).feasible


class TestWorstCase:
    def test_ignores_samples_entirely(self):
        profile, samples = instance()
        a = solve_ro(SUPPORT, profile, PARAMS)
        assert a.iterations_used > 0

    def test_equals_sample_average_on_floor_constants(self):
        profile, _ = instance(n_types=4)
        constant = QualitySampleSet(np.full(25, SUPPORT.lo))
        ro = solve_ro(SUPPORT, profile, PARAMS)
        sp = solve_sp(constant, profile, PARAMS)
        np.testing.assert_allclose(ro.menu.latencies, sp.menu.latencies, atol=1e-6)
        assert ro.objective == pytest.approx(sp.objective, abs=1e-6)

    def test_degenerate_support_collapses_to_sample_average(self):
        profile, _ = instance(n_types=2)
        tiny = SupportInterval(60.0, 60.0 + 1e-6)
        constant = QualitySampleSet(np.full(10, 60.0))
        ro = solve_ro(tiny, profile, PARAMS)
        sp = solve_sp(constant, profile, PARAMS)
        np.testing.assert_allclose(ro.menu.latencies, sp.menu.latencies, atol=1e-3)

    def test_menu_feasible(self):
        profile, _ = instance(n_types=6)
        report = solve_ro(SUPPORT, profile, PARAMS)
        assert check_feasibility(report.menu, profile, 1.0, tol=1e-9).feasible

    def test_conservative_on_clean_data(self):
        # scoring each menu on its own training objective: the worst-case
        # menu cannot beat the sample-average menu on in-support data
        profile, samples = instance(n_types=3, seed=5)
        ro = solve_ro(SUPPORT, profile, PARAMS)
        sp = solve_sp(samples, profile, PARAMS)
        u_ro = eval_teleop_utility(ro.menu, samples, profile, PARAMS)
        u_sp = eval_teleop_utility(sp.menu, samples, profile, PARAMS)
        assert ro.objective <= sp.objective
        assert u_ro <= u_sp + 1e-9
