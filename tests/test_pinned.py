"""The sample-average (sp) and worst-case (ro) menus, trained through
``train_method`` on the pinned ascent engine."""

import numpy as np
import pytest

from drcontract import (
    AmbiguityConfig,
    AspTypeProfile,
    QualitySampleSet,
    RunConfig,
    SupportInterval,
    UtilityParams,
    check_feasibility,
    eval_teleop_utility,
    solve_pinned,
    train_method,
)

PARAMS = UtilityParams()
SUPPORT = SupportInterval(60.0, 100.0)


def train_sp(samples, profile, cfg=None):
    return train_method("sp", samples, profile, PARAMS, AmbiguityConfig(SUPPORT, 0.0), cfg)


def train_ro(support, profile, samples=QualitySampleSet([80.0])):
    return train_method("ro", samples, profile, PARAMS, AmbiguityConfig(support, 0.0))


def instance(n_types=3, n_samples=30, seed=13):
    rng = np.random.default_rng(seed)
    thetas = np.sort(rng.uniform(100, 260, n_types))
    alphas = rng.dirichlet(np.ones(n_types))
    profile = AspTypeProfile(thetas=thetas, alphas=alphas / alphas.sum())
    samples = QualitySampleSet(rng.uniform(60, 100, n_samples))
    return profile, samples


class TestSampleAverage:
    def test_engine_reduction_equivalence(self):
        # sp IS the shared engine run in pinned mode, and the engine holds
        # the multiplier at zero whatever the configured initial value
        profile, samples = instance()
        direct = train_sp(samples, profile, RunConfig(lambda_init=6.0))
        engine = solve_pinned(samples.samples, profile, PARAMS, RunConfig(lambda_init=0.0))
        assert direct.objective == engine.objective
        np.testing.assert_array_equal(direct.menu.latencies, engine.menu.latencies)
        assert np.all(direct.lambda_trace == 0.0)

    def test_permutation_invariance(self):
        profile, samples = instance()
        shuffled = QualitySampleSet(samples.samples[::-1].copy())
        a = train_sp(samples, profile)
        b = train_sp(shuffled, profile)
        assert a.objective == pytest.approx(b.objective, abs=1e-12)
        np.testing.assert_allclose(a.menu.latencies, b.menu.latencies, atol=1e-12)

    def test_degenerate_theta_rests_at_zero(self):
        # theta = 1: the marginal reward cost always exceeds the log benefit
        # slope on this support, so the latency stays clamped at zero, which
        # is also the scalar grid optimum
        profile = AspTypeProfile(thetas=[1.0], alphas=[1.0])
        samples = QualitySampleSet(np.linspace(60, 100, 20))
        report = train_sp(samples, profile)
        assert report.menu.latencies[0] == 0.0
        values = samples.samples
        grid = np.arange(0.0, 50.0, 0.01)
        objs = [float(np.mean(np.log(values + lat))) - lat / 1.0 for lat in grid]
        assert grid[int(np.argmax(objs))] == 0.0

    def test_single_type_objective_matches_scalar_grid(self):
        profile = AspTypeProfile(thetas=[200.0], alphas=[1.0])
        rng = np.random.default_rng(17)
        samples = QualitySampleSet(rng.uniform(60, 100, 40))
        report = train_sp(samples, profile)
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
        report = train_sp(samples, profile)
        check_feasibility(report.menu, profile, 1.0)


class TestWorstCase:
    def test_ignores_samples_entirely(self):
        profile, samples = instance()
        a = train_ro(SUPPORT, profile, samples)
        b = train_ro(SUPPORT, profile, QualitySampleSet([1.0, 500.0]))
        assert a.iterations_used > 0
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
        np.testing.assert_array_equal(a.menu.latencies, b.menu.latencies)

    def test_equals_sample_average_on_floor_constants(self):
        profile, _ = instance(n_types=4)
        constant = QualitySampleSet(np.full(25, SUPPORT.lo))
        ro = train_ro(SUPPORT, profile)
        sp = train_sp(constant, profile)
        np.testing.assert_allclose(ro.menu.latencies, sp.menu.latencies, atol=1e-6)
        assert ro.objective == pytest.approx(sp.objective, abs=1e-6)

    def test_degenerate_support_collapses_to_sample_average(self):
        profile, _ = instance(n_types=2)
        tiny = SupportInterval(60.0, 60.0 + 1e-6)
        constant = QualitySampleSet(np.full(10, 60.0))
        ro = train_ro(tiny, profile)
        sp = train_sp(constant, profile)
        np.testing.assert_allclose(ro.menu.latencies, sp.menu.latencies, atol=1e-3)

    def test_menu_feasible(self):
        profile, _ = instance(n_types=6)
        report = train_ro(SUPPORT, profile)
        check_feasibility(report.menu, profile, 1.0)

    def test_conservative_on_clean_data(self):
        # scoring each menu on its own training objective: the worst-case
        # menu cannot beat the sample-average menu on in-support data
        profile, samples = instance(n_types=3, seed=5)
        ro = train_ro(SUPPORT, profile)
        sp = train_sp(samples, profile)
        u_ro = eval_teleop_utility(ro.menu, samples, profile, PARAMS)
        u_sp = eval_teleop_utility(sp.menu, samples, profile, PARAMS)
        assert ro.objective <= sp.objective
        assert u_ro <= u_sp + 1e-9


class TestScorerAgreement:
    """The scorer assembles the operator utility as the pinned solver
    assembles its objective, so each seed-0 reference menu scored on its
    own training points reproduces its objective bit for bit."""

    CFG = RunConfig(seed=0)

    def train(self, method):
        cfg = self.CFG
        train = cfg.train_samples()
        amb = cfg.ambiguity_for(train.n)
        return train_method(method, train, cfg.profile(), cfg.params(), amb, cfg)

    def test_sp_objective_is_its_training_score(self):
        report = self.train("sp")
        train = self.CFG.train_samples()
        score = eval_teleop_utility(report.menu, train, self.CFG.profile(), self.CFG.params())
        assert score == report.objective

    def test_ro_objective_is_its_score_at_the_floor(self):
        report = self.train("ro")
        floor = QualitySampleSet([self.CFG.support().lo])
        score = eval_teleop_utility(report.menu, floor, self.CFG.profile(), self.CFG.params())
        assert score == report.objective
