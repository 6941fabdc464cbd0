import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression as scipy_isotonic

from drcontract import (
    AmbiguityConfig,
    AspTypeProfile,
    BcdConfig,
    BcdState,
    NonPositiveDenominator,
    NumericError,
    QualitySampleSet,
    SizeMismatch,
    SupportInterval,
    UtilityParams,
    ValidationError,
    bcd_step,
    check_feasibility,
    grad_L,
    grad_lambda,
    iron_monotone,
    objective,
    solve,
    write_trace_csv,
)
from drcontract import bcd

PARAMS = UtilityParams()
SUPPORT = SupportInterval(60.0, 100.0)


def ambiguity(n, epsilon=None, tau=0.99):
    if epsilon is None:
        return AmbiguityConfig.derive(SUPPORT, tau, n)
    return AmbiguityConfig(SUPPORT, epsilon)


class TestObjective:
    def test_zero_lambda_unit_type(self):
        profile = AspTypeProfile(thetas=[1.0], alphas=[1.0])
        samples = QualitySampleSet([70.0, 80.0, 95.0])
        omega, xi_stars, s_values = objective(
            [0.0], 0.0, samples, ambiguity(3), profile, PARAMS
        )
        # every inner minimum sits at the support floor
        assert omega == pytest.approx(math.log(60.0), abs=1e-12)
        np.testing.assert_array_equal(xi_stars, 60.0)
        np.testing.assert_allclose(s_values, math.log(60.0))

    def test_zero_radius_drops_penalty_term(self):
        profile = AspTypeProfile(thetas=[110.0, 140.0], alphas=[0.5, 0.5])
        samples = QualitySampleSet([70.0, 90.0])
        for lam in (0.0, 1.0, 5.0):
            omega, _, s_values = objective(
                [3.0, 9.0], lam, samples, ambiguity(2, epsilon=0.0), profile, PARAMS
            )
            assert omega == pytest.approx(np.mean(s_values))

    def test_single_sample_mean(self):
        profile = AspTypeProfile(thetas=[110.0], alphas=[1.0])
        amb = ambiguity(1)
        omega, _, s_values = objective([4.0], 2.0, QualitySampleSet([75.0]), amb, profile, PARAMS)
        assert omega == pytest.approx(-2.0 * amb.epsilon + s_values[0])

    def test_rejects_negative_lambda(self):
        profile = AspTypeProfile(thetas=[110.0], alphas=[1.0])
        with pytest.raises(ValidationError):
            objective([0.0], -0.5, QualitySampleSet([75.0]), ambiguity(1), profile, PARAMS)


class TestGradients:
    def test_latency_gradient_hand_case(self):
        profile = AspTypeProfile(thetas=[100.0], alphas=[1.0])
        got = grad_L(np.full(5, 60.0), [0.0], profile, PARAMS)
        assert got == pytest.approx([1 / 60 - 1 / 100], abs=1e-12)

    def test_quality_only_utility(self):
        params = UtilityParams(gamma1=1.0, gamma2=1.0, gamma3=0.0)
        profile = AspTypeProfile(thetas=[110.0, 220.0], alphas=[0.3, 0.7])
        got = grad_L(np.array([70.0, 80.0]), [5.0, 9.0], profile, params)
        assert got == pytest.approx([-0.3 / 110, -0.7 / 220], abs=1e-15)

    def test_zero_probability_type_has_zero_gradient(self):
        profile = AspTypeProfile(thetas=[110.0, 140.0], alphas=[0.0, 1.0])
        got = grad_L(np.array([70.0]), [5.0, 9.0], profile, PARAMS)
        assert got[0] == 0.0

    def test_nonpositive_denominator(self):
        params = UtilityParams(gamma1=1.0, gamma2=1.0, gamma3=1.0)
        profile = AspTypeProfile(thetas=[110.0], alphas=[1.0])
        with pytest.raises(NonPositiveDenominator):
            grad_L(np.array([-5.0]), [0.0], profile, params)

    def test_lambda_gradient_at_anchors(self):
        xi = np.array([70.0, 80.0])
        assert grad_lambda(xi, xi, 3.0) == pytest.approx(-3.0)

    def test_lambda_gradient_unit_distances(self):
        assert grad_lambda(np.array([1.0, 3.0]), np.array([2.0, 2.0]), 0.0) == pytest.approx(1.0)

    def test_lambda_gradient_stationary_balance(self):
        eps = 8.5839
        assert grad_lambda(np.array([60.0]), np.array([60.0 + eps]), eps) == pytest.approx(0.0, abs=1e-12)

    def test_lambda_gradient_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            grad_lambda(np.array([1.0]), np.array([1.0, 2.0]), 0.0)


def pav_oracle(values, weights):
    """Independent ironing oracle: enumerate every contiguous partition,
    keep those whose block means are nondecreasing, take the least weighted
    squared error."""
    values = np.asarray(values, float)
    weights = np.asarray(weights, float)
    n = values.size
    best, best_err = None, np.inf
    for cuts in itertools.product([0, 1], repeat=n - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
        means = []
        fitted = np.empty(n)
        for a, b in zip(bounds, bounds[1:]):
            m = float(np.dot(weights[a:b], values[a:b]) / weights[a:b].sum())
            means.append(m)
            fitted[a:b] = m
        if any(m2 < m1 for m1, m2 in zip(means, means[1:])):
            continue
        err = float(np.dot(weights, (fitted - values) ** 2))
        if err < best_err:
            best, best_err = fitted, err
    return best


class TestIroning:
    def test_identity_on_monotone(self):
        np.testing.assert_array_equal(
            iron_monotone([1.0, 2.0, 3.0], [0.2, 0.3, 0.5]), [1.0, 2.0, 3.0]
        )

    def test_full_pool(self):
        np.testing.assert_allclose(iron_monotone([3.0, 1.0, 2.0], [1, 1, 1]), [2.0, 2.0, 2.0])

    def test_weighted_pool(self):
        np.testing.assert_allclose(iron_monotone([5.0, 1.0], [0.75, 0.25]), [4.0, 4.0])

    def test_matches_partition_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            vals = rng.uniform(-10, 10, n)
            weights = rng.uniform(0.1, 3.0, n)
            np.testing.assert_allclose(
                iron_monotone(vals, weights), pav_oracle(vals, weights), atol=1e-9
            )

    @given(
        values=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy(self, values, data):
        vals = np.array(values)
        weights = np.array(
            data.draw(st.lists(st.floats(1e-3, 1e3), min_size=vals.size, max_size=vals.size))
        )
        expected = scipy_isotonic(vals, weights=weights, increasing=True).x
        np.testing.assert_allclose(iron_monotone(vals, weights), expected, rtol=1e-9, atol=1e-9)

    @given(
        data=st.data(),
        n=st.integers(1, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_projection_properties(self, data, n):
        vals = np.array(data.draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n)))
        weights = np.array(data.draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n)))
        out = iron_monotone(vals, weights)
        assert np.all(np.diff(out) >= -1e-12)
        np.testing.assert_allclose(iron_monotone(out, weights), out, atol=1e-12)
        # projection never moves further from any monotone target
        target = np.sort(np.array(data.draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n))))
        d_out = float(np.dot(weights, (out - target) ** 2))
        d_in = float(np.dot(weights, (vals - target) ** 2))
        assert d_out <= d_in + 1e-9

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValidationError):
            iron_monotone([1.0, 2.0], [1.0, 0.0])


def small_instance(n_types=2, n_samples=12, seed=8, epsilon=None):
    rng = np.random.default_rng(seed)
    thetas = np.sort(rng.uniform(100, 260, n_types))
    alphas = rng.dirichlet(np.ones(n_types))
    profile = AspTypeProfile(thetas=thetas, alphas=alphas / alphas.sum())
    samples = QualitySampleSet(rng.uniform(60, 100, n_samples))
    amb = ambiguity(n_samples, epsilon=epsilon)
    return profile, samples, amb


class TestBcdStep:
    def _state(self, profile, samples, amb, lat, lam):
        omega, xi, s = objective(lat, lam, samples, amb, profile, PARAMS)
        return BcdState(
            latencies=np.asarray(lat, float), lam=lam, xi_stars=xi, s_values=s, objective=omega
        )

    def _step(self, state, samples, profile, amb, bcd_cfg=None):
        def evaluate(lat, lam):
            return objective(lat, lam, samples, amb, profile, PARAMS)

        return bcd_step(
            state, samples, amb.epsilon, evaluate, profile, PARAMS, bcd_cfg or BcdConfig()
        )

    def test_lambda_clamped_at_zero(self):
        profile, samples, amb = small_instance()
        state = self._state(profile, samples, amb, [5.0, 9.0], 0.0)
        # with lam = 0 the inner minimizers sit at the floor, so the mean
        # transport distance is positive; force a negative gradient via a
        # huge radius instead
        big = AmbiguityConfig(SUPPORT, 1e6)
        stepped = self._step(state, samples, profile, big)
        assert stepped.lam == 0.0

    def test_latencies_stay_monotone(self):
        profile, samples, amb = small_instance(n_types=5)
        state = self._state(profile, samples, amb, np.zeros(5), 6.0)
        for _ in range(5):
            state = self._step(state, samples, profile, amb)
            assert np.all(np.diff(state.latencies) >= -1e-12)
            assert np.all(state.latencies >= 0.0)
            assert state.lam >= 0.0

    def test_near_fixed_point_state_preserved(self):
        # at a constructed stationary point both gradients vanish
        profile = AspTypeProfile(thetas=[150.0], alphas=[1.0])
        samples = QualitySampleSet([80.0])
        amb = AmbiguityConfig(SUPPORT, 20.0)
        lat = [150.0 - 60.0]  # gradient zero when the minimizer is the floor
        state = self._state(profile, samples, amb, lat, 0.0)
        stepped = self._step(state, samples, profile, amb)
        assert stepped.latencies == pytest.approx(state.latencies, abs=1e-9)
        assert stepped.lam == 0.0
        assert stepped.objective == pytest.approx(state.objective, abs=1e-12)

    def test_step_reuses_the_state_minimizers(self):
        # the step reads the minimizers the last evaluation returned and
        # evaluates the objective exactly once, at the new point
        profile, samples, amb = small_instance(n_types=3)
        state = self._state(profile, samples, amb, np.zeros(3), 6.0)
        points = []

        def evaluate(lat, lam):
            points.append((lat.copy(), lam))
            return objective(lat, lam, samples, amb, profile, PARAMS)

        stepped = bcd_step(state, samples, amb.epsilon, evaluate, profile, PARAMS, BcdConfig())
        assert len(points) == 1
        np.testing.assert_array_equal(points[0][0], stepped.latencies)
        assert points[0][1] == stepped.lam

    def test_decreasing_latency_iterate_raises(self, monkeypatch):
        profile, samples, amb = small_instance(n_types=2)
        state = self._state(profile, samples, amb, [5.0, 9.0], 1.0)
        monkeypatch.setattr(bcd, "iron_monotone", lambda values, weights: np.array([2.0, 1.0]))
        with pytest.raises(NumericError, match="not nondecreasing"):
            self._step(state, samples, profile, amb)


@pytest.mark.filterwarnings("ignore:overflow encountered")
class TestNonFiniteIterates:
    def test_multiplier_overflow(self):
        # a radius below the mean floor distance makes the first step positive
        profile, samples, amb = small_instance(epsilon=1.0)
        cfg = BcdConfig(lambda_init=0.0, eta_lambda=1e308)
        with pytest.raises(NumericError, match="multiplier"):
            solve(samples, profile, PARAMS, amb, cfg)

    def test_latency_step_overflow(self):
        profile, samples, amb = small_instance()
        params = UtilityParams(gamma2=1e-6)
        with pytest.raises(NumericError, match="latency step"):
            solve(samples, profile, params, amb, BcdConfig(eta_L=1e308))

    def test_objective_overflow(self):
        profile, samples, amb = small_instance()
        cfg = BcdConfig(lambda_init=1e308, eta_lambda=0.0)
        with pytest.raises(NumericError, match="objective"):
            solve(samples, profile, PARAMS, amb, cfg)


class TestSolve:
    def test_determinism_bitwise(self):
        profile, samples, amb = small_instance(n_types=3, n_samples=20)
        cfg = BcdConfig(max_iters=120)
        a = solve(samples, profile, PARAMS, amb, cfg)
        b = solve(samples, profile, PARAMS, amb, cfg)
        assert np.array_equal(a.objective_trace, b.objective_trace)
        assert np.array_equal(a.latency_trace, b.latency_trace)
        assert np.array_equal(a.menu.latencies, b.menu.latencies)

    def test_report_invariants(self):
        profile, samples, amb = small_instance(n_types=4, n_samples=15)
        report = solve(samples, profile, PARAMS, amb, BcdConfig(max_iters=300))
        assert report.objective_trace.size == report.iterations_used
        assert report.latency_trace.shape == (report.iterations_used, 4)
        assert np.all(np.diff(report.menu.latencies) >= -1e-12)
        assert check_feasibility(report.menu, profile, 1.0, tol=1e-9).feasible
        # running best of the trace never decreases, and the final value
        # improves on the first iterate
        running = np.maximum.accumulate(report.objective_trace)
        assert np.all(np.diff(running) >= 0)
        assert report.objective >= report.objective_trace[0] - 1e-12

    def test_not_converging_is_reported_not_raised(self):
        profile, samples, amb = small_instance()
        report = solve(samples, profile, PARAMS, amb, BcdConfig(max_iters=3, conv_tol=1e-15))
        assert report.converged is False
        assert report.iterations_used == 3

    def test_single_type_objective_matches_joint_grid(self):
        profile = AspTypeProfile(thetas=[200.0], alphas=[1.0])
        rng = np.random.default_rng(31)
        samples = QualitySampleSet(rng.uniform(60, 100, 25))
        amb = ambiguity(25)
        report = solve(samples, profile, PARAMS, amb, BcdConfig())
        assert report.converged
        best = -np.inf
        for lat in np.arange(0.0, 200.0, 0.5):
            for lam in np.arange(0.0, 0.055, 0.005):
                omega, _, _ = objective([lat], lam, samples, amb, profile, PARAMS)
                best = max(best, omega)
        assert report.objective == pytest.approx(best, abs=1e-2)

    def test_theta_one_collapses_to_zero_latency(self):
        profile = AspTypeProfile(thetas=[1.0], alphas=[1.0])
        samples = QualitySampleSet(np.linspace(60, 100, 10))
        report = solve(samples, profile, PARAMS, ambiguity(10), BcdConfig(max_iters=50))
        assert report.menu.latencies[0] == 0.0
        assert report.menu.rewards[0] == 0.0

    def test_trace_csv(self, tmp_path):
        profile, samples, amb = small_instance()
        report = solve(samples, profile, PARAMS, amb, BcdConfig(max_iters=10, conv_tol=1e-15))
        path = tmp_path / "trace.csv"
        write_trace_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,objective,lambda,L_1,L_2"
        assert len(lines) == 11
        path2 = tmp_path / "trace_sp.csv"
        write_trace_csv(report, path2, method="sp")
        assert path2.read_text().splitlines()[0] == "method,iter,objective,lambda,L_1,L_2"
