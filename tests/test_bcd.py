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
    NonPositiveDenominator,
    NumericError,
    QualitySampleSet,
    RunConfig,
    SizeMismatch,
    SupportInterval,
    UtilityParams,
    ValidationError,
    check_feasibility,
    g_of_L,
    grad_L,
    grad_lambda,
    inner_candidates,
    inner_minima,
    iron_monotone,
    objective,
    solve,
    train_method,
    write_trace_csv,
)
from drcontract import bcd
from drcontract.inner import TYPE_BLOCK_POINTS

PARAMS = UtilityParams()
SUPPORT = SupportInterval(60.0, 100.0)


def ambiguity(n, epsilon=None, tau=0.99):
    if epsilon is None:
        return AmbiguityConfig.derive(SUPPORT, tau, n)
    return AmbiguityConfig(SUPPORT, epsilon)


def slacks(latencies, lam, samples, profile):
    """Each anchor's inner minimum net of the expected reward."""
    f_min, _ = inner_minima(
        latencies, lam, inner_candidates(samples.samples, SUPPORT), PARAMS, profile.alphas
    )
    return f_min - g_of_L(latencies, profile, PARAMS.gamma1)


class TestObjective:
    def test_zero_lambda_unit_type(self):
        profile = AspTypeProfile(thetas=[1.0], alphas=[1.0])
        samples = QualitySampleSet([70.0, 80.0, 95.0])
        candidates = inner_candidates(samples.samples, SUPPORT)
        omega, xi_stars = objective([0.0], 0.0, candidates, ambiguity(3).epsilon, profile, PARAMS)
        # every inner minimum sits at the support floor
        assert omega == pytest.approx(math.log(60.0), abs=1e-12)
        np.testing.assert_array_equal(xi_stars, 60.0)
        np.testing.assert_allclose(slacks([0.0], 0.0, samples, profile), math.log(60.0))

    def test_zero_radius_drops_penalty_term(self):
        profile = AspTypeProfile(thetas=[110.0, 140.0], alphas=[0.5, 0.5])
        samples = QualitySampleSet([70.0, 90.0])
        candidates = inner_candidates(samples.samples, SUPPORT)
        for lam in (0.0, 1.0, 5.0):
            omega, _ = objective([3.0, 9.0], lam, candidates, 0.0, profile, PARAMS)
            assert omega == pytest.approx(np.mean(slacks([3.0, 9.0], lam, samples, profile)))

    def test_single_sample_mean(self):
        profile = AspTypeProfile(thetas=[110.0], alphas=[1.0])
        amb = ambiguity(1)
        samples = QualitySampleSet([75.0])
        candidates = inner_candidates(samples.samples, SUPPORT)
        omega, _ = objective([4.0], 2.0, candidates, amb.epsilon, profile, PARAMS)
        assert omega == pytest.approx(-2.0 * amb.epsilon + slacks([4.0], 2.0, samples, profile)[0])

    def test_rejects_negative_lambda(self):
        profile = AspTypeProfile(thetas=[110.0], alphas=[1.0])
        with pytest.raises(ValidationError):
            objective([0.0], -0.5, inner_candidates([75.0], SUPPORT), 1.0, profile, PARAMS)


def per_type_grad_L(xi_stars, latencies, profile, params=PARAMS):
    """Reference: the per-type loop the blocked latency gradient replaced."""
    xi = np.asarray(xi_stars, dtype=float)
    inverse_sums = np.empty(len(latencies))
    for i, lat_i in enumerate(np.asarray(latencies, dtype=float)):
        denom = params.gamma2 * xi + params.gamma3 * lat_i
        if np.any(denom <= 0.0):
            raise NonPositiveDenominator("gamma2*xi + gamma3*L must be > 0")
        inverse_sums[i] = np.cumsum(1.0 / denom)[-1]
    benefit = params.gamma3 * (inverse_sums / xi.size)
    return profile.alphas * (benefit - params.gamma1 / profile.thetas)


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

    @given(
        n_types=st.integers(1, 64),
        n_samples=st.one_of(
            st.integers(1, 600),
            st.sampled_from([TYPE_BLOCK_POINTS // k + d for k in (64, 7, 2, 1) for d in (0, 1)]),
            st.integers(600, 40_000),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_latency_gradient_matches_the_per_type_loop(self, n_types, n_samples, seed):
        rng = np.random.default_rng(seed)
        profile = AspTypeProfile(
            thetas=np.sort(rng.uniform(100.0, 260.0, n_types)),
            alphas=rng.dirichlet(np.ones(n_types)),
        )
        xi = rng.uniform(60.0, 100.0, n_samples)
        lat = np.sort(rng.uniform(0.0, 150.0, n_types))
        got = grad_L(xi, lat, profile, PARAMS)
        assert np.array_equal(got, per_type_grad_L(xi, lat, profile))
        # a nonpositive denominator in a later block raises as the loop does
        per_block = max(1, TYPE_BLOCK_POINTS // xi.size)
        bad = int(rng.integers(min(per_block, n_types - 1), n_types))
        lat[bad:] = -2.0 * PARAMS.gamma2 * float(np.max(xi)) / PARAMS.gamma3
        with pytest.raises(NonPositiveDenominator):
            per_type_grad_L(xi, lat, profile)
        with pytest.raises(NonPositiveDenominator):
            grad_L(xi, lat, profile, PARAMS)

    @pytest.mark.parametrize("xi", [70.0, np.array(70.0), np.full((2, 3), 70.0)])
    def test_latency_gradient_needs_1d_minimizers(self, xi):
        profile = AspTypeProfile(thetas=[110.0, 140.0], alphas=[0.5, 0.5])
        with pytest.raises(ValidationError, match="1-D"):
            grad_L(xi, [5.0, 9.0], profile, PARAMS)

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

    @given(data=st.data(), n=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_nondecreasing_input_moves_at_most_one_ulp(self, data, n):
        # neighbours more than 2 ulps apart, so no rounded singleton mean can
        # cross its neighbour's; magnitudes keep w * v a normal float
        value = st.one_of(st.just(0.0), st.floats(1e-150, 1e150), st.floats(-1e150, -1e-150))
        drawn = sorted(data.draw(st.lists(value, min_size=n, max_size=n)))
        vals = [drawn[0]]
        for v in drawn[1:]:
            if v - vals[-1] > 2 * np.spacing(max(abs(v), abs(vals[-1]))):
                vals.append(v)
        vals, n = np.array(vals), len(vals)
        weights = np.array(data.draw(st.lists(st.floats(1e-12, 1e3), min_size=n, max_size=n)))
        out = iron_monotone(vals, weights)
        assert np.all(np.abs(out - vals) <= np.spacing(np.abs(vals)))

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
    """Single iterations of the ascent loop, driven through ``solve`` with a
    small iteration budget from a chosen start point."""

    def test_lambda_clamped_at_zero(self):
        profile, samples, _ = small_instance()
        # a huge radius makes the multiplier gradient hugely negative
        big = AmbiguityConfig(SUPPORT, 1e6)
        report = solve(samples, profile, PARAMS, big, BcdConfig(max_iters=1, L_init=5.0))
        assert report.lambda_trace.tolist() == [0.0]

    def test_latencies_stay_monotone(self):
        profile, samples, amb = small_instance(n_types=5)
        report = solve(samples, profile, PARAMS, amb, BcdConfig(max_iters=5, conv_tol=1e-15))
        assert report.iterations_used == 5
        assert np.all(np.diff(report.latency_trace, axis=1) >= -1e-12)
        assert np.all(report.latency_trace >= 0.0)
        assert np.all(report.lambda_trace >= 0.0)

    def test_near_fixed_point_state_preserved(self):
        # at a constructed stationary point both gradients vanish
        profile = AspTypeProfile(thetas=[150.0], alphas=[1.0])
        samples = QualitySampleSet([80.0])
        amb = AmbiguityConfig(SUPPORT, 20.0)
        lat = 150.0 - 60.0  # gradient zero when the minimizer is the floor
        candidates = inner_candidates(samples.samples, SUPPORT)
        start, _ = objective([lat], 0.0, candidates, amb.epsilon, profile, PARAMS)
        cfg = BcdConfig(max_iters=1, L_init=lat, lambda_init=0.0)
        report = solve(samples, profile, PARAMS, amb, cfg)
        assert report.latency_trace[0] == pytest.approx([lat], abs=1e-9)
        assert report.lambda_trace[0] == 0.0
        assert report.objective_trace[0] == pytest.approx(start, abs=1e-12)

    def test_step_reuses_the_state_minimizers(self, monkeypatch):
        # each step reads the minimizers the last evaluation returned, and
        # the objective is evaluated once per iteration, at the traced point
        profile, samples, amb = small_instance(n_types=3)
        points, returned, read = [], [], []

        def traced_objective(lat, lam, *args):
            points.append((lat.copy(), lam))
            omega, xi = objective(lat, lam, *args)
            returned.append(xi)
            return omega, xi

        def traced_grad_L(xi, *args):
            read.append(xi)
            return grad_L(xi, *args)

        monkeypatch.setattr(bcd, "objective", traced_objective)
        monkeypatch.setattr(bcd, "grad_L", traced_grad_L)
        report = solve(samples, profile, PARAMS, amb, BcdConfig(max_iters=3, conv_tol=1e-15))
        assert len(points) == 1 + report.iterations_used == 4
        assert all(xi is returned[k] for k, xi in enumerate(read))
        for (lat, lam), traced_lat, traced_lam in zip(
            points[1:], report.latency_trace, report.lambda_trace
        ):
            np.testing.assert_array_equal(lat, traced_lat)
            assert lam == traced_lam

    def test_decreasing_latency_iterate_raises(self, monkeypatch):
        profile, samples, amb = small_instance(n_types=2)
        calls = []

        def bad_iron(values, weights):
            # the start point is projected honestly; the first step is not
            calls.append(values)
            return iron_monotone(values, weights) if len(calls) == 1 else np.array([2.0, 1.0])

        monkeypatch.setattr(bcd, "iron_monotone", bad_iron)
        cfg = BcdConfig(max_iters=1, L_init=5.0, lambda_init=1.0)
        with pytest.raises(NumericError, match="not nondecreasing"):
            solve(samples, profile, PARAMS, amb, cfg)


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
        candidates = inner_candidates(samples.samples, SUPPORT)
        for lat in np.arange(0.0, 200.0, 0.5):
            for lam in np.arange(0.0, 0.055, 0.005):
                omega, _ = objective([lat], lam, candidates, amb.epsilon, profile, PARAMS)
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


@pytest.fixture(scope="module")
def reference_components():
    cfg = RunConfig()
    train = cfg.train_samples()
    return train, cfg.profile(), cfg.params(), cfg.ambiguity_for(train.n), cfg.bcd_config()


class TestReferenceSolves:
    """The seed-0 reference solves, pinned bit for bit: iterations, final
    objective and menu of each method."""

    EXPECTED = {
        "dro": (
            700,
            "4.3697634359604365",
            [29.730205338458795, 58.37087107767291, 92.0094488818048, 116.7669538304858,
             136.76846749694644, 151.64448400200743, 161.45802934763762, 167.06151771391688],
            [0.270274593985989, 0.4748507778375184, 0.6670712224325578, 0.7908587471759628,
             0.8817747183871476, 0.9450769162810242, 0.9851322034060453, 1.0075461568711623],
        ),
        "sp": (
            11,
            "4.5360294063868025",
            [20.605387794623997, 38.00096808336001, 40.3490590712918, 44.75698022204587,
             54.763930337968446, 54.763930337968446, 54.763930337968446, 91.54124198234486],
            [0.18732170722385452, 0.31157585214339745, 0.32499351493157913, 0.34703312068534947,
             0.39251925757590667, 0.39251925757590667, 0.39251925757590667, 0.5396285041534123],
        ),
        "ro": (
            12,
            "4.323076455125673",
            [42.18921007087048, 59.06782643123191, 60.64140992762793, 64.44042103698749,
             74.87634745730061, 74.87634745730061, 74.87634745730061, 116.24833879369454],
            [0.38353827337154983, 0.5040998188027028, 0.5130917244963944, 0.5320867800431922,
             0.5795228092264337, 0.5795228092264337, 0.5795228092264337, 0.7450107745720095],
        ),
    }

    @pytest.mark.parametrize("method", ["dro", "sp", "ro"])
    def test_seed_zero_solve(self, reference_components, method):
        report = train_method(method, *reference_components)
        iterations, objective_repr, latencies, rewards = self.EXPECTED[method]
        assert report.converged
        assert report.iterations_used == iterations
        assert repr(report.objective) == objective_repr
        assert report.menu.latencies.tolist() == latencies
        assert report.menu.rewards.tolist() == rewards
