import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drcontract import (
    AmbiguityConfig,
    AspTypeProfile,
    DataError,
    NonPositiveLogArgument,
    NumericError,
    RunConfig,
    SupportInterval,
    UtilityParams,
    ValidationError,
    expected_reward,
    inject_extreme_points,
    inner_candidates,
    inner_minima,
    objectives,
    rewards_from_latencies,
    solve,
    weighted_log,
)
from drcontract import inner
from drcontract.inner import (
    TYPE_BLOCK_POINTS,
    least_argument,
    log_blocks,
    multiplier_argmax,
)

PARAMS = UtilityParams()
SUPPORT = SupportInterval(60.0, 100.0)


def grid_min(latencies, lam, anchor, support, alphas, step=1e-3, params=PARAMS):
    """Dense-grid oracle for the penalized log benefit (vectorized).

    The penalty has a kink at the anchor, so the anchor joins the grid when
    it lies in the support; otherwise the grid error at the kink would be
    lam * step / 2.
    """
    n_points = int(round(support.diameter / step)) + 1
    xs = np.linspace(support.lo, support.hi, n_points)
    if support.lo <= anchor <= support.hi:
        xs = np.append(xs, anchor)
    total = np.zeros_like(xs)
    for a, lat in zip(alphas, latencies):
        total += a * np.log(params.gamma2 * xs + params.gamma3 * lat)
    total += lam * np.abs(xs - anchor)
    k = int(np.argmin(total))
    return float(xs[k]), float(total[k])


def minimize(latencies, lam, candidates, params, alphas):
    """``inner_minima`` with the winners turned into the minimizers xi*."""
    h = weighted_log(candidates.points, latencies, alphas, params)
    f_min, wins = inner_minima(h, lam, candidates)
    return f_min, np.where(wins, candidates.points[1:], candidates.points[0])


def f_n(xi, latencies, lam, anchor, params, alphas):
    """Penalized log benefit h(xi) + lam * |xi - anchor| at one quality point."""
    h = weighted_log(np.array([xi]), latencies, alphas, params)[0]
    return float(h) + lam * abs(xi - anchor)


class TestPenalizedBenefit:
    def test_pure_log_at_zero_latency(self):
        assert f_n(60.0, [0.0], 0.0, 75.0, PARAMS, [1.0]) == pytest.approx(
            math.log(60.0), abs=1e-12
        )

    def test_zero_lambda_ignores_anchor(self):
        for anchor in (0.0, 50.0, 200.0):
            assert f_n(70.0, [5.0, 9.0], 0.0, anchor, PARAMS, [0.4, 0.6]) == pytest.approx(
                f_n(70.0, [5.0, 9.0], 0.0, 0.0, PARAMS, [0.4, 0.6])
            )

    def test_zero_penalty_at_anchor(self):
        for lam in (0.0, 1.0, 50.0):
            assert f_n(80.0, [2.0], lam, 80.0, PARAMS, [1.0]) == pytest.approx(
                math.log(82.0), abs=1e-12
            )

    def test_nonpositive_log_argument(self):
        with pytest.raises(NonPositiveLogArgument):
            f_n(0.0, [0.0], 0.0, 0.0, PARAMS, [1.0])


def reward_sum(latencies, profile, gamma1=1.0):
    """Expected reward of the constructed menu at ``latencies``."""
    return expected_reward(rewards_from_latencies(latencies, profile, gamma1), profile.alphas)


class TestExpectedReward:
    def test_zero_latencies(self):
        assert reward_sum([0.0, 0.0], AspTypeProfile([110, 140], [0.5, 0.5])) == 0.0

    def test_single_type(self):
        assert reward_sum([5.0], AspTypeProfile([1.0], [1.0])) == pytest.approx(5.0)

    def test_hand_evaluated(self):
        got = reward_sum([10.0, 20.0], AspTypeProfile([110.0, 140.0], [0.25, 0.75]))
        assert got == pytest.approx(0.25 * (10 / 110) + 0.75 * (10 / 110 + 10 / 140), abs=1e-12)

    def test_matches_reward_dot_product(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            thetas = np.sort(rng.uniform(50, 400, n))
            alphas = rng.dirichlet(np.ones(n))
            profile = AspTypeProfile(thetas=thetas, alphas=alphas / alphas.sum())
            lat = np.sort(rng.uniform(0, 200, n))
            rewards = rewards_from_latencies(lat, profile, 1.0)
            assert reward_sum(lat, profile) == pytest.approx(
                float(profile.alphas @ rewards), abs=1e-12
            )

    def test_accumulates_in_type_order(self):
        # sum_i alpha_i * R_i added type by type, bit for bit
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(1, 65))
            thetas = np.sort(rng.uniform(50, 400, n))
            alphas = rng.dirichlet(np.ones(n))
            profile = AspTypeProfile(thetas=thetas, alphas=alphas / alphas.sum())
            lat = np.sort(rng.uniform(0, 200, n))
            total = 0.0
            for alpha, reward in zip(profile.alphas, rewards_from_latencies(lat, profile, 1.0)):
                total += alpha * reward
            assert reward_sum(lat, profile) == total

    def test_stack_rows_match_single_menus(self):
        # each row of a stack bit for bit as the menu alone, whatever the
        # stack's height
        rng = np.random.default_rng(13)
        for n in (1, 2, 8, 64):
            thetas = np.sort(rng.uniform(50, 400, n))
            profile = AspTypeProfile(thetas=thetas, alphas=rng.dirichlet(np.ones(n)))
            lat = np.sort(rng.uniform(0, 200, (37, n)), axis=1)
            stacked = reward_sum(lat, profile)
            assert stacked.shape == (37,)
            assert stacked.tolist() == [reward_sum(row, profile) for row in lat]
            assert reward_sum(lat[5:9], profile).tolist() == stacked[5:9].tolist()

    def test_rejects_size_mismatch(self):
        with pytest.raises(DataError, match="2 alphas vs 3 rewards"):
            expected_reward(np.array([1.0, 2.0, 3.0]), [0.5, 0.5])

    def test_rejects_decreasing(self):
        with pytest.raises(NumericError, match="latencies must be nondecreasing within"):
            reward_sum([3.0, 1.0], AspTypeProfile([110, 140], [0.5, 0.5]))


def marginal_benefit(xi, latencies, alphas, params=PARAMS):
    """h'(xi) = sum_i alpha_i * gamma2 / (gamma2*xi + gamma3*L_i)."""
    return sum(
        a * params.gamma2 / (params.gamma2 * xi + params.gamma3 * lat)
        for a, lat in zip(alphas, latencies)
    )


class TestNoStationaryCandidate:
    """The root of h'(xi) = lam on [lo, anchor] is the maximum of that
    concave branch, so the closed-form kernel never needs it."""

    def test_closed_form_root(self):
        # single type, zero latency: h'(xi) = 1/xi = lam at xi = 80
        lam, anchor = 1 / 80, 90.0
        f_root = f_n(80.0, [0.0], lam, anchor, PARAMS, [1.0])
        assert f_root > f_n(60.0, [0.0], lam, anchor, PARAMS, [1.0])
        assert f_root > f_n(anchor, [0.0], lam, anchor, PARAMS, [1.0])
        f_min, xi_star = minimize(
            [0.0], lam, inner_candidates([anchor], SUPPORT), PARAMS, [1.0]
        )
        assert xi_star[0] in (SUPPORT.lo, anchor)
        assert f_min[0] < f_root

    def test_root_outside_interval_absent(self):
        # the root at 80 lies beyond the anchor: the branch only increases
        _, xi_star = minimize([0.0], 1 / 80, inner_candidates([70.0], SUPPORT), PARAMS, [1.0])
        assert xi_star[0] == SUPPORT.lo

    def test_large_lambda_absent(self):
        # h' < lam everywhere: the branch only decreases towards the anchor
        _, xi_star = minimize([0.0], 10.0, inner_candidates([90.0], SUPPORT), PARAMS, [1.0])
        assert xi_star[0] == 90.0

    def test_zero_lambda_absent(self):
        # without a penalty f = h is increasing, so the floor wins everywhere
        f_min, xi_star = minimize(
            [3.0], 0.0, inner_candidates([10.0, 75.0, 130.0], SUPPORT), PARAMS, [1.0]
        )
        np.testing.assert_array_equal(xi_star, SUPPORT.lo)
        np.testing.assert_allclose(f_min, math.log(63.0), atol=1e-12)

    def test_marginal_benefit_strictly_decreasing(self):
        # h is increasing and concave: the premise of the closed form
        rng = np.random.default_rng(2)
        xs = np.linspace(60.0, 100.0, 41)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            lat = np.sort(rng.uniform(0, 100, n))
            alphas = rng.dirichlet(np.ones(n))
            h = weighted_log(xs, lat, alphas, PARAMS)
            assert np.all(np.diff(h) > 0.0)
            assert np.all(np.diff(h, 2) < 0.0)

    def test_multi_type_root_against_grid(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            lat = np.sort(rng.uniform(0, 60, n))
            alphas = rng.dirichlet(np.ones(n))
            anchor = float(rng.uniform(61, 100))
            # lam between the endpoint marginals puts a root inside (lo, anchor)
            m_lo, m_anchor = (marginal_benefit(x, lat, alphas) for x in (60.0, anchor))
            lam = 0.5 * (m_lo + m_anchor)
            f_min, xi_star = minimize(
                lat, lam, inner_candidates([anchor], SUPPORT), PARAMS, alphas
            )
            assert xi_star[0] in (SUPPORT.lo, anchor)
            _, fmin = grid_min(lat, lam, anchor, SUPPORT, alphas)
            assert f_min[0] == pytest.approx(fmin, abs=1e-4)
            assert f_min[0] <= fmin + 1e-12


class TestInnerMinima:
    def test_zero_lambda_floor_wins(self):
        f_min, xi_star = minimize([0.0], 0.0, inner_candidates([75.0], SUPPORT), PARAMS, [1.0])
        assert xi_star[0] == SUPPORT.lo
        assert f_min[0] == pytest.approx(math.log(60.0), abs=1e-12)

    def test_outside_anchor_large_lambda_floor_wins(self):
        _, xi_star = minimize([0.0], 50.0, inner_candidates([1.0], SUPPORT), PARAMS, [1.0])
        assert xi_star[0] == SUPPORT.lo

    def test_huge_lambda_sticks_to_anchor(self):
        _, xi_star = minimize([0.0], 1e6, inner_candidates([83.0], SUPPORT), PARAMS, [1.0])
        assert xi_star[0] == 83.0

    def test_value_consistent_with_f(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            lat = np.sort(rng.uniform(0, 150, n))
            alphas = rng.dirichlet(np.ones(n))
            lam = float(rng.uniform(0, 2))
            anchor = float(rng.uniform(0, 140))
            f_min, xi_star = minimize(
                lat, lam, inner_candidates([anchor], SUPPORT), PARAMS, alphas
            )
            again = f_n(xi_star[0], lat, lam, anchor, PARAMS, alphas)
            assert f_min[0] == pytest.approx(again, abs=1e-12)
            assert SUPPORT.lo <= xi_star[0] <= SUPPORT.hi

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            lat = np.sort(rng.uniform(0, 150, n))
            alphas = rng.dirichlet(np.ones(n))
            lam = float(rng.uniform(0, 1))
            anchor = float(rng.uniform(0, 140))
            candidates = inner_candidates([anchor], SUPPORT)
            h = weighted_log(candidates.points, lat, alphas, PARAMS)
            f_min, _ = inner_minima(h, lam, candidates)
            _, fmin = grid_min(lat, lam, anchor, SUPPORT, alphas)
            assert f_min[0] == pytest.approx(fmin, abs=1e-4)
            assert f_min[0] <= fmin + 1e-12  # never worse than any grid point

    def test_negative_lambda_rejected(self):
        candidates = inner_candidates([80.0], SUPPORT)
        h = weighted_log(candidates.points, [0.0], [1.0], PARAMS)
        with pytest.raises(ValidationError):
            inner_minima(h, -1.0, candidates)


class TestSlackValue:
    """A slack is an anchor's inner minimum net of the expected reward: the
    value the robust objective averages, so with one anchor the objective is
    the slack less ``lam * epsilon``."""

    AMB = AmbiguityConfig.derive(SUPPORT, 0.9, 1)

    def test_zero_latency_slack_is_inner_value(self):
        candidates = inner_candidates([80.0], SUPPORT)
        h = weighted_log(candidates.points, [0.0], [1.0], PARAMS)
        f_min, _ = inner_minima(h, 0.0, candidates)
        profile = AspTypeProfile(thetas=[1.0], alphas=[1.0])
        got = objectives([0.0], 0.0, candidates, self.AMB.epsilon, profile, PARAMS)[0]
        assert got == pytest.approx(f_min[0])
        assert got == pytest.approx(math.log(60.0), abs=1e-12)

    def test_deterministic(self):
        candidates = inner_candidates([77.0], SUPPORT)
        h = weighted_log(candidates.points, [3.0, 8.0], [0.6, 0.4], PARAMS)
        f_min, _ = inner_minima(h, 0.7, candidates)
        profile = AspTypeProfile(thetas=[110.0, 140.0], alphas=[0.6, 0.4])
        penalty = 0.7 * self.AMB.epsilon
        a = objectives([3.0, 8.0], 0.7, candidates, self.AMB.epsilon, profile, PARAMS)[0] + penalty
        b = objectives([3.0, 8.0], 0.7, candidates, self.AMB.epsilon, profile, PARAMS)[0] + penalty
        assert a == b
        reward = reward_sum([3.0, 8.0], profile, PARAMS.gamma1)
        assert a == pytest.approx(f_min[0] - reward, abs=1e-12)


def enumerate_candidates(latencies, lam, anchor, support, alphas, params=PARAMS):
    """Scalar reference: (value, xi) of lo, the anchor when it lies in the
    support, and hi, in that order, each summed type by type with math.log."""

    def f(xi):
        total = 0.0
        for a, lat in zip(alphas, latencies):
            total += a * math.log(params.gamma2 * xi + params.gamma3 * lat)
        return total + lam * abs(xi - anchor)

    points = [support.lo]
    if support.lo <= anchor <= support.hi:
        points.append(anchor)
    points.append(support.hi)
    return [(f(xi), xi) for xi in points]


@st.composite
def inner_instances(draw):
    n_types = draw(st.integers(1, 8))
    lat = sorted(draw(st.lists(st.floats(0.0, 150.0), min_size=n_types, max_size=n_types)))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n_types, max_size=n_types))
    alphas = np.array(weights) / sum(weights)
    lam = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    anchor = st.one_of(
        st.sampled_from([SUPPORT.lo, SUPPORT.hi]),  # the anchor ties with an endpoint
        st.floats(SUPPORT.lo, SUPPORT.hi),
        st.floats(-50.0, 200.0),
    )
    anchors = np.array(draw(st.lists(anchor, min_size=1, max_size=12)))
    return np.array(lat), alphas, lam, anchors


class TestInnerKernel:
    @given(inner_instances())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_enumeration(self, instance):
        lat, alphas, lam, anchors = instance
        f_min, xi_star = minimize(lat, lam, inner_candidates(anchors, SUPPORT), PARAMS, alphas)
        for k, anchor in enumerate(anchors.tolist()):
            candidates = enumerate_candidates(lat, lam, anchor, SUPPORT, alphas)
            best_value, best_xi = candidates[0]
            for value, xi in candidates[1:]:  # strictly lower wins: ties go to the smaller xi
                if value < best_value:
                    best_value, best_xi = value, xi
            assert f_min[k] == pytest.approx(best_value, rel=1e-13, abs=1e-13)
            # np.log and math.log may differ in the last bit, so a candidate
            # within that noise of the minimum may legitimately win instead
            noise = 1e-12 * abs(best_value) + 1e-13
            near = [xi for value, xi in candidates if value - best_value <= noise]
            if len(near) == 1:
                assert xi_star[k] == best_xi
            else:
                assert xi_star[k] in near

    @given(inner_instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_grid(self, instance):
        lat, alphas, lam, anchors = instance
        f_min, xi_star = minimize(lat, lam, inner_candidates(anchors, SUPPORT), PARAMS, alphas)
        for k, anchor in enumerate(anchors.tolist()):
            _, grid_value = grid_min(lat, lam, anchor, SUPPORT, alphas)
            assert f_min[k] == pytest.approx(grid_value, abs=1e-4)
            assert f_min[k] <= grid_value + 1e-12  # never worse than any grid point
            assert f_min[k] == pytest.approx(
                f_n(xi_star[k], lat, lam, anchor, PARAMS, alphas), abs=1e-12
            )

    def test_ties_break_toward_the_smaller_xi(self):
        # an anchor on an endpoint makes two candidates one point
        _, at_lo = minimize([5.0], 0.3, inner_candidates([SUPPORT.lo], SUPPORT), PARAMS, [1.0])
        assert at_lo[0] == SUPPORT.lo
        _, at_hi = minimize([5.0], 1e6, inner_candidates([SUPPORT.hi], SUPPORT), PARAMS, [1.0])
        assert at_hi[0] == SUPPORT.hi

    def test_exact_ties_with_the_floor_go_to_lo(self):
        # walk lam by ulps until lo ties exactly with the anchor (inside the
        # support) or with hi (anchor above it); lo must then win
        for anchor, rival in ((80.0, 80.0), (130.0, SUPPORT.hi)):
            h_lo, h_rival = weighted_log(np.array([SUPPORT.lo, rival]), [0.0], [1.0], PARAMS)
            lam = (h_rival - h_lo) / (rival - SUPPORT.lo)
            for _ in range(64):
                v_lo = h_lo + lam * abs(SUPPORT.lo - anchor)
                v_rival = h_rival + lam * abs(rival - anchor)
                if v_lo == v_rival:
                    break
                lam = np.nextafter(lam, np.inf if v_lo < v_rival else -np.inf)
            assert v_lo == v_rival
            f_min, xi_star = minimize(
                [0.0], lam, inner_candidates([anchor], SUPPORT), PARAMS, [1.0]
            )
            assert (xi_star[0], f_min[0]) == (SUPPORT.lo, v_lo)

    def test_candidates_are_the_floor_and_the_projection(self):
        points = inner_candidates(np.array([10.0, 60.0, 75.0, 100.0, 130.0]), SUPPORT).points
        np.testing.assert_array_equal(points, [60.0, 60.0, 60.0, 75.0, 100.0, 100.0])

    def test_anchor_above_support_can_pick_hi(self):
        _, xi_star = minimize([0.0], 1.0, inner_candidates([130.0], SUPPORT), PARAMS, [1.0])
        assert xi_star[0] == SUPPORT.hi

    def test_anchor_outside_support_is_never_evaluated(self):
        # ln(gamma2 * anchor) is undefined here, but only lo and hi compete
        f_min, xi_star = minimize([0.0], 0.5, inner_candidates([-20.0], SUPPORT), PARAMS, [1.0])
        assert xi_star[0] == SUPPORT.lo
        assert f_min[0] == pytest.approx(math.log(60.0) + 0.5 * 80.0, abs=1e-12)

    def test_nonpositive_log_argument_names_the_first_point(self):
        support = SupportInterval(-10.0, 10.0)
        candidates = inner_candidates([1.0], support)
        with pytest.raises(NonPositiveLogArgument) as err:
            inner_minima(
                weighted_log(candidates.points, [0.0, 30.0], [0.5, 0.5], PARAMS), 0.0, candidates
            )
        assert err.value.sample_index == 0
        assert "at xi=-10.0" in str(err.value)


@st.composite
def menus(draw):
    """``(profile, latencies)``: one nondecreasing menu of one to four types."""
    n_types = draw(st.integers(1, 4))
    per_type = {"min_size": n_types, "max_size": n_types}
    thetas = sorted(draw(st.lists(st.floats(100.0, 260.0), **per_type)))
    weights = draw(st.lists(st.floats(0.05, 1.0), **per_type))
    profile = AspTypeProfile(thetas=thetas, alphas=np.array(weights) / sum(weights))
    return profile, np.array(sorted(draw(st.lists(st.floats(0.0, 150.0), **per_type))))


@st.composite
def argmax_instances(draw):
    """One menu of :func:`menus`; anchors below, on, inside and above the
    support (off the floor by at least 0.5, so every flip point is
    positive); a radius below, at or above mean|anchor - lo| or
    mean|anchor - p|."""
    profile, lat = draw(menus())
    anchor = st.one_of(
        st.floats(30.0, 59.5),
        st.sampled_from([SUPPORT.lo, SUPPORT.hi]),
        st.floats(SUPPORT.lo + 0.5, SUPPORT.hi),
        st.floats(100.5, 140.0),
    )
    candidates = inner_candidates(draw(st.lists(anchor, min_size=1, max_size=12)), SUPPORT)
    distance = draw(st.sampled_from([candidates.lo_distance, candidates.p_distance]))
    eps = float(distance.mean()) * draw(st.sampled_from([0.0, 0.5, 0.9, 1.0, 1.1, 2.0]))
    return profile, lat, candidates, eps


class TestMultiplierArgmax:
    @given(argmax_instances())
    @settings(max_examples=100, deadline=None)
    def test_matches_a_dense_objective_grid(self, instance):
        profile, lat, candidates, eps = instance
        h = weighted_log(candidates.points, lat, profile.alphas, PARAMS)
        (lam_star,) = multiplier_argmax(h[None], candidates, eps)
        # every flip point is a mean slope of h over [lo, p], at most 1/lo
        grid = np.linspace(0.0, 3.0 / SUPPORT.lo, 301)
        values = np.array([objectives(lat, x, candidates, eps, profile, PARAMS)[0] for x in grid])
        slope_at_zero = float(np.mean(candidates.lo_distance)) - eps
        assert (lam_star == 0.0) == (slope_at_zero <= 0.0)
        unbounded = float(np.mean(candidates.p_distance)) > eps
        assert (lam_star == math.inf) == unbounded
        if unbounded:
            assert np.all(np.diff(values) >= -1e-12)
        else:
            at_star = objectives(lat, lam_star, candidates, eps, profile, PARAMS)[0]
            assert at_star >= values.max() - 1e-9

    def test_zero_radius_inside_the_support_is_bounded(self):
        # mean|anchor - p| = eps = 0: the slope ends at zero, so the argmax
        # is the last flip point, however the slope's running sum rounds
        rng = np.random.default_rng(0)
        for _ in range(50):
            candidates = inner_candidates(rng.uniform(60.5, 100.0, 12), SUPPORT)
            h = weighted_log(candidates.points, [0.0, 10.0], [0.5, 0.5], PARAMS)
            flips = (h[1:] - h[0]) / (candidates.points[1:] - SUPPORT.lo)
            assert multiplier_argmax(h[None], candidates, 0.0)[0] == flips.max()

    def test_contaminated_training_data_are_unbounded(
        self, default_cfg, default_profile, train_samples
    ):
        # the bench's contamination levels: extreme points of value 1.0,
        # seed 0, against a radius of about 8.58
        amb = default_cfg.ambiguity_for(train_samples.n)
        zero_menu = np.zeros(default_profile.n_types)
        dro_menu = solve(train_samples, default_profile, PARAMS, amb, RunConfig()).menu.latencies
        for count, distance in ((0, 0.0), (50, 14.75), (100, 29.5)):
            contaminated = inject_extreme_points(train_samples, count, 1.0, 0)
            candidates = inner_candidates(contaminated.samples, amb.support)
            assert float(candidates.p_distance.mean()) == pytest.approx(distance)
            h = np.array(
                [
                    weighted_log(candidates.points, lat, default_profile.alphas, PARAMS)
                    for lat in (zero_menu, dro_menu)
                ]
            )
            lam_stars = multiplier_argmax(h, candidates, amb.epsilon).tolist()
            if count:
                assert lam_stars == [math.inf, math.inf]
            else:
                assert all(math.isfinite(lam) for lam in lam_stars)
                assert lam_stars[0] == pytest.approx(0.014, abs=5e-4)

    @given(inner_instances())
    @settings(max_examples=40, deadline=None)
    def test_a_stack_of_menus_matches_each_menu(self, instance):
        lat, alphas, lam, anchors = instance
        candidates = inner_candidates(anchors, SUPPORT)
        menus = [lat, lat + 1.0, np.zeros_like(lat)]
        h = np.array([weighted_log(candidates.points, m, alphas, PARAMS) for m in menus])
        lams = np.array([lam, 2.0 * lam, 0.0])
        stacked = inner_minima(h, lams, candidates)[0]
        argmax = multiplier_argmax(h, candidates, 1.0)
        for k in range(len(menus)):
            one = inner_minima(h[k], lams[k], candidates)[0]
            assert stacked[k].tolist() == one.tolist()
            assert argmax[k] == multiplier_argmax(h[k : k + 1], candidates, 1.0)[0]


def sorting_multiplier_argmax(h, candidates, eps):
    """Reference: :func:`inner.multiplier_argmax` as it was before it took
    the flip order from the anchors.  Each row's flip points are sorted,
    the drops p - lo are summed in that order, and the row's argmax is the
    flip where the slope first reaches zero, the last flippable one failing
    that (the slope ends at mean|anchor - p| - eps <= 0, rounding aside)."""
    if inner.unbounded(candidates, eps):
        return np.full(h.shape[0], np.inf)
    s0 = -eps + float(candidates.lo_distance.mean())
    if s0 <= 0.0:
        return np.zeros(h.shape[0])
    drops = candidates.points[1:] - candidates.points[0]
    flippable = drops > 0.0  # p = lo never flips
    rises = h[:, 1:] - h[:, :1]
    flips = np.divide(rises, drops, out=np.full_like(rises, np.inf), where=flippable)
    np.maximum(flips, 0.0, out=flips)
    order = np.argsort(flips, axis=1)
    drops_sorted = np.take_along_axis(np.broadcast_to(drops, flips.shape), order, axis=1)
    crossed = s0 - np.cumsum(drops_sorted, axis=1) / drops.size <= 0.0
    crossed[:, np.count_nonzero(flippable) - 1] = True
    first = np.take_along_axis(order, np.argmax(crossed, axis=1)[:, None], axis=1)
    return np.take_along_axis(flips, first, axis=1)[:, 0]


def computed_flips(h, candidates):
    """The flippable anchors (p > lo) by descending p, and each row's flip
    points (h(p) - h(lo)) / (p - lo) at them, as the reference computes
    them, and their drops p - lo."""
    drops = candidates.points[1:] - candidates.points[0]
    flippable = np.flatnonzero(drops > 0.0)
    order = flippable[np.argsort(-drops[flippable], kind="stable")]
    flips = np.maximum((h[:, 1 + order] - h[:, :1]) / drops[order], 0.0)
    return order, flips, drops[order]


def near(value, offset):
    """``value`` moved by one of the offsets that near-equal draws use."""
    if offset == "ulp":
        return math.nextafter(value, math.inf)
    if offset == "-ulp":
        return math.nextafter(value, -math.inf)
    return value + offset


@st.composite
def near_equal_anchors(draw, floor_gap=0.5):
    """Clusters of anchors: each cluster's first anchor lies below the
    support, on an end point, inside it (at least ``floor_gap`` above the
    floor) or above it, and up to three more sit on it, 1 ulp or 1e-9 from
    it, on either side."""
    base = st.one_of(
        st.floats(30.0, SUPPORT.lo - 0.5),
        st.sampled_from([SUPPORT.lo, SUPPORT.hi]),
        st.floats(SUPPORT.lo + floor_gap, SUPPORT.hi),
        st.floats(SUPPORT.hi + 0.5, 140.0),
    )
    offsets = st.lists(st.sampled_from([0.0, "ulp", "-ulp", 1e-9, -1e-9]), max_size=3)
    clusters = draw(st.lists(st.tuples(base, offsets), min_size=1, max_size=6))
    anchors = [near(b, offset) for b, cluster in clusters for offset in (0.0, *cluster)]
    return np.array(draw(st.permutations(anchors)))


@st.composite
def monotone_menus(draw):
    """``(latencies, alphas, params)``: a stack of one to four monotone
    menus of one to four types, some of them (or all) of zero weight, and
    gamma3 = 0 now and then, which takes the menu out of h."""
    n_types = draw(st.integers(1, 4))
    weights = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
    alphas = np.array(draw(st.lists(weights, min_size=n_types, max_size=n_types)))
    if alphas.sum() > 0.0:
        alphas /= alphas.sum()
    params = draw(st.sampled_from([PARAMS, UtilityParams(gamma3=0.0)]))
    rows = st.lists(st.floats(0.0, 150.0), min_size=n_types, max_size=n_types).map(sorted)
    lat = np.array(draw(st.lists(rows, min_size=1, max_size=4)))
    return lat, alphas, params


class TestSortFreeArgmax:
    """:func:`inner.multiplier_argmax` against the sorting scan it replaced
    (:func:`sorting_multiplier_argmax`)."""

    # Where rounding reorders the flips of near-equal anchors the two may
    # take different ones, whose flips differ by rounding or by the anchors'
    # gap: 3.1e-11 of their size is the most measured at 1e-9 gaps.
    REL = 3.1e-11

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_sorting_scan(self, data):
        candidates = inner_candidates(data.draw(near_equal_anchors()), SUPPORT)
        h = weighted_log(candidates.points, *data.draw(monotone_menus()))
        mean_lo, mean_p = float(candidates.lo_distance.mean()), float(candidates.p_distance.mean())
        on_a_flip = data.draw(st.booleans())
        if on_a_flip:  # the slope is zero between two flips, and either is an argmax
            drops = np.sort(candidates.points[1:] - SUPPORT.lo)[::-1]
            crossings = mean_lo - np.cumsum(drops) / drops.size
            eps = max(data.draw(st.sampled_from(crossings.tolist())), 0.0)
        else:  # the ends of the slope and between them
            scale = data.draw(st.sampled_from([0.0, 0.5, 0.9, 1.0, 1.1, 2.0]))
            eps = scale * data.draw(st.sampled_from([mean_lo, mean_p]))
        expected = sorting_multiplier_argmax(h, candidates, eps)
        got = multiplier_argmax(h, candidates, eps)
        _, flips, flip_drops = computed_flips(h, candidates)
        ascending = (flips[:, 1:] > flips[:, :-1]) | (flip_drops[1:] == flip_drops[:-1])
        # an anchor within a few ulps of the floor has a flip made of rounding
        rounded = np.logical_or.reduce(flip_drops < 1e-6)
        for row, (lam, ref) in enumerate(zip(got.tolist(), expected.tolist())):
            if not math.isfinite(ref) or np.logical_and.reduce(ascending[row]):
                assert lam == ref
            elif not (on_a_flip or rounded):
                assert lam == pytest.approx(ref, rel=self.REL, abs=0.0)
            else:  # the two sums of the drops may round apart: lam is as good an argmax

                def value(x):
                    return -x * eps + float(inner_minima(h[row], x, candidates)[0].mean())

                assert value(lam) >= value(ref) - 1e-12 * max(1.0, abs(value(ref)))

    def test_an_anchor_an_ulp_above_the_floor(self):
        # its rise rounds to 0, and so does its flip, out of order with the
        # anchor 1e-9 above the floor.  At eps = mean|anchor - p| the slope
        # reaches zero at it, last by descending p; its own flip would be 0,
        # where the objective still rises, so the argmax is the largest flip
        lo = SUPPORT.lo
        anchors = [math.nextafter(lo, math.inf), lo + 1e-9, 54.5, 137.7]
        candidates = inner_candidates(anchors, SUPPORT)
        h = weighted_log(candidates.points, [[0.0, 40.0]], [0.5, 0.5], PARAMS)
        eps = float(candidates.p_distance.mean())
        _, flips, _ = computed_flips(h, candidates)
        assert flips[0, -1] == 0.0 < flips[0, -2]
        expected = sorting_multiplier_argmax(h, candidates, eps)
        assert multiplier_argmax(h, candidates, eps).tolist() == expected.tolist()
        assert expected[0] == flips.max()


def worst_case(anchors, support, eps):
    """Reference: Q*, the distribution within eps of the anchors' empirical
    one in the 1-Wasserstein distance that minimizes the mean of every
    increasing concave h on the support, as ``(points, weights)``, the
    points being lo and then each anchor's projection p.  Each anchor moves
    to p, and the budget N*eps - sum|anchor - p| left moves mass from p to
    lo in ascending order of p, where h falls most per unit moved (h's
    secant slope from lo falls as p grows), the last anchor in part.  For
    bounded draws only: the budget is taken as at least 0."""
    anchors = np.asarray(anchors, dtype=float)
    points = np.concatenate(([support.lo], np.clip(anchors, support.lo, support.hi)))
    n = anchors.size
    weights = np.concatenate(([0.0], np.full(n, 1.0 / n)))
    budget = max(n * eps - float(np.abs(anchors - points[1:]).sum()), 0.0)
    for k in 1 + np.argsort(points[1:], kind="stable"):
        cost = points[k] - points[0]
        moved = 1.0 if cost <= budget else budget / cost
        weights[0] += moved / n
        weights[k] -= moved / n
        budget -= moved * cost
        if moved < 1.0:
            break
    return points, weights


class TestStrongDuality:
    """The primal side of :func:`inner.multiplier_argmax`: a menu's value
    under Q* (:func:`worst_case`), its mean log benefit less its expected
    reward, equals the dual objective :func:`bcd.objectives` at the argmax
    multiplier."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_worst_case_value_equals_the_dual_at_the_argmax(self, data):
        anchors = data.draw(near_equal_anchors(floor_gap=0.0))
        candidates = inner_candidates(anchors, SUPPORT)
        scale = data.draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.1]), st.floats(0.0, 1.2)))
        distance = data.draw(st.sampled_from([candidates.lo_distance, candidates.p_distance]))
        eps = scale * float(distance.mean())
        assume(not inner.unbounded(candidates, eps))
        profile, lat = data.draw(menus())
        h = weighted_log(candidates.points, lat, profile.alphas, PARAMS)
        (lam,) = multiplier_argmax(h[None], candidates, eps)
        dual, _ = objectives(lat, lam, candidates, eps, profile, PARAMS)
        points, q = worst_case(anchors, SUPPORT, eps)
        g = expected_reward(rewards_from_latencies(lat, profile, PARAMS.gamma1), profile.alphas)
        primal = q @ weighted_log(points, lat, profile.alphas, PARAMS) - g
        assert primal == pytest.approx(float(dual), rel=1e-12, abs=0.0)


class TestFlipOrder:
    """The lemma behind :func:`inner.multiplier_argmax`: h is concave and
    increasing, so at every multiplier the projection winners of
    :func:`inner.inner_minima` are a prefix of the anchors in descending-p
    order, whatever the menu."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_winners_are_a_prefix_by_descending_p(self, data):
        anchors = data.draw(near_equal_anchors(floor_gap=0.0))
        extra = data.draw(st.lists(st.sampled_from([1e-9, "ulp"]), max_size=2))
        anchors = np.append(anchors, [near(SUPPORT.lo, offset) for offset in extra])
        candidates = inner_candidates(anchors, SUPPORT)
        lat, alphas, params = data.draw(monotone_menus())
        h = weighted_log(candidates.points, lat, alphas, params)
        order, flips, drops = computed_flips(h, candidates)
        # multipliers near the flips, on a flip and far past them
        lam_at = st.one_of(
            st.floats(0.0, 0.1),
            st.sampled_from(flips.ravel().tolist() or [0.0]),
            st.floats(0.0, 1e6),
        )
        lam = np.array(data.draw(st.lists(lam_at, min_size=len(h), max_size=len(h))))
        _, wins = inner_minima(h, lam, candidates)
        assert not np.logical_or.reduce(np.delete(wins, order, axis=1), axis=None)  # p = lo
        # the rounding of a row's win test, over the drop: how far a flip's
        # threshold in lam may sit from the flip computed from h
        errors = np.abs(h).max(axis=1)[:, None] + lam[:, None] * (
            candidates.lo_distance[order] + candidates.p_distance[order]
        )
        slack = 16 * np.finfo(float).eps * errors / drops
        for row in range(len(h)):
            won = wins[row, order]
            for j, k in zip(*np.nonzero(~won[:, None] & won[None, :])):
                if j < k:  # a winner after a loser: their flips tie within rounding
                    gap = abs(flips[row, j] - flips[row, k])
                    assert gap <= slack[row, j] + slack[row, k]


def per_type_weighted_log(xi, latencies, alphas, params=PARAMS):
    """Reference: the per-type loop the blocked kernel replaced, one log per
    type.  Returns the total, or the first point whose argument is not
    positive in any type when a log fails."""
    total = np.zeros(np.shape(xi))
    for i, alpha in enumerate(alphas):
        arg = params.gamma2 * xi + params.gamma3 * latencies[i]
        try:
            with np.errstate(divide="raise", invalid="raise"):
                log_arg = np.log(arg)
        except FloatingPointError:
            args = [params.gamma2 * xi + params.gamma3 * lat_j for lat_j in latencies]
            return int(np.argmax(np.any(np.stack(args) <= 0.0, axis=0)))
        total += alpha * log_arg
    return total


# Points per type on both sides of the block bound: many types per block,
# exactly at and next to a block edge, and one type per block.
BLOCK_POINTS = st.one_of(
    st.integers(1, 600),
    st.sampled_from([TYPE_BLOCK_POINTS // k + d for k in (64, 7, 2, 1) for d in (0, 1)]),
    st.integers(600, 40_000),
)


@st.composite
def log_tables(draw):
    """(xi, latencies, alphas): a 1-D array of quality points and a menu."""
    n_types = draw(st.integers(1, 64))
    points = draw(BLOCK_POINTS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xi, lat = rng.uniform(60.0, 100.0, points), np.sort(rng.uniform(0.0, 150.0, n_types))
    alphas = rng.dirichlet(np.ones(n_types))
    return xi, lat, alphas


class TestTypeBlocks:
    """The type-blocked kernels against the per-type loops they replaced,
    bit for bit."""

    def test_blocks_cover_the_types_in_order(self):
        for n_types, points in ((8, 200), (64, 20_000), (64, 1000), (3, 0), (1, 10**6)):
            xi, lat = np.full(points, 70.0), np.arange(n_types, dtype=float)
            blocks = list(log_blocks(xi, lat, PARAMS))
            types = [b for b, _ in blocks]
            assert [i for b in types for i in range(b.start, b.stop)] == list(range(n_types))
            size = max(1, TYPE_BLOCK_POINTS // max(points, 1))
            assert all(b.stop - b.start <= size for b in types)
            for b, logs in blocks:
                table = PARAMS.gamma2 * xi + PARAMS.gamma3 * lat[b, None]
                assert np.array_equal(logs, np.log(table))
        assert len(list(log_blocks(np.ones(200), np.zeros(8), PARAMS))) == 1
        assert len(list(log_blocks(np.ones(20_000), np.zeros(64), PARAMS))) == 64

    def test_log_blocks_yield_outside_the_float_trap(self):
        # the caller's code between blocks runs under its own error settings
        outside = np.geterr()
        xi, lat = np.full(TYPE_BLOCK_POINTS, 70.0), np.zeros(3)
        for _, logs in log_blocks(xi, lat, PARAMS):
            assert np.geterr() == outside
            assert np.array_equal(logs, np.log(PARAMS.gamma2 * xi)[None, :])

    @given(log_tables())
    @settings(max_examples=80, deadline=None)
    def test_weighted_log_matches_the_per_type_loop(self, table):
        xi, lat, alphas = table
        expected = per_type_weighted_log(xi, lat, alphas)
        assert np.array_equal(weighted_log(xi, lat, alphas, PARAMS), expected)

    @pytest.mark.parametrize("alphas", [[1.0], [0.2, 0.3, 0.4, 0.1]])
    def test_weighted_log_needs_one_alpha_per_latency(self, alphas):
        with pytest.raises(DataError, match=f"{len(alphas)} alphas vs 3 latencies"):
            weighted_log(np.array([70.0, 80.0]), [0.0, 1.0, 2.0], alphas, PARAMS)

    @pytest.mark.parametrize("xi", [70.0, np.array(70.0), np.full((2, 3), 70.0)])
    def test_weighted_log_needs_1d_points(self, xi):
        with pytest.raises(ValidationError, match="1-D"):
            weighted_log(xi, [1.0, 2.0], [0.5, 0.5], PARAMS)

    @given(log_tables(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_nonpositive_argument_in_a_later_block(self, table, data):
        xi, lat, alphas = table
        n_types = lat.size
        per_block = max(1, TYPE_BLOCK_POINTS // xi.size)
        bad = data.draw(st.integers(min(per_block, n_types - 1), n_types - 1))
        # a latency that makes the argument nonpositive at the points below
        # a drawn threshold quality, so the first offender is not always 0
        threshold = data.draw(st.floats(60.0, 100.0))
        lat = lat.copy()
        lat[bad:] = -PARAMS.gamma2 * threshold / PARAMS.gamma3
        expected = per_type_weighted_log(xi, lat, alphas)
        if not isinstance(expected, int):  # every point lies above the threshold
            assert np.array_equal(weighted_log(xi, lat, alphas, PARAMS), expected)
            return
        with pytest.raises(NonPositiveLogArgument) as err:
            weighted_log(xi, lat, alphas, PARAMS)
        assert err.value.sample_index == expected

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_weighted_log_carries_the_total_across_small_blocks(self, data):
        # small blocks give multi-type blocks with a carry, one-type blocks and
        # one-point tables; arguments below 1 with zero alphas give -0.0 terms
        n_types, points = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 30))
        block_points = data.draw(st.integers(1, n_types * points))
        xi = np.array(data.draw(st.lists(st.floats(0.25, 3.0), min_size=points, max_size=points)))
        lat = np.array(data.draw(st.lists(st.floats(0.0, 2.0), min_size=n_types, max_size=n_types)))
        alpha = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
        alphas = np.array(data.draw(st.lists(alpha, min_size=n_types, max_size=n_types)))
        expected = per_type_weighted_log(xi, lat, alphas).tobytes()  # sign bits included
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inner, "TYPE_BLOCK_POINTS", block_points)
            assert weighted_log(xi, lat, alphas, PARAMS).tobytes() == expected

    @pytest.mark.parametrize("block_points", [4, 8, TYPE_BLOCK_POINTS])
    @pytest.mark.parametrize("bad_latency", [-60.0, -65.0, -75.0])
    def test_sign_check_names_the_first_offending_point(self, block_points, bad_latency):
        # the third type's arguments are 70, 90, 60, 80 plus bad_latency: a
        # zero at point 2 (-60), negatives from point 2 (-65) or point 0 (-75);
        # blocks of 1, 2 or 3 types put that type in a later block or not
        xi, lat = np.array([70.0, 90.0, 60.0, 80.0]), [0.0, 10.0, bad_latency]
        alphas = [0.2, 0.3, 0.5]
        expected = per_type_weighted_log(xi, lat, alphas)
        assert expected == {-60.0: 2, -65.0: 2, -75.0: 0}[bad_latency]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inner, "TYPE_BLOCK_POINTS", block_points)
            with pytest.raises(NonPositiveLogArgument) as err:
                weighted_log(xi, lat, alphas, PARAMS)
        assert err.value.sample_index == expected


class TestLeastArgument:
    """The least entry of the argument table, which the solver's
    denominator checks read, against the table itself."""

    @given(log_tables(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_finds_a_nonpositive_entry_in_a_later_block(self, table, data):
        xi, lat, _ = table
        n_types = lat.size
        per_block = max(1, TYPE_BLOCK_POINTS // xi.size)
        bad = data.draw(st.integers(min(per_block, n_types - 1), n_types - 1))
        # nonpositive at the points at or below a drawn threshold quality,
        # or at every point
        threshold = data.draw(st.one_of(st.floats(60.0, 100.0), st.just(200.0)))
        lat = lat.copy()
        lat[bad:] = -PARAMS.gamma2 * threshold / PARAMS.gamma3
        scaled_xi, scaled_lat = PARAMS.gamma2 * xi, PARAMS.gamma3 * lat
        per_type = [np.logical_or.reduce(scaled_xi + lat_i <= 0.0) for lat_i in scaled_lat]
        assert (least_argument(scaled_xi, scaled_lat) <= 0.0) == any(per_type)
        if threshold == 200.0:
            assert least_argument(scaled_xi, scaled_lat) <= 0.0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_is_the_least_entry_of_the_table(self, data):
        # 1-D latencies or a (K, I) stack; NaN entries, exact zeros and
        # sums that round
        n_types, points = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 20))
        shape = data.draw(st.sampled_from([(n_types,), (data.draw(st.integers(1, 5)), n_types)]))
        value = st.one_of(
            st.floats(-1e3, 1e3), st.just(math.nan), st.sampled_from([-60.0, 0.0, -0.0, 60.0])
        )
        scaled_xi = np.array(data.draw(st.lists(value, min_size=points, max_size=points)))
        entries = data.draw(st.lists(value, min_size=math.prod(shape), max_size=math.prod(shape)))
        scaled_lat = np.reshape(entries, shape)
        table = scaled_xi + scaled_lat[..., None]
        expected = np.fmin.reduce(table, axis=None, initial=np.inf)
        assert least_argument(scaled_xi, scaled_lat) == expected


@st.composite
def latency_stacks(draw):
    """(xi, stack, alphas): 1-D points and a ``(K, I)`` stack of latency
    vectors.  Arguments run from 0.25 to 5 and alphas may be zero, so some
    terms are -0.0; tables have one point or several; and the block size
    drawn for the patched ``TYPE_BLOCK_POINTS`` makes stacks cross it."""
    n_types, points = draw(st.integers(1, 12)), draw(st.one_of(st.just(1), st.integers(2, 30)))
    height = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xi = rng.uniform(0.25, 3.0, points)
    stack = np.sort(rng.uniform(0.0, 2.0, (height, n_types)), axis=1)
    alphas = rng.dirichlet(np.ones(n_types))
    alphas[rng.random(n_types) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    return xi, stack, alphas


class TestStacks:
    """A ``(K, I)`` stack of latency vectors through the log benefit and
    the objective: each row bit for bit the one-vector call."""

    @given(latency_stacks(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_weighted_log_rows_match_single_menus(self, table, data):
        xi, stack, alphas = table
        block_points = data.draw(st.integers(1, stack.size * xi.size + 1))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inner, "TYPE_BLOCK_POINTS", block_points)
            stacked = weighted_log(xi, stack, alphas, PARAMS)
            rows = [weighted_log(xi, lat, alphas, PARAMS) for lat in stack]
        assert stacked.shape == (len(stack), xi.size)
        for got, lat, row in zip(stacked, stack, rows):
            assert got.tobytes() == row.tobytes()  # sign bits included
            assert got.tobytes() == per_type_weighted_log(xi, lat, alphas).tobytes()

    @pytest.mark.parametrize("height", [1, 20, 21, 40])
    def test_stacks_across_the_block_bound(self, default_profile, train_samples, height):
        # 20 x 8 x 201 fits one block of TYPE_BLOCK_POINTS; 21 x 8 x 201 does not
        candidates = inner_candidates(train_samples.samples, SUPPORT)
        rng = np.random.default_rng(height)
        stack = np.sort(rng.uniform(0.0, 180.0, (height, default_profile.n_types)), axis=1)
        stacked = weighted_log(candidates.points, stack, default_profile.alphas, PARAMS)
        for got, lat in zip(stacked, stack):
            one = weighted_log(candidates.points, lat, default_profile.alphas, PARAMS)
            assert got.tobytes() == one.tobytes()

    @given(inner_instances(), st.integers(1, 24), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_objective_rows_match_single_menus(self, instance, height, seed):
        lat, alphas, lam, anchors = instance
        rng = np.random.default_rng(seed)
        profile = AspTypeProfile(np.sort(rng.uniform(100.0, 260.0, lat.size)), alphas)
        candidates = inner_candidates(anchors, SUPPORT)
        stack = np.sort(lat + rng.uniform(0.0, 30.0, (height, lat.size)), axis=1)
        lams = np.where(rng.random(height) < 0.25, 0.0, lam * rng.uniform(0.0, 3.0, height))
        values, wins = objectives(stack, lams, candidates, 4.0, profile, PARAMS)
        for k in range(height):
            omega, row_wins = objectives(stack[k], lams[k], candidates, 4.0, profile, PARAMS)
            assert np.float64(omega).tobytes() == values[k].tobytes()
            assert row_wins.tolist() == wins[k].tolist()

    @given(st.data(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_sample_value_rows_are_in_order_sums(self, data, tall):
        # a stack taller than its sample count is summed column by column,
        # a wider one along each row
        short, extra = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        height, n_samples = (short + extra, short) if tall else (short, short + extra)

        def draw_array(elements, size):
            return np.array(data.draw(st.lists(elements, min_size=size, max_size=size)))

        finite = st.floats(-1e6, 1e6)
        benefit = draw_array(finite, height * n_samples).reshape(height, n_samples)
        g, lams = draw_array(finite, height), draw_array(st.floats(0.0, 10.0), height)
        eps = data.draw(st.floats(0.0, 30.0))
        values = inner.sample_value(benefit, g, lams, eps)
        for k in range(height):
            one = inner.sample_value(benefit[k].copy(), g[k], lams[k], eps)
            terms = [(float(b) - float(g[k])) / n_samples for b in benefit[k]]
            total = terms[0]
            for term in terms[1:]:
                total += term
            expected = -float(lams[k]) * eps + total
            assert values[k].tobytes() == np.float64(one).tobytes()  # sign bits included
            assert values[k].tobytes() == np.float64(expected).tobytes()

    def test_nonpositive_argument_names_the_first_failing_rows_point(self):
        # row 1 fails at point 2 first, row 2 at point 0: the stack's error
        # is row 1's, as the one-vector call on row 1 raises it
        xi, alphas = np.array([70.0, 90.0, 60.0, 80.0]), [0.5, 0.5]
        stack = np.array([[0.0, 10.0], [0.0, -65.0], [-75.0, -75.0]])
        with pytest.raises(NonPositiveLogArgument) as one:
            weighted_log(xi, stack[1], alphas, PARAMS)
        with pytest.raises(NonPositiveLogArgument) as stacked:
            weighted_log(xi, stack, alphas, PARAMS)
        assert stacked.value.sample_index == one.value.sample_index == 2
        assert str(stacked.value) == str(one.value)

    def test_negative_multiplier_in_a_stack_rejected(self):
        candidates = inner_candidates([80.0], SUPPORT)
        h = weighted_log(candidates.points, np.zeros((3, 1)), [1.0], PARAMS)
        with pytest.raises(ValidationError):
            inner_minima(h, np.array([0.0, -1.0, 2.0]), candidates)

    def test_an_empty_stack_has_no_minima(self):
        # an empty stack (the oracle's rows to re-evaluate at a higher grid
        # multiplier, when every argmax sits on a grid point) gives empty
        # values and no winners, not a numpy error
        candidates = inner_candidates([70.0, 80.0, 120.0], SUPPORT)
        h = weighted_log(candidates.points, np.zeros((0, 2)), [0.5, 0.5], PARAMS)
        f_min, wins = inner_minima(h, np.zeros(0), candidates)
        assert f_min.shape == wins.shape == (0, 3)
        assert wins.dtype == bool
        profile = AspTypeProfile(thetas=[110.0, 140.0], alphas=[0.5, 0.5])
        values, wins = objectives(np.zeros((0, 2)), np.zeros(0), candidates, 1.0, profile, PARAMS)
        assert values.shape == (0,)
        assert wins.shape == (0, 3)
