import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcontract import (
    AmbiguityConfig,
    AspTypeProfile,
    NonMonotoneLatencies,
    NonPositiveLogArgument,
    SizeMismatch,
    SupportInterval,
    UtilityParams,
    ValidationError,
    g_of_L,
    inner_candidates,
    inner_minima,
    objective,
    rewards_from_latencies,
    weighted_log,
)
from drcontract.inner import TYPE_BLOCK_POINTS, argument_blocks, log_blocks

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


class TestExpectedReward:
    def test_zero_latencies(self):
        assert g_of_L([0.0, 0.0], AspTypeProfile([110, 140], [0.5, 0.5]), 1.0) == 0.0

    def test_single_type(self):
        assert g_of_L([5.0], AspTypeProfile([1.0], [1.0]), 1.0) == pytest.approx(5.0)

    def test_hand_evaluated(self):
        got = g_of_L([10.0, 20.0], AspTypeProfile([110.0, 140.0], [0.25, 0.75]), 1.0)
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
            assert g_of_L(lat, profile, 1.0) == pytest.approx(
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
            assert g_of_L(lat, profile, 1.0) == total

    def test_rejects_decreasing(self):
        with pytest.raises(NonMonotoneLatencies):
            g_of_L([3.0, 1.0], AspTypeProfile([110, 140], [0.5, 0.5]), 1.0)


def marginal_benefit(xi, latencies, alphas, params=PARAMS):
    """h'(xi) = sum_i alpha_i * gamma2 / (gamma2*xi + gamma3*L_i)."""
    return sum(
        a * params.gamma2 / (params.gamma2 * xi + params.gamma3 * lat)
        for a, lat in zip(alphas, latencies)
    )


class TestStationaryRoot:
    """The root of h'(xi) = lam on [lo, anchor] is the maximum of that
    concave branch, so the closed-form kernel never needs it."""

    def test_closed_form_root(self):
        # single type, zero latency: h'(xi) = 1/xi = lam at xi = 80
        lam, anchor = 1 / 80, 90.0
        f_root = f_n(80.0, [0.0], lam, anchor, PARAMS, [1.0])
        assert f_root > f_n(60.0, [0.0], lam, anchor, PARAMS, [1.0])
        assert f_root > f_n(anchor, [0.0], lam, anchor, PARAMS, [1.0])
        f_min, xi_star = inner_minima(
            [0.0], lam, inner_candidates([anchor], SUPPORT), PARAMS, [1.0]
        )
        assert xi_star[0] in (SUPPORT.lo, anchor)
        assert f_min[0] < f_root

    def test_root_outside_interval_absent(self):
        # the root at 80 lies beyond the anchor: the branch only increases
        _, xi_star = inner_minima([0.0], 1 / 80, inner_candidates([70.0], SUPPORT), PARAMS, [1.0])
        assert xi_star[0] == SUPPORT.lo

    def test_large_lambda_absent(self):
        # h' < lam everywhere: the branch only decreases towards the anchor
        _, xi_star = inner_minima([0.0], 10.0, inner_candidates([90.0], SUPPORT), PARAMS, [1.0])
        assert xi_star[0] == 90.0

    def test_zero_lambda_absent(self):
        # without a penalty f = h is increasing, so the floor wins everywhere
        f_min, xi_star = inner_minima(
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
            f_min, xi_star = inner_minima(
                lat, lam, inner_candidates([anchor], SUPPORT), PARAMS, alphas
            )
            assert xi_star[0] in (SUPPORT.lo, anchor)
            _, fmin = grid_min(lat, lam, anchor, SUPPORT, alphas)
            assert f_min[0] == pytest.approx(fmin, abs=1e-4)
            assert f_min[0] <= fmin + 1e-12


class TestSolveInner:
    def test_zero_lambda_floor_wins(self):
        f_min, xi_star = inner_minima([0.0], 0.0, inner_candidates([75.0], SUPPORT), PARAMS, [1.0])
        assert xi_star[0] == SUPPORT.lo
        assert f_min[0] == pytest.approx(math.log(60.0), abs=1e-12)

    def test_outside_anchor_large_lambda_floor_wins(self):
        _, xi_star = inner_minima([0.0], 50.0, inner_candidates([1.0], SUPPORT), PARAMS, [1.0])
        assert xi_star[0] == SUPPORT.lo

    def test_huge_lambda_sticks_to_anchor(self):
        _, xi_star = inner_minima([0.0], 1e6, inner_candidates([83.0], SUPPORT), PARAMS, [1.0])
        assert xi_star[0] == 83.0

    def test_value_consistent_with_f(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            lat = np.sort(rng.uniform(0, 150, n))
            alphas = rng.dirichlet(np.ones(n))
            lam = float(rng.uniform(0, 2))
            anchor = float(rng.uniform(0, 140))
            f_min, xi_star = inner_minima(
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
            f_min, _ = inner_minima(lat, lam, inner_candidates([anchor], SUPPORT), PARAMS, alphas)
            _, fmin = grid_min(lat, lam, anchor, SUPPORT, alphas)
            assert f_min[0] == pytest.approx(fmin, abs=1e-4)
            assert f_min[0] <= fmin + 1e-12  # never worse than any grid point

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValidationError):
            inner_minima([0.0], -1.0, inner_candidates([80.0], SUPPORT), PARAMS, [1.0])


class TestSlackValue:
    """A slack is an anchor's inner minimum net of the expected reward: the
    value the robust objective averages, so with one anchor the objective is
    the slack less ``lam * epsilon``."""

    AMB = AmbiguityConfig.derive(SUPPORT, 0.9, 1)

    def test_zero_latency_slack_is_inner_value(self):
        f_min, _ = inner_minima([0.0], 0.0, inner_candidates([80.0], SUPPORT), PARAMS, [1.0])
        profile = AspTypeProfile(thetas=[1.0], alphas=[1.0])
        candidates = inner_candidates([80.0], SUPPORT)
        got = objective([0.0], 0.0, candidates, self.AMB.epsilon, profile, PARAMS)[0]
        assert got == pytest.approx(f_min[0])
        assert got == pytest.approx(math.log(60.0), abs=1e-12)

    def test_deterministic(self):
        f_min, _ = inner_minima(
            [3.0, 8.0], 0.7, inner_candidates([77.0], SUPPORT), PARAMS, [0.6, 0.4]
        )
        profile = AspTypeProfile(thetas=[110.0, 140.0], alphas=[0.6, 0.4])
        penalty = 0.7 * self.AMB.epsilon
        candidates = inner_candidates([77.0], SUPPORT)
        a = objective([3.0, 8.0], 0.7, candidates, self.AMB.epsilon, profile, PARAMS)[0] + penalty
        b = objective([3.0, 8.0], 0.7, candidates, self.AMB.epsilon, profile, PARAMS)[0] + penalty
        assert a == b
        reward = g_of_L([3.0, 8.0], profile, PARAMS.gamma1)
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
        f_min, xi_star = inner_minima(lat, lam, inner_candidates(anchors, SUPPORT), PARAMS, alphas)
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
        f_min, xi_star = inner_minima(lat, lam, inner_candidates(anchors, SUPPORT), PARAMS, alphas)
        for k, anchor in enumerate(anchors.tolist()):
            _, grid_value = grid_min(lat, lam, anchor, SUPPORT, alphas)
            assert f_min[k] == pytest.approx(grid_value, abs=1e-4)
            assert f_min[k] <= grid_value + 1e-12  # never worse than any grid point
            assert f_min[k] == pytest.approx(
                f_n(xi_star[k], lat, lam, anchor, PARAMS, alphas), abs=1e-12
            )

    def test_ties_break_toward_the_smaller_xi(self):
        # an anchor on an endpoint makes two candidates one point
        _, at_lo = inner_minima([5.0], 0.3, inner_candidates([SUPPORT.lo], SUPPORT), PARAMS, [1.0])
        assert at_lo[0] == SUPPORT.lo
        _, at_hi = inner_minima([5.0], 1e6, inner_candidates([SUPPORT.hi], SUPPORT), PARAMS, [1.0])
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
            f_min, xi_star = inner_minima(
                [0.0], lam, inner_candidates([anchor], SUPPORT), PARAMS, [1.0]
            )
            assert (xi_star[0], f_min[0]) == (SUPPORT.lo, v_lo)

    def test_candidates_are_the_floor_and_the_projection(self):
        points = inner_candidates(np.array([10.0, 60.0, 75.0, 100.0, 130.0]), SUPPORT).points
        np.testing.assert_array_equal(points, [60.0, 60.0, 60.0, 75.0, 100.0, 100.0])

    def test_anchor_above_support_can_pick_hi(self):
        _, xi_star = inner_minima([0.0], 1.0, inner_candidates([130.0], SUPPORT), PARAMS, [1.0])
        assert xi_star[0] == SUPPORT.hi

    def test_anchor_outside_support_is_never_evaluated(self):
        # ln(gamma2 * anchor) is undefined here, but only lo and hi compete
        f_min, xi_star = inner_minima([0.0], 0.5, inner_candidates([-20.0], SUPPORT), PARAMS, [1.0])
        assert xi_star[0] == SUPPORT.lo
        assert f_min[0] == pytest.approx(math.log(60.0) + 0.5 * 80.0, abs=1e-12)

    def test_nonpositive_log_argument_names_the_first_point(self):
        support = SupportInterval(-10.0, 10.0)
        with pytest.raises(NonPositiveLogArgument) as err:
            inner_minima([0.0, 30.0], 0.0, inner_candidates([1.0], support), PARAMS, [0.5, 0.5])
        assert err.value.sample_index == 0
        assert "at xi=-10.0" in str(err.value)


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
            blocks = list(argument_blocks(xi, lat, PARAMS))
            types = [b for b, _ in blocks]
            assert [i for b in types for i in range(b.start, b.stop)] == list(range(n_types))
            size = max(1, TYPE_BLOCK_POINTS // max(points, 1))
            assert all(b.stop - b.start <= size for b in types)
            for b, table in blocks:
                assert np.array_equal(table, PARAMS.gamma2 * xi + PARAMS.gamma3 * lat[b, None])
        assert len(list(argument_blocks(np.ones(200), np.zeros(8), PARAMS))) == 1
        assert len(list(argument_blocks(np.ones(20_000), np.zeros(64), PARAMS))) == 64

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
        with pytest.raises(SizeMismatch):
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
