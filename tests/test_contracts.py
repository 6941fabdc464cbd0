import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcontract import (
    AspTypeProfile,
    ContractMenu,
    DataError,
    NonPositiveLogArgument,
    NumericError,
    ParseError,
    QualitySampleSet,
    UtilityParams,
    ValidationError,
    check_feasibility,
    eval_asp_utilities,
    eval_teleop_utility,
    read_menu_csv,
    read_profile_csv,
    rewards_from_latencies,
    write_menu_csv,
    write_profile_csv,
)
from conftest import feasibility_violations, random_monotone_instance


def menu_from(latencies, profile, gamma1=1.0):
    return ContractMenu(
        latencies=latencies,
        rewards=rewards_from_latencies(latencies, profile, gamma1),
    )


class TestProfileInvariants:
    def test_valid_profile(self):
        p = AspTypeProfile(thetas=[110, 140], alphas=[0.5, 0.5])
        assert p.n_types == 2

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ValidationError):
            AspTypeProfile(thetas=[0.0, 1.0], alphas=[0.5, 0.5])

    def test_rejects_decreasing_thetas(self):
        with pytest.raises(ValidationError):
            AspTypeProfile(thetas=[140, 110], alphas=[0.5, 0.5])

    def test_rejects_bad_alpha_sum(self):
        with pytest.raises(ValidationError):
            AspTypeProfile(thetas=[110, 140], alphas=[0.5, 0.6])

    def test_rejects_nan_alpha(self):
        with pytest.raises(ValidationError):
            AspTypeProfile(thetas=[110, 140], alphas=[float("nan"), 1.0])

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValidationError):
            AspTypeProfile(thetas=[110, 140], alphas=[-0.1, 1.1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            AspTypeProfile(thetas=[110, 140, 175], alphas=[0.5, 0.5])

    def test_duplicate_thetas_accepted(self):
        AspTypeProfile(thetas=[110, 110], alphas=[0.5, 0.5])


class TestUtilityParams:
    def test_gamma3_zero_allowed(self):
        UtilityParams(gamma1=1.0, gamma2=1.0, gamma3=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(gamma1=0.0), dict(gamma2=0.0), dict(gamma3=-1.0), dict(gamma3=float("nan"))],
    )
    def test_rejects_bad_gammas(self, kwargs):
        with pytest.raises(ValidationError):
            UtilityParams(**kwargs)


def asp_utility(theta, bundle, params):
    """Provider utility theta * R - gamma1 * L of one bundle (L, R), scored
    through the one-type case of eval_asp_utilities."""
    latency, reward = bundle
    menu = ContractMenu(latencies=[latency], rewards=[reward])
    profile = AspTypeProfile(thetas=[theta], alphas=[1.0])
    return float(eval_asp_utilities(menu, profile, params.gamma1)[0])


class TestAspUtility:
    def test_zero_bundle(self):
        assert asp_utility(110, (0.0, 0.0), UtilityParams()) == 0.0

    def test_direct_evaluation(self):
        assert asp_utility(110, (20.0, 2.0), UtilityParams()) == pytest.approx(200.0)

    def test_negative_utility_representable(self):
        assert asp_utility(140, (200.0, 1.0), UtilityParams()) == pytest.approx(-60.0)

    @given(
        theta=st.floats(0.1, 500),
        lat=st.floats(0, 1000),
        rew=st.floats(0, 1000),
        scale=st.floats(0, 10),
    )
    @settings(max_examples=50)
    def test_affine_scaling(self, theta, lat, rew, scale):
        params = UtilityParams()
        base = asp_utility(theta, (lat, rew), params)
        scaled = asp_utility(theta, (scale * lat, scale * rew), params)
        assert scaled == pytest.approx(scale * base, rel=1e-12, abs=1e-9)


def one_bundle_utility(xi, bundle, params):
    """Operator utility ln(gamma2*xi + gamma3*L) - R of one bundle (L, R),
    scored through the one-type, one-sample case of eval_teleop_utility."""
    latency, reward = bundle
    menu = ContractMenu(latencies=[latency], rewards=[reward])
    profile = AspTypeProfile(thetas=[1.0], alphas=[1.0])
    return eval_teleop_utility(menu, QualitySampleSet([xi]), profile, params)


class TestTeleopUtility:
    def test_log_one(self):
        assert one_bundle_utility(1.0, (0.0, 0.0), UtilityParams()) == 0.0

    def test_direct_evaluation(self):
        got = one_bundle_utility(60.0, (0.0, 0.0), UtilityParams())
        assert got == pytest.approx(math.log(60.0), abs=1e-12)

    def test_zero_quality_raises(self):
        with pytest.raises(NonPositiveLogArgument):
            one_bundle_utility(0.0, (0.0, 5.0), UtilityParams())


class TestRewardsFromLatencies:
    def test_zero_latencies(self):
        profile = AspTypeProfile(thetas=[110, 140, 175], alphas=[0.3, 0.3, 0.4])
        assert rewards_from_latencies([0, 0, 0], profile, 1.0) == pytest.approx([0, 0, 0])

    def test_hand_evaluated_two_types(self):
        profile = AspTypeProfile(thetas=[110, 140], alphas=[0.5, 0.5])
        got = rewards_from_latencies([10, 20], profile, 1.0)
        assert got == pytest.approx([10 / 110, 10 / 110 + 10 / 140], abs=1e-12)

    def test_single_type_identity_scaling(self):
        profile = AspTypeProfile(thetas=[1.0], alphas=[1.0])
        assert rewards_from_latencies([5.0], profile, 1.0) == pytest.approx([5.0])

    def test_rejects_decreasing_latencies(self):
        profile = AspTypeProfile(thetas=[110, 140], alphas=[0.5, 0.5])
        with pytest.raises(NumericError, match="latencies must be nondecreasing within"):
            rewards_from_latencies([20, 10], profile, 1.0)
        # one bad row in a stack
        with pytest.raises(NumericError, match="latencies must be nondecreasing within"):
            rewards_from_latencies([[1.0, 2.0], [20.0, 10.0]], profile, 1.0)

    def test_lowest_type_participation_binds_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            profile, lat = random_monotone_instance(rng)
            rewards = rewards_from_latencies(lat, profile, 1.0)
            binding = profile.thetas[0] * rewards[0] - lat[0]
            assert abs(binding) <= 1e-12 * max(1.0, lat[0])

    def test_strictly_increasing_latencies_give_strictly_increasing_rewards(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            thetas = np.sort(rng.uniform(50, 500, n))
            profile = AspTypeProfile(thetas=thetas, alphas=np.full(n, 1.0 / n))
            lat = np.cumsum(rng.uniform(0.5, 10.0, n))
            rewards = rewards_from_latencies(lat, profile, 1.0)
            assert np.all(np.diff(rewards) > 0)

    def test_stacked_rows_match_the_scalar_recursion(self):
        # the types run along the last axis; each row must be the recursion
        # R_i = R_{i-1} + gamma1 * (L_i - L_{i-1}) / theta_i, bit for bit
        rng = np.random.default_rng(6)
        for _ in range(20):
            profile, _ = random_monotone_instance(rng)
            rows = np.sort(rng.uniform(0.0, 300.0, (5, profile.n_types)), axis=1)
            got = rewards_from_latencies(rows, profile, 1.7)
            for row, rewards in zip(rows, got):
                acc, prev = 0.0, 0.0
                for i, lat in enumerate(row):
                    acc += 1.7 * (lat - prev) / profile.thetas[i]
                    prev = lat
                    assert rewards[i] == acc


class TestCheckFeasibility:
    def test_constructed_menu_is_feasible(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            profile, lat = random_monotone_instance(rng)
            check_feasibility(menu_from(lat, profile), profile, 1.0)

    def test_detects_ic_violation(self):
        profile = AspTypeProfile(thetas=[1.0, 2.0], alphas=[0.5, 0.5])
        menu = ContractMenu(latencies=[1.0, 1.0], rewards=[5.0, 4.5])
        # both types participate, but type 2 prefers bundle 1: 2*5 - 1 over 2*4.5 - 1
        with pytest.raises(DataError) as caught:
            check_feasibility(menu, profile, 1.0)
        assert str(caught.value) == "type 2 breaks self-selection: prefers type 1's bundle by 1.0"

    def test_detects_a_latency_decrease_between_tied_types(self):
        # types 1 and 2 share theta, so each bundle of theirs gives both
        # utility 0: IR and IC hold, but the latencies fall
        profile = AspTypeProfile(thetas=[110, 110, 140], alphas=[0.3, 0.3, 0.4])
        menu = ContractMenu(latencies=[20.0, 10.0, 50.0], rewards=[20 / 110, 10 / 110, 0.4])
        with pytest.raises(DataError) as caught:
            check_feasibility(menu, profile, 1.0)
        assert str(caught.value) == "type 2 breaks monotonicity: latency 10.0 below type 1's 20.0"

    def test_detects_a_reward_decrease_within_the_ic_slack(self):
        # 2e-12 is past MONOTONE_TOL, and type 2's loss 2 * 2e-12 is within
        # FEASIBILITY_TOL
        profile = AspTypeProfile(thetas=[1.0, 2.0], alphas=[0.5, 0.5])
        menu = ContractMenu(latencies=[0.0, 0.0], rewards=[1.0, 1.0 - 2e-12])
        with pytest.raises(DataError, match="^type 2 breaks monotonicity: reward "):
            check_feasibility(menu, profile, 1.0)

    def test_single_type_boundary_is_feasible(self):
        profile = AspTypeProfile(thetas=[1.0], alphas=[1.0])
        menu = ContractMenu(latencies=[0.0], rewards=[0.0])
        assert check_feasibility(menu, profile, 1.0) is None

    def test_local_downward_binding(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            profile, lat = random_monotone_instance(rng)
            rewards = rewards_from_latencies(lat, profile, 1.0)
            for i in range(profile.n_types - 1):
                own = profile.thetas[i + 1] * rewards[i + 1] - lat[i + 1]
                cross = profile.thetas[i + 1] * rewards[i] - lat[i]
                assert own == pytest.approx(cross, abs=1e-9)


@given(
    data=st.data(),
    n=st.integers(1, 8),
)
@settings(max_examples=60, deadline=None)
def test_property_constructed_menus_always_feasible(data, n):
    thetas = sorted(
        data.draw(st.lists(st.floats(1.0, 400.0), min_size=n, max_size=n))
    )
    raw_alpha = data.draw(
        st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)
    )
    alphas = np.array(raw_alpha)
    alphas /= alphas.sum()
    lat = np.sort(np.array(data.draw(st.lists(st.floats(0.0, 200.0), min_size=n, max_size=n))))
    profile = AspTypeProfile(thetas=thetas, alphas=alphas)
    menu = menu_from(lat, profile)
    check_feasibility(menu, profile, 1.0)


@st.composite
def perturbed_menus(draw):
    """``(profile, menu)``: a menu built by :func:`rewards_from_latencies`
    for one to six types, each theta tied to the one below it or not, and
    then one to three perturbations of one type's bundle each: its reward
    scaled by 0 to 2 (breaking IR below 1 and IC above), its bundle slid
    down its own indifference line (a latency decrease, and an IC break
    unless the types are tied), or the bundle below it with 2e-12 less
    reward (a reward decrease within the IC slack)."""
    n = draw(st.integers(1, 6))
    thetas = sorted(draw(st.lists(st.floats(1.0, 400.0), min_size=n, max_size=n)))
    for i in range(1, n):
        if draw(st.booleans()):
            thetas[i] = thetas[i - 1]
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    profile = AspTypeProfile(thetas=thetas, alphas=np.array(weights) / sum(weights))
    lat = np.sort(draw(st.lists(st.floats(0.0, 200.0), min_size=n, max_size=n)))
    rew = rewards_from_latencies(lat, profile, 1.0)
    kinds = st.sampled_from(["scale", "slide", "dip"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=3)):
        k = draw(st.integers(0, n - 1))
        if kind == "scale":
            rew[k] *= draw(st.floats(0.0, 2.0))
        elif kind == "slide":
            d = draw(st.floats(0.0, 1.0)) * lat[k]
            lat[k] -= d
            rew[k] -= d / thetas[k]
        elif k > 0:
            lat[k], rew[k] = lat[k - 1], rew[k - 1] - 2e-12
    return profile, ContractMenu(latencies=lat, rewards=rew)


@given(perturbed_menus())
@settings(max_examples=300, deadline=None)
def test_check_feasibility_names_the_reference_loops_first_violation(instance):
    profile, menu = instance
    expected = feasibility_violations(menu, profile, 1.0)
    if not expected:
        assert check_feasibility(menu, profile, 1.0) is None
        return
    with pytest.raises(DataError) as caught:
        check_feasibility(menu, profile, 1.0)
    assert str(caught.value) == expected[0]


def expected_teleop_utility(menu, profile, xi, params):
    """Type-probability-weighted operator utility at one quality point."""
    return eval_teleop_utility(menu, QualitySampleSet([xi]), profile, params)


class TestExpectedTeleopUtility:
    def test_degenerate_mixture_equals_single_utility(self):
        profile = AspTypeProfile(thetas=[110.0], alphas=[1.0])
        menu = ContractMenu(latencies=[7.0], rewards=[0.3])
        got = expected_teleop_utility(menu, profile, 80.0, UtilityParams())
        assert got == pytest.approx(math.log(87.0) - 0.3, abs=1e-12)

    def test_zero_menu_at_unit_quality(self):
        profile = AspTypeProfile(thetas=[110, 140], alphas=[0.5, 0.5])
        menu = ContractMenu(latencies=[0.0, 0.0], rewards=[0.0, 0.0])
        assert expected_teleop_utility(menu, profile, 1.0, UtilityParams()) == 0.0

    def test_weighted_sum_matches_direct_computation(self):
        profile = AspTypeProfile(thetas=[110, 140], alphas=[0.25, 0.75])
        menu = menu_from(np.array([10.0, 20.0]), profile)
        expected = 0.25 * (math.log(70.0) - 10 / 110) + 0.75 * (
            math.log(80.0) - (10 / 110 + 10 / 140)
        )
        got = expected_teleop_utility(menu, profile, 60.0, UtilityParams())
        assert got == pytest.approx(expected, abs=1e-12)


class TestContractMenu:
    @pytest.mark.parametrize(
        "latencies, rewards",
        [([0.0, float("nan")], [0.0, 0.1]), ([0.0, 1.0], [0.0, float("inf")])],
    )
    def test_rejects_non_finite_entries(self, latencies, rewards):
        with pytest.raises(ValidationError):
            ContractMenu(latencies=latencies, rewards=rewards)


class TestCsvRoundTrip:
    def test_profile_round_trip(self, tmp_path, default_profile):
        path = tmp_path / "profile.csv"
        write_profile_csv(default_profile, path)
        back = read_profile_csv(path)
        np.testing.assert_array_equal(back.thetas, default_profile.thetas)
        np.testing.assert_array_equal(back.alphas, default_profile.alphas)

    def test_menu_round_trip(self, tmp_path, default_profile):
        lat = np.linspace(0.0, 70.0, default_profile.n_types)
        menu = menu_from(lat, default_profile)
        path = tmp_path / "menu.csv"
        write_menu_csv(menu, path)
        back = read_menu_csv(path)
        np.testing.assert_array_equal(back.latencies, menu.latencies)
        np.testing.assert_array_equal(back.rewards, menu.rewards)

    def test_non_finite_value_names_the_line(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("type_index,theta,alpha\n1,110.0,0.5\n2,inf,0.5\n")
        with pytest.raises(ParseError) as info:
            read_profile_csv(path)
        assert (info.value.path, info.value.line) == (str(path), 3)

    def test_invalid_profile_names_the_file(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("type_index,theta,alpha\n1,110.0,0.5\n2,140.0,0.6\n")
        with pytest.raises(ParseError) as info:
            read_profile_csv(path)
        assert info.value.path == str(path)
        assert "alphas must sum to 1" in str(info.value)
