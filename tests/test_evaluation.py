import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from drcontract import (
    AmbiguityConfig,
    AspTypeProfile,
    ContractMenu,
    DataError,
    NonPositiveLogArgument,
    QualitySampleSet,
    SupportInterval,
    UtilityParams,
    ValidationError,
    eval_asp_utilities,
    eval_teleop_utility,
    expected_reward,
    generate_alphas,
    inner_candidates,
    objectives,
    oracle_menu_search,
    rewards_from_latencies,
    run_benchmark,
    shift_samples,
    solve,
    write_asp_csv,
    write_metrics_csv,
)
from drcontract import evaluation
from drcontract.config import RunConfig, generate_quality_samples
from drcontract.evaluation import (
    _Bound,
    _box_points,
    _box_rewards,
    _chunk_best,
    _gather,
    _monotone_chunks,
    _psi,
    _scaled_tables,
    check_oracle_inputs,
)

PARAMS = UtilityParams()
SUPPORT = SupportInterval(60.0, 100.0)


def menu_from(latencies, profile):
    return ContractMenu(
        latencies=latencies, rewards=rewards_from_latencies(latencies, profile, 1.0)
    )


@st.composite
def oracle_instances(draw):
    """Up to four types, anchors below, on, inside and above the support, a
    radius small enough that the multiplier argmax usually leaves zero, and
    a coarse grid whose multiplier range is a whole number of steps.  The
    flip points lie near 0.01, so the small steps put grid points between
    them and the large ones bracket them all in the first step.  In three
    draws of four the radius is counted from the anchors' mean distance to
    the support, so the program is bounded; otherwise from zero, and the
    search refuses the samples when they lie farther out on average."""
    n_types = draw(st.integers(1, 4))
    thetas = sorted(draw(st.lists(st.floats(100.0, 260.0), min_size=n_types, max_size=n_types)))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n_types, max_size=n_types))
    profile = AspTypeProfile(thetas=thetas, alphas=np.array(weights) / sum(weights))
    anchor = st.one_of(
        st.floats(50.0, 59.5),
        st.sampled_from([SUPPORT.lo, SUPPORT.hi]),
        st.floats(SUPPORT.lo, SUPPORT.hi),
        st.floats(100.5, 110.0),
    )
    samples = QualitySampleSet(draw(st.lists(anchor, min_size=1, max_size=6)))
    to_support = mean_distance_to_support(samples)
    origin = draw(st.sampled_from([to_support, to_support, to_support, 0.0]))
    amb = AmbiguityConfig(SUPPORT, origin + draw(st.floats(0.0, 8.0)))
    step = draw(st.sampled_from([0.002, 0.004, 2.0, 2.5]))
    l_max = step * draw(st.integers(1, 8))
    lambda_max = step * draw(st.integers(1, 10))
    return profile, samples, amb, step, l_max, lambda_max


@st.composite
def pruning_instances(draw):
    """One to three types with zero probabilities and duplicate thetas
    allowed; anchors below, on and above the support, so the projection
    often is the floor (h(p) == h(lo)); a radius at, between or past the
    mean distances to the support and to the floor, so the program is
    bounded and the multiplier slope at zero takes both signs, and in one
    draw of five half the distance to the support, which the search
    refuses when that distance is positive; and a multiplier range that may
    be zero."""
    n_types = draw(st.integers(1, 3))
    per_type = {"min_size": n_types, "max_size": n_types}
    thetas = sorted(draw(st.lists(st.sampled_from([110.0, 140.0, 180.0]), **per_type)))
    weights = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 1.0]), **per_type))
    if sum(weights) == 0.0:
        weights[-1] = 1.0
    profile = AspTypeProfile(thetas=thetas, alphas=np.array(weights) / sum(weights))
    anchor = st.one_of(
        st.floats(40.0, 59.5),
        st.sampled_from([SUPPORT.lo, SUPPORT.hi]),
        st.floats(SUPPORT.lo, SUPPORT.hi),
        st.floats(100.5, 120.0),
    )
    anchors = draw(st.lists(anchor, min_size=1, max_size=8))
    candidates = inner_candidates(anchors, SUPPORT)
    to_support = float(candidates.p_distance.mean())
    to_floor = float(candidates.lo_distance.mean())
    radii = [to_support / 2, to_support, (to_support + to_floor) / 2, to_floor, 1.5 * to_floor]
    amb = AmbiguityConfig(SUPPORT, draw(st.sampled_from(radii)))
    step = draw(st.sampled_from([0.5, 1.0, 2.0]))
    l_max = step * draw(st.integers(0, {1: 150, 2: 30, 3: 12}[n_types]))
    lambda_max = step * draw(st.integers(0, 12))
    return profile, QualitySampleSet(anchors), amb, step, l_max, lambda_max


def unpruned_oracle(profile, samples, amb, step, l_max, lambda_max):
    """Reference: every nondecreasing latency point evaluated exactly in one
    chunk, an exact tie going to the lexicographically least point."""
    values = step * np.arange(int(math.floor(l_max / step + 1e-9)) + 1)
    candidates = inner_candidates(samples.samples, amb.support)
    scaled = _scaled_tables(candidates.points, values, profile, PARAMS)
    points = np.array(
        list(itertools.combinations_with_replacement(range(values.size), profile.n_types))
    )
    lat = values[points]
    g = expected_reward(rewards_from_latencies(lat, profile, PARAMS.gamma1), profile.alphas)
    h = _gather(scaled, points)
    omega, idx = _chunk_best(h, g, candidates, amb.epsilon, step, lambda_max, points)
    return omega, lat[idx]


def mean_distance_to_support(samples):
    """mean|anchor - clip(anchor, lo, hi)|: past the radius, the robust
    objective is unbounded in the multiplier."""
    anchors = np.asarray(samples.samples)
    return float(np.mean(np.abs(anchors - np.clip(anchors, SUPPORT.lo, SUPPORT.hi))))


def grid_max_objective(lat, profile, samples, amb, step, lambda_max):
    """Largest :func:`bcd.objectives` at ``lat`` over the oracle's
    multiplier grid."""
    candidates = inner_candidates(samples.samples, amb.support)
    lams = step * np.arange(round(lambda_max / step) + 1)
    return max(objectives(lat, lam, candidates, amb.epsilon, profile, PARAMS)[0] for lam in lams)


class TestEvalTeleopUtility:
    def test_single_sample_single_type(self):
        profile = AspTypeProfile(thetas=[110.0], alphas=[1.0])
        menu = ContractMenu(latencies=[4.0], rewards=[0.2])
        samples = QualitySampleSet([77.0])
        got = eval_teleop_utility(menu, samples, profile, PARAMS)
        assert got == pytest.approx(math.log(81.0) - 0.2, abs=1e-12)

    def test_duplicate_samples_mean_invariance(self):
        profile = AspTypeProfile(thetas=[110.0, 140.0], alphas=[0.5, 0.5])
        menu = menu_from(np.array([3.0, 8.0]), profile)
        one = eval_teleop_utility(menu, QualitySampleSet([81.0]), profile, PARAMS)
        two = eval_teleop_utility(menu, QualitySampleSet([81.0, 81.0]), profile, PARAMS)
        assert one == pytest.approx(two, abs=1e-12)

    def test_zero_menu_direct_value(self):
        profile = AspTypeProfile(thetas=[110.0], alphas=[1.0])
        menu = ContractMenu(latencies=[0.0], rewards=[0.0])
        got = eval_teleop_utility(menu, QualitySampleSet([60.0, 100.0]), profile, PARAMS)
        assert got == pytest.approx((math.log(60.0) + math.log(100.0)) / 2, abs=1e-12)

    def test_offending_sample_index_reported(self):
        profile = AspTypeProfile(thetas=[110.0], alphas=[1.0])
        menu = ContractMenu(latencies=[0.0], rewards=[0.0])
        with pytest.raises(NonPositiveLogArgument) as err:
            eval_teleop_utility(menu, QualitySampleSet([70.0, -3.0]), profile, PARAMS)
        assert err.value.sample_index == 1
        # the first offending sample in sample order, whichever type fails there
        two = AspTypeProfile(thetas=[110.0, 140.0], alphas=[0.5, 0.5])
        menu = ContractMenu(latencies=[5.0, 0.0], rewards=[0.0, 0.0])
        with pytest.raises(NonPositiveLogArgument) as err:
            eval_teleop_utility(menu, QualitySampleSet([70.0, -3.0, -10.0]), two, PARAMS)
        assert err.value.sample_index == 1
        assert str(err.value) == "sample 1: log argument -3.0 at xi=-3.0 must be > 0"

    def test_rejects_a_menu_for_another_type_count(self):
        profile = AspTypeProfile(thetas=[110.0, 140.0], alphas=[0.5, 0.5])
        menu = ContractMenu(latencies=[5.0], rewards=[0.1])
        with pytest.raises(DataError, match="2 alphas vs 1 latencies"):
            eval_teleop_utility(menu, QualitySampleSet([70.0]), profile, PARAMS)

    def test_monotone_in_downward_shift(self):
        profile = AspTypeProfile(thetas=[110.0, 140.0], alphas=[0.4, 0.6])
        menu = menu_from(np.array([30.0, 55.0]), profile)
        samples = QualitySampleSet(np.linspace(61, 99, 30))
        values = [
            eval_teleop_utility(menu, shift_samples(samples, m), profile, PARAMS)
            for m in (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestEvalAspUtilities:
    def test_constructed_menu_starts_at_zero_and_increases(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            thetas = np.sort(rng.uniform(80, 300, n))
            profile = AspTypeProfile(thetas=thetas, alphas=np.full(n, 1.0 / n))
            lat = np.sort(rng.uniform(0, 150, n))
            got = eval_asp_utilities(menu_from(lat, profile), profile, 1.0)
            assert abs(got[0]) <= 1e-9
            assert np.all(np.diff(got) >= -1e-9)

    def test_zero_menu_all_zero(self):
        profile = AspTypeProfile(thetas=[110.0, 140.0], alphas=[0.5, 0.5])
        menu = ContractMenu(latencies=[0.0, 0.0], rewards=[0.0, 0.0])
        np.testing.assert_array_equal(eval_asp_utilities(menu, profile, 1.0), [0.0, 0.0])

    def test_rejects_a_menu_for_another_type_count(self):
        profile = AspTypeProfile(thetas=[110.0, 140.0, 175.0], alphas=[0.2, 0.3, 0.5])
        menu = ContractMenu(latencies=[5.0], rewards=[0.1])
        with pytest.raises(DataError, match="menu and profile must have the same length"):
            eval_asp_utilities(menu, profile, 1.0)


class TestOracle:
    def test_nonpositive_log_argument_names_the_floor_at_zero_latency(self):
        profile = AspTypeProfile(thetas=[110.0, 140.0], alphas=[0.5, 0.5])
        amb = AmbiguityConfig(SupportInterval(-10.0, 100.0), 5.0)
        samples = QualitySampleSet([50.0, 70.0])
        with pytest.raises(NonPositiveLogArgument) as err:
            oracle_menu_search(profile, samples, PARAMS, amb, 0.5, l_max=5.0, lambda_max=10.0)
        assert err.value.sample_index == 0
        assert str(err.value) == "log argument -10.0 at xi=-10.0 must be > 0"

    def test_single_type_analytic_argmax(self):
        # huge radius floors the adversary, so the best latency solves
        # 1/(lo + L) = 1/theta, i.e. L = theta - lo
        profile = AspTypeProfile(thetas=[150.0], alphas=[1.0])
        samples = QualitySampleSet(np.linspace(61, 99, 10))
        amb = AmbiguityConfig(SUPPORT, 1e3)
        step = 0.05
        omega, lat = oracle_menu_search(
            profile, samples, PARAMS, amb, step, l_max=120.0, lambda_max=10.0
        )
        assert lat[0] == pytest.approx(150.0 - 60.0, abs=step + 1e-9)

    def test_incumbent_dominance_and_agreement_with_objective(self):
        rng = np.random.default_rng(29)
        profile = AspTypeProfile(thetas=[110.0, 140.0], alphas=[0.45, 0.55])
        samples = QualitySampleSet(rng.uniform(60, 100, 12))
        amb = AmbiguityConfig.derive(SUPPORT, 0.9, 12)
        step = 0.5
        omega, lat = oracle_menu_search(
            profile, samples, PARAMS, amb, step, l_max=100.0, lambda_max=2.0
        )
        # every on-grid point the loop visited is dominated by the reported max
        candidates = inner_candidates(samples.samples, SUPPORT)
        for l1 in (0.0, 10.0, 42.5, 80.0):
            for l2 in (l1, l1 + 10.0, 99.5):
                for lam in (0.0, 0.5, 1.0, 2.0):
                    ref, _ = objectives([l1, l2], lam, candidates, amb.epsilon, profile, PARAMS)
                    assert omega >= ref - 1e-9
        # the reported maximizer reproduces its objective through the literal path
        best_lam_grid = np.arange(0.0, 2.0 + step / 2, step)
        best_via_literal = max(
            objectives(lat, lam, candidates, amb.epsilon, profile, PARAMS)[0]
            for lam in best_lam_grid
        )
        assert omega == pytest.approx(best_via_literal, abs=1e-9)

    def test_refinement_monotonicity(self):
        profile = AspTypeProfile(thetas=[110.0], alphas=[1.0])
        samples = QualitySampleSet(np.linspace(62, 98, 8))
        amb = AmbiguityConfig.derive(SUPPORT, 0.95, 8)
        coarse, _ = oracle_menu_search(
            profile, samples, PARAMS, amb, 0.1, l_max=60.0, lambda_max=10.0
        )
        fine, _ = oracle_menu_search(
            profile, samples, PARAMS, amb, 0.05, l_max=60.0, lambda_max=10.0
        )
        assert fine >= coarse - 1e-9

    @pytest.mark.parametrize("l_max, lambda_max", [(math.inf, 1.0), (5.0, math.inf), (5.0, -1.0)])
    def test_rejects_ranges_that_are_not_finite_and_nonnegative(self, l_max, lambda_max):
        profile = AspTypeProfile(thetas=[110.0], alphas=[1.0])
        amb = AmbiguityConfig(SUPPORT, 5.0)
        samples = QualitySampleSet([70.0])
        with pytest.raises(ValidationError, match="finite"):
            oracle_menu_search(profile, samples, PARAMS, amb, 1.0, l_max, lambda_max)

    def test_rejects_too_many_types(self):
        profile = AspTypeProfile(thetas=[1.0, 2.0, 3.0, 4.0], alphas=[0.25] * 4)
        samples = QualitySampleSet([70.0])
        amb = AmbiguityConfig.derive(SUPPORT, 0.9, 1)
        with pytest.raises(ValidationError, match="evaluation budget"):
            oracle_menu_search(profile, samples, PARAMS, amb, 0.05, l_max=50.0, lambda_max=10.0)

    @pytest.mark.parametrize("n_types", [1, 2, 3, 4])
    def test_monotone_chunks_match_lexicographic_enumeration(self, n_types):
        # 3-row chunks end inside first-index blocks, and 10**6 rows hold
        # every tuple
        for n_l in (1, 2, 5, 17):
            expected = list(itertools.combinations_with_replacement(range(n_l), n_types))
            for chunk_rows in (1, 3, 10**6):
                chunks = list(_monotone_chunks(n_l, n_types, chunk_rows))
                assert all(c.shape[0] == chunk_rows for c in chunks[:-1])
                assert [tuple(row) for c in chunks for row in c.tolist()] == expected

    def test_rejects_oversized_grid(self):
        profile = AspTypeProfile(thetas=[1.0, 2.0, 3.0], alphas=[0.3, 0.3, 0.4])
        samples = QualitySampleSet(np.linspace(60, 100, 200))
        amb = AmbiguityConfig.derive(SUPPORT, 0.9, 200)
        with pytest.raises(ValidationError, match="evaluation budget"):
            oracle_menu_search(profile, samples, PARAMS, amb, 0.05, l_max=100.0, lambda_max=10.0)

    def test_rejects_grid_tables_over_memory_budget(self):
        # 1e8 grid values x 1 sample fits the evaluation budget, but the log
        # table and its copies would take about 5 GB
        profile = AspTypeProfile(thetas=[110.0], alphas=[1.0])
        samples = QualitySampleSet([70.0])
        amb = AmbiguityConfig.derive(SUPPORT, 0.9, 1)
        with pytest.raises(ValidationError, match="table budget"):
            oracle_menu_search(profile, samples, PARAMS, amb, 1.0, l_max=1e8 - 1, lambda_max=10.0)

    @pytest.mark.parametrize("grid_step, l_max", [(1e-300, 1e10), (1.0, 1e7), (1.0, 2e6 - 1)])
    def test_rejects_grids_past_the_table_budget(self, grid_step, l_max):
        # l_max / grid_step past the float range, at the table budget in
        # grid steps, and below it with the tables over it
        profile = AspTypeProfile(thetas=[110.0], alphas=[1.0])
        samples = QualitySampleSet([70.0])
        amb = AmbiguityConfig.derive(SUPPORT, 0.9, 1)
        with pytest.raises(ValidationError, match="table budget"):
            oracle_menu_search(
                profile, samples, PARAMS, amb, grid_step, l_max=l_max, lambda_max=10.0
            )

    def test_unbounded_samples_raise_before_any_table(self):
        # three of eight anchors outside [60, 100], 8.2375 from it on
        # average: the grid's best would sit at lambda_max and grow with it
        profile = AspTypeProfile(thetas=[110.0, 140.0], alphas=[0.5, 0.5])
        samples = QualitySampleSet([46.2, 60.0, 120.9, 60.0, 100.0, 131.2, 100.0, 60.0])
        amb = AmbiguityConfig(SUPPORT, 8.0)
        tables = []
        with mock.patch.object(evaluation, "_scaled_tables", lambda *a: tables.append(a)):
            with pytest.raises(DataError) as err:
                oracle_menu_search(profile, samples, PARAMS, amb, 1.0, l_max=20.0, lambda_max=10.0)
        assert tables == []
        assert str(err.value) == (
            f"mean distance {mean_distance_to_support(samples)!r} of the training data to "
            "the support exceeds the radius epsilon = 8.0: the robust objective is "
            "unbounded in the multiplier"
        )

    def test_input_check_refuses_unbounded_samples_before_the_grid(self):
        # a step of zero breaks the grid; an anchor 10 below the support and
        # a radius of 5 break boundedness, and that is reported first
        profile = AspTypeProfile(thetas=[110.0], alphas=[1.0])
        amb = AmbiguityConfig(SUPPORT, 5.0)
        for anchor, error in ((50.0, DataError), (70.0, ValidationError)):
            with pytest.raises(error):
                check_oracle_inputs(profile, QualitySampleSet([anchor]), amb, 0.0, 5.0, 1.0)
        samples = QualitySampleSet([70.0])
        candidates, grid = check_oracle_inputs(profile, samples, amb, 0.5, 5.0, 1.0)
        assert grid == (11, 64, 1)  # 11 grid values in one cell of up to 64
        for got, want in zip(candidates, inner_candidates([70.0], SUPPORT)):
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("n_types", [64, 70])
    def test_one_grid_value_at_many_types(self, n_types):
        # one point, in one box of one-value cells; numpy caps arrays at 64
        # dimensions, fewer than these types plus one
        profile = AspTypeProfile(
            thetas=100.0 + 2.0 * np.arange(n_types), alphas=generate_alphas(n_types, 0)
        )
        samples = QualitySampleSet([70.0, 85.0, 95.0])
        amb = AmbiguityConfig.derive(SUPPORT, 0.99, 3)
        omega, lat = oracle_menu_search(
            profile, samples, PARAMS, amb, 0.05, l_max=0.0, lambda_max=10.0
        )
        assert lat.tolist() == [0.0] * n_types
        assert omega == grid_max_objective(lat, profile, samples, amb, 0.05, 10.0)

    def test_grids_are_the_step_multiples_and_lambda_max(self):
        # the seed-0 instance at step 1, whose objective rises with both
        # latencies up to 21 and peaks in the multiplier between 0 and 0.5
        cfg = RunConfig(thetas=(110.0, 140.0), n_train=20, tau=0.05)
        samples, profile = cfg.train_samples(), cfg.profile()
        amb = cfg.ambiguity_for(samples.n)
        args = (profile, samples, PARAMS, amb, 1.0)
        # the latency grid stops at the last multiple of the step at or
        # below l_max
        for l_max in (20.0, 20.9):
            _, lat = oracle_menu_search(*args, l_max=l_max, lambda_max=10.0)
            assert lat.tolist() == [20.0, 20.0]
        candidates = inner_candidates(samples.samples, amb.support)

        def value(lam):
            return objectives([20.0, 20.0], lam, candidates, amb.epsilon, profile, PARAMS)[0]

        assert value(0.001) == 4.219363735418896 > value(0.0) == 4.200208452855698
        # the multiplier grid is the multiples of the step below lambda_max,
        # and lambda_max itself
        assert oracle_menu_search(*args, l_max=20.0, lambda_max=0.001)[0] == value(0.001)
        for lambda_max in (0.5, 10.0):
            assert oracle_menu_search(*args, l_max=20.0, lambda_max=lambda_max)[0] == value(0.0)

    def test_bcd_reaches_oracle_value_on_tiny_instance(self):
        rng = np.random.default_rng(33)
        profile = AspTypeProfile(thetas=[120.0, 180.0], alphas=[0.5, 0.5])
        samples = QualitySampleSet(rng.uniform(60, 100, 10))
        amb = AmbiguityConfig.derive(SUPPORT, 0.99, 10)
        report = solve(samples, profile, PARAMS, amb, RunConfig())
        omega, _ = oracle_menu_search(
            profile, samples, PARAMS, amb, 0.1, l_max=150.0, lambda_max=5.0
        )
        # The prescribed latency gradient prices each type's increment at its
        # own marginal rate only, so its fixed point can trail the exhaustive
        # maximum by a few 1e-2 in objective; the solver must never beat the
        # oracle by more than grid resolution.
        assert report.objective >= omega - 3e-2
        assert report.objective <= omega + 1e-3

    # (objective, latencies) of the exhaustive search, pinned bit for bit
    def test_pinned_criterion_05_instance(self):
        profile = AspTypeProfile(thetas=[110.0, 140.0], alphas=generate_alphas(2, 0))
        samples = generate_quality_samples(20, 0, "train-data", 85.0, 8.0, SUPPORT)
        amb = AmbiguityConfig.derive(SUPPORT, 0.99, 20)
        omega, lat = oracle_menu_search(
            profile, samples, PARAMS, amb, 0.05, l_max=50.0, lambda_max=10.0
        )
        assert omega == 4.256970764931454
        assert lat.tolist() == [29.5, 50.0]
        assert omega == grid_max_objective(lat, profile, samples, amb, 0.05, 10.0)

    def test_pinned_criterion_05_instance_at_benchmark_step(self):
        # the perfbench oracle workload's instance
        profile = AspTypeProfile(thetas=[110.0, 140.0], alphas=generate_alphas(2, 0))
        samples = generate_quality_samples(20, 0, "train-data", 85.0, 8.0, SUPPORT)
        amb = AmbiguityConfig.derive(SUPPORT, 0.99, 20)
        omega, lat = oracle_menu_search(
            profile, samples, PARAMS, amb, 0.025, l_max=50.0, lambda_max=10.0
        )
        assert omega == 4.256970765256351
        assert lat.tolist() == [29.475, 50.0]
        assert omega == grid_max_objective(lat, profile, samples, amb, 0.025, 10.0)

    def test_pinned_three_type_instance(self):
        # a small radius puts the multiplier argmax above zero, and the
        # anchors lie below, on the edges of, inside and above the support
        profile = AspTypeProfile(thetas=[110.0, 140.0, 180.0], alphas=[0.25, 0.35, 0.4])
        samples = QualitySampleSet([50.0, 60.0, 72.5, 81.0, 93.25, 100.0, 108.0])
        amb = AmbiguityConfig(SUPPORT, 5.0)
        omega, lat = oracle_menu_search(
            profile, samples, PARAMS, amb, 1.0, l_max=130.0, lambda_max=3.0
        )
        assert omega == 4.324011596838206
        assert lat.tolist() == [7.0, 52.0, 120.0]
        assert omega == grid_max_objective(lat, profile, samples, amb, 1.0, 3.0)

    def test_pinned_single_type_instance(self):
        profile = AspTypeProfile(thetas=[150.0], alphas=[1.0])
        samples = QualitySampleSet(np.linspace(61, 99, 10))
        amb = AmbiguityConfig.derive(SUPPORT, 0.95, 10)
        omega, lat = oracle_menu_search(
            profile, samples, PARAMS, amb, 0.05, l_max=120.0, lambda_max=10.0
        )
        assert omega == 4.410635294096256
        assert lat.tolist() == [90.0]
        assert omega == grid_max_objective(lat, profile, samples, amb, 0.05, 10.0)

    @given(oracle_instances())
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_objective_grid(self, instance):
        profile, samples, amb, step, l_max, lambda_max = instance
        if mean_distance_to_support(samples) > amb.epsilon:
            # no maximum: the grid's best would grow with lambda_max
            with pytest.raises(DataError, match="unbounded in the multiplier$"):
                oracle_menu_search(profile, samples, PARAMS, amb, step, l_max, lambda_max)
            return
        omega, lat = oracle_menu_search(
            profile, samples, PARAMS, amb, step, l_max=l_max, lambda_max=lambda_max
        )
        values = step * np.arange(round(l_max / step) + 1)
        lams = step * np.arange(round(lambda_max / step) + 1)
        candidates = inner_candidates(samples.samples, SUPPORT)
        brute = max(
            objectives(list(point), lam, candidates, amb.epsilon, profile, PARAMS)[0]
            for point in itertools.combinations_with_replacement(values, profile.n_types)
            for lam in lams
        )
        assert omega == pytest.approx(brute, abs=1e-9)
        at_argmax = max(
            objectives(lat, lam, candidates, amb.epsilon, profile, PARAMS)[0] for lam in lams
        )
        assert at_argmax == pytest.approx(omega, abs=1e-9)


class TestPrune:
    """The bound-and-prune search against the loop that evaluates every
    latency point."""

    @given(pruning_instances(), st.integers(1, 60))
    @settings(max_examples=120, deadline=None)
    def test_matches_the_unpruned_loop_bit_for_bit(self, instance, chunk_entries):
        profile, samples, amb, step, l_max, lambda_max = instance
        if mean_distance_to_support(samples) > amb.epsilon:
            with pytest.raises(DataError, match="unbounded in the multiplier$"):
                oracle_menu_search(profile, samples, PARAMS, amb, step, l_max, lambda_max)
            return
        # small chunks, so incumbents carry across many of them
        with mock.patch.object(evaluation, "_CHUNK_ENTRIES", chunk_entries):
            omega, lat = oracle_menu_search(
                profile, samples, PARAMS, amb, step, l_max=l_max, lambda_max=lambda_max
            )
            ref_omega, ref_lat = unpruned_oracle(profile, samples, amb, step, l_max, lambda_max)
        assert omega == ref_omega
        assert lat.tolist() == ref_lat.tolist()

    @given(pruning_instances())
    @settings(max_examples=120, deadline=None)
    def test_bound_holds_at_every_grid_multiplier(self, instance):
        profile, samples, amb, step, l_max, lambda_max = instance
        # the search builds its bounds only on samples that check_oracle_inputs
        # accepts, and the projection branch's bound holds only there
        assume(mean_distance_to_support(samples) <= amb.epsilon)
        values = step * np.arange(round(l_max / step) + 1)
        candidates = inner_candidates(samples.samples, amb.support)
        scaled = _scaled_tables(candidates.points, values, profile, PARAMS)
        (chunk,) = _monotone_chunks(values.size, profile.n_types, 10**6)
        rewards = rewards_from_latencies(values[chunk], profile, PARAMS.gamma1)
        g = expected_reward(rewards, profile.alphas)
        point_bound = _Bound(scaled, np.arange(values.size), candidates, amb.epsilon, lambda_max)
        bound = point_bound(chunk, g, g)
        h = _gather(scaled, chunk)
        for lam in step * np.arange(round(lambda_max / step) + 1):
            assert np.all(bound >= _psi(h, g, np.full(g.size, lam), candidates, amb.epsilon))

    @given(pruning_instances(), st.sampled_from([1, 2, 3, 4, 8, 64]))
    @settings(max_examples=120, deadline=None)
    @example(
        # a zero-probability type between two others, and diagonal boxes; the
        # radius is the mean distance to the support, the least it may be
        (
            AspTypeProfile(thetas=[110.0, 140.0, 140.0], alphas=[0.5, 0.0, 0.5]),
            QualitySampleSet([45.0, 60.0, 77.0, 110.0]),
            AmbiguityConfig(SUPPORT, 6.25),
            1.0,
            12.0,
            3.0,
        ),
        4,
    )
    def test_box_bound_holds_at_every_point_and_grid_multiplier(self, instance, size):
        profile, samples, amb, step, l_max, lambda_max = instance
        assume(mean_distance_to_support(samples) <= amb.epsilon)  # as for the point bound
        values = step * np.arange(round(l_max / step) + 1)
        candidates = inner_candidates(samples.samples, amb.support)
        scaled = _scaled_tables(candidates.points, values, profile, PARAMS)
        starts = np.arange(0, values.size, size)
        box_bound = _Bound(scaled, starts, candidates, amb.epsilon, lambda_max)
        (cells,) = _monotone_chunks(starts.size, profile.n_types, 10**6)
        g_low, g_high = _box_rewards(cells, size, values, profile, PARAMS.gamma1)
        lams = step * np.arange(round(lambda_max / step) + 1)
        for box, bound in zip(cells, box_bound(cells, g_low, g_high)):
            (points,) = _box_points(box[None], size, values.size, 10**6)
            rewards = rewards_from_latencies(values[points], profile, PARAMS.gamma1)
            g = expected_reward(rewards, profile.alphas)
            h = _gather(scaled, points)
            for lam in lams:
                assert np.all(bound >= _psi(h, g, np.full(g.size, lam), candidates, amb.epsilon))

    @pytest.mark.parametrize("n_types", [1, 2, 3, 4])
    def test_box_points_are_the_nondecreasing_tuples_in_each_box(self, n_types):
        for n_l, size in ((1, 1), (5, 2), (7, 3), (9, 4)):
            n_cells = -(-n_l // size)
            boxes = np.array(
                list(itertools.combinations_with_replacement(range(n_cells), n_types))
            )
            for rows in (1, 5, 10**6):
                seen = []
                for box in boxes:
                    chunks = list(_box_points(box[None], size, n_l, rows))
                    assert all(len(c) <= rows for c in chunks)
                    points = [tuple(row) for c in chunks for row in c.tolist()]
                    assert points == sorted(points)
                    assert all(k // size == c for p in points for k, c in zip(p, box))
                    seen += points
                expected = itertools.combinations_with_replacement(range(n_l), n_types)
                assert sorted(seen) == list(expected)
                together = [tuple(r) for c in _box_points(boxes, size, n_l, rows) for r in c]
                assert together == seen

    def test_exact_ties_in_a_chunk_go_to_the_least_point(self):
        candidates = inner_candidates([70.0, 90.0], SUPPORT)
        h = np.tile([4.2, 4.3, 4.4], (4, 1))
        g = np.full(4, 0.1)
        points = np.array([[2, 5], [1, 7], [1, 6], [2, 2]])
        assert _chunk_best(h, g, candidates, 1.0, 0.5, 2.0, points)[1] == 2

    @pytest.mark.parametrize("chunk_entries", [12, 40, 400])
    @pytest.mark.parametrize(
        "thetas, alphas, step, l_max",
        [
            ([110.0, 140.0], [1.0, 0.0], 1.0, 80.0),
            ([90.0, 100.0, 180.0], [0.5, 0.5, 0.0], 2.0, 60.0),
        ],
    )
    def test_exact_ties_across_boxes_go_to_the_least_tuple(
        self, thetas, alphas, step, l_max, chunk_entries
    ):
        # the last type has probability zero, so its latency moves neither
        # the log benefit nor the expected reward: every tuple that shares
        # the best prefix ties exactly, in boxes across the grid, and the
        # least of them repeats the second-last latency, below l_max here
        profile = AspTypeProfile(thetas=thetas, alphas=alphas)
        samples = QualitySampleSet([55.0, 72.5, 90.0, 104.0])
        amb = AmbiguityConfig(SUPPORT, 4.0)
        with mock.patch.object(evaluation, "_CHUNK_ENTRIES", chunk_entries):
            omega, lat = oracle_menu_search(
                profile, samples, PARAMS, amb, step, l_max=l_max, lambda_max=2.0
            )
            ref_omega, ref_lat = unpruned_oracle(profile, samples, amb, step, l_max, 2.0)
        assert omega == ref_omega
        assert lat.tolist() == ref_lat.tolist()
        assert lat[-1] == lat[-2] <= l_max - 10 * step

    @pytest.mark.parametrize(
        "thetas, alphas, step, l_max",
        [
            ([110.0, 140.0], [1.0, 0.0], 1.0, 80.0),
            ([90.0, 100.0, 180.0], [0.5, 0.5, 0.0], 2.0, 60.0),
        ],
    )
    def test_a_tie_found_first_in_a_later_box_gives_way(self, thetas, alphas, step, l_max):
        # a raised box bound is still sound; raising the one box that holds
        # the best prefix and the grid's top cell has it searched first, and
        # it holds only lexicographically greater ties of the best point
        profile = AspTypeProfile(thetas=thetas, alphas=alphas)
        samples = QualitySampleSet([55.0, 72.5, 90.0, 104.0])
        amb = AmbiguityConfig(SUPPORT, 4.0)
        ref_omega, ref_lat = unpruned_oracle(profile, samples, amb, step, l_max, 2.0)
        size = round(evaluation._BOX_POINTS ** (1.0 / profile.n_types))
        first = np.append(np.round(ref_lat[:-1] / step).astype(int), round(l_max / step)) // size
        box_rewards = evaluation._box_rewards

        def raised(cells, *args):
            g_low, g_high = box_rewards(cells, *args)
            return g_low - 100.0 * np.all(cells == first, axis=1), g_high

        with mock.patch.object(evaluation, "_box_rewards", raised):
            omega, lat = oracle_menu_search(
                profile, samples, PARAMS, amb, step, l_max=l_max, lambda_max=2.0
            )
        assert first[-1] > first[-2]
        assert omega == ref_omega
        assert lat.tolist() == ref_lat.tolist()

    @given(pruning_instances(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_exact_row_value_is_the_bcd_objective(self, instance, data):
        profile, samples, amb, step, l_max, lambda_max = instance
        values = step * np.arange(round(l_max / step) + 1)
        candidates = inner_candidates(samples.samples, amb.support)
        scaled = _scaled_tables(candidates.points, values, profile, PARAMS)
        (chunk,) = _monotone_chunks(values.size, profile.n_types, 10**6)
        rewards = rewards_from_latencies(values[chunk], profile, PARAMS.gamma1)
        g = expected_reward(rewards, profile.alphas)
        h = _gather(scaled, chunk)
        rows = data.draw(st.lists(st.integers(0, len(chunk) - 1), min_size=1, max_size=8))
        lam = step * data.draw(st.integers(0, round(lambda_max / step)))
        whole = _psi(h, g, np.full(g.size, lam), candidates, amb.epsilon)
        subset = _psi(h[rows], g[rows], np.full(len(rows), lam), candidates, amb.epsilon)
        expected = [
            objectives(values[chunk[r]], lam, candidates, amb.epsilon, profile, PARAMS)[0]
            for r in rows
        ]
        assert whole[rows].tolist() == expected
        assert subset.tolist() == expected

    def test_rewards_come_from_the_whole_chunk(self):
        # a matrix-vector product over the few surviving rows rounds the
        # winner's expected reward 1 ulp off the whole chunk's here; the
        # type-ordered sum is elementwise, so the row count cannot matter
        profile = AspTypeProfile(thetas=[180.8, 234.7], alphas=[0.17, 0.83])
        samples = QualitySampleSet([45.0, 74.0, 84.0, 64.0, 102.0])
        amb = AmbiguityConfig(SUPPORT, 10.23)  # mean distance to the support 3.4
        omega, lat = oracle_menu_search(
            profile, samples, PARAMS, amb, 1.0, l_max=30.0, lambda_max=1.0
        )
        ref_omega, ref_lat = unpruned_oracle(profile, samples, amb, 1.0, 30.0, 1.0)
        assert omega == ref_omega
        assert lat.tolist() == ref_lat.tolist()

    @staticmethod
    def criterion_05_counts(step):
        """(rows evaluated exactly, latency points bounded) by the search of
        the criterion-05 instance at grid step ``step``."""
        profile = AspTypeProfile(thetas=[110.0, 140.0], alphas=generate_alphas(2, 0))
        samples = generate_quality_samples(20, 0, "train-data", 85.0, 8.0, SUPPORT)
        amb = AmbiguityConfig.derive(SUPPORT, 0.99, 20)
        evaluated, bounded = [], []

        def counting(h, *args):
            evaluated.append(h.shape[0])
            return _chunk_best(h, *args)

        def listing(*args):
            for points in _box_points(*args):
                bounded.append(len(points))
                yield points

        with mock.patch.object(evaluation, "_chunk_best", counting):
            with mock.patch.object(evaluation, "_box_points", listing):
                oracle_menu_search(profile, samples, PARAMS, amb, step, 50.0, 10.0)
        return sum(evaluated), sum(bounded)

    def test_prunes_all_but_a_few_points_on_the_criterion_05_instance(self):
        # 501,501 latency points in 8,001 boxes, bounded in 2 chunks; 3 rows
        # are evaluated exactly, within two for each of the 11 chunks that
        # held the points when they were all enumerated
        evaluated, _ = self.criterion_05_counts(0.05)
        assert 0 < evaluated <= 2 * 11

    def test_each_search_evaluates_its_top_point_once(self):
        # 2,003,001 latency points in 31,626 boxes, bounded in 5 chunks
        assert self.criterion_05_counts(0.025) == (10, 32952)

    @pytest.mark.parametrize("instance", ["criterion_05", "three_type"])
    def test_chunk_budget_leaves_the_result_unchanged(self, instance):
        # the benchmarked searches at the budget used before the sweep that
        # set _CHUNK_ENTRIES, and at that budget
        if instance == "criterion_05":
            args = (
                AspTypeProfile(thetas=[110.0, 140.0], alphas=generate_alphas(2, 0)),
                generate_quality_samples(20, 0, "train-data", 85.0, 8.0, SUPPORT),
                PARAMS,
                AmbiguityConfig.derive(SUPPORT, 0.99, 20),
                0.025,
                50.0,
                10.0,
            )
        else:
            args = (
                AspTypeProfile(thetas=[110.0, 140.0, 180.0], alphas=[0.25, 0.35, 0.4]),
                QualitySampleSet([50.0, 60.0, 72.5, 81.0, 93.25, 100.0, 108.0]),
                PARAMS,
                AmbiguityConfig(SUPPORT, 5.0),
                1.0,
                130.0,
                3.0,
            )
        results = []
        for budget in (10**6, evaluation._CHUNK_ENTRIES):
            with mock.patch.object(evaluation, "_CHUNK_ENTRIES", budget):
                omega, lat = oracle_menu_search(*args)
            results.append((omega, lat.tolist()))
        assert results[0] == results[1]


class TestRunBenchmark:
    CFG = RunConfig(
        thetas=(110.0, 140.0),
        alphas=(0.5, 0.5),
        n_train=40,
        n_eval=15,
        shift_magnitudes=(0.0, 10.0),
        extreme_counts=(0,),
        seed=3,
    )

    def test_row_shapes_and_method_order(self):
        teleop_rows, asp_rows = run_benchmark(self.CFG, {"ro", "dro", "sp"})
        assert len(teleop_rows) == 3 * 2
        assert len(asp_rows) == 3 * 2
        assert [r[0] for r in teleop_rows] == ["dro", "dro", "sp", "sp", "ro", "ro"]

    def test_levels_then_methods_then_shifts(self):
        cfg = replace(self.CFG, extreme_counts=(0, 5))
        teleop_rows, asp_rows = run_benchmark(cfg, {"sp", "dro"})
        assert [r[:3] for r in teleop_rows] == [
            (m, c, s) for c in (0, 5) for m in ("dro", "sp") for s in (0.0, 10.0)
        ]
        assert [r[:3] for r in asp_rows] == [
            (m, c, t) for c in (0, 5) for m in ("dro", "sp") for t in (1, 2)
        ]

    def test_contamination_hits_training_only(self):
        cfg = replace(self.CFG, shift_magnitudes=(0.0,), extreme_counts=(0, 40))
        (clean, contaminated), _ = run_benchmark(cfg, {"ro"})
        # the worst-case solver never reads samples, and evaluation data is
        # untouched, so full contamination changes nothing for it
        assert clean[:3] == ("ro", 0, 0.0) and contaminated[:3] == ("ro", 40, 0.0)
        assert clean[3] == pytest.approx(contaminated[3], abs=1e-12)

    def test_deterministic(self):
        cfg = replace(self.CFG, extreme_counts=(5,), seed=11)
        assert run_benchmark(cfg, {"dro", "sp"}) == run_benchmark(cfg, {"dro", "sp"})

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            run_benchmark(self.CFG, {"drl"})

    def test_a_level_past_the_sample_count_fails_before_any_training(self, monkeypatch):
        calls = []
        monkeypatch.setattr(evaluation, "train_method", lambda *args: calls.append(args))
        cfg = replace(self.CFG, extreme_counts=(0, 5, 41))
        with pytest.raises(DataError, match="^count 41 exceeds sample count 40$"):
            run_benchmark(cfg)
        assert calls == []

    def test_csv_writers(self, tmp_path):
        write_metrics_csv([("dro", 0, 0.0, 4.5), ("sp", 0, 10.0, 4.4)], tmp_path / "metrics.csv")
        write_asp_csv([("dro", 0, 1, 0.0)], tmp_path / "asp.csv")
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "method,extreme_count,shift,mean_teleop_utility"
        assert lines[1] == "dro,0,0.0,4.5"
        asp_lines = (tmp_path / "asp.csv").read_text().strip().splitlines()
        assert asp_lines[0] == "method,extreme_count,type_index,asp_utility"


class TestScenarioValidation:
    """RunConfig's checks on the benchmark grid's shifts and levels."""

    def test_rejects_negative_extreme_count(self):
        with pytest.raises(ValidationError):
            RunConfig(extreme_counts=(0, -1))

    def test_rejects_unsorted_shifts(self):
        with pytest.raises(ValidationError, match="sorted"):
            RunConfig(shift_magnitudes=(10.0, 0.0))

    def test_rejects_negative_shift(self):
        with pytest.raises(ValidationError):
            RunConfig(shift_magnitudes=(-1.0,))

    def test_rejects_nan_shift(self):
        with pytest.raises(ValidationError):
            RunConfig(shift_magnitudes=(0.0, float("nan")))
