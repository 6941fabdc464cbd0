import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcontract import (
    AmbiguityConfig,
    AspTypeProfile,
    BcdConfig,
    ContractMenu,
    GridTooLarge,
    NonPositiveLogArgument,
    QualitySampleSet,
    SizeMismatch,
    SupportInterval,
    UtilityParams,
    ValidationError,
    eval_asp_utilities,
    eval_teleop_utility,
    generate_alphas,
    inner_candidates,
    objective,
    oracle_menu_search,
    rewards_from_latencies,
    run_benchmark,
    shift_samples,
    solve,
    write_asp_csv,
    write_metrics_csv,
)
from drcontract import evaluation
from drcontract.config import generate_quality_samples
from drcontract.evaluation import (
    EvaluationScenario,
    MetricsTable,
    _AffineInnerProfile,
    _chunk_best,
    _gather,
    _monotone_chunks,
    _RowBound,
    _scaled_tables,
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
    them and the large ones bracket them all in the first step."""
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
    amb = AmbiguityConfig(SUPPORT, draw(st.floats(0.0, 8.0)))
    step = draw(st.sampled_from([0.002, 0.004, 2.0, 2.5]))
    l_max = step * draw(st.integers(1, 8))
    lambda_max = step * draw(st.integers(1, 10))
    return profile, samples, amb, step, l_max, lambda_max


@st.composite
def pruning_instances(draw):
    """One to three types with zero probabilities and duplicate thetas
    allowed; anchors below, on and above the support, so the projection
    often is the floor (h(p) == h(lo)); a radius on either side of the mean
    distance to the floor, so the multiplier slope at zero takes both
    signs; and a multiplier range that may be zero."""
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
    mean_lo_distance = float(np.mean(np.abs(np.array(anchors) - SUPPORT.lo)))
    amb = AmbiguityConfig(SUPPORT, mean_lo_distance * draw(st.sampled_from([0.0, 0.5, 1.0, 1.5])))
    step = draw(st.sampled_from([0.5, 1.0, 2.0]))
    l_max = step * draw(st.integers(0, {1: 150, 2: 30, 3: 12}[n_types]))
    lambda_max = step * draw(st.integers(0, 12))
    return profile, QualitySampleSet(anchors), amb, step, l_max, lambda_max


def unpruned_oracle(profile, samples, amb, step, l_max, lambda_max):
    """Reference: the oracle loop without the bound, every latency point of
    every chunk evaluated exactly."""
    values = step * np.arange(int(math.floor(l_max / step + 1e-9)) + 1)
    candidates = inner_candidates(samples.samples, amb.support)
    scaled = _scaled_tables(candidates.points, values, profile, PARAMS)
    best_omega, best_lat = -np.inf, None
    for chunk in _monotone_chunks(values.size, profile.n_types, samples.n):
        lat = values[chunk]
        g = rewards_from_latencies(lat, profile, PARAMS.gamma1) @ profile.alphas
        prof = _AffineInnerProfile(_gather(scaled, chunk), g, candidates, amb.epsilon)
        omega, idx = _chunk_best(prof, step, lambda_max)
        if omega > best_omega:
            best_omega, best_lat = omega, lat[idx].copy()
    return float(best_omega), best_lat


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
        assert "sample 1 (xi=-3.0)" in str(err.value)

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
        with pytest.raises(SizeMismatch):
            eval_asp_utilities(menu, profile, 1.0)


class TestOracle:
    def test_nonpositive_log_argument_names_the_floor_at_zero_latency(self):
        profile = AspTypeProfile(thetas=[110.0, 140.0], alphas=[0.5, 0.5])
        amb = AmbiguityConfig(SupportInterval(-10.0, 100.0), 5.0)
        samples = QualitySampleSet([50.0, 70.0])
        with pytest.raises(NonPositiveLogArgument) as err:
            oracle_menu_search(profile, samples, PARAMS, amb, 0.5, l_max=5.0)
        assert err.value.sample_index == 0
        assert str(err.value) == "log argument -10.0 at xi=-10.0 must be > 0"

    def test_single_type_analytic_argmax(self):
        # huge radius floors the adversary, so the best latency solves
        # 1/(lo + L) = 1/theta, i.e. L = theta - lo
        profile = AspTypeProfile(thetas=[150.0], alphas=[1.0])
        samples = QualitySampleSet(np.linspace(61, 99, 10))
        amb = AmbiguityConfig(SUPPORT, 1e3)
        step = 0.05
        omega, lat = oracle_menu_search(profile, samples, PARAMS, amb, step, l_max=120.0)
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
                    ref, _ = objective([l1, l2], lam, candidates, amb.epsilon, profile, PARAMS)
                    assert omega >= ref - 1e-9
        # the reported maximizer reproduces its objective through the literal path
        best_lam_grid = np.arange(0.0, 2.0 + step / 2, step)
        best_via_literal = max(
            objective(lat, lam, candidates, amb.epsilon, profile, PARAMS)[0]
            for lam in best_lam_grid
        )
        assert omega == pytest.approx(best_via_literal, abs=1e-9)

    def test_refinement_monotonicity(self):
        profile = AspTypeProfile(thetas=[110.0], alphas=[1.0])
        samples = QualitySampleSet(np.linspace(62, 98, 8))
        amb = AmbiguityConfig.derive(SUPPORT, 0.95, 8)
        coarse, _ = oracle_menu_search(profile, samples, PARAMS, amb, 0.1, l_max=60.0)
        fine, _ = oracle_menu_search(profile, samples, PARAMS, amb, 0.05, l_max=60.0)
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
        with pytest.raises(GridTooLarge):
            oracle_menu_search(profile, samples, PARAMS, amb, 0.05)

    @pytest.mark.parametrize("n_types", [1, 2, 3, 4])
    def test_monotone_chunks_match_lexicographic_enumeration(self, n_types):
        # one sample puts every tuple in one chunk; 3e5 samples give 3-row
        # chunks, which end inside first-index blocks
        for n_l in (1, 2, 5, 17):
            expected = list(itertools.combinations_with_replacement(range(n_l), n_types))
            for n_samples, chunk_rows in ((1, 10**6), (300_000, 3)):
                chunks = list(_monotone_chunks(n_l, n_types, n_samples))
                assert all(c.shape[0] == chunk_rows for c in chunks[:-1])
                assert [tuple(row) for c in chunks for row in c.tolist()] == expected

    def test_rejects_oversized_grid(self):
        profile = AspTypeProfile(thetas=[1.0, 2.0, 3.0], alphas=[0.3, 0.3, 0.4])
        samples = QualitySampleSet(np.linspace(60, 100, 200))
        amb = AmbiguityConfig.derive(SUPPORT, 0.9, 200)
        with pytest.raises(GridTooLarge):
            oracle_menu_search(profile, samples, PARAMS, amb, 0.05, l_max=100.0)

    def test_rejects_grid_tables_over_memory_budget(self):
        # 1e8 grid values x 1 sample fits the evaluation budget, but the log
        # table and its copies would take about 5 GB
        profile = AspTypeProfile(thetas=[110.0], alphas=[1.0])
        samples = QualitySampleSet([70.0])
        amb = AmbiguityConfig.derive(SUPPORT, 0.9, 1)
        with pytest.raises(GridTooLarge, match="table budget"):
            oracle_menu_search(profile, samples, PARAMS, amb, 1.0, l_max=1e8 - 1)

    def test_bcd_reaches_oracle_value_on_tiny_instance(self):
        rng = np.random.default_rng(33)
        profile = AspTypeProfile(thetas=[120.0, 180.0], alphas=[0.5, 0.5])
        samples = QualitySampleSet(rng.uniform(60, 100, 10))
        amb = AmbiguityConfig.derive(SUPPORT, 0.99, 10)
        report = solve(samples, profile, PARAMS, amb, BcdConfig())
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
        assert omega == 4.256970764931453
        assert lat.tolist() == [29.5, 50.0]

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

    def test_pinned_three_type_instance(self):
        # a small radius puts the multiplier argmax above zero, and the
        # anchors lie below, on the edges of, inside and above the support
        profile = AspTypeProfile(thetas=[110.0, 140.0, 180.0], alphas=[0.25, 0.35, 0.4])
        samples = QualitySampleSet([50.0, 60.0, 72.5, 81.0, 93.25, 100.0, 108.0])
        amb = AmbiguityConfig(SUPPORT, 5.0)
        omega, lat = oracle_menu_search(
            profile, samples, PARAMS, amb, 1.0, l_max=130.0, lambda_max=3.0
        )
        assert omega == 4.324011596838207
        assert lat.tolist() == [7.0, 52.0, 120.0]

    def test_pinned_single_type_instance(self):
        profile = AspTypeProfile(thetas=[150.0], alphas=[1.0])
        samples = QualitySampleSet(np.linspace(61, 99, 10))
        amb = AmbiguityConfig.derive(SUPPORT, 0.95, 10)
        omega, lat = oracle_menu_search(profile, samples, PARAMS, amb, 0.05, l_max=120.0)
        assert omega == 4.410635294096256
        assert lat.tolist() == [90.0]

    @given(oracle_instances())
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_objective_grid(self, instance):
        profile, samples, amb, step, l_max, lambda_max = instance
        omega, lat = oracle_menu_search(
            profile, samples, PARAMS, amb, step, l_max=l_max, lambda_max=lambda_max
        )
        values = step * np.arange(round(l_max / step) + 1)
        lams = step * np.arange(round(lambda_max / step) + 1)
        candidates = inner_candidates(samples.samples, SUPPORT)
        brute = max(
            objective(list(point), lam, candidates, amb.epsilon, profile, PARAMS)[0]
            for point in itertools.combinations_with_replacement(values, profile.n_types)
            for lam in lams
        )
        assert omega == pytest.approx(brute, abs=1e-9)
        at_argmax = max(
            objective(lat, lam, candidates, amb.epsilon, profile, PARAMS)[0] for lam in lams
        )
        assert at_argmax == pytest.approx(omega, abs=1e-9)


class TestPrune:
    """The bound-and-prune search against the loop that evaluates every
    latency point."""

    @given(pruning_instances(), st.integers(1, 60))
    @settings(max_examples=120, deadline=None)
    def test_matches_the_unpruned_loop_bit_for_bit(self, instance, chunk_entries):
        profile, samples, amb, step, l_max, lambda_max = instance
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
        values = step * np.arange(round(l_max / step) + 1)
        candidates = inner_candidates(samples.samples, amb.support)
        scaled = _scaled_tables(candidates.points, values, profile, PARAMS)
        (chunk,) = _monotone_chunks(values.size, profile.n_types, samples.n)
        g = rewards_from_latencies(values[chunk], profile, PARAMS.gamma1) @ profile.alphas
        bound = _RowBound(scaled, candidates, amb.epsilon, lambda_max)(chunk, g)
        prof = _AffineInnerProfile(_gather(scaled, chunk), g, candidates, amb.epsilon)
        for lam in step * np.arange(round(lambda_max / step) + 1):
            assert np.all(bound >= prof.psi(np.full(g.size, lam)))

    def test_rewards_come_from_the_whole_chunk(self):
        # rewards recomputed over the few surviving rows round the winner's
        # 1 ulp differently here (a matrix-vector product's sums depend on
        # its row count), which moves the objective's last bit
        profile = AspTypeProfile(
            thetas=[194.03665531651757, 247.69404443910784],
            alphas=[0.5554191533555473, 0.4445808466444527],
        )
        samples = QualitySampleSet(
            [100.0, 70.19440982045167, 60.0, 45.93933992553932, 108.12177817023122]
        )
        amb = AmbiguityConfig(SUPPORT, 3.7442489952105493)
        omega, lat = oracle_menu_search(
            profile, samples, PARAMS, amb, 1.0, l_max=30.0, lambda_max=0.0
        )
        ref_omega, ref_lat = unpruned_oracle(profile, samples, amb, 1.0, 30.0, 0.0)
        assert omega == ref_omega
        assert lat.tolist() == ref_lat.tolist()

    def test_prunes_all_but_a_few_points_on_the_criterion_05_instance(self):
        profile = AspTypeProfile(thetas=[110.0, 140.0], alphas=generate_alphas(2, 0))
        samples = generate_quality_samples(20, 0, "train-data", 85.0, 8.0, SUPPORT)
        amb = AmbiguityConfig.derive(SUPPORT, 0.99, 20)
        evaluated = []

        class Counting(_AffineInnerProfile):
            def __init__(self, h, *args):
                evaluated.append(h.shape[0])
                super().__init__(h, *args)

        with mock.patch.object(evaluation, "_AffineInnerProfile", Counting):
            oracle_menu_search(profile, samples, PARAMS, amb, 0.05, l_max=50.0, lambda_max=10.0)
        # 501,501 latency points in 11 chunks
        assert 0 < sum(evaluated) <= 2 * 11


class TestRunBenchmark:
    def _inputs(self, seed=3):
        rng = np.random.default_rng(seed)
        profile = AspTypeProfile(thetas=[110.0, 140.0], alphas=[0.5, 0.5])
        train = QualitySampleSet(rng.uniform(60, 100, 40))
        evals = QualitySampleSet(rng.uniform(60, 100, 15))
        amb = AmbiguityConfig.derive(SUPPORT, 0.99, 40)
        return profile, train, evals, amb

    def test_row_shapes_and_method_order(self):
        profile, train, evals, amb = self._inputs()
        scenario = EvaluationScenario(eval_samples=evals, shift_magnitudes=(0.0, 10.0))
        table = run_benchmark(
            scenario, {"ro", "dro", "sp"}, train, profile=profile, params=PARAMS, ambiguity=amb
        )
        assert len(table.teleop_rows) == 3 * 2
        assert len(table.asp_rows) == 3 * 2
        assert [r[0] for r in table.teleop_rows] == ["dro", "dro", "sp", "sp", "ro", "ro"]

    def test_levels_then_methods_then_shifts(self):
        profile, train, evals, amb = self._inputs()
        scenario = EvaluationScenario(
            eval_samples=evals, shift_magnitudes=(0.0, 10.0), extreme_counts=(0, 5)
        )
        table = run_benchmark(
            scenario, {"sp", "dro"}, train, profile=profile, params=PARAMS, ambiguity=amb
        )
        assert [r[:3] for r in table.teleop_rows] == [
            (m, c, s) for c in (0, 5) for m in ("dro", "sp") for s in (0.0, 10.0)
        ]
        assert [r[:3] for r in table.asp_rows] == [
            (m, c, t) for c in (0, 5) for m in ("dro", "sp") for t in (1, 2)
        ]

    def test_contamination_hits_training_only(self):
        profile, train, evals, amb = self._inputs()
        scenario = EvaluationScenario(
            eval_samples=evals, shift_magnitudes=(0.0,), extreme_counts=(0, 40)
        )
        table = run_benchmark(scenario, {"ro"}, train, profile=profile, params=PARAMS, ambiguity=amb)
        # the worst-case solver never reads samples, and evaluation data is
        # untouched, so full contamination changes nothing for it
        assert table.teleop("ro", 0.0, 0) == pytest.approx(table.teleop("ro", 0.0, 40), abs=1e-12)

    def test_deterministic(self):
        profile, train, evals, amb = self._inputs()
        scenario = EvaluationScenario(eval_samples=evals, extreme_counts=(5,), seed=11)
        a = run_benchmark(scenario, {"dro", "sp"}, train, profile=profile, params=PARAMS, ambiguity=amb)
        b = run_benchmark(scenario, {"dro", "sp"}, train, profile=profile, params=PARAMS, ambiguity=amb)
        assert a.teleop_rows == b.teleop_rows
        assert a.asp_rows == b.asp_rows

    def test_unknown_method_rejected(self):
        profile, train, evals, amb = self._inputs()
        scenario = EvaluationScenario(eval_samples=evals)
        with pytest.raises(ValidationError):
            run_benchmark(scenario, {"drl"}, train, profile=profile, params=PARAMS, ambiguity=amb)

    def test_csv_writers(self, tmp_path):
        table = MetricsTable(
            teleop_rows=[("dro", 0, 0.0, 4.5), ("sp", 0, 10.0, 4.4)],
            asp_rows=[("dro", 0, 1, 0.0)],
        )
        write_metrics_csv(table, tmp_path / "metrics.csv")
        write_asp_csv(table, tmp_path / "asp.csv")
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "method,extreme_count,shift,mean_teleop_utility"
        assert lines[1] == "dro,0,0.0,4.5"
        asp_lines = (tmp_path / "asp.csv").read_text().strip().splitlines()
        assert asp_lines[0] == "method,extreme_count,type_index,asp_utility"


class TestScenarioValidation:
    def test_rejects_negative_extreme_count(self):
        with pytest.raises(ValidationError):
            EvaluationScenario(eval_samples=QualitySampleSet([70.0]), extreme_counts=(0, -1))

    def test_rejects_unsorted_shifts(self):
        with pytest.raises(ValidationError):
            EvaluationScenario(
                eval_samples=QualitySampleSet([70.0]), shift_magnitudes=(10.0, 0.0)
            )

    def test_rejects_negative_shift(self):
        with pytest.raises(ValidationError):
            EvaluationScenario(
                eval_samples=QualitySampleSet([70.0]), shift_magnitudes=(-1.0,)
            )

    def test_rejects_nan_shift(self):
        with pytest.raises(ValidationError):
            EvaluationScenario(
                eval_samples=QualitySampleSet([70.0]), shift_magnitudes=(0.0, float("nan"))
            )
