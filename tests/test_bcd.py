import hashlib
import itertools
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression as scipy_isotonic

from drcontract import (
    AmbiguityConfig,
    AspTypeProfile,
    DataError,
    NonPositiveLogArgument,
    NumericError,
    QualitySampleSet,
    RunConfig,
    SupportInterval,
    UtilityParams,
    ValidationError,
    check_feasibility,
    expected_reward,
    grad_lambda,
    inject_extreme_points,
    inner_candidates,
    inner_minima,
    iron_monotone,
    objectives,
    rewards_from_latencies,
    solve,
    train_method,
    weighted_log,
    write_trace_csv,
)
from drcontract import bcd
from drcontract.inner import TYPE_BLOCK_POINTS
from sequential_ascent import (
    per_type_latency_gradient,
    sequential_solve,
    sequential_solve_pinned,
)

PARAMS = UtilityParams()
SUPPORT = SupportInterval(60.0, 100.0)


def ambiguity(n, epsilon=None, tau=0.99):
    if epsilon is None:
        return AmbiguityConfig.derive(SUPPORT, tau, n)
    return AmbiguityConfig(SUPPORT, epsilon)


def slacks(latencies, lam, samples, profile):
    """Each anchor's inner minimum net of the expected reward."""
    candidates = inner_candidates(samples.samples, SUPPORT)
    h = weighted_log(candidates.points, latencies, profile.alphas, PARAMS)
    f_min, _ = inner_minima(h, lam, candidates)
    rewards = rewards_from_latencies(latencies, profile, PARAMS.gamma1)
    return f_min - expected_reward(rewards, profile.alphas)


def minimizers(candidates, wins):
    """The inner minimizers xi* that ``wins`` picks from ``candidates``."""
    return np.where(wins, candidates.points[1:], candidates.points[0])


def latency_gradient(xi_stars, latencies, profile, params=PARAMS):
    """The solver's step kernel, ``bcd._gradient``, at the minimizers
    ``xi_stars``, with its inputs scaled as a solve scales them and a
    reciprocal table of the size a solve builds."""
    scaled_xi = params.gamma2 * np.asarray(xi_stars, dtype=float)
    scaled_lat = params.gamma3 * np.asarray(latencies, dtype=float)
    price = params.gamma1 / profile.thetas
    table = bcd._reciprocal_table(scaled_lat.size, scaled_xi.size)
    out = np.empty(scaled_lat.size)
    return bcd._gradient(scaled_xi, scaled_lat, profile.alphas, price, params.gamma3, table, out)


def multiplier_gradient(xi_stars, anchors, epsilon):
    """``grad_lambda`` at the minimizers ``xi_stars`` of ``anchors``."""
    return grad_lambda(np.abs(np.asarray(anchors, dtype=float) - xi_stars), epsilon)


class TestObjective:
    def test_zero_lambda_unit_type(self):
        profile = AspTypeProfile(thetas=[1.0], alphas=[1.0])
        samples = QualitySampleSet([70.0, 80.0, 95.0])
        candidates = inner_candidates(samples.samples, SUPPORT)
        omega, wins = objectives([0.0], 0.0, candidates, ambiguity(3).epsilon, profile, PARAMS)
        # every inner minimum sits at the support floor
        assert omega == pytest.approx(math.log(60.0), abs=1e-12)
        np.testing.assert_array_equal(minimizers(candidates, wins), 60.0)
        np.testing.assert_allclose(slacks([0.0], 0.0, samples, profile), math.log(60.0))

    def test_zero_radius_drops_penalty_term(self):
        profile = AspTypeProfile(thetas=[110.0, 140.0], alphas=[0.5, 0.5])
        samples = QualitySampleSet([70.0, 90.0])
        candidates = inner_candidates(samples.samples, SUPPORT)
        for lam in (0.0, 1.0, 5.0):
            omega, _ = objectives([3.0, 9.0], lam, candidates, 0.0, profile, PARAMS)
            assert omega == pytest.approx(np.mean(slacks([3.0, 9.0], lam, samples, profile)))

    def test_single_sample_mean(self):
        profile = AspTypeProfile(thetas=[110.0], alphas=[1.0])
        amb = ambiguity(1)
        samples = QualitySampleSet([75.0])
        candidates = inner_candidates(samples.samples, SUPPORT)
        omega, _ = objectives([4.0], 2.0, candidates, amb.epsilon, profile, PARAMS)
        assert omega == pytest.approx(-2.0 * amb.epsilon + slacks([4.0], 2.0, samples, profile)[0])

    def test_rejects_negative_lambda(self):
        profile = AspTypeProfile(thetas=[110.0], alphas=[1.0])
        with pytest.raises(ValidationError):
            objectives([0.0], -0.5, inner_candidates([75.0], SUPPORT), 1.0, profile, PARAMS)


class TestGradients:
    def test_latency_gradient_hand_case(self):
        profile = AspTypeProfile(thetas=[100.0], alphas=[1.0])
        got = latency_gradient(np.full(5, 60.0), [0.0], profile)
        assert got == pytest.approx([1 / 60 - 1 / 100], abs=1e-12)

    def test_quality_only_utility(self):
        params = UtilityParams(gamma1=1.0, gamma2=1.0, gamma3=0.0)
        profile = AspTypeProfile(thetas=[110.0, 220.0], alphas=[0.3, 0.7])
        got = latency_gradient(np.array([70.0, 80.0]), [5.0, 9.0], profile, params)
        assert got == pytest.approx([-0.3 / 110, -0.7 / 220], abs=1e-15)

    def test_zero_probability_type_has_zero_gradient(self):
        profile = AspTypeProfile(thetas=[110.0, 140.0], alphas=[0.0, 1.0])
        got = latency_gradient(np.array([70.0]), [5.0, 9.0], profile)
        assert got[0] == 0.0

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
        got = latency_gradient(xi, lat, profile)
        assert np.array_equal(got, per_type_latency_gradient(xi, lat, profile, PARAMS))

    def test_lambda_gradient_at_anchors(self):
        xi = np.array([70.0, 80.0])
        assert multiplier_gradient(xi, xi, 3.0) == pytest.approx(-3.0)

    def test_lambda_gradient_unit_distances(self):
        got = multiplier_gradient(np.array([1.0, 3.0]), np.array([2.0, 2.0]), 0.0)
        assert got == pytest.approx(1.0)

    def test_lambda_gradient_stationary_balance(self):
        eps = 8.5839
        assert multiplier_gradient(np.array([60.0]), np.array([60.0 + eps]), eps) == pytest.approx(
            0.0, abs=1e-12
        )


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


def pava_loop(values, weights):
    """Reference: the full pool-adjacent-violators scan, with no shortcut for
    inputs whose rounded singleton means are already nondecreasing."""
    blocks = []  # (weight sum, weighted value sum, member count)
    for v, wt in zip(values.tolist(), weights.tolist()):
        blocks.append([wt, wt * v, 1])
        while len(blocks) > 1 and blocks[-2][1] / blocks[-2][0] > blocks[-1][1] / blocks[-1][0]:
            wt2, sv2, c2 = blocks.pop()
            blocks[-1][0] += wt2
            blocks[-1][1] += sv2
            blocks[-1][2] += c2
    return np.array([sv / wt for wt, sv, count in blocks for _ in range(count)])


@st.composite
def ironing_inputs(draw):
    """(values, weights): any values, nondecreasing ones, or nondecreasing
    ones whose neighbours lie less than 2 ulps apart, where the rounded
    singleton means can cross; weights down to the solver's 1e-12 floor."""
    n = draw(st.integers(1, 30))
    value = st.floats(-1e6, 1e6)
    values = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["any", "nondecreasing", "near ties"]))
    if kind != "any":
        values = np.sort(values)
    if kind == "near ties":
        steps = draw(st.lists(st.integers(0, 1), min_size=n - 1, max_size=n - 1))
        for i, step in enumerate(steps, start=1):
            values[i] = np.nextafter(values[i - 1], np.inf) if step else values[i - 1]
    weight = st.one_of(st.just(1e-12), st.floats(1e-12, 1e3))
    return values, np.array(draw(st.lists(weight, min_size=n, max_size=n)))


class TestIroning:
    @given(ironing_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_full_scan_bit_for_bit(self, inputs):
        values, weights = inputs
        expected = pava_loop(values, weights).tobytes()  # sign bits included
        assert iron_monotone(values, weights).tobytes() == expected
        assert iron_monotone(values, weights, validate=False).tobytes() == expected

    def test_identity_on_monotone(self):
        np.testing.assert_array_equal(
            iron_monotone([1.0, 2.0, 3.0], [0.2, 0.3, 0.5]), [1.0, 2.0, 3.0]
        )

    def test_full_pool(self):
        np.testing.assert_allclose(iron_monotone([3.0, 1.0, 2.0], [1, 1, 1]), [2.0, 2.0, 2.0])

    def test_refuses_unequal_lengths_and_non_finite_latencies(self):
        with pytest.raises(DataError, match="latencies and weights must have equal length"):
            iron_monotone([1.0, 2.0], [1.0])
        with pytest.raises(ValidationError, match="latencies must be finite"):
            iron_monotone([1.0, math.inf], [1.0, 1.0])

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

    @given(data=st.data(), n=st.integers(1, 30))
    @settings(max_examples=300, deadline=None)
    def test_clipped_result_has_no_adjacent_decrease(self, data, n):
        # why the ascent makes no order test of its iterates: ties and
        # neighbours 1 ulp apart, sorted or not, at any finite magnitude that
        # keeps the weighted sums finite
        vals = np.array(data.draw(st.lists(st.floats(-1e300, 1e300), min_size=n, max_size=n)))
        moves = data.draw(st.lists(st.sampled_from(["free", "tie", "up", "down"]), min_size=n))
        for i in range(1, n):
            if moves[i] == "tie":
                vals[i] = vals[i - 1]
            elif moves[i] != "free":
                vals[i] = np.nextafter(vals[i - 1], np.inf if moves[i] == "up" else -np.inf)
        if data.draw(st.booleans()):
            vals = np.sort(vals)  # PAVA's one-pass shortcut, where rounding can cross
        weight = st.one_of(st.just(1e-12), st.floats(1e-12, 1e3))
        weights = np.array(data.draw(st.lists(weight, min_size=n, max_size=n)))
        out = np.maximum(iron_monotone(vals, weights, validate=False), 0.0)
        assert not np.logical_or.reduce(out[1:] < out[:-1])

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


class TestAscentStep:
    """Single iterations of the ascent loop, driven through ``solve`` with a
    small iteration budget from a chosen start point."""

    def test_lambda_clamped_at_zero(self):
        profile, samples, _ = small_instance()
        # a huge radius makes the multiplier gradient hugely negative
        big = AmbiguityConfig(SUPPORT, 1e6)
        report = solve(samples, profile, PARAMS, big, RunConfig(itr_max=1, l_init=5.0))
        assert report.lambda_trace.tolist() == [0.0]

    def test_latencies_stay_monotone(self):
        profile, samples, amb = small_instance(n_types=5)
        report = solve(samples, profile, PARAMS, amb, RunConfig(itr_max=5, conv_tol=1e-15))
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
        start, _ = objectives([lat], 0.0, candidates, amb.epsilon, profile, PARAMS)
        cfg = RunConfig(itr_max=1, l_init=lat, lambda_init=0.0)
        report = solve(samples, profile, PARAMS, amb, cfg)
        assert report.latency_trace[0] == pytest.approx([lat], abs=1e-9)
        assert report.lambda_trace[0] == 0.0
        assert report.objective_trace[0] == pytest.approx(start, abs=1e-12)

    def test_step_reuses_the_state_minimizers(self, monkeypatch):
        # each kept step reads the minimizers that the evaluation of the
        # iterate it steps from returned (as gamma2*xi* and |anchor - xi*|),
        # and every traced iterate is evaluated at the traced point; the
        # evaluations come in stacked batches, one of which a winner change
        # at iteration 14 cuts
        profile, samples, amb = small_instance(n_types=3)
        params = UtilityParams(gamma2=1.5)
        cfg = RunConfig(lambda_init=0.5)
        candidates = inner_candidates(samples.samples, SUPPORT)
        assert sequential_solve(samples, profile, params, amb, cfg).flips == [14]
        evaluated, heights, read_xi, read_distances = {}, [], [], []

        def key(lat, lam):
            return lat.tobytes(), float(lam)

        def traced_objectives(lat, lam, *args):
            omegas, wins = objectives(lat, lam, *args)
            heights.append(len(lat))
            for row in zip(lat, lam, omegas, wins):
                evaluated[key(*row[:2])] = (float(row[2]), minimizers(candidates, row[3]))
            return omegas, wins

        def traced_gradient(scaled_xi, *args):
            read_xi.append(scaled_xi)
            return gradient(scaled_xi, *args)

        def traced_grad_lambda(distances, *args):
            read_distances.append(distances)
            return grad_lambda(distances, *args)

        gradient = bcd._gradient
        monkeypatch.setattr(bcd, "objectives", traced_objectives)
        monkeypatch.setattr(bcd, "_gradient", traced_gradient)
        monkeypatch.setattr(bcd, "grad_lambda", traced_grad_lambda)
        report = solve(samples, profile, params, amb, cfg)
        monkeypatch.undo()  # the checks below call grad_lambda untraced
        assert report.iterations_used == 17
        assert len(heights) < report.iterations_used  # batched
        start = np.zeros(3), cfg.lambda_init
        points = [start] + list(zip(report.latency_trace, report.lambda_trace))
        weights = profile.alphas
        for (lat, lam), (traced_lat, traced_lam), omega in zip(
            points, points[1:], report.objective_trace
        ):
            assert evaluated[key(traced_lat, traced_lam)][0] == omega
            xi = evaluated[key(lat, lam)][1]
            scaled_xi = params.gamma2 * xi
            assert any(read.tobytes() == scaled_xi.tobytes() for read in read_xi)
            distances = np.abs(xi - samples.samples)
            assert any(read.tobytes() == distances.tobytes() for read in read_distances)
            step = per_type_latency_gradient(xi, lat, profile, params)
            expected = np.maximum(iron_monotone(lat + cfg.eta_l * step, weights), 0.0)
            assert traced_lat.tobytes() == expected.tobytes()
            assert traced_lam == max(lam + cfg.eta_lambda * grad_lambda(distances, amb.epsilon), 0.0)

    def test_decreasing_latency_iterate_raises(self, monkeypatch):
        profile, samples, amb = small_instance(n_types=2)
        calls = []

        def bad_iron(values, weights, **kwargs):
            # the start point is projected honestly; the first step is not
            calls.append(values)
            return iron_monotone(values, weights) if len(calls) == 1 else np.array([2.0, 1.0])

        monkeypatch.setattr(bcd, "iron_monotone", bad_iron)
        cfg = RunConfig(itr_max=1, l_init=5.0, lambda_init=1.0)
        # the ascent leaves the order test to the evaluation's reward recursion
        with pytest.raises(NumericError, match="latencies must be nondecreasing within"):
            solve(samples, profile, PARAMS, amb, cfg)


def outcome(run):
    """What a solve gives, compared bit for bit: the report's stop reason,
    traces and menu, or the type and message of what it raised."""
    try:
        report = run()
    except Exception as exc:
        return type(exc), str(exc)
    traces = (report.objective_trace, report.lambda_trace, report.latency_trace)
    menu = (report.menu.latencies, report.menu.rewards)
    return report.stop_reason, report.converged, *(a.tobytes() for a in traces + menu)


@st.composite
def ascent_instances(draw):
    """(samples, profile, ambiguity, cfg): anchors on both sides of the
    support, so the inner winners flip; budgets and thresholds that stop
    anywhere in a batch; and, now and then, a latency or multiplier step
    size that overflows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_types, n_samples = draw(st.integers(1, 5)), draw(st.integers(1, 30))
    profile = AspTypeProfile(
        thetas=np.sort(rng.uniform(100.0, 260.0, n_types)),
        alphas=rng.dirichlet(np.ones(n_types)),
    )
    samples = QualitySampleSet(rng.uniform(40.0, 110.0, n_samples))
    amb = AmbiguityConfig(SUPPORT, draw(st.floats(0.5, 30.0)))
    cfg = RunConfig(
        itr_max=draw(st.integers(1, 300)),
        conv_tol=draw(st.sampled_from([1e-2, 1e-4, 1e-8, 1e-15])),
        eta_l=draw(st.sampled_from([1e2, 1e3, 1e4, 1e300])),
        eta_lambda=draw(st.sampled_from([1e-3, 1e-2, 1e-1, 1e307])),
        l_init=draw(st.floats(0.0, 50.0)),
        lambda_init=draw(st.floats(0.0, 2.0)),
    )
    return samples, profile, amb, cfg


@st.composite
def kernel_instances(draw, merging):
    """(samples, profile, ambiguity, cfg, block) for the batch's step
    kernel: up to all but one type of zero probability, whose ironing
    weight is 1e-12, and ``block``, a number of types per reciprocal table
    from 1 to I.  ``merging`` ties the thetas and lets the alphas fall along
    the types, the zeros last; while a step raises the latencies, a type
    then steps further than the type after it, so PAVA pools from the first
    step for as long as the latencies rise, which small steps from low
    starts make many iterations; the multiplier stays at zero, so the
    floor wins every inner minimum and the batches grow."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_types, n_samples = draw(st.integers(2 if merging else 1, 6)), draw(st.integers(1, 30))
    alphas = rng.dirichlet(np.ones(n_types))
    zeros = draw(st.integers(0, n_types - 1))
    if merging:
        thetas = np.full(n_types, rng.uniform(150.0, 260.0))
        alphas[::-1].sort()
        alphas[n_types - zeros :] = 0.0
    else:
        thetas = np.sort(rng.uniform(100.0, 260.0, n_types))
        alphas[rng.choice(n_types, zeros, replace=False)] = 0.0
    profile = AspTypeProfile(thetas=thetas, alphas=alphas / alphas.sum())
    samples = QualitySampleSet(rng.uniform(40.0, 110.0, n_samples))
    amb = AmbiguityConfig(SUPPORT, draw(st.floats(0.5, 30.0)))
    cfg = RunConfig(
        itr_max=draw(st.integers(4 if merging else 1, 300)),
        conv_tol=draw(st.sampled_from([1e-8, 1e-15] if merging else [1e-2, 1e-4, 1e-8, 1e-15])),
        eta_l=draw(st.sampled_from([1e2, 1e3] if merging else [1e2, 1e3, 1e4, 1e300])),
        eta_lambda=0.0 if merging else draw(st.sampled_from([1e-3, 1e-2, 1e-1])),
        l_init=draw(st.floats(0.0, 10.0 if merging else 50.0)),
        lambda_init=0.0 if merging else draw(st.floats(0.0, 2.0)),
    )
    return samples, profile, amb, cfg, draw(st.integers(1, n_types))


def batch_heights(monkeypatch):
    """The stack height of every evaluation a solve makes, the start point's
    first: ``solve`` (in ``bcd.objectives``) and ``solve_pinned`` both
    evaluate through ``bcd.weighted_log``, once per evaluation."""
    heights = []
    weighted_log = bcd.weighted_log

    def counted(xi, latencies, *args):
        heights.append(len(latencies))
        return weighted_log(xi, latencies, *args)

    monkeypatch.setattr(bcd, "weighted_log", counted)
    return heights


def step_events(patch):
    """What a solve's steps and evaluations do, in order: a bool per
    ironing, whether PAVA pooled, and each evaluation's stack height (see
    :func:`batch_heights`)."""
    events, iron = batch_heights(patch), bcd.iron_monotone

    def pooling(values, weights, **kwargs):
        ironed = iron(values, weights, **kwargs)
        events.append(not np.array_equal(ironed, weights * values / weights))
        return ironed

    patch.setattr(bcd, "iron_monotone", pooling)
    return events


def pools_inside_a_batch(events):
    """Whether a step that PAVA pooled was evaluated in a stack of two or
    more iterates."""
    pooled = False
    for event in events:
        if isinstance(event, bool):
            pooled = pooled or event
        elif pooled and event > 1:
            return True
        else:
            pooled = False
    return False


def distinct_iterate(report, iteration):
    """The latency iterate at ``iteration`` (1-based) of ``report``, which
    no earlier iterate equals, so a patch can fail at it alone."""
    lat = report.latency_trace[iteration - 1]
    assert not any(np.array_equal(lat, earlier) for earlier in report.latency_trace[: iteration - 1])
    return lat


class TestBatchedAscent:
    """The batched loop against the loop of one step per evaluation
    (``tests/sequential_ascent.py``): the same traces, stop reasons, menus
    and errors, bit for bit."""

    @given(ascent_instances())
    @settings(max_examples=120, deadline=None)
    def test_solve_matches_the_sequential_loop(self, instance):
        samples, profile, amb, cfg = instance
        expected = outcome(lambda: sequential_solve(samples, profile, PARAMS, amb, cfg))
        assert outcome(lambda: solve(samples, profile, PARAMS, amb, cfg)) == expected

    @given(ascent_instances(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_pinned_solve_matches_the_sequential_loop(self, instance, one_point):
        # sp pins the inner point to the anchors, ro to the support floor alone
        samples, profile, _, cfg = instance
        anchors = [SUPPORT.lo] if one_point else samples.samples
        expected = outcome(lambda: sequential_solve_pinned(anchors, profile, PARAMS, cfg))
        assert outcome(lambda: bcd.solve_pinned(anchors, profile, PARAMS, cfg)) == expected

    @pytest.mark.parametrize(
        "case, iterations, heights",
        [
            # a winner change at iteration 14 cuts the fourth batch after
            # one row, and the next batch starts at one step again
            ("flip", 17, [1, 1, 2, 4, 8, 1, 2]),
            ("tol stop inside a batch", 6, [1, 1, 2, 4]),
            ("max_iters cut inside a batch", 5, [1, 1, 2, 2]),
            # one-point tables up to 128 menus tall
            ("ro's one-point anchor set", 206, [1, 1, 2, 4, 8, 16, 32, 64, 128]),
        ],
    )
    def test_batches_match_the_sequential_loop(self, monkeypatch, case, iterations, heights):
        profile, samples, amb = small_instance(n_types=3)
        if case == "ro's one-point anchor set":
            args = ([SUPPORT.lo], profile, PARAMS, RunConfig(conv_tol=1e-6))
            batched, sequential = bcd.solve_pinned, sequential_solve_pinned
        else:
            params = UtilityParams(gamma2=1.5) if case == "flip" else PARAMS
            cfg = {
                "flip": RunConfig(lambda_init=0.5),
                "tol stop inside a batch": RunConfig(lambda_init=0.0),
                "max_iters cut inside a batch": RunConfig(itr_max=5, conv_tol=1e-15),
            }[case]
            args = (samples, profile, params, amb, cfg)
            batched, sequential = solve, sequential_solve
        reference = sequential(*args)
        assert reference.iterations_used == iterations
        assert reference.flips == ([14] if case == "flip" else [])
        evaluations = batch_heights(monkeypatch)
        assert outcome(lambda: batched(*args)) == outcome(lambda: reference)
        assert evaluations == heights

    def test_more_types_than_points_sum_steps_column_by_column(self, monkeypatch):
        # 8 types and 3 anchors: each step's reciprocal table is 8 x 3, so
        # its running sums are taken column by column
        rng = np.random.default_rng(8)
        profile = AspTypeProfile(
            thetas=np.sort(rng.uniform(100.0, 260.0, 8)), alphas=rng.dirichlet(np.ones(8))
        )
        args = ([62.0, 75.5, 91.0], profile, PARAMS, RunConfig(itr_max=200))
        expected = outcome(lambda: sequential_solve_pinned(*args))
        shapes, running_sums = [], bcd.running_sums

        def recorded(terms):
            shapes.append(terms.shape)
            return running_sums(terms)

        monkeypatch.setattr(bcd, "running_sums", recorded)
        assert outcome(lambda: bcd.solve_pinned(*args)) == expected
        assert isinstance(expected[0], str) and set(shapes) == {(8, 3)}

    @pytest.mark.parametrize("failure", ["raises", "overflows"])
    def test_a_step_past_the_stop_raises_nothing(self, monkeypatch, failure):
        # the loop stops at iteration 9, inside the batch of 8..15, whose
        # step from iterate 9 raises, or overflows to a non-finite step with
        # numpy's warning; the one-step loop never takes that step, so the
        # batch neither raises nor warns
        profile, samples, amb = small_instance(n_types=2)
        cfg = RunConfig(itr_max=40, conv_tol=1e-15)
        trace = sequential_solve(samples, profile, PARAMS, amb, cfg)
        ninth = distinct_iterate(trace, 9)
        changes = np.abs(np.diff(trace.objective_trace))
        cfg = replace(cfg, conv_tol=float(changes[7]))  # the change at iteration 9, the least
        assert np.all(changes[:7] > cfg.conv_tol)
        assert sequential_solve(samples, profile, PARAMS, amb, cfg).iterations_used == 9
        failed, gradient = [], bcd._gradient

        def failing_gradient(scaled_xi, scaled_lat, *args):
            if not np.array_equal(scaled_lat, PARAMS.gamma3 * ninth):
                return gradient(scaled_xi, scaled_lat, *args)
            failed.append(True)
            if failure == "raises":
                raise NumericError("a step from iterate 9")
            return np.full(scaled_lat.shape, np.finfo(float).max)  # times eta_l: overflow

        expected = outcome(lambda: sequential_solve(samples, profile, PARAMS, amb, cfg))
        assert expected[:2] == ("tol", True)
        monkeypatch.setattr(bcd, "_gradient", failing_gradient)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert outcome(lambda: solve(samples, profile, PARAMS, amb, cfg)) == expected
        assert failed  # the batch took the step, and dropped its failure
        assert caught == []

    def test_an_evaluation_failure_beats_the_next_step_failure(self, monkeypatch):
        # iterate 10's evaluation fails and so does the step from it, both
        # inside the batch of 8..15: the evaluation's error is raised, as
        # the one-step loop raises it, although the batch's steps come first
        profile, samples, amb = small_instance(n_types=2)
        cfg = RunConfig(itr_max=40, conv_tol=1e-15)
        tenth = distinct_iterate(sequential_solve(samples, profile, PARAMS, amb, cfg), 10)
        order, gradient = [], bcd._gradient

        def failing_gradient(scaled_xi, scaled_lat, *args):
            if np.array_equal(scaled_lat, PARAMS.gamma3 * tenth):
                order.append("step")
                raise NumericError("a step from iterate 10")
            return gradient(scaled_xi, scaled_lat, *args)

        def failing_rewards(latencies, *args):
            if np.logical_and.reduce(latencies == tenth, axis=-1).any():
                order.append("evaluation")
                raise NumericError("the evaluation of iterate 10")
            return rewards_from_latencies(latencies, *args)

        monkeypatch.setattr(bcd, "_gradient", failing_gradient)
        monkeypatch.setattr(bcd, "rewards_from_latencies", failing_rewards)
        expected = (NumericError, "the evaluation of iterate 10")
        assert outcome(lambda: sequential_solve(samples, profile, PARAMS, amb, cfg)) == expected
        assert order == ["evaluation"]
        order.clear()
        assert outcome(lambda: solve(samples, profile, PARAMS, amb, cfg)) == expected
        assert order[0] == "step" and order[-1] == "evaluation"


    def test_a_nonpositive_log_argument_in_a_batch_is_the_one_step_error(self, monkeypatch):
        # the pinned solve's anchor -1 makes gamma2*xi + gamma3*L_1 negative
        # once L_1 < 1, which it is at iterate 5, inside the batch of 4..7.
        # The batch's evaluation fails, so the batch is redone one step at a
        # time, and the evaluation of iterate 5 raises in both loops before
        # any step from it, without a warning
        profile = AspTypeProfile(thetas=[2.0, 4.0], alphas=[0.5, 0.5])
        anchors = [-1.0, 50.0]
        cfg = RunConfig(eta_l=30.0, l_init=30.0, conv_tol=1e-15)
        message = "log argument -0.8422558811518228 at xi=-1.0 must be > 0"
        expected = (NonPositiveLogArgument, message)
        args = (anchors, profile, PARAMS, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert outcome(lambda: sequential_solve_pinned(*args)) == expected
            evaluations = batch_heights(monkeypatch)
            assert outcome(lambda: bcd.solve_pinned(*args)) == expected
        assert caught == []
        # redone one step at a time, iterate 4 alone passes, the batch of
        # 5..6 fails, and iterate 5 alone raises
        assert evaluations == [1, 1, 2, 4, 1, 2, 1]

    def test_a_multiplier_overflow_inside_a_batch_raises_the_one_step_error(self, monkeypatch):
        # anchors 0.9 below the support at radius 0.5: the multiplier
        # gradient is 0.4 at every iterate, so each step adds 4e306 to lam,
        # whose terms lam*0.9 and lam*0.5 stay finite until lam overflows at
        # iterate 45.  The batches of 32, 8, 4 and 4 steps that reach it fail
        # the multiplier check and are redone one step at a time
        profile, _, _ = small_instance(n_types=3)
        samples = QualitySampleSet(np.full(5, SUPPORT.lo - 0.9))
        amb = AmbiguityConfig(SUPPORT, 0.5)
        cfg = RunConfig(eta_lambda=1e307, lambda_init=0.0)
        expected = (NumericError, "multiplier iterate inf is not finite")
        assert outcome(lambda: sequential_solve(samples, profile, PARAMS, amb, cfg)) == expected
        evaluations = batch_heights(monkeypatch)
        assert outcome(lambda: solve(samples, profile, PARAMS, amb, cfg)) == expected
        assert evaluations == [1, 1, 2, 4, 8, 16, 1, 2, 4, 1, 2, 1, 2]

    @pytest.mark.parametrize("merging", [False, True])
    @given(data=st.data(), pinned=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_the_step_kernel_matches_the_sequential_loop(self, merging, data, pinned):
        # reciprocal tables of 1..I types, zero alphas and, when merging,
        # steps that PAVA pools inside batches of two or more
        samples, profile, amb, cfg, block = data.draw(kernel_instances(merging))
        if pinned:
            args = (samples.samples, profile, PARAMS, cfg)
            batched, sequential = bcd.solve_pinned, sequential_solve_pinned
        else:
            args = (samples, profile, PARAMS, amb, cfg)
            batched, sequential = solve, sequential_solve
        expected = outcome(lambda: sequential(*args))
        table = bcd._reciprocal_table
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bcd, "_reciprocal_table", lambda *size: table(*size)[:block])
            events = step_events(patch)
            assert outcome(lambda: batched(*args)) == expected
        assert pools_inside_a_batch(events) or not merging


def ascent_closures(solver, *args):
    """The ``evaluate`` and ``minimizers`` closures that ``solver`` hands
    to ``bcd._ascend``, which is not run."""
    closures = []

    def capture(evaluate, minimizers, *rest):
        closures.extend((evaluate, minimizers))
        return SimpleNamespace()  # solve sets its stop reason

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bcd, "_ascend", capture)
        solver(*args)
    return closures


@st.composite
def denominator_instances(draw):
    """(solver, args, latencies, lams, wins): a solve or a pinned solve on
    anchors below, inside and above a support whose floor may be <= 0, some
    of them negative, with gamma3 = 0 now and then; a latency vector or a
    ``(K, I)`` stack of nondecreasing rows; and any winners mask.  A latency
    is either free or put within a few ulps of -gamma2*x/gamma3 for an
    anchor or the floor x, where a log argument rounds to zero or to either
    side of it."""
    params = UtilityParams(
        gamma2=draw(st.sampled_from([1.0]) | st.floats(1e-3, 1e3)),
        gamma3=draw(st.sampled_from([0.0, 1.0]) | st.floats(1e-3, 1e3)),
    )
    lo = draw(st.floats(-50.0, 50.0) | st.sampled_from([0.0, -1.0]))
    support = SupportInterval(lo, lo + draw(st.floats(1.0, 100.0)))
    anchor = st.floats(lo - 50.0, support.hi + 50.0) | st.floats(-100.0, 0.0)
    anchors = draw(st.lists(anchor | st.sampled_from([lo, support.hi]), min_size=1, max_size=8))
    n_types = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    profile = AspTypeProfile(
        thetas=np.sort(rng.uniform(100.0, 260.0, n_types)),
        alphas=rng.dirichlet(np.ones(n_types)),
    )
    edges = [lo, *anchors]

    def latency():
        if params.gamma3 == 0.0 or draw(st.booleans()):
            return draw(st.floats(-100.0, 200.0))
        edge = -(params.gamma2 * draw(st.sampled_from(edges))) / params.gamma3
        ulps = draw(st.integers(-2, 2))
        for _ in range(abs(ulps)):
            edge = np.nextafter(edge, math.copysign(math.inf, ulps))
        return float(edge)

    height = draw(st.integers(0, 3))  # 0: one latency vector
    rows = [sorted(latency() for _ in range(n_types)) for _ in range(max(height, 1))]
    lams = draw(st.lists(st.floats(0.0, 2.0), min_size=len(rows), max_size=len(rows)))
    latencies, lams = (np.array(rows), np.array(lams)) if height else (np.array(rows[0]), lams[0])
    wins = np.array(draw(st.lists(st.booleans(), min_size=len(anchors), max_size=len(anchors))))
    if draw(st.booleans()):
        return bcd.solve_pinned, (anchors, profile, params, RunConfig()), latencies, lams, wins
    amb = AmbiguityConfig(support, draw(st.floats(0.5, 30.0)))
    args = (QualitySampleSet(anchors), profile, params, amb, RunConfig())
    return solve, args, latencies, lams, wins


class TestStepDenominators:
    """Why the latency step tests none of its denominators gamma2*xi* +
    gamma3*L_i: they are log arguments that the evaluation of the iterate
    it steps from has tested, the same floats."""

    @given(denominator_instances())
    @settings(max_examples=300, deadline=None)
    def test_an_evaluation_that_raises_nothing_leaves_every_denominator_positive(
        self, instance
    ):
        solver, args, latencies, lams, wins = instance
        evaluate, minimizers = ascent_closures(solver, *args)
        try:
            evaluate(latencies, lams)
        except NonPositiveLogArgument:
            return
        scaled_xi, _ = minimizers(wins)
        gamma3 = args[2].gamma3
        for lat in np.atleast_2d(latencies):
            # as bcd._gradient builds them, from the step's scaled latencies
            denominators = np.add(scaled_xi, np.multiply(gamma3, lat)[:, None])
            assert np.logical_and.reduce(denominators > 0.0, axis=None)


class TestNonFiniteIterates:
    def test_multiplier_overflow(self):
        # a radius below the mean floor distance makes the first step positive
        profile, samples, amb = small_instance(epsilon=1.0)
        cfg = RunConfig(lambda_init=0.0, eta_lambda=1e308)
        with pytest.raises(NumericError, match="multiplier"):
            solve(samples, profile, PARAMS, amb, cfg)

    def test_latency_step_overflow(self):
        profile, samples, amb = small_instance()
        params = UtilityParams(gamma2=1e-6)
        with pytest.raises(NumericError, match="latency step"):
            solve(samples, profile, params, amb, RunConfig(eta_l=1e308))

    def test_objective_overflow(self):
        profile, samples, amb = small_instance()
        cfg = RunConfig(lambda_init=1e308, eta_lambda=0.0)
        with pytest.raises(NumericError, match="objective"):
            solve(samples, profile, PARAMS, amb, cfg)


class TestSolve:
    def test_determinism_bitwise(self):
        profile, samples, amb = small_instance(n_types=3, n_samples=20)
        cfg = RunConfig(itr_max=120)
        a = solve(samples, profile, PARAMS, amb, cfg)
        b = solve(samples, profile, PARAMS, amb, cfg)
        assert np.array_equal(a.objective_trace, b.objective_trace)
        assert np.array_equal(a.latency_trace, b.latency_trace)
        assert np.array_equal(a.menu.latencies, b.menu.latencies)

    def test_report_invariants(self):
        profile, samples, amb = small_instance(n_types=4, n_samples=15)
        report = solve(samples, profile, PARAMS, amb, RunConfig(itr_max=300))
        assert report.objective_trace.size == report.iterations_used
        assert report.latency_trace.shape == (report.iterations_used, 4)
        assert np.all(np.diff(report.menu.latencies) >= -1e-12)
        check_feasibility(report.menu, profile, 1.0)
        # running best of the trace never decreases, and the final value
        # improves on the first iterate
        running = np.maximum.accumulate(report.objective_trace)
        assert np.all(np.diff(running) >= 0)
        assert report.objective >= report.objective_trace[0] - 1e-12

    def test_not_converging_is_reported_not_raised(self):
        profile, samples, amb = small_instance()
        report = solve(samples, profile, PARAMS, amb, RunConfig(itr_max=3, conv_tol=1e-15))
        assert report.converged is False
        assert report.iterations_used == 3

    def test_single_type_objective_matches_joint_grid(self):
        profile = AspTypeProfile(thetas=[200.0], alphas=[1.0])
        rng = np.random.default_rng(31)
        samples = QualitySampleSet(rng.uniform(60, 100, 25))
        amb = ambiguity(25)
        report = solve(samples, profile, PARAMS, amb, RunConfig())
        assert report.converged
        best = -np.inf
        candidates = inner_candidates(samples.samples, SUPPORT)
        for lat in np.arange(0.0, 200.0, 0.5):
            for lam in np.arange(0.0, 0.055, 0.005):
                omega, _ = objectives([lat], lam, candidates, amb.epsilon, profile, PARAMS)
                best = max(best, omega)
        assert report.objective == pytest.approx(best, abs=1e-2)

    def test_theta_one_collapses_to_zero_latency(self):
        profile = AspTypeProfile(thetas=[1.0], alphas=[1.0])
        samples = QualitySampleSet(np.linspace(60, 100, 10))
        report = solve(samples, profile, PARAMS, ambiguity(10), RunConfig(itr_max=50))
        assert report.menu.latencies[0] == 0.0
        assert report.menu.rewards[0] == 0.0

    def test_trace_csv(self, tmp_path):
        profile, samples, amb = small_instance()
        report = solve(samples, profile, PARAMS, amb, RunConfig(itr_max=10, conv_tol=1e-15))
        path = tmp_path / "trace.csv"
        write_trace_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,objective,lambda,L_1,L_2"
        assert len(lines) == 11
        path2 = tmp_path / "trace_sp.csv"
        write_trace_csv(report, path2, method="sp")
        assert path2.read_text().splitlines()[0] == "method,iter,objective,lambda,L_1,L_2"

    def test_a_robust_solve_indexes_its_candidate_points(self):
        # the log arguments are taken at the candidate points, the support
        # floor first: index 0 is the floor, -10, not training sample 0,
        # and the floor is the least point, so it fails first
        cfg = RunConfig(support_lo=-10.0)
        train = cfg.train_samples()
        assert train.samples.min() > 0.0
        with pytest.raises(NonPositiveLogArgument) as err:
            solve(train, cfg.profile(), cfg.params(), cfg.ambiguity_for(train.n), cfg)
        assert err.value.sample_index == 0
        assert str(err.value) == "log argument -10.0 at xi=-10.0 must be > 0"


@pytest.fixture(scope="module")
def reference_components():
    cfg = RunConfig()
    return cfg.train_samples(), cfg


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

    # The bench grid's contaminated dro cells: extreme count -> final
    # objective, final multiplier, latencies and rewards after the full budget.
    CONTAMINATED = {
        50: (
            "98.48066730275534",
            "15.249203842263576",
            [33.391513959964605, 63.07894030576988, 97.85174522398586, 122.73885741575013,
             142.6672793978317, 157.62169973745281, 167.59445495964727, 172.58166072741278],
            [0.30355921781786005, 0.5156122631450406, 0.7143140055348461, 0.8387495664936675,
             0.9293333027758564, 0.9929691340082867, 1.0336742573641824, 1.0536230804352444],
        ),
        100: (
            "786.1258882466592",
            "37.374203842264535",
            [38.95151541379049, 68.62683769757555, 103.38314560562621, 128.25959874934662,
             148.18040598977694, 163.12962924763207, 173.09914822757304, 178.08480067897665],
            [0.35410468557991354, 0.5660712733212354, 0.7646787470815248, 0.8890610128001268,
             0.9796101366202646, 1.0432238526111375, 1.0839157668149781, 1.1038583766205925],
        ),
    }

    # sha256 over a dro solve's objective, multiplier and latency traces
    # (their float64 bytes, in that order), recorded from the loop of one
    # step per evaluation: the seed-0 solve, whose winners change at
    # iterations 699-700, and the 1500 iterations of the contaminated one,
    # whose winners never change
    TRACE_SHA256 = {
        0: "20ec6d8d6936e4ad76739c54a5df106d24b7ac572e61c7df3550974d16d7dcb8",
        100: "72c1269c077aef01250eb2e00624a94b4a8f38643f58404ef10e8a9ccae39378",
    }

    @pytest.mark.parametrize("count", [0, 100])
    def test_dro_trace_digest(self, reference_components, count):
        train, cfg = reference_components
        run = RunConfig()
        samples = inject_extreme_points(train, count, run.extreme_value, run.seed)
        report = train_method("dro", samples, cfg)
        digest = hashlib.sha256()
        for trace in (report.objective_trace, report.lambda_trace, report.latency_trace):
            digest.update(trace.tobytes())
        assert digest.hexdigest() == self.TRACE_SHA256[count]

    @pytest.mark.parametrize("count", [50, 100])
    def test_contaminated_dro_solve(self, reference_components, count):
        train, cfg = reference_components
        run = RunConfig()
        contaminated = inject_extreme_points(train, count, run.extreme_value, run.seed)
        report = train_method("dro", contaminated, cfg)
        objective_repr, lam_repr, latencies, rewards = self.CONTAMINATED[count]
        assert (report.iterations_used, report.stop_reason) == (1500, "unbounded")
        assert repr(report.objective) == objective_repr
        assert repr(float(report.lambda_trace[-1])) == lam_repr
        assert report.menu.latencies.tolist() == latencies
        assert report.menu.rewards.tolist() == rewards


class TestStopReason:
    """Each solve names why it stopped."""

    @pytest.mark.parametrize("method", ["dro", "sp", "ro"])
    def test_reference_solves_stop_on_tol(self, reference_components, method):
        report = train_method(method, *reference_components)
        assert (report.converged, report.stop_reason) == (True, "tol")

    def test_iteration_budget(self, reference_components):
        train, cfg = reference_components
        report = train_method("dro", train, replace(cfg, itr_max=3))
        assert (report.converged, report.iterations_used, report.stop_reason) == (
            False,
            3,
            "max_iters",
        )

    def test_contaminated_dro_solve_is_unbounded(self, reference_components):
        # 50 training points at 1.0, 59 below the support floor: the mean
        # distance to the support is 14.75, over the 8.58 radius
        train, cfg = reference_components
        contaminated = inject_extreme_points(train, 50, 1.0, 0)
        report = train_method("dro", contaminated, cfg)
        assert (report.converged, report.stop_reason) == (False, "unbounded")
