import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance as scipy_wasserstein

from drcontract import (
    AmbiguityConfig,
    DataError,
    QualitySampleSet,
    SupportInterval,
    ValidationError,
    inject_extreme_points,
    radius,
    read_samples_csv,
    shift_samples,
    wasserstein_1d,
    write_samples_csv,
)

floats_list = st.lists(
    st.floats(-1000, 1000, allow_nan=False, allow_infinity=False), min_size=1, max_size=30
)


class TestSupportInterval:
    def test_diameter(self):
        assert SupportInterval(60.0, 100.0).diameter == 40.0

    def test_rejects_empty_interval(self):
        with pytest.raises(ValidationError):
            SupportInterval(5.0, 5.0)


class TestRadius:
    def test_reference_configuration(self):
        assert radius(200, 0.99, 40.0) == pytest.approx(8.5839, abs=1e-3)

    def test_closed_form_small_case(self):
        assert radius(50, 0.5, 1.0) == pytest.approx(math.sqrt(0.04 * math.log(2)), abs=1e-12)

    def test_vanishes_as_samples_grow(self):
        # ~1.21e-4 at N=1e12; keeps shrinking toward zero
        assert radius(10**12, 0.99, 40.0) < 2e-4
        assert radius(10**14, 0.99, 40.0) < 2e-5

    def test_rejects_bad_confidence(self):
        for tau in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValidationError, match=r"tau must lie in \(0, 1\)"):
                radius(100, tau, 40.0)

    @given(
        n=st.integers(1, 10**6),
        tau=st.floats(0.01, 0.99),
        d=st.floats(0.1, 100),
    )
    @settings(max_examples=80)
    def test_monotonicity(self, n, tau, d):
        base = radius(n, tau, d)
        assert radius(n + 1, tau, d) < base
        assert radius(n, min(tau + 0.005, 0.995), d) > base or tau + 0.005 > 0.995
        assert radius(n, tau, d + 0.1) > base


class TestEmpiricalDistribution:
    """A sample set is the uniform empirical distribution on its
    observations: every observation is one atom of weight 1/N."""

    def test_single_atom(self):
        samples = QualitySampleSet([5.0])
        assert samples.n == 1
        assert wasserstein_1d(samples, [6.0]) == 1.0  # the one atom carries all the mass

    def test_duplicates_preserved(self):
        samples = QualitySampleSet([1.0, 1.0, 2.0])
        assert samples.n == 3
        assert np.sum(samples.samples == 1.0) == 2
        # moving one of the duplicates moves a third of the mass
        assert wasserstein_1d(samples, [1.0, 2.0, 2.0]) == pytest.approx(1 / 3)

    def test_two_hundred_atoms(self):
        points = np.linspace(60, 100, 200)
        samples = QualitySampleSet(points)
        assert samples.n == 200
        moved = points.copy()
        moved[-1] += 1.0
        assert wasserstein_1d(samples, moved) == pytest.approx(0.005)

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="at least one observation"):
            QualitySampleSet([])


class TestWasserstein:
    def test_identity(self):
        assert wasserstein_1d([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_sorted_matching(self):
        assert wasserstein_1d([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]) == pytest.approx(1.0)

    def test_permutation_invariance(self):
        assert wasserstein_1d([0.0, 10.0], [10.0, 0.0]) == 0.0

    def test_size_mismatch(self):
        with pytest.raises(DataError, match="sample counts differ: 1 vs 2"):
            wasserstein_1d([1.0], [1.0, 2.0])

    def test_accepts_sample_sets_and_distributions(self):
        s = QualitySampleSet([1.0, 2.0])
        assert wasserstein_1d(s, s.samples) == 0.0
        assert wasserstein_1d([2.0, 1.0], s) == 0.0

    @given(a=floats_list, b=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_scipy_oracle(self, a, b):
        other = b.draw(
            st.lists(
                st.floats(-1000, 1000, allow_nan=False, allow_infinity=False),
                min_size=len(a),
                max_size=len(a),
            )
        )
        got = wasserstein_1d(a, other)
        assert got == pytest.approx(scipy_wasserstein(a, other), abs=1e-9)

    @given(a=floats_list, rest=st.data())
    @settings(max_examples=60, deadline=None)
    def test_metric_axioms(self, a, rest):
        n = len(a)
        bounded = st.floats(-1000, 1000, allow_nan=False, allow_infinity=False)
        b = rest.draw(st.lists(bounded, min_size=n, max_size=n))
        c = rest.draw(st.lists(bounded, min_size=n, max_size=n))
        dab, dba = wasserstein_1d(a, b), wasserstein_1d(b, a)
        assert dab >= 0.0
        assert dab == dba
        assert wasserstein_1d(a, a) == 0.0
        assert wasserstein_1d(a, c) <= dab + wasserstein_1d(b, c) + 1e-9
        if dab == 0.0:
            assert sorted(a) == pytest.approx(sorted(b), abs=1e-12)


class TestShiftSamples:
    def test_zero_shift_identity(self):
        s = QualitySampleSet([80.0, 90.0])
        np.testing.assert_array_equal(shift_samples(s, 0.0).samples, s.samples)

    def test_uniform_translation(self):
        s = QualitySampleSet([80.0, 90.0])
        np.testing.assert_allclose(shift_samples(s, 30.0).samples, [50.0, 60.0])

    def test_no_clipping_below_support(self):
        s = QualitySampleSet([65.0])
        assert shift_samples(s, 60.0).samples[0] == pytest.approx(5.0)

    def test_transport_distance_equals_magnitude(self):
        rng = np.random.default_rng(0)
        s = QualitySampleSet(rng.uniform(60, 100, 200))
        for magnitude in (0.0, 10.0, 25.5, 60.0):
            shifted = shift_samples(s, magnitude)
            assert wasserstein_1d(s, shifted) == pytest.approx(magnitude, abs=1e-9)

    @given(
        values=floats_list,
        a=st.floats(0, 50, allow_nan=False),
        b=st.floats(0, 50, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_translation_composition(self, values, a, b):
        s = QualitySampleSet(values)
        once = shift_samples(s, a + b)
        twice = shift_samples(shift_samples(s, a), b)
        np.testing.assert_allclose(once.samples, twice.samples, atol=1e-9)

    def test_rejects_negative_magnitude(self):
        with pytest.raises(ValidationError):
            shift_samples(QualitySampleSet([1.0]), -1.0)

class TestInjectExtremePoints:
    def test_zero_count_identity(self):
        s = QualitySampleSet([80.0, 90.0])
        assert inject_extreme_points(s, 0, 1.0, seed=0) is s

    def test_reference_contamination(self):
        s = QualitySampleSet(np.linspace(60, 100, 200))
        out = inject_extreme_points(s, 50, 1.0, seed=0)
        assert out.n == 200
        assert int(np.sum(out.samples == 1.0)) == 50

    def test_saturation(self):
        s = QualitySampleSet(np.linspace(60, 100, 10))
        out = inject_extreme_points(s, 10, 1.0, seed=3)
        assert np.all(out.samples == 1.0)

    def test_deterministic_given_seed(self):
        s = QualitySampleSet(np.linspace(60, 100, 50))
        a = inject_extreme_points(s, 10, 1.0, seed=42)
        b = inject_extreme_points(s, 10, 1.0, seed=42)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_count_exceeds_n(self):
        with pytest.raises(DataError, match="count 3 exceeds sample count 2"):
            inject_extreme_points(QualitySampleSet([1.0, 2.0]), 3, 1.0, seed=0)


class TestAmbiguityConfig:
    def test_derive_uses_closed_form(self):
        cfg = AmbiguityConfig.derive(SupportInterval(60, 100), 0.99, 200)
        assert cfg.epsilon == pytest.approx(radius(200, 0.99, 40.0))

    def test_rejects_bad_tau(self):
        with pytest.raises(ValidationError, match=r"tau must lie in \(0, 1\), got 1.2"):
            AmbiguityConfig.derive(SupportInterval(60, 100), 1.2, 10)

    def test_explicit_zero_radius_allowed(self):
        AmbiguityConfig(SupportInterval(60, 100), 0.0)

    def test_rejects_nan_radius(self):
        with pytest.raises(ValidationError):
            AmbiguityConfig(SupportInterval(60, 100), math.nan)


class TestSamplesCsv:
    def test_round_trip(self, tmp_path):
        s = QualitySampleSet(np.array([60.5, 99.125, 1.0]))
        path = tmp_path / "samples.csv"
        write_samples_csv(s, path)
        back = read_samples_csv(path)
        np.testing.assert_array_equal(back.samples, s.samples)
