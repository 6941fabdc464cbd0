import numpy as np
import pytest

from drcontract import (
    InvalidConfidence,
    ParseError,
    ValidationError,
    generate_alphas,
    load_config,
)
from drcontract import config
from drcontract.config import (
    DEFAULT_THETAS,
    RunConfig,
    generate_quality_samples,
    parse_config_text,
)
from drcontract.ambiguity import SupportInterval


class TestDefaults:
    def test_empty_file_gives_reference_configuration(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = load_config(path)
        assert cfg.thetas == (110.0, 140.0, 175.0, 200.0, 220.0, 235.0, 245.0, 250.0)
        assert cfg.gamma1 == cfg.gamma2 == cfg.gamma3 == 1.0
        assert cfg.tau == 0.99
        assert cfg.n_train == 200
        assert (cfg.support_lo, cfg.support_hi) == (60.0, 100.0)
        assert cfg.itr_max == 1500
        assert cfg.conv_tol == 1e-3
        assert cfg.lambda_init == 6.0
        assert cfg.eta_lambda == 1e-3
        assert cfg.eta_l == 1e4
        assert cfg.l_init == 0.0

    def test_defaults_build_valid_components(self):
        cfg = RunConfig()
        assert cfg.profile().n_types == 8
        assert cfg.ambiguity_for(200).epsilon == pytest.approx(8.5839, abs=1e-3)
        assert cfg.bcd_config().max_iters == 1500


class TestParsing:
    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\ntau = 0.95  # trailing\nseed = 7\n")
        cfg = load_config(path)
        assert cfg.tau == 0.95
        assert cfg.seed == 7

    def test_lists(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("thetas = 110, 140\nalphas = 0.5, 0.5\nextreme_counts = 0\n")
        cfg = load_config(path)
        assert cfg.thetas == (110.0, 140.0)
        assert cfg.alphas == (0.5, 0.5)
        assert cfg.extreme_counts == (0,)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_config_text("tau = 0.9\nthis is not a key value pair\n")
        assert err.value.line == 2

    def test_bad_number_is_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_config_text("tau = ninety\n")
        assert err.value.line == 1

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            parse_config_text("taus = 0.9\n")

    def test_repeated_key_rejected_with_both_lines(self):
        # the last value used to win silently
        with pytest.raises(ValidationError) as err:
            parse_config_text("seed = 1\ntau = 0.9\n# seed = 3\nseed = 2\n", source="c.cfg")
        assert str(err.value) == "c.cfg:4: config key 'seed' repeats line 1"


class TestValidation:
    def test_bad_confidence_named(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("tau = 1.5\n")
        with pytest.raises(InvalidConfidence):
            load_config(path)

    def test_alphas_not_summing_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("thetas = 110, 140\nalphas = 0.5, 0.6\n")
        with pytest.raises(ValidationError):
            load_config(path)

    def test_decreasing_thetas_rejected(self):
        with pytest.raises(ValidationError):
            RunConfig(thetas=(140.0, 110.0))

    def test_negative_shift_rejected(self):
        with pytest.raises(ValidationError):
            RunConfig(shift_magnitudes=(-5.0,))


class TestGenerateAlphas:
    def test_single_type(self):
        np.testing.assert_array_equal(generate_alphas(1, 0), [1.0])

    def test_deterministic(self):
        np.testing.assert_array_equal(generate_alphas(8, 123), generate_alphas(8, 123))

    def test_seed_zero_golden(self):
        got = generate_alphas(8, 0)
        assert got.size == 8
        assert np.all(got > 0)
        assert abs(got.sum() - 1.0) <= 1e-12
        golden = np.array(
            [
                0.13435078060506604,
                0.14371722686793466,
                0.09082328256971073,
                0.09107327838900721,
                0.11647530352113724,
                0.11159529272576106,
                0.08281243976282745,
                0.22915239555855555,
            ]
        )
        np.testing.assert_allclose(got, golden, atol=1e-15)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(generate_alphas(8, 0), generate_alphas(8, 1))


class TestGenerateSamples:
    def test_respects_support_and_count(self):
        sup = SupportInterval(60.0, 100.0)
        s = generate_quality_samples(200, 0, "train-data", 85.0, 8.0, sup)
        assert s.n == 200
        assert np.all((s.samples >= 60.0) & (s.samples <= 100.0))

    def test_deterministic_per_label(self):
        sup = SupportInterval(60.0, 100.0)
        a = generate_quality_samples(50, 0, "train-data", 85.0, 8.0, sup)
        b = generate_quality_samples(50, 0, "train-data", 85.0, 8.0, sup)
        c = generate_quality_samples(50, 0, "eval-data", 85.0, 8.0, sup)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_support_without_mass_raises(self):
        sup = SupportInterval(60.0, 100.0)
        with pytest.raises(ValidationError, match=r"mean=1000\.0, sd=8\.0.*\[60\.0, 100\.0\]"):
            generate_quality_samples(200, 0, "train-data", 1000.0, 8.0, sup)

    def test_zero_mass_raises_before_any_draw(self, monkeypatch):
        # both ends lie over 100 sd below the mean: erf reads -1.0 at each
        def no_draw(*args):
            pytest.fail("the sampler drew from the generator")

        monkeypatch.setattr(config, "rng_for", no_draw)
        sup = SupportInterval(60.0, 100.0)
        with pytest.raises(ValidationError, match="no mass"):
            generate_quality_samples(20_000, 0, "train-data", 1000.0, 8.0, sup)

    def test_tiny_mass_raises_after_round_cap(self):
        # the support sits 6.5 sd below the mean: mass about 4e-11, not 0.0
        sup = SupportInterval(60.0, 100.0)
        with pytest.raises(ValidationError, match="rejection rounds"):
            generate_quality_samples(1, 0, "train-data", 152.0, 8.0, sup)
