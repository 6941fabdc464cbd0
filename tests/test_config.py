from dataclasses import fields, replace

import numpy as np
import pytest

from drcontract import (
    ParseError,
    ValidationError,
    generate_alphas,
    load_config,
)
from drcontract import config
from drcontract.cli import EXIT_CONFIG, EXIT_OK, dispatch, main
from drcontract.config import (
    DEFAULT_THETAS,
    RunConfig,
    generate_quality_samples,
    parse_config_text,
)
from drcontract.ambiguity import SupportInterval
from drcontract.seeding import rng_for


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

    def test_every_field_annotation_has_a_parser(self):
        # a new field needs no more than its annotation to be a config key
        for f in fields(RunConfig):
            assert f.type in config._PARSERS, f.name

    def test_every_key_written_at_its_default_loads_the_defaults(self, tmp_path):
        lines = []
        for f in fields(RunConfig):
            value = f.default
            text = ", ".join(map(repr, value)) if isinstance(value, tuple) else value
            lines.append(f"{f.name} = {text}\n")
        path = tmp_path / "defaults.cfg"
        path.write_text("".join(lines))
        # repr, as (0.0, 50.0) == (0, 50): the parsed types must match too
        assert repr(load_config(path)) == repr(RunConfig())

    def test_repeated_key_rejected_with_both_lines(self):
        # the last value used to win silently
        with pytest.raises(ValidationError) as err:
            parse_config_text("seed = 1\ntau = 0.9\n# seed = 3\nseed = 2\n", source="c.cfg")
        assert str(err.value) == "c.cfg:4: config key 'seed' repeats line 1"


class TestValidation:
    def test_bad_confidence_named(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("tau = 1.5\n")
        with pytest.raises(ValidationError, match=r"tau must lie in \(0, 1\), got 1.5"):
            load_config(path)

    def test_alphas_not_summing_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("thetas = 110, 140\nalphas = 0.5, 0.6\n")
        with pytest.raises(ValidationError):
            load_config(path)

    @pytest.mark.parametrize("key", ["n_train", "n_eval"])
    def test_sample_count_past_the_budget_rejected(self, key):
        # only constructed: a solve at these sizes would not fit in memory
        top = config._MAX_SAMPLES
        RunConfig(**{key: top})
        for count in (top + 1, 10**12):
            with pytest.raises(ValidationError, match=f"must lie in \\[1, {top}\\]"):
                RunConfig(**{key: count})

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("itr_max", 0, "itr_max must be >= 1"),
            ("conv_tol", 0.0, "conv_tol must be > 0"),
            ("eta_l", -1.0, "eta_l must be >= 0"),
            ("eta_lambda", -1e-3, "eta_lambda must be >= 0"),
            ("lambda_init", -6.0, "lambda_init must be >= 0"),
        ],
    )
    def test_each_loop_key_check_names_the_key(self, tmp_path, capsys, key, value, message):
        with pytest.raises(ValidationError) as err:
            RunConfig(**{key: value})
        assert str(err.value) == message
        path = tmp_path / "c.cfg"
        path.write_text(f"{key} = {value}\n")
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_empty_thetas_named(self, tmp_path, capsys):
        # a ladder of no types, before any draw of their probabilities
        message = "thetas must hold at least one type"
        with pytest.raises(ValidationError) as err:
            RunConfig(thetas=())
        assert str(err.value) == message
        path = tmp_path / "c.cfg"
        path.write_text("thetas =\n")
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

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

    def test_no_types_rejected(self):
        with pytest.raises(ValidationError, match="n_types must be >= 1"):
            generate_alphas(0, 0)

    def test_unknown_stream_label_rejected(self):
        with pytest.raises(ValidationError, match="unknown rng label 'nope'"):
            rng_for(0, "nope")


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

    @pytest.mark.parametrize(
        "mean, sd",
        [
            (85.0, 0.0),
            (85.0, -1.0),
            (85.0, float("nan")),
            (float("nan"), 8.0),
            (85.0, float("inf")),
            (float("-inf"), 8.0),
        ],
    )
    def test_bad_normal_raises_before_any_draw(self, monkeypatch, mean, sd):
        # sd = 0 would divide by zero, sd < 0 reach numpy's scale check, and
        # a NaN spend every rejection round
        def no_draw(*args):
            pytest.fail("the sampler drew from the generator")

        monkeypatch.setattr(config, "rng_for", no_draw)
        sup = SupportInterval(60.0, 100.0)
        with pytest.raises(ValidationError, match=r"needs finite mean and sd, sd > 0"):
            generate_quality_samples(20_000, 0, "train-data", mean, sd, sup)

    def test_tiny_mass_raises_after_round_cap(self):
        # the support sits 6.5 sd below the mean: mass about 4e-11, not 0.0
        sup = SupportInterval(60.0, 100.0)
        with pytest.raises(ValidationError, match="rejection rounds"):
            generate_quality_samples(1, 0, "train-data", 152.0, 8.0, sup)


class TestEveryKeyChangesAResult:
    """No config key that cannot change a result: each RunConfig field, set
    to another value, changes what one subcommand prints or writes."""

    BASE = RunConfig(
        thetas=(110.0, 140.0),
        n_train=20,
        n_eval=5,
        itr_max=30,
        shift_magnitudes=(0.0, 10.0),
        extreme_counts=(0, 2),
        tau=0.05,
        oracle_grid_step=1.0,
        oracle_l_max=20.0,
    )
    # written to the test's temporary directory: the base config's menu and
    # the files the *_csv keys below name; both menus satisfy participation
    # and self-selection, which evaluate checks
    FILES = {
        "menu.csv": "type_index,L,R\n1,10.0,0.1\n2,20.0,0.18\n",
        "other-menu.csv": "type_index,L,R\n1,5.0,0.05\n2,25.0,0.2\n",
        "train.csv": "xi\n70.0\n80.0\n90.0\n",
        "eval.csv": "xi\n65.0\n95.0\n",
    }
    # field: (subcommand, value)
    CHANGES = {
        "thetas": ("solve", (110.0, 150.0)),
        "alphas": ("solve", (0.3, 0.7)),
        "gamma1": ("solve", 2.0),
        "gamma2": ("solve", 2.0),
        "gamma3": ("solve", 2.0),
        "tau": ("solve", 0.1),
        "n_train": ("solve", 21),
        "n_eval": ("gen-data", 6),
        "support_lo": ("solve", 55.0),
        "support_hi": ("solve", 105.0),
        "itr_max": ("solve", 10),
        "conv_tol": ("solve", 100.0),
        "eta_l": ("solve", 2e4),
        "eta_lambda": ("solve", 2e-3),
        "lambda_init": ("solve", 5.0),
        "l_init": ("solve", 1.0),
        "seed": ("gen-data", 1),
        "shift_magnitudes": ("bench", (0.0, 20.0)),
        "extreme_counts": ("bench", (0, 3)),
        "extreme_value": ("bench", 2.0),
        "gen_mean": ("gen-data", 80.0),
        "gen_sd": ("gen-data", 9.0),
        "train_csv": ("solve", "train.csv"),
        "eval_csv": ("evaluate", "eval.csv"),
        "menu_csv": ("evaluate", "other-menu.csv"),
        "oracle_grid_step": ("oracle", 0.7),
        "oracle_l_max": ("oracle", 10.0),
        "oracle_lambda_max": ("oracle", 0.001),
    }

    def test_the_table_covers_every_key(self):
        assert list(self.CHANGES) == [f.name for f in fields(RunConfig)]

    @staticmethod
    def result(subcommand, cfg, run_dir, monkeypatch, capsys):
        """What ``dispatch`` prints and writes, the output directory's path
        being the same relative one in every run."""
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        capsys.readouterr()
        assert dispatch(subcommand, cfg, out="out") == EXIT_OK
        written = {
            str(p.relative_to(run_dir)): p.read_bytes()
            for p in sorted((run_dir / "out").rglob("*"))
            if p.is_file()
        }
        return capsys.readouterr().out, written

    @pytest.mark.parametrize("key", list(CHANGES))
    def test_key_changes_its_subcommands_output(self, key, tmp_path, monkeypatch, capsys):
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text)
        base = replace(self.BASE, menu_csv=str(tmp_path / "menu.csv"))
        subcommand, value = self.CHANGES[key]
        if key.endswith("_csv"):
            value = str(tmp_path / value)
        assert value != getattr(base, key)
        changed = replace(base, **{key: value})
        before = self.result(subcommand, base, tmp_path / "base", monkeypatch, capsys)
        after = self.result(subcommand, changed, tmp_path / "changed", monkeypatch, capsys)
        assert after != before
