"""Config files: parsing, validation, canonical text, hashing."""

import dataclasses
import re
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodal import (
    ConfigTypeError,
    EvalConfig,
    InvalidConfigError,
    RunConfig,
    TrainConfig,
    UnknownKeyError,
    WorldConfig,
    adapter_config_for,
    config_hash,
    parse_config,
)
from xmodal import runconfig
from xmodal.runconfig import canonical_config_text
from xmodal.trainer import ADAPTER_MODES, OPTIMIZERS, AdapterConfig


class TestEvalConfig:
    def test_defaults(self):
        c = EvalConfig()
        assert (c.holdout_fraction, c.knn_k, c.map_k, c.chance_trials) == (0.25, 5, 1000, 200)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"holdout_fraction": 0.0},
            {"holdout_fraction": 1.0},
            {"knn_k": 0},
            {"map_k": 0},
            {"chance_trials": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InvalidConfigError):
            EvalConfig(**kwargs)


class TestRunConfig:
    def test_defaults(self):
        c = RunConfig()
        assert c.adapter_mode == "mlp_encoder_plus_head"
        assert c.adapter_d_hidden == 512
        assert c.output_dir == "runs/default"

    def test_adapter_mode_checked(self):
        with pytest.raises(InvalidConfigError):
            RunConfig(adapter_mode="conv")

    @pytest.mark.parametrize("output_dir", ["runs/#1", "runs\nx", "runs\u2028x", " runs", "runs\t", "runs\x85"])
    def test_output_dir_the_config_text_cannot_carry_rejected(self, output_dir):
        with pytest.raises(InvalidConfigError, match="output_dir"):
            RunConfig(output_dir=output_dir)

    def test_adapter_config_follows_world(self):
        c = RunConfig()
        a = adapter_config_for(c)
        assert a.mode == c.adapter_mode
        assert a.d_in == c.world.d_student_in
        assert a.d_student == c.world.d_student
        assert a.d_teacher == c.world.d_teacher
        assert a.d_hidden == c.adapter_d_hidden


class TestParseConfig:
    def test_empty_text_is_default_config(self):
        assert parse_config("") == RunConfig()

    def test_comments_and_blank_lines(self):
        text = "\n# a comment\n   \nworld.seed = 9  # trailing comment\n"
        assert parse_config(text).world.seed == 9

    def test_sections_routed(self):
        text = (
            "world.n_families = 2\n"
            "train.tau = 0.1\n"
            "eval.knn_k = 3\n"
            "adapter.mode = linear_head_only\n"
            "adapter.d_hidden = 64\n"
            "output_dir = runs/exp1\n"
        )
        c = parse_config(text)
        assert c.world.n_families == 2
        assert c.train.tau == 0.1
        assert c.eval.knn_k == 3
        assert c.adapter_mode == "linear_head_only"
        assert c.adapter_d_hidden == 64
        assert c.output_dir == "runs/exp1"

    def test_default_train_tau(self):
        assert parse_config("").train.tau == 0.07

    def test_unknown_key_named_with_line(self):
        with pytest.raises(UnknownKeyError, match="line 2: unknown config key 'train.taus'"):
            parse_config("world.seed = 1\ntrain.taus = 0.1\n")

    def test_bad_value_names_line_and_key(self):
        with pytest.raises(ConfigTypeError, match="line 1: train.tau"):
            parse_config("train.tau = -1\n")
        with pytest.raises(ConfigTypeError, match="line 3: world.seed"):
            parse_config("\n\nworld.seed = seven\n")
        # Bounds live in the config dataclasses; the parser still names the line.
        for text, where in [
            ("world.sigma_audio = inf\n", "line 1: world.sigma_audio"),
            ("# tau\ntrain.tau = inf\n", "line 2: train.tau"),
            ("train.learning_rate = nan\n", "line 1: train.learning_rate"),
            ("train.adam_eps = inf\n", "line 1: train.adam_eps"),
            ("train.prompt_mixture = nan, 0.5, 0.5\n", "line 1: train.prompt_mixture"),
            ("adapter.d_hidden = 0\n", "line 1: adapter.d_hidden"),
            ("adapter.mode = conv\n", "line 1: adapter.mode"),
            (
                "world.n_families = 1\nworld.genera_per_family = 1\nworld.species_per_genus = 1\n",
                "line 3: world.species_per_genus",
            ),
        ]:
            with pytest.raises(ConfigTypeError, match=re.escape(where)):
                parse_config(text)

    def test_repeated_key_names_both_lines(self):
        # Keeping the last value would silently parse this to seed 2.
        with pytest.raises(ConfigTypeError, match="line 3: world.seed is already set on line 1"):
            parse_config("world.seed = 1\n# again\nworld.seed = 2\n")
        # Checked before the value: a repeat is an error even when equal
        # or when the world it would build is invalid.
        with pytest.raises(ConfigTypeError, match="line 2: train.tau is already set on line 1"):
            parse_config("train.tau = 0.1\ntrain.tau = 0.1\n")
        with pytest.raises(ConfigTypeError, match="line 2: output_dir is already set on line 1"):
            parse_config("output_dir = a\n  output_dir = b  # comment\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigTypeError, match="expected 'key = value'"):
            parse_config("world.seed 7\n")

    def test_mixture_parsing(self):
        c = parse_config("train.prompt_mixture = 0.5, 0.25, 0.25\n")
        assert c.train.prompt_mixture == (0.5, 0.25, 0.25)

    def test_mixture_must_sum_to_one(self):
        with pytest.raises(ConfigTypeError, match="sum to 1"):
            parse_config("train.prompt_mixture = 0.5, 0.6\n")

    def test_optimizer_choice(self):
        assert parse_config("train.optimizer = sgd_momentum\n").train.optimizer == "sgd_momentum"
        with pytest.raises(ConfigTypeError, match="one of"):
            parse_config("train.optimizer = adagrad\n")

    def test_holdout_fraction_bounds(self):
        with pytest.raises(ConfigTypeError):
            parse_config("eval.holdout_fraction = 0\n")
        with pytest.raises(ConfigTypeError):
            parse_config("eval.holdout_fraction = 1.0\n")

    def test_variant_count_minimum(self):
        with pytest.raises(ConfigTypeError, match="must be >= 2"):
            parse_config("world.variant_count = 1\n")

    def test_negative_train_seed_allowed(self):
        assert parse_config("train.seed = -3\n").train.seed == -3

    def test_negative_world_seed_rejected(self):
        with pytest.raises(ConfigTypeError):
            parse_config("world.seed = -1\n")


class TestSettings:
    """``parse_config(text, settings)``: each setting goes through a line's per-key step, after the file."""

    def test_setting_replaces_the_file_value(self):
        config = parse_config("world.seed = 3\n", {"world.seed": 5})
        assert config.world.seed == 5
        assert config == parse_config("world.seed = 5\n")

    def test_settings_read_text_as_a_line_does(self):
        text = "train.epochs = 3\nadapter.mode = linear_head_only\n"
        settings = {"adapter.mode": "mlp_encoder_plus_head", "train.tau": " 0.05 ", "world.seed": 9}
        expected = "train.epochs = 3\nadapter.mode = mlp_encoder_plus_head\ntrain.tau = 0.05\nworld.seed = 9\n"
        assert parse_config(text, settings) == parse_config(expected)

    def test_bad_setting_names_the_key(self):
        with pytest.raises(ConfigTypeError, match=re.escape("setting: train.tau: ")):
            parse_config("train.tau = 0.1\n", {"train.tau": "0"})
        with pytest.raises(ConfigTypeError, match=re.escape("setting: world.seed: seed must be >= 0, got -1")):
            parse_config("", {"world.seed": -1})
        with pytest.raises(ConfigTypeError, match=re.escape("setting: train.epochs: ")):
            parse_config("", {"train.epochs": "three"})
        with pytest.raises(UnknownKeyError, match=re.escape("setting: unknown config key 'world.speed'")):
            parse_config("", {"world.speed": "1"})

    def test_file_errors_come_first(self):
        # The file is parsed on its own: a setting does not excuse a repeated or bad line.
        with pytest.raises(ConfigTypeError, match="line 2: world.seed is already set on line 1"):
            parse_config("world.seed = 1\nworld.seed = 2\n", {"world.seed": 3})
        with pytest.raises(ConfigTypeError, match="line 1: train.tau"):
            parse_config("train.tau = -1\n", {"train.tau": "0.1"})


class TestSizeBounds:
    """Out-of-range sizes fail as config errors, before any array exists. No value here is run."""

    def test_integers_outside_int64_name_line_and_key(self):
        int_keys = [key for key, (_, _, convert) in runconfig._KEYS.items() if convert is runconfig._int64]
        assert "eval.map_k" in int_keys and "adapter.d_hidden" in int_keys
        for key in int_keys:
            for value in (2**63, -(2**63) - 1, 10**20):
                with pytest.raises(ConfigTypeError, match=f"line 1: {re.escape(key)}: {value} is outside"):
                    parse_config(f"{key} = {value}\n")
        assert parse_config(f"world.seed = {2**63 - 1}\n").world.seed == 2**63 - 1

    @pytest.mark.parametrize(
        "key, value, keys",
        [
            ("world.n_families", 2**62, "n_families, genera_per_family, species_per_genus, variant_count, d_teacher"),
            ("world.images_per_species", 2**58, "images_per_species, d_teacher"),
            ("world.d_student_in", 2**56, "audio_per_species, d_student_in"),
            ("world.d_student", 2**57, "species_per_genus, d_student"),
            ("adapter.d_hidden", 2**58, "d_in, d_hidden"),
        ],
    )
    def test_matrix_numpy_cannot_build_names_the_keys(self, key, value, keys):
        with pytest.raises(ConfigTypeError, match=f"line 1: {re.escape(key)}: .*{re.escape(keys)} give a"):
            parse_config(f"{key} = {value}\n")

    def test_constructors_refuse_past_the_int64_byte_count(self):
        limit = (2**63 - 1) // 8
        AdapterConfig(mode="linear_head_only", d_in=1, d_teacher=limit)
        with pytest.raises(InvalidConfigError, match="d_in, d_teacher give a 1 x"):
            AdapterConfig(mode="linear_head_only", d_in=1, d_teacher=limit + 1)
        assert AdapterConfig(mode="linear_head_only", d_hidden=2**62).d_hidden == 2**62  # no layer reads it
        with pytest.raises(InvalidConfigError, match="d_hidden, d_student give a"):
            AdapterConfig(d_in=1, d_hidden=2**40, d_student=2**20)
        # Two species of two prompt variants: the teacher text matrix is the widest, 4 rows of d_teacher.
        tiny = dict(n_families=1, genera_per_family=1, species_per_genus=2, variant_count=2, images_per_species=1)
        WorldConfig(**tiny, d_teacher=limit // 4)
        with pytest.raises(InvalidConfigError, match="variant_count, d_teacher give a 4 x"):
            WorldConfig(**tiny, d_teacher=limit // 4 + 1)


class TestCanonicalText:
    def test_round_trip_default(self):
        c = RunConfig()
        assert parse_config(canonical_config_text(c)) == c

    def test_round_trip_customized(self):
        c = parse_config(
            "world.seed = 3\n"
            "world.sigma_audio = 0.35\n"
            "train.prompt_mixture = 0.25, 0.75\n"
            "train.optimizer = sgd_momentum\n"
            "eval.map_k = 10\n"
            "adapter.mode = linear_head_only\n"
            "output_dir = runs/x\n"
        )
        assert parse_config(canonical_config_text(c)) == c

    def test_text_is_deterministic_and_terminated(self):
        a = canonical_config_text(RunConfig())
        b = canonical_config_text(RunConfig())
        assert a == b
        assert a.endswith("\n")
        assert "output_dir = runs/default" in a

    def test_every_line_is_a_known_key(self):
        for line in canonical_config_text(RunConfig()).strip().splitlines():
            key = line.split("=", 1)[0].strip()
            parse_config(line + "\n")  # must not raise
            assert " = " in line, key


_PROBABILITY = st.floats(0.0, 1.0, exclude_max=True)
_FINITE_NONNEGATIVE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_FINITE_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)


@st.composite
def _mixtures(draw):
    weights = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=6))
    return tuple(w / sum(weights) for w in weights)


# Every character str.splitlines splits on.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# Path characters plus what a config line cannot carry at all ('#', line
# breaks) or at its edges (whitespace, stripped on parsing).
_OUTPUT_DIR_CHARS = "abcxyz019/_.-= #\t\x1f\xa0" + _LINE_BREAKS


def _carried_by_config_text(output_dir: str) -> bool:
    return not any(ch in output_dir for ch in "#" + _LINE_BREAKS) and output_dir == output_dir.strip()


@st.composite
def _run_configs(draw):
    """Keyword arguments of a RunConfig: valid sections, any output_dir."""
    n_families, genera, species = draw(
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).filter(lambda t: t[0] * t[1] * t[2] >= 2)
    )
    world = WorldConfig(
        seed=draw(st.integers(0, 2**63 - 1)),
        n_families=n_families,
        genera_per_family=genera,
        species_per_genus=species,
        d_teacher=draw(st.integers(1, 256)),
        d_student_in=draw(st.integers(1, 256)),
        d_student=draw(st.integers(1, 256)),
        variant_count=draw(st.integers(2, 8)),
        audio_per_species=draw(st.integers(1, 100)),
        images_per_species=draw(st.integers(1, 100)),
        sigma_family=draw(_FINITE_POSITIVE),
        sigma_genus=draw(_FINITE_NONNEGATIVE),
        sigma_species=draw(_FINITE_NONNEGATIVE),
        sigma_variant=draw(_FINITE_NONNEGATIVE),
        sigma_image=draw(_FINITE_NONNEGATIVE),
        sigma_audio=draw(_FINITE_NONNEGATIVE),
    )
    train = TrainConfig(
        batch_size=draw(st.integers(2, 512)),
        epochs=draw(st.integers(0, 1000)),
        learning_rate=draw(_FINITE_NONNEGATIVE),
        tau=draw(_FINITE_POSITIVE),
        optimizer=draw(st.sampled_from(OPTIMIZERS)),
        momentum=draw(_PROBABILITY),
        beta1=draw(_PROBABILITY),
        beta2=draw(_PROBABILITY),
        adam_eps=draw(_FINITE_POSITIVE),
        seed=draw(st.integers(-(2**63), 2**63 - 1)),
        prompt_mixture=draw(st.none() | _mixtures()),
    )
    eval_config = EvalConfig(
        holdout_fraction=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        knn_k=draw(st.integers(1, 100)),
        map_k=draw(st.integers(1, 10_000)),
        chance_trials=draw(st.integers(1, 10_000)),
    )
    return dict(
        world=world,
        train=train,
        eval=eval_config,
        adapter_mode=draw(st.sampled_from(ADAPTER_MODES)),
        adapter_d_hidden=draw(st.integers(1, 4096)),
        output_dir=draw(st.text(alphabet=_OUTPUT_DIR_CHARS, max_size=24)),
    )


class TestSingleSchema:
    @settings(max_examples=200, deadline=None)
    @given(_run_configs())
    def test_any_valid_config_round_trips(self, kwargs):
        # RunConfig rejects exactly the output_dirs its text cannot carry.
        if not _carried_by_config_text(kwargs["output_dir"]):
            with pytest.raises(InvalidConfigError, match="output_dir"):
                RunConfig(**kwargs)
            return
        config = RunConfig(**kwargs)
        text = canonical_config_text(config)
        parsed = parse_config(text)
        assert parsed == config
        assert canonical_config_text(parsed) == text
        assert config_hash(parsed) == config_hash(config)

    def test_field_type_without_converter_fails_loudly(self, monkeypatch):
        # Such a field once got the float-list converter: 5 parsed as (5.0,).
        @dataclasses.dataclass(frozen=True)
        class Throwaway:
            pretrain_epochs: Optional[int] = None

        monkeypatch.setattr(runconfig, "TrainConfig", Throwaway)
        with pytest.raises(TypeError, match=r"train\.pretrain_epochs"):
            runconfig._key_table()


class TestConfigHash:
    def test_format(self):
        h = config_hash(RunConfig())
        assert len(h) == 16
        assert all(ch in "0123456789abcdef" for ch in h)

    def test_stable_for_equal_configs(self):
        assert config_hash(RunConfig()) == config_hash(parse_config(""))

    def test_sensitive_to_any_field(self):
        base = config_hash(RunConfig())
        assert config_hash(parse_config("world.seed = 8\n")) != base
        assert config_hash(parse_config("train.tau = 0.08\n")) != base
        assert config_hash(parse_config("output_dir = elsewhere\n")) != base

    def test_default_hash_frozen(self):
        # Provenance anchor: changing any default silently would break
        # artifact compatibility, so the default hash is pinned here.
        assert config_hash(RunConfig()) == "65edaf666cf456f0"
