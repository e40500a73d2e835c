"""Config parsing, serialization, and validation."""

import dataclasses

import pytest

from shapegan.config import TrainConfig, load_config, parse_config_text
from shapegan.errors import ConfigurationError


def test_defaults_are_valid():
    cfg = TrainConfig()
    cfg.validate()
    assert cfg.n_critic == 5
    assert cfg.lambda_gp == 10.0
    assert cfg.adam_beta1 == 0.0 and cfg.adam_beta2 == 0.9


def test_text_round_trip_is_exact():
    cfg = TrainConfig(lr_critic=3e-4, lambda_shape=0.5, early_stop=True,
                      max_iterations=123)
    back = TrainConfig.from_mapping(parse_config_text(cfg.to_text()))
    assert back == cfg


def test_repr_floats_survive_round_trip():
    # repr keeps full precision, so awkward values come back bitwise
    cfg = TrainConfig(lr_encoder=1.0 / 3.0, lambda_rec=0.1 + 0.2)
    back = TrainConfig.from_mapping(parse_config_text(cfg.to_text()))
    assert back.lr_encoder == cfg.lr_encoder
    assert back.lambda_rec == cfg.lambda_rec


def test_to_text_lists_every_field():
    text = TrainConfig().to_text()
    keys = [line.split(" = ")[0] for line in text.strip().splitlines()]
    assert keys == [f.name for f in dataclasses.fields(TrainConfig)]


def test_partial_mapping_keeps_defaults():
    cfg = TrainConfig.from_mapping({"batch_size": "8"})
    assert cfg.batch_size == 8
    assert cfg.max_iterations == TrainConfig().max_iterations


def test_unknown_key_names_the_key():
    with pytest.raises(ConfigurationError, match="'learning_rate'"):
        TrainConfig.from_mapping({"learning_rate": "0.1"})


def test_unparseable_value_names_key_and_type():
    with pytest.raises(ConfigurationError, match="'batch_size'.*'eight'.*int"):
        TrainConfig.from_mapping({"batch_size": "eight"})


@pytest.mark.parametrize("raw, expected", [
    ("true", True), ("TRUE", True), ("1", True), ("yes", True),
    ("false", False), ("0", False), ("no", False),
])
def test_bool_spellings(raw, expected):
    cfg = TrainConfig.from_mapping({"early_stop": raw})
    assert cfg.early_stop is expected


def test_bad_bool_rejected():
    with pytest.raises(ConfigurationError, match="as bool"):
        TrainConfig.from_mapping({"early_stop": "maybe"})


def test_parse_skips_comments_and_blanks():
    mapping = parse_config_text(
        "# schedule\n\nn_critic = 3\n  # indented comment\nseed=4\n"
    )
    assert mapping == {"n_critic": "3", "seed": "4"}


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigurationError, match="line 2: duplicate key 'seed'"):
        parse_config_text("seed = 1\nseed = 2\n")


def test_parse_rejects_missing_equals():
    with pytest.raises(ConfigurationError, match="line 1"):
        parse_config_text("just a sentence\n")


def test_parse_rejects_empty_key():
    with pytest.raises(ConfigurationError, match="empty key"):
        parse_config_text("= 5\n")


@pytest.mark.parametrize("field, value, message", [
    ("n_critic", 0, "n_critic"),
    ("batch_size", 1, "batch_size"),
    ("max_iterations", -1, "non-negative"),
    ("image_size", 30, "multiple of 4"),
    ("image_size", 12, ">= 16"),
    ("checkpoint_every", 0, "checkpoint_every"),
    ("lambda_gp", -1.0, "lambda_gp"),
    ("lambda_rec", -1.0, "lambda_rec"),
    ("lr_critic", 0.0, "lr_critic"),
    ("adam_beta1", 1.0, "betas"),
    ("adam_beta2", -0.5, "betas"),
    ("adam_epsilon", 0.0, "adam_epsilon"),
    ("shape_reference", "oracle", "shape_reference"),
    ("lambda_shape", float("nan"), "lambda_shape must be finite"),
    ("lambda_gp", float("inf"), "lambda_gp must be finite"),
    ("lr_critic", float("nan"), "lr_critic must be finite"),
    ("adam_epsilon", float("inf"), "adam_epsilon must be finite"),
    ("adam_beta1", float("nan"), "adam_beta1 must be finite"),
    ("lambda_adv", float("-inf"), "lambda_adv must be finite"),
])
def test_validate_rejects(field, value, message):
    cfg = dataclasses.replace(TrainConfig(), **{field: value})
    with pytest.raises(ConfigurationError, match=message):
        cfg.validate()


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("batch_size = 4\nlambda_shape = 0.0\n")
    cfg = load_config(path)
    assert cfg.batch_size == 4 and cfg.lambda_shape == 0.0


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read config"):
        load_config(tmp_path / "absent.cfg")


def test_load_config_not_utf8(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("# réglage\nbatch_size = 4\n".encode("latin-1"))
    with pytest.raises(ConfigurationError, match="cannot read config"):
        load_config(path)
