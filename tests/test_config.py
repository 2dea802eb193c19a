"""Config values must already have their TrainConfig field's type: nothing is coerced."""

from dataclasses import fields

import pytest

from elgeo.cli import main
from elgeo.config import (
    PRESET_NAMES, ConfigError, apply_overrides, load_preset, to_train_config,
)
from elgeo.training import TrainConfig

# field type -> values of other types, each of which must raise ConfigError
REJECTED = {
    int: [2.7, 2.0, True, False, "3", None, [3]],
    float: [True, False, "0.5", None, [0.5]],
    str: [5, 1.5, True, None, ["relu"]],
    bool: [1, 0, 1.0, "true", None],
    tuple: [5, True, None, [1], ["gci2", 2], {"gci2": 1}],
}
CASES = [(f.name, value) for f in fields(TrainConfig) for value in REJECTED[type(f.default)]]


def test_every_field_type_has_a_table_row():
    assert {type(f.default) for f in fields(TrainConfig)} == set(REJECTED)


@pytest.mark.parametrize("name,value", CASES, ids=[f"{n}={v!r}" for n, v in CASES])
def test_a_value_of_another_type_is_rejected(name, value):
    with pytest.raises(ConfigError, match=f"train.{name} expects"):
        to_train_config({f"train.{name}": value})


@pytest.mark.parametrize("field", fields(TrainConfig), ids=lambda f: f.name)
def test_a_value_of_the_field_type_is_taken(field):
    cfg = to_train_config({f"train.{field.name}": field.default})
    assert getattr(cfg, field.name) == field.default
    assert type(getattr(cfg, field.name)) is type(field.default)


def test_a_float_field_takes_an_int_as_a_float():
    cfg = to_train_config({"train.lr": 1})
    assert cfg.lr == 1.0 and type(cfg.lr) is float


def test_the_tuple_field_takes_a_comma_separated_string():
    assert to_train_config({"train.neg_forms": "gci0,gci2"}).neg_forms == ("gci0", "gci2")


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_preset_loads(name):
    assert isinstance(to_train_config(load_preset(name)), TrainConfig)


@pytest.mark.parametrize("override", ["train.epochs=2.7", "train.dim=true", "train.activation=5"])
def test_the_cli_exits_2_on_a_value_of_another_type(override, tmp_path, capsys):
    assert main(["gen-toy", str(tmp_path / "toy")]) == 0
    assert main(["train", str(tmp_path / "toy"), str(tmp_path / "run"),
                 "--set", override]) == 2
    assert "expects" in capsys.readouterr().err
    assert apply_overrides({}, [override])   # the value parses; only its type is wrong


@pytest.mark.parametrize("name,value", [("batch_size", 0), ("batch_size", -3), ("dim", 0),
                                        ("dim", -2)])
def test_a_batch_size_or_dim_below_1_is_rejected(name, value):
    with pytest.raises(ValueError, match="must be positive"):
        TrainConfig(**{name: value})
    with pytest.raises(ConfigError, match="must be positive"):
        to_train_config({f"train.{name}": value})


# values of the right type that the sampler and the model reject
OUT_OF_RANGE = [("entailed_ratio", "2", "entailed_ratio must lie in [0, 1]"),
                ("max_resample_attempts", "0", "max_resample_attempts must be positive"),
                ("reg_mode", "foo", "unknown reg_mode: 'foo'"),
                ("activation", "bar", "unknown activation: 'bar'"),
                ("weighting", "baz", "unknown weighting: 'baz'")]


@pytest.mark.parametrize("name,value,message", OUT_OF_RANGE)
def test_a_value_out_of_range_is_rejected_by_the_config(name, value, message):
    with pytest.raises(ConfigError) as info:
        to_train_config(apply_overrides({}, [f"train.{name}={value}"]))
    assert str(info.value) == message


@pytest.mark.parametrize("command", ["train", "grid"])
@pytest.mark.parametrize("name,value,message", OUT_OF_RANGE)
def test_the_cli_exits_2_on_a_value_out_of_range_before_making_the_run(
        command, name, value, message, tmp_path, capsys):
    assert main(["gen-toy", str(tmp_path / "toy")]) == 0
    out = tmp_path / "run"
    assert main([command, str(tmp_path / "toy"), str(out), "--set", f"train.{name}={value}",
                 *(["--grid", "dim=4"] if command == "grid" else [])]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dim", ["0", "-2"])
def test_the_cli_exits_2_on_a_dim_below_1_before_making_the_run(dim, tmp_path, capsys):
    assert main(["gen-toy", str(tmp_path / "toy")]) == 0
    out = tmp_path / "run"
    assert main(["train", str(tmp_path / "toy"), str(out), "--set", f"train.dim={dim}"]) == 2
    assert "must be positive" in capsys.readouterr().err
    assert not out.exists()
