"""Config entries are read by one rule, and each value must already have its key's type
(nothing is coerced) and lie in the range a run can use: a ``train.*`` key's TrainConfig
field type, or what the check of a non-training key in ``config.EXTRAS`` takes."""

from dataclasses import fields
from pathlib import Path

import pytest

import elgeo
from elgeo.cli import main
from elgeo.config import (
    PRESET_NAMES, ConfigError, apply_overrides, extras, load_preset, parse_config_text,
    parse_entry, parse_values, resolved, to_train_config,
)
from elgeo.manifest import config_digest
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


# non-training key -> values its check refuses and values it takes
EXTRA_VALUES = {
    "closure.max_derived": ([True, False, 2.7, 2.0, "7", -1, None, [7]], [0, 7, 10 ** 9]),
    "eval.pool": ([5, 0.5, True, ["all"], {"all": 1}], [None, "all", "tails"]),
    "eval.head_pool": ([5, 0.5, True, ["all"], {"all": 1}], [None, "all", "tails"]),
    "eval.tie_mode": (["bogus", "", None, 0.5, True, ["average"]], ["optimistic", "average"]),
}
BAD_EXTRAS = [(key, value) for key, (bad, _) in EXTRA_VALUES.items() for value in bad]


def test_every_non_training_key_has_a_table_row():
    assert set(EXTRA_VALUES) == set(extras({}))


@pytest.mark.parametrize("key,value", BAD_EXTRAS, ids=[f"{k}={v!r}" for k, v in BAD_EXTRAS])
def test_a_bad_non_training_value_is_rejected(key, value):
    with pytest.raises(ConfigError, match=f"^{key} expects "):
        extras({key: value})


@pytest.mark.parametrize("key", EXTRA_VALUES)
def test_a_good_non_training_value_is_taken_as_given(key):
    for value in EXTRA_VALUES[key][1]:
        assert extras({key: value})[key] == value


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


# values of the right type that no run can use: the sampler, the model and TrainConfig
# reject them
OUT_OF_RANGE = [("entailed_ratio", "2", "entailed_ratio must lie in [0, 1]"),
                ("max_resample_attempts", "0", "max_resample_attempts must be positive"),
                ("reg_mode", "foo", "unknown reg_mode: 'foo'"),
                ("activation", "bar", "unknown activation: 'bar'"),
                ("weighting", "baz", "unknown weighting: 'baz'"),
                ("lr", "NaN", "lr must be finite: nan"),
                ("lr", "Infinity", "lr must be finite: inf"),
                ("margin", "Infinity", "margin must be finite: inf"),
                ("margin", "-Infinity", "margin must be finite: -inf"),
                ("reg_radius", "NaN", "reg_radius must be finite: nan"),
                ("leaky_slope", "NaN", "leaky_slope must be finite: nan"),
                ("plateau_factor", "NaN", "plateau_factor must be finite: nan"),
                ("lr", "-0.01", "epochs must be >= 0 and lr > 0: 400, -0.01"),
                ("lr", "0", "epochs must be >= 0 and lr > 0: 400, 0.0"),
                ("epochs", "-3", "epochs must be >= 0 and lr > 0: -3, 0.01"),
                ("plateau_factor", "0", "plateau_factor must lie in (0, 1]: 0.0"),
                ("plateau_factor", "1.5", "plateau_factor must lie in (0, 1]: 1.5"),
                pytest.param("lr", "1" + "0" * 400, "train.lr is too large for a float",
                             id="lr-an-int-past-float-range")]


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


def test_the_edges_of_the_ranges_are_taken():
    cfg = to_train_config(apply_overrides({}, ["train.epochs=0", "train.plateau_factor=1"]))
    assert (cfg.epochs, cfg.plateau_factor) == (0, 1.0)


def test_preset_names_are_the_bundled_files():
    presets = Path(elgeo.__file__).parent / "presets"
    assert PRESET_NAMES == tuple(sorted(p.stem for p in presets.glob("*.cfg")))
    assert len(PRESET_NAMES) == 8


@pytest.mark.parametrize("raw", ["0.5", "-4", "true", '"relu"', "relu", '["gci0", "gci2"]'])
def test_a_file_line_a_set_override_and_a_grid_axis_read_a_value_alike(raw):
    (key, value), = parse_config_text(f" train.lr = {raw} ").items()
    assert apply_overrides({}, [f"train.lr={raw}"]) == {key: value}
    assert parse_entry(f"train.lr={raw}", "", parse_values) == (key, [value])
    assert parse_entry(f"train.lr={raw},{raw}", "", parse_values) == (key, [value, value])


@pytest.mark.parametrize("entry", ["train.lr", "train.lrate=0.1", " = 3"])
def test_every_source_names_a_bad_entry_alike(entry):
    messages = []
    for read in (lambda: parse_config_text(entry, "f.cfg"),
                 lambda: apply_overrides({}, [entry])):
        with pytest.raises(ConfigError) as info:
            read()
        messages.append(str(info.value).split(": ", 1)[1])
    assert messages[0] == messages[1]


# config_digest of config.resolved for each preset, alone and with train.epochs=2
RESOLVED_DIGESTS = {
    ("ablate-filter", True): "8319666e04966b0ccce166caedc782a07545b98f1b40ef4f2e58d7f95f3c9ee4",
    ("ablate-filter", False): "cf37e225994ee5d4f3296fca5dbe01dfbee12f23113d06e086989f842cdd944d",
    ("ablate-leaky", True): "e48e40a74649044b2278382960d9f57189f212671f76a58135b134fd5e484f15",
    ("ablate-leaky", False): "4f0e376e5b47372dd31f1f47898e5efda930504351cbc106ca6a760fa46d4446",
    ("ablate-losses", True): "d719125cb878ca1156bd217860e7aa19b07c4298ba6f6f193cd0733d7d72f9e5",
    ("ablate-losses", False): "69c6ea66adf6c2406154ec6ea768d41732152d6a9f305e38cedbea0dc3ec2a90",
    ("ablate-relaxed", True): "d89708e1b00095bbe437d61f3e928f248f574a2e9050815a7651c77f1764856f",
    ("ablate-relaxed", False): "797d76358cf5e74bacdeb4b548434b55a2d4fe99137457ceb328e3421273cc8f",
    ("leaky-relaxed", True): "b26773e90f5627895f92f369fcbc289487435072522f45460a03919d21933aaa",
    ("leaky-relaxed", False): "68b18c40641b5372c436fb67f7bb397a6502c1b8ca692bb1a934d1e5137819c2",
    ("neg-filter", True): "1ac2eeb217ca75909a11b721e9b0c39039294464f505fc129dfe17c44c4a9485",
    ("neg-filter", False): "6cca10ec70e48a56f01c504ee25c9b3a9b4dc763a16f935863188913aaf644ba",
    ("neg-losses", True): "edf9a58a1e6400f37e2950ebef1c0dc00945b84af653147e684b0da8f21404f6",
    ("neg-losses", False): "fa8cc2fc5678d7ad315e58a722b8edcf6a185b20ee9592814a27fe520c22d06a",
    ("relu-original", True): "0f1ee1cea12c07a365a7709f1d01e7dbeee20cb23e25c540da03c262fcf86ab0",
    ("relu-original", False): "1d65e7de4e5c611dd3405e0792e7b47c03772cd75864d018891856afa21811cf",
}


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("overrides", [[], ["train.epochs=2"]], ids=["preset", "epochs=2"])
def test_the_resolved_view_keeps_its_digest(name, overrides):
    values = apply_overrides(load_preset(name), overrides)
    view = resolved(to_train_config(values), values)
    assert config_digest(view) == RESOLVED_DIGESTS[name, bool(overrides)]
