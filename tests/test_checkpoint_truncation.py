"""Checkpoints cut short, with bytes past their end, with a malformed header or with
non-finite parameters fail loudly."""

import json
import struct

import numpy as np
import pytest

from elgeo.axioms import Signature
from elgeo.cli import main
from elgeo.dataset import load_dataset
from elgeo.geometry import (
    CHECKPOINT_MAGIC, EmbeddingModel, load_model, param_size, save_model,
)


def test_every_cut_length_raises_value_error_naming_the_file(tmp_path):
    sig = Signature()
    sig.intern_class("a")
    sig.intern_relation("r")
    path = tmp_path / "model.bin"
    save_model(EmbeddingModel.create(sig, dim=2, seed=1), str(path))
    blob = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for length in range(len(blob)):
        cut.write_bytes(blob[:length])
        with pytest.raises(ValueError, match="cut.bin"):
            load_model(str(cut))
    cut.write_bytes(blob + b"\x00")
    with pytest.raises(ValueError, match="cut.bin"):
        load_model(str(cut))
    cut.write_bytes(blob)
    assert load_model(str(cut)).centers.tobytes() == load_model(str(path)).centers.tobytes()


def test_evaluate_with_truncated_checkpoint_exits_2(tmp_path, capsys):
    toy = str(tmp_path / "toy")
    assert main(["gen-toy", toy, "--preset", "basic"]) == 0
    path = tmp_path / "checkpoint.bin"
    save_model(EmbeddingModel.create(load_dataset(toy).sig, dim=4), str(path))
    blob = path.read_bytes()
    for length in (10, len(blob) // 2):
        path.write_bytes(blob[:length])
        assert main(["evaluate", str(path), toy]) == 2
        assert "checkpoint.bin" in capsys.readouterr().err


def rewrite(path, mutate):
    """Rewrite a checkpoint's header and tables as mutate(header, tables) returns them."""
    blob = path.read_bytes()
    off = len(CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack_from("<Q", blob, off)
    header = json.loads(blob[off + 8:off + 8 + hlen])
    start = off + 8 + hlen
    end = start + param_size(header["n_classes"], header["n_relations"], header["dim"]) * 8
    header, tables = mutate(header, json.loads(blob[end + 8:]))
    hblob, tblob = (json.dumps(x, sort_keys=True).encode() for x in (header, tables))
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(hblob)) + hblob + blob[start:end]
                     + struct.pack("<Q", len(tblob)) + tblob)


HEADER_FLOATS = ("margin", "reg_radius", "leaky_slope")


def setting(key, value):
    return lambda header, tables: ({**header, key: value}, tables)


MUTATIONS = {
    "activation typo": setting("activation", "reLu"),
    "reg_mode typo": setting("reg_mode", "Strict"),
    "header a list": lambda header, tables: (list(header.values()), tables),
    "float dim": lambda header, tables: ({**header, "dim": float(header["dim"])}, tables),
    "bool seed": setting("seed", True),
    "string margin": setting("margin", "0.1"),
    "bool leaky_slope": setting("leaky_slope", False),
    "missing seed": lambda header, tables: (
        {k: v for k, v in header.items() if k != "seed"}, tables),
    "zero dim": setting("dim", 0),
    "one class": setting("n_classes", 1),
    "negative relations": setting("n_relations", -1),
    "TOP and BOT swapped": lambda header, tables: (
        header, {**tables, "classes": ["BOT", "TOP", *tables["classes"][2:]]}),
    "tables a list": lambda header, tables: (header, list(tables.values())),
    # a NaN compares false, so every rank would be 1
    **{f"{value} {key}": setting(key, float(value)) for key in HEADER_FLOATS
       for value in ("NaN", "Infinity", "-Infinity")},
    "margin past the float range": setting("margin", 10 ** 400),
    "version 2": setting("version", 2),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_malformed_header_or_tables_raise_value_error_naming_the_file(tmp_path, mutation):
    sig = Signature()
    sig.intern_class("a")
    sig.intern_relation("r")
    path = tmp_path / "bad.bin"
    save_model(EmbeddingModel.create(sig, dim=2, seed=1), str(path))
    blob = path.read_bytes()
    rewrite(path, lambda header, tables: (header, tables))
    assert path.read_bytes() == blob
    rewrite(path, MUTATIONS[mutation])
    with pytest.raises(ValueError, match="bad.bin"):
        load_model(str(path))


@pytest.mark.parametrize("header", [b"{not json", b"\xff\xfe"])
def test_a_header_that_is_not_json_raises_value_error_naming_the_file(tmp_path, header):
    path = tmp_path / "bad.bin"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(header)) + header)
    with pytest.raises(ValueError, match="corrupt checkpoint: .*bad.bin: "):
        load_model(str(path))


def test_evaluate_with_misspelled_activation_exits_2(tmp_path, capsys):
    toy = str(tmp_path / "toy")
    assert main(["gen-toy", toy, "--preset", "basic"]) == 0
    path = tmp_path / "checkpoint.bin"
    save_model(EmbeddingModel.create(load_dataset(toy).sig, dim=4), str(path))
    rewrite(path, MUTATIONS["activation typo"])
    assert main(["evaluate", str(path), toy]) == 2
    assert "checkpoint.bin" in capsys.readouterr().err


@pytest.mark.parametrize("key", HEADER_FLOATS)
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_model_with_a_non_finite_header_float_is_refused(tmp_path, capsys, key, value):
    sig = Signature()
    sig.intern_class("a")
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        EmbeddingModel.create(sig, dim=2, **{key: value})
    toy = str(tmp_path / "toy")
    assert main(["gen-toy", toy, "--preset", "basic"]) == 0
    path = tmp_path / "checkpoint.bin"
    save_model(EmbeddingModel.create(load_dataset(toy).sig, dim=4), str(path))
    rewrite(path, setting(key, value))
    assert main(["evaluate", str(path), toy]) == 2
    assert f"corrupt checkpoint: {path}: {key} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_parameter_raises_value_error_naming_the_file(tmp_path, value):
    sig = Signature()
    sig.intern_class("a")
    sig.intern_relation("r")
    m = EmbeddingModel.create(sig, dim=2, seed=1)
    m.params[-1] = value
    path = tmp_path / "nonfinite.bin"
    save_model(m, str(path))
    with pytest.raises(ValueError, match="nonfinite.bin"):
        load_model(str(path))


def test_evaluate_with_nan_checkpoint_exits_2(tmp_path, capsys):
    # NaN scores compare false, so every true tail would rank first
    toy = str(tmp_path / "toy")
    assert main(["gen-toy", toy, "--preset", "basic"]) == 0
    m = EmbeddingModel.create(load_dataset(toy).sig, dim=4)
    m.params[:] = np.nan
    path = tmp_path / "nan.bin"
    save_model(m, str(path))
    assert main(["evaluate", str(path), toy]) == 2
    assert "nan.bin" in capsys.readouterr().err
