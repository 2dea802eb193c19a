"""Checkpoints cut short, with bytes past their end, or with a malformed header fail loudly."""

import json
import struct

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


def test_evaluate_with_misspelled_activation_exits_2(tmp_path, capsys):
    toy = str(tmp_path / "toy")
    assert main(["gen-toy", toy, "--preset", "basic"]) == 0
    path = tmp_path / "checkpoint.bin"
    save_model(EmbeddingModel.create(load_dataset(toy).sig, dim=4), str(path))
    rewrite(path, MUTATIONS["activation typo"])
    assert main(["evaluate", str(path), toy]) == 2
    assert "checkpoint.bin" in capsys.readouterr().err
