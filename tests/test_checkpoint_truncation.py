"""Checkpoints cut short, or with bytes past their end, fail loudly."""

import pytest

from elgeo.axioms import Signature
from elgeo.cli import main
from elgeo.dataset import load_dataset
from elgeo.geometry import EmbeddingModel, load_model, save_model


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
