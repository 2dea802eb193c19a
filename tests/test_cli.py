import json
import os
from pathlib import Path

import pytest

from elgeo.cli import main


@pytest.fixture
def toy(tmp_path):
    out = str(tmp_path / "toy")
    assert main(["gen-toy", out, "--preset", "basic"]) == 0
    return out


class TestNormalize:
    def test_counts_printed(self, tmp_path, capsys):
        src = tmp_path / "axioms.sexp"
        src.write_text("(subclassof A (and B (some r C)))\n(subclassof D E)\n")
        out = tmp_path / "out.tsv"
        assert main(["normalize", str(src), str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "GCI0\t2" in stdout and "GCI2\t1" in stdout
        assert out.read_text() == "GCI0\tA\tB\nGCI2\tA\tr\tC\nGCI0\tD\tE\n"

    def test_malformed_input_exit_2(self, tmp_path, capsys):
        src = tmp_path / "bad.sexp"
        src.write_text("(subclassof A (or B C))")
        assert main(["normalize", str(src), str(tmp_path / "o.tsv")]) == 2
        assert "unknown head symbol" in capsys.readouterr().err

    def test_idempotent_on_normal_file(self, tmp_path):
        src = tmp_path / "a.sexp"
        src.write_text("(subclassof A B)\n(subclassof (and A B) C)\n")
        out1 = tmp_path / "o1.tsv"
        main(["normalize", str(src), str(out1)])
        # re-render the output as general axioms and normalize again
        lines = out1.read_text().splitlines()
        rerendered = []
        for line in lines:
            fields = line.split("\t")
            if fields[0] == "GCI0":
                rerendered.append(f"(subclassof {fields[1]} {fields[2]})")
            elif fields[0] == "GCI1":
                rerendered.append(
                    f"(subclassof (and {fields[1]} {fields[2]}) {fields[3]})")
        src2 = tmp_path / "b.sexp"
        src2.write_text("\n".join(rerendered))
        out2 = tmp_path / "o2.tsv"
        main(["normalize", str(src2), str(out2)])
        assert out2.read_text() == out1.read_text()


class TestClosureCmd:
    def test_dumps_written(self, toy, tmp_path, capsys):
        out = str(tmp_path / "cl")
        assert main(["closure", toy, out]) == 0
        assert os.path.exists(os.path.join(out, "closure_gci2.tsv"))
        stats = json.loads(Path(out, "closure_stats.json").read_text())
        assert stats["derived"]["GCI2"] > 0
        first = Path(out, "closure_gci0.tsv").read_text().splitlines()[0].split("\t")
        assert first[-1].strip() in ("asserted", "derived")

    def test_budget_exceeded_exit_1(self, toy, tmp_path, capsys):
        out = str(tmp_path / "cl")
        assert main(["closure", toy, out, "--max-derived", "10"]) == 1
        assert "closure.max_derived" in capsys.readouterr().err

    def test_empty_kb_reflexive_dump_only(self, tmp_path):
        data = tmp_path / "empty"
        data.mkdir()
        (data / "train.tsv").write_text("GCI0\tA\tA\n")
        out = str(tmp_path / "cl")
        assert main(["closure", str(data), out]) == 0
        gci2 = Path(out, "closure_gci2.tsv").read_text()
        assert gci2 == ""
        gci0 = Path(out, "closure_gci0.tsv").read_text()
        assert "GCI0\tA\tA\tasserted" in gci0


class TestTrainCmd:
    def args(self, toy, out):
        return ["train", toy, out, "--preset", "relu-original",
                "--set", "train.epochs=5", "--set", "train.dim=6"]

    def test_smoke(self, toy, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(self.args(toy, out)) == 0
        for name in ("checkpoint.bin", "report.jsonl", "summary.json", "manifest.json"):
            assert os.path.exists(os.path.join(out, name)), name
        manifest = json.loads(Path(out, "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["train.epochs"] == 5

    def test_determinism_bit_identical(self, toy, tmp_path):
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert main(self.args(toy, out1)) == 0
        assert main(self.args(toy, out2)) == 0
        ck1 = Path(out1, "checkpoint.bin").read_bytes()
        ck2 = Path(out2, "checkpoint.bin").read_bytes()
        assert ck1 == ck2
        rep1 = Path(out1, "report.jsonl").read_text()
        rep2 = Path(out2, "report.jsonl").read_text()
        assert rep1 == rep2

    def test_unknown_config_key_exit_2(self, toy, tmp_path, capsys):
        out = str(tmp_path / "run")
        code = main(["train", toy, out, "--set", "train.lrate=0.1"])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_dataset_exit_2(self, tmp_path):
        assert main(["train", str(tmp_path / "nope"), str(tmp_path / "o")]) == 2


class TestEvaluateCmd:
    def test_closure_positives_without_dump_exit_2(self, toy, tmp_path, capsys):
        run = str(tmp_path / "run")
        main(["train", toy, run, "--preset", "relu-original",
              "--set", "train.epochs=2", "--set", "train.dim=4"])
        code = main(["evaluate", os.path.join(run, "checkpoint.bin"), toy,
                     "--closure-positives"])
        assert code == 2
        assert "elgeo closure" in capsys.readouterr().err

    def test_closure_positives_with_dump(self, toy, tmp_path, capsys):
        run = str(tmp_path / "run")
        main(["train", toy, run, "--preset", "relu-original",
              "--set", "train.epochs=2", "--set", "train.dim=4"])
        cl = str(tmp_path / "cl")
        assert main(["closure", toy, cl]) == 0
        out = str(tmp_path / "ev")
        code = main(["evaluate", os.path.join(run, "checkpoint.bin"), toy,
                     "--closure-positives", "--closure-dir", cl, "--out", out])
        assert code == 0
        report = json.loads(Path(out, "eval_report.json").read_text())
        assert any(rec["source"] == "closure" for rec in report["records"])
        assert os.path.exists(os.path.join(out, "roc.csv"))

    def test_foreign_closure_dump_exit_2(self, toy, tmp_path, capsys):
        run = str(tmp_path / "run")
        main(["train", toy, run, "--preset", "relu-original",
              "--set", "train.epochs=2", "--set", "train.dim=4"])
        other = str(tmp_path / "hier")
        assert main(["gen-toy", other, "--preset", "hierarchy"]) == 0
        cl = str(tmp_path / "cl")
        assert main(["closure", other, cl]) == 0
        capsys.readouterr()
        code = main(["evaluate", os.path.join(run, "checkpoint.bin"), toy,
                     "--closure-dir", cl])
        assert code == 2
        err = capsys.readouterr().err
        assert "closure_gci0.tsv:" in err and "unknown class" in err

    def test_flags_recorded_as_config_keys(self, toy, tmp_path):
        run = str(tmp_path / "run")
        main(["train", toy, run, "--preset", "relu-original",
              "--set", "train.epochs=2", "--set", "train.dim=4"])
        ckpt = os.path.join(run, "checkpoint.bin")
        by_flag, by_set = str(tmp_path / "flag"), str(tmp_path / "set")
        assert main(["evaluate", ckpt, toy, "--out", by_flag, "--set", "eval.tie_mode=optimistic",
                     "--tie-mode", "average", "--pool", "all", "--head-pool", "all"]) == 0
        assert main(["evaluate", ckpt, toy, "--out", by_set, "--set", "eval.tie_mode=average",
                     "--set", "eval.pool=all", "--set", "eval.head_pool=all"]) == 0
        manifest = json.loads(Path(by_flag, "manifest.json").read_text())
        report = json.loads(Path(by_flag, "eval_report.json").read_text())
        assert report["tie_mode"] == manifest["config"]["eval.tie_mode"] == "average"
        assert manifest["config"]["eval.pool"] == manifest["config"]["eval.head_pool"] == "all"
        assert report == json.loads(Path(by_set, "eval_report.json").read_text())

    def test_filtered_flag_prints_filtered_block(self, toy, tmp_path, capsys):
        run = str(tmp_path / "run")
        main(["train", toy, run, "--preset", "relu-original",
              "--set", "train.epochs=2", "--set", "train.dim=4"])
        capsys.readouterr()
        assert main(["evaluate", os.path.join(run, "checkpoint.bin"), toy,
                     "--filtered", "--out", str(tmp_path / "ev")]) == 0
        out = capsys.readouterr().out
        assert "fhits@10" in out and "\nhits@10" not in out


class TestNaiveCmd:
    def test_symmetric_hand_sums(self, tmp_path, capsys):
        data = tmp_path / "two"
        data.mkdir()
        (data / "train.tsv").write_text("GCI2\tP1\tr\tP2\n")
        (data / "test.tsv").write_text("GCI2\tP2\tr\tP1\n")
        assert main(["naive", str(data), "--symmetric"]) == 0
        out = capsys.readouterr().out
        # symmetric matrix: both tails share column sum 1 of 2 entries; the
        # true tail ties at the top -> optimistic rank 1 over 2 candidates
        assert "macro_mr\t1.0000" in out

    def test_multi_relation_needs_flag(self, tmp_path, capsys):
        data = tmp_path / "multi"
        data.mkdir()
        (data / "train.tsv").write_text("GCI2\tA\tr\tB\nGCI2\tA\ts\tB\n")
        (data / "test.tsv").write_text("GCI2\tA\tr\tB2\nGCI2\tA\ts\tB2\n")
        assert main(["naive", str(data)]) == 2
        (data / "test.tsv").write_text("GCI2\tA\tr\tB2\n")
        assert main(["naive", str(data)]) == 0


class TestGenToy:
    def test_presets(self, tmp_path):
        for preset in ("basic", "hierarchy", "skew"):
            out = str(tmp_path / preset)
            assert main(["gen-toy", out, "--preset", preset, "--seed", "1"]) == 0
            assert os.path.exists(os.path.join(out, "train.tsv"))

    def test_unknown_preset_exit_2(self, tmp_path):
        assert main(["gen-toy", str(tmp_path / "x"), "--preset", "nope"]) == 2


class TestGridCmd:
    def test_tiny_grid(self, toy, tmp_path, capsys):
        out = str(tmp_path / "grid")
        code = main(["grid", toy, out, "--preset", "relu-original",
                     "--set", "train.epochs=1",
                     "--grid", "dim=4", "--grid", "lr=0.01,0.001"])
        assert code == 0
        table = Path(out, "grid_results.tsv").read_text()
        assert table.count("\n") == 3   # header + 2 entries


class TestManifest:
    def test_config_digest_stable_under_key_order(self):
        from elgeo.manifest import config_digest
        a = {"train.lr": 0.01, "train.dim": 50, "eval.pool": None}
        b = {"eval.pool": None, "train.dim": 50, "train.lr": 0.01}
        assert config_digest(a) == config_digest(b)

    def test_manifest_references_inputs_and_outputs(self, toy, tmp_path):
        out = str(tmp_path / "run")
        assert main(["train", toy, out, "--preset", "relu-original",
                     "--set", "train.epochs=1", "--set", "train.dim=4"]) == 0
        manifest = json.loads(Path(out, "manifest.json").read_text())
        assert any(p.endswith("train.tsv") for p in manifest["inputs"])
        assert any(p.endswith("checkpoint.bin") for p in manifest["outputs"])
        assert manifest["seed"] == 42
        assert manifest["config_digest"]
