import json
import os
import shutil
from pathlib import Path

import pytest

from elgeo.axioms import GCI_FORMS
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

    def test_error_position_is_the_parsers(self, tmp_path, capsys):
        src = tmp_path / "cr.sexp"
        src.write_bytes(b"(subclassof A B)\r(foo)")   # '\r' alone ends no line
        assert main(["normalize", str(src), str(tmp_path / "o.tsv")]) == 2
        assert "error: 1:18: unknown head symbol: foo" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", ["some", "and"])
    def test_nesting_past_the_cap_exits_2_and_at_it_0(self, shape, tmp_path, capsys):
        from elgeo.sexpr import MAX_DEPTH
        from test_sexpr import nested
        src = tmp_path / "deep.sexp"
        src.write_text(nested(MAX_DEPTH, shape))
        assert main(["normalize", str(src), str(tmp_path / "o.tsv")]) == 0
        src.write_text(nested(MAX_DEPTH + 1, shape))
        assert main(["normalize", str(src), str(tmp_path / "o.tsv")]) == 2
        err = capsys.readouterr().err
        assert "error: 1:" in err and f"lists nested more than {MAX_DEPTH} deep" in err
        assert "Traceback" not in err

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

    def test_strict_printed_rules_flag_is_gone(self, toy, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["closure", toy, str(tmp_path / "cl"), "--strict-printed-rules"])
        assert exc.value.code == 2

    def test_strict_printed_rules_key_is_gone(self, toy, tmp_path, capsys):
        code = main(["closure", toy, str(tmp_path / "cl"),
                     "--set", "closure.strict_printed_rules=true"])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["train", "grid"])
    def test_closure_budget_exceeded_exit_1(self, command, toy, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([command, toy, str(out), "--preset", "neg-filter",
                     "--set", "closure.max_derived=5", "--set", "train.epochs=1",
                     *(["--grid", "dim=4", "--grid", "lr=0.01"] if command == "grid" else [])])
        assert code == 1
        assert "derived-axiom budget exceeded (5)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("preset", ["neg-filter", "relu-original"])
    def test_a_pool_holding_bot_exit_2_before_the_run(self, preset, toy, tmp_path, capsys):
        Path(toy, "pools.tsv").write_text("all\tG0\nall\tBOT\n")
        out = tmp_path / "run"
        assert main(["train", toy, str(out), "--preset", preset, "--set", "train.epochs=1"]) == 2
        assert "pool 'all' holds BOT" in capsys.readouterr().err
        assert not out.exists()

    def test_a_run_diverging_through_finite_values_exit_1(self, toy, tmp_path, capsys):
        """The overflow on the way to a non-finite loss raises no RuntimeWarning, even
        under warnings as errors, so the run ends in TrainingError."""
        assert main(["train", toy, str(tmp_path / "run"), "--set", "train.lr=1e300",
                     "--set", "train.epochs=1", "--set", "train.dim=4"]) == 1
        assert "non-finite loss" in capsys.readouterr().err

    def test_a_failed_run_leaves_no_directory_it_made(self, toy, tmp_path):
        out = tmp_path / "r1"
        assert main(["train", toy, str(out), "--set", "train.lr=1e300"]) == 1
        assert not out.exists()
        out.mkdir()   # a directory that was there before the run is kept
        assert main(["train", toy, str(out), "--set", "train.lr=1e300"]) == 1
        assert out.is_dir() and not any(out.iterdir())


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

    def test_manifest_records_the_closure_dump(self, toy, tmp_path):
        run, cl, out = (str(tmp_path / name) for name in ("run", "cl", "ev"))
        main(["train", toy, run, "--preset", "relu-original",
              "--set", "train.epochs=2", "--set", "train.dim=4"])
        assert main(["closure", toy, cl]) == 0
        assert main(["evaluate", os.path.join(run, "checkpoint.bin"), toy,
                     "--closure-dir", cl, "--out", out]) == 0
        inputs = json.loads(Path(out, "manifest.json").read_text())["inputs"]
        for name in os.listdir(cl):
            assert os.path.join(cl, name) in inputs, name

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

    def test_closure_dump_missing_a_form_file_exit_2(self, toy, tmp_path, capsys):
        run, cl = str(tmp_path / "run"), tmp_path / "cl"
        main(["train", toy, run, "--preset", "relu-original",
              "--set", "train.epochs=2", "--set", "train.dim=4"])
        assert main(["closure", toy, str(cl)]) == 0
        for form in GCI_FORMS:
            name = f"closure_{form.value.lower()}.tsv"
            partial = tmp_path / form.value
            shutil.copytree(cl, partial)
            (partial / name).unlink()
            capsys.readouterr()
            code = main(["evaluate", os.path.join(run, "checkpoint.bin"), toy,
                         "--closure-dir", str(partial)])
            assert code == 2, name
            assert name in capsys.readouterr().err

    def test_bad_provenance_in_closure_dump_exit_2(self, toy, tmp_path, capsys):
        run, cl = str(tmp_path / "run"), tmp_path / "cl"
        main(["train", toy, run, "--preset", "relu-original",
              "--set", "train.epochs=2", "--set", "train.dim=4"])
        assert main(["closure", toy, str(cl)]) == 0
        tsv = cl / "closure_gci0.tsv"
        tsv.write_text(tsv.read_text().replace("\tasserted\n", "\tbogus\n"))
        capsys.readouterr()
        code = main(["evaluate", os.path.join(run, "checkpoint.bin"), toy,
                     "--closure-dir", str(cl)])
        assert code == 2
        assert "closure_gci0.tsv:" in capsys.readouterr().err

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

    def test_manifest_records_only_eval_keys(self, toy, tmp_path):
        from elgeo.manifest import config_digest
        run, out = str(tmp_path / "run"), str(tmp_path / "ev")
        main(["train", toy, run, "--preset", "relu-original",
              "--set", "train.epochs=2", "--set", "train.dim=4"])
        assert main(["evaluate", os.path.join(run, "checkpoint.bin"), toy, "--out", out,
                     "--preset", "relu-original", "--tie-mode", "average"]) == 0
        config = json.loads(Path(out, "manifest.json").read_text())["config"]
        assert config == {"eval.pool": None, "eval.head_pool": None, "eval.tie_mode": "average"}
        report = json.loads(Path(out, "eval_report.json").read_text())
        assert report["config_digest"] == config_digest(config)

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

    def test_head_pool_flag_is_gone(self, toy):
        with pytest.raises(SystemExit) as exc:
            main(["naive", toy, "--head-pool", "all"])
        assert exc.value.code == 2

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

    @pytest.mark.parametrize("classes", ["0", "10"])
    def test_scale_with_too_few_classes_exit_2(self, tmp_path, capsys, classes):
        out = tmp_path / "x"
        assert main(["gen-toy", str(out), "--preset", "scale", "--classes", classes]) == 2
        assert "distinct edges" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,named", [
        ("--chains", "0", "n_chains"), ("--chains", "-1", "n_chains"),
        ("--depth", "0", "depth"), ("--depth", "1", "depth"),
        ("--density", "-0.5", "density"), ("--density", "nan", "density"),
        ("--density", "inf", "density")])
    def test_hierarchy_with_bad_sizes_exit_2(self, tmp_path, capsys, flag, value, named):
        out = tmp_path / "x"
        assert main(["gen-toy", str(out), "--preset", "hierarchy", flag, value]) == 2
        err = capsys.readouterr().err
        assert "hierarchy_kb needs" in err and named in err
        assert not out.exists()


class TestGridCmd:
    def test_tiny_grid(self, toy, tmp_path, capsys):
        out = str(tmp_path / "grid")
        code = main(["grid", toy, out, "--preset", "relu-original",
                     "--set", "train.epochs=1",
                     "--grid", "dim=4", "--grid", "lr=0.01,0.001"])
        assert code == 0
        table = Path(out, "grid_results.tsv").read_text()
        assert table.count("\n") == 3   # header + 2 entries

    def test_bare_strings_are_values_as_with_set(self, toy, tmp_path):
        """``--grid`` reads each value by the rule ``--set`` uses: bare strings train, and
        the quoted JSON form writes the same table."""
        tables = []
        for axis in ("reg_mode=strict,relaxed", 'reg_mode="strict","relaxed"'):
            out = tmp_path / str(len(tables))
            assert main(["grid", toy, str(out), "--set", "train.epochs=1",
                         "--grid", "dim=4", "--grid", axis]) == 0
            tables.append((out / "grid_results.tsv").read_text())
        assert tables[0] == tables[1]
        rows = tables[0].splitlines()[1:]
        assert sorted(json.loads(row.split("\t")[2])["reg_mode"] for row in rows) == \
            ["relaxed", "strict"]

    @pytest.mark.parametrize("axis", ["filter_negatives=false,true", "entailed_ratio=0,0.5"])
    def test_an_axis_that_needs_the_closure_ranks_every_row(self, axis, toy, tmp_path):
        """The closure is computed when any combination needs it, not only the base."""
        out = tmp_path / "grid"
        assert main(["grid", toy, str(out), "--set", "train.epochs=2", "--set", "train.dim=4",
                     "--grid", axis]) == 0
        rows = (out / "grid_results.tsv").read_text().splitlines()[1:]
        assert [row.split("\t")[0] for row in rows] == ["1", "2"]

    def test_no_valid_split_exit_2_before_training(self, tmp_path, capsys):
        toy, out = str(tmp_path / "toy"), tmp_path / "grid"
        assert main(["gen-toy", toy, "--preset", "hierarchy"]) == 0   # it has no valid split
        code = main(["grid", toy, str(out), "--preset", "relu-original",
                     "--set", "train.epochs=1", "--grid", "dim=4", "--grid", "lr=0.01"])
        assert code == 2
        assert "valid split is empty" in capsys.readouterr().err
        assert not (out / "grid_results.tsv").exists()


    @pytest.mark.parametrize("extra", [
        ["--set", "train.entailed_ratio=2"], ["--set", "train.reg_mode=foo"],
        ["--grid", "dim=4,0"], ["--grid", "dim=4.5"], ["--grid", "early_stop_patience=0"],
        ["--grid", "dimension=4"], ["--grid", "eval.pool=4"], ["--grid", "dim"],
        ["--grid", "margin=0.1,Infinity"], ["--grid", "plateau_factor=0.5,2"],
    ], ids=" ".join)
    def test_config_error_exit_2_not_a_failed_run(self, extra, toy, tmp_path, capsys):
        out = tmp_path / "grid"
        code = main(["grid", toy, str(out), "--preset", "relu-original",
                     "--set", "train.epochs=1", "--grid", "lr=0.01", *extra])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


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
