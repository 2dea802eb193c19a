"""Every file elgeo writes goes through ``manifest.write_atomic``: the source
has no other write-mode ``open``, and a write that fails part-way leaves the
previous file byte-identical and no temporary file.  Every text file it reads
goes through ``manifest.read_text``, and no code splits lines by ``splitlines``."""

import ast
import json
import subprocess
from pathlib import Path

import pytest

import elgeo
from elgeo import manifest
from elgeo.cli import main
from elgeo.closure import compute_closure, dump_closure
from elgeo.evaluation import RankingReport, emit_roc
from elgeo.geometry import EmbeddingModel, save_model
from elgeo.manifest import RunManifest, write_json
from elgeo.reasoner import saturate
from elgeo.toygen import basic_kb, hierarchy_kb
from elgeo.training import TrainReport

SRC = Path(elgeo.__file__).parent
WRITE_MODES = set("wax+")


def write_mode_opens(tree: ast.AST):
    """(line, enclosing function) of each open(...) call whose mode writes,
    appends or creates, or is not a string literal; Path.write_text and
    write_bytes count too."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and not WRITE_MODES & set(mode.value)):
                    found.append((node.lineno, func))
            elif name in ("write_text", "write_bytes"):
                found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_write_atomic_holds_the_only_write_mode_open():
    offenders = [f"{path.name}:{line} in {func}"
                 for path in sorted(SRC.glob("*.py"))
                 for line, func in write_mode_opens(ast.parse(path.read_text("utf-8")))
                 if (path.name, func) != ("manifest.py", "write_atomic")]
    assert offenders == []


def test_the_lint_sees_every_way_to_write():
    tree = ast.parse("def f(p):\n"
                     "    open(p, 'w'); open(p, mode='ab'); io.open(p, 'x')\n"
                     "    open(p, 'r+'); open(p, m); p.write_text('')\n"
                     "    open(p); open(p, 'rb'); open(p, encoding='utf-8')\n")
    assert write_mode_opens(tree) == [(2, "f")] * 3 + [(3, "f")] * 3


def text_reads(tree: ast.AST):
    """(line, enclosing function) of each open(...) call whose mode is not a string
    literal holding 'b', and of each use of splitlines."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and "b" in mode.value):
                found.append((node.lineno, func))
        elif isinstance(node, ast.Attribute) and node.attr == "splitlines":
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def read_offenders(sources) -> list[str]:
    """``text_reads`` over (file name, source) pairs, outside ``manifest.read_text``."""
    return [f"{name}:{line}" for name, source in sources
            for line, func in text_reads(ast.parse(source))
            if (name, func) != ("manifest.py", "read_text")]


def test_read_text_holds_the_only_text_mode_open():
    assert read_offenders((path.name, path.read_text("utf-8"))
                          for path in sorted(SRC.glob("*.py"))) == []


def test_the_read_lint_sees_every_text_mode_open_and_splitlines():
    tree = ast.parse("def f(p):\n"
                     "    open(p); open(p, 'r'); io.open(p, encoding='utf-8', newline='')\n"
                     "    open(p, m); open(p, mode='rt'); open(p, 'w')\n"
                     "    t.splitlines(); map(str.splitlines, t)\n"
                     "    open(p, 'rb'); open(p, mode='wb'); files().read_text('utf-8')\n")
    assert text_reads(tree) == [(2, "f")] * 3 + [(3, "f")] * 3 + [(4, "f")] * 2


# the last commit whose reads each kept their own line rule
UNROUTED = "79981a71ca6afc0b877d13c5407b3706beedfaf4"


def test_the_read_lint_finds_the_seven_reads_that_read_text_replaced():
    def git(*args):
        return subprocess.run(["git", "-C", str(SRC), *args], capture_output=True,
                              text=True, check=True).stdout

    try:
        names = git("ls-tree", "--name-only", UNROUTED, ".").split()
        sources = [(name, git("show", f"{UNROUTED}:./{name}"))
                   for name in sorted(names) if name.endswith(".py")]
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("needs the repository's git history")
    assert read_offenders(sources) == [
        "cli.py:55", "closure.py:201", "config.py:53", "config.py:68",
        "dataset.py:140", "dataset.py:159", "dataset.py:166"]


class _DiskFull:
    """A file that takes half of the first chunk written to it, then fails."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, chunk):
        self.f.write(chunk[:len(chunk) // 2])
        self.f.flush()
        raise OSError("disk full")


def _failing_open(path, mode="r", *args, **kwargs):
    f = open(path, mode, *args, **kwargs)
    return _DiskFull(f) if WRITE_MODES & set(mode) else f


# Each writer writes version 0 or 1 (different bytes) of its output, ``out`` (a file
# or a directory).
def _save_model(out, version, tmp_path):
    sig = basic_kb().sig
    save_model(EmbeddingModel.create(sig, dim=3 + version, seed=version), str(out))


def _to_jsonl(out, version, tmp_path):
    TrainReport(epochs=[{"epoch": e, "total": 1.0 / (e + 1)}
                        for e in range(3 + version)]).to_jsonl(str(out))


def _emit_roc(out, version, tmp_path):
    emit_roc(RankingReport(roc={"raw": [(0.25, 0.5), (1.0, 1.0)][version:]}), str(out))


def _dump_closure(out, version, tmp_path):
    kb = (basic_kb, hierarchy_kb)[version]()
    dump_closure(compute_closure(kb, saturate(kb)), str(out))


def _manifest_write(out, version, tmp_path):
    RunManifest(command="train", config={"train.seed": version}).write(str(out))


def _write_json(out, version, tmp_path):
    write_json(str(out), {"derived": {"GCI0": version}, "b": [1, 2]})


def _cli_normalize(out, version, tmp_path):
    src = tmp_path / f"in{version}.sexp"
    src.write_text("(subclassof A (and B (some r C)))\n" * (version + 1) + "(subclassof D E)\n")
    assert main(["normalize", str(src), str(out)]) == 0


def _cli_reason(out, version, tmp_path):
    assert main(["reason", str(tmp_path / ("basic", "hierarchy")[version]),
                 "--out", str(out)]) == 0


def _cli_grid(out, version, tmp_path):
    assert main(["grid", str(tmp_path / "basic"), str(out), "--preset", "relu-original",
                 "--set", "train.epochs=1", "--grid", "dim=4",
                 "--grid", ("lr=0.01,0.001", "lr=0.1")[version]]) == 0


WRITERS = [_save_model, _to_jsonl, _emit_roc, _dump_closure, _manifest_write, _write_json,
           _cli_normalize, _cli_reason, _cli_grid]


def _snapshot(path: Path) -> dict:
    files = sorted(path.rglob("*")) if path.is_dir() else [path]
    return {str(p.relative_to(path.parent)): p.read_bytes() for p in files}


@pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.__name__.lstrip("_"))
def test_a_failed_write_keeps_the_previous_file_and_leaves_no_temp_file(
        writer, tmp_path, monkeypatch):
    for preset in ("basic", "hierarchy"):   # inputs of the CLI writers
        assert main(["gen-toy", str(tmp_path / preset), "--preset", preset]) == 0
    out = tmp_path / "out"
    writer(out, 0, tmp_path)
    before = _snapshot(out)
    assert any(before.values())
    monkeypatch.setattr(manifest, "open", _failing_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        writer(out, 1, tmp_path)
    assert _snapshot(out) == before
    assert not list(tmp_path.rglob("*.tmp"))
    monkeypatch.undo()
    writer(out, 1, tmp_path)   # the same write, not failing, replaces the file
    assert _snapshot(out) != before


def test_json_documents_share_one_layout(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"b": [1, 2.5], "a": {"y": None, "x": "é"}}
    write_json(str(path), doc)
    assert path.read_bytes() == (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
