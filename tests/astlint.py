"""What the AST lints (``test_one_*.py``) share: the sources they read, now or at a
commit of the repository's history, and one depth-first walk that knows where each
node sits."""

import ast
import subprocess
from pathlib import Path

import pytest

import elgeo

SRC = Path(elgeo.__file__).parent
PERFBENCH, TESTS, DEMOS = (SRC.parents[1] / part for part in ("perfbench", "tests", "demos"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def sources(directory: Path = SRC, names=None) -> list[tuple[str, str]]:
    """(file name, source) of ``names`` in ``directory``, by default each ``.py`` file
    in name order."""
    if names is None:
        names = sorted(path.name for path in directory.glob("*.py"))
    return [(name, (directory / name).read_text("utf-8")) for name in names]


def sources_at(commit: str, directory: Path = SRC, names=None) -> list[tuple[str, str]]:
    """``sources(directory, names)`` as they were at ``commit``; the calling test skips
    when git or the history is missing."""
    def git(*args):
        return subprocess.run(["git", "-C", str(directory), *args], capture_output=True,
                              text=True, check=True).stdout

    try:
        if names is None:
            names = sorted(name for name in git("ls-tree", "--name-only", commit, ".").split()
                           if name.endswith(".py"))
        return [(name, git("show", f"{commit}:./{name}")) for name in names]
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("needs the repository's git history")


def walk(tree: ast.AST):
    """Each node of ``tree`` in source order, depth first, with the tuple of the function
    and class definitions around it, outermost first and the node itself included."""
    def visit(node, scope):
        if isinstance(node, DEFS):
            scope += (node,)
        yield node, scope
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return visit(tree, ())


def function(scope) -> str | None:
    """The name of the innermost function in a ``walk`` scope, None outside any."""
    return next((d.name for d in reversed(scope) if not isinstance(d, ast.ClassDef)), None)


def name(node) -> str | None:
    """The name a ``Name`` node reads or an ``Attribute`` node's attribute."""
    return getattr(node, "id", None) or getattr(node, "attr", None)
