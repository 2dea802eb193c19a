"""One way into a KnowledgeBase: the BOT-consequent rewrite is one function
(``axioms.bottom_rewrite``, the only reader of ``BOT_FORM``), and no code outside
``axioms.py`` builds an ``Axiom`` but the two closure-membership queries."""

import ast
import subprocess
from pathlib import Path

import pytest

import elgeo

SRC = Path(elgeo.__file__).parent
# (file, function) of each Axiom(...) call allowed outside axioms.py: the contains queries
CONTAINS_SITES = {("sampling.py", "_rejected"), ("evaluation.py", "evaluate")}


def uses(tree: ast.AST):
    """(kind, line, enclosing function) of each read of ``BOT_FORM`` (kind "BOT_FORM")
    and each ``Axiom(...)`` call (kind "Axiom"), by bare name or as an attribute."""
    found = []

    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                and name(node) == "BOT_FORM"):
            found.append(("BOT_FORM", node.lineno, func))
        if isinstance(node, ast.Call) and name(node.func) == "Axiom":
            found.append(("Axiom", node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def offenders(sources) -> list[str]:
    """``uses`` over (file name, source) pairs: every ``BOT_FORM`` read outside
    ``axioms.bottom_rewrite``, and every ``Axiom`` call outside ``axioms.py`` and
    the contains sites."""
    out = []
    for file, source in sources:
        for kind, line, func in uses(ast.parse(source)):
            if kind == "BOT_FORM" and (file, func) != ("axioms.py", "bottom_rewrite"):
                out.append(f"BOT_FORM {file}:{line}")
            if kind == "Axiom" and file != "axioms.py" and (file, func) not in CONTAINS_SITES:
                out.append(f"Axiom {file}:{line}")
    return out


def sources():
    return [(path.name, path.read_text("utf-8")) for path in sorted(SRC.glob("*.py"))]


def test_bot_form_is_read_in_one_function_and_axiom_built_only_where_allowed():
    assert offenders(sources()) == []
    found = {(file, kind, func) for file, source in sources()
             for kind, _, func in uses(ast.parse(source))}
    assert {(file, func) for file, kind, func in found if kind == "BOT_FORM"} == \
        {("axioms.py", "bottom_rewrite")}
    assert {(file, func) for file, kind, func in found
            if kind == "Axiom" and file != "axioms.py"} == CONTAINS_SITES


def test_the_lint_sees_every_planted_use():
    source = ("BOT_FORM[f]\n"
              "def f(x):\n"
              "    Axiom(x, ()); axioms.Axiom(x, ()); g = Axiom\n"
              "    return x.BOT_FORM, BOT_FORM.get(x)\n"
              "def _rejected(self, f, a):\n"
              "    return Axiom(f, a)\n")
    assert uses(ast.parse(source)) == [
        ("BOT_FORM", 1, None), ("Axiom", 3, "f"), ("Axiom", 3, "f"),
        ("BOT_FORM", 4, "f"), ("BOT_FORM", 4, "f"), ("Axiom", 6, "_rejected")]
    assert offenders([("toygen.py", source)]) == [
        "BOT_FORM toygen.py:1", "Axiom toygen.py:3", "Axiom toygen.py:3",
        "BOT_FORM toygen.py:4", "BOT_FORM toygen.py:4", "Axiom toygen.py:6"]
    assert offenders([("sampling.py", source)])[-1] == "BOT_FORM sampling.py:4"
    assert offenders([("axioms.py", source)]) == ["BOT_FORM axioms.py:1"] + \
        ["BOT_FORM axioms.py:4"] * 2


# the last commit at which normalize, toygen and the parser each built rows their own way
TWO_WAYS = "cf47a8d528cdc20686d08809261e3b8ea93351ce"


def test_the_lint_finds_the_second_rewrite_and_the_axiom_builders_it_replaced():
    def git(*args):
        return subprocess.run(["git", "-C", str(SRC), *args], capture_output=True,
                              text=True, check=True).stdout

    try:
        names = git("ls-tree", "--name-only", TWO_WAYS, ".").split()
        old = [(name, git("show", f"{TWO_WAYS}:./{name}"))
               for name in sorted(names) if name.endswith(".py")]
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("needs the repository's git history")
    assert offenders(old) == [
        "BOT_FORM axioms.py:123", "BOT_FORM axioms.py:254",
        "Axiom normalize.py:125", "Axiom normalize.py:128", "Axiom toygen.py:37",
        "Axiom toygen.py:154"]
