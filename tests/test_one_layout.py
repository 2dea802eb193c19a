"""One statement of each normal form's slot layout: ``axioms.LAYOUT`` says which slots
hold relation ids.  Outside ``axioms.py`` only ``geometry._spec`` reads it, no source
names a table that restates it (``RELATION_SLOTS``, ``TERM_RELATION_SLOTS``,
``TERM_ARITY``), and no loss-term row passes its own slot-kind string to ``_spec``."""

import ast

from astlint import function, name, sources, sources_at, walk

# the (file, function) outside axioms.py that may read LAYOUT
READER = ("geometry.py", "_spec")
RESTATEMENTS = {"RELATION_SLOTS", "TERM_RELATION_SLOTS", "TERM_ARITY"}


def uses(tree: ast.AST):
    """(kind, line, enclosing function) of each read of ``LAYOUT`` (kind "LAYOUT"), each
    name, attribute or import of a RESTATEMENTS table (kind "table"), and each ``_spec``
    call with a string first argument (kind "kinds")."""
    found = []
    for node, scope in walk(tree):
        func = function(scope)
        if (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                and name(node) == "LAYOUT"):
            found.append(("LAYOUT", node.lineno, func))
        if (isinstance(node, (ast.Name, ast.Attribute)) and name(node) in RESTATEMENTS
                or isinstance(node, ast.alias) and node.name in RESTATEMENTS):
            found.append(("table", node.lineno, func))
        if (isinstance(node, ast.Call) and name(node.func) == "_spec" and node.args
                and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)):
            found.append(("kinds", node.lineno, func))
    return found


def offenders(sources) -> list[str]:
    """``uses`` over (file name, source) pairs: every ``LAYOUT`` read outside
    ``axioms.py`` and READER, and every restating table or slot-kind string anywhere."""
    return [f"{kind} {file}:{line}" for file, source in sources
            for kind, line, func in uses(ast.parse(source))
            if kind != "LAYOUT" or file != "axioms.py" and (file, func) != READER]


def test_layout_is_read_only_by_axioms_and_spec():
    assert offenders(sources()) == []
    readers = {(file, func) for file, source in sources()
               for kind, _, func in uses(ast.parse(source))
               if kind == "LAYOUT" and file != "axioms.py"}
    assert readers == {READER}


def test_the_lint_sees_every_planted_use():
    source = ("from .axioms import RELATION_SLOTS, LAYOUT\n"
              "RELATION_SLOTS = {}\n"
              "def f(form):\n"
              "    return LAYOUT[form], axioms.LAYOUT, geometry.TERM_ARITY[form]\n"
              "def _spec(form, hinges):\n"
              "    return LAYOUT[form], TERM_RELATION_SLOTS\n"
              "X = _spec('crc', ()), _spec(Form.GCI2, ()), geometry._spec(\"c\", ())\n")
    assert uses(ast.parse(source)) == [
        ("table", 1, None), ("table", 2, None), ("LAYOUT", 4, "f"), ("LAYOUT", 4, "f"),
        ("table", 4, "f"), ("LAYOUT", 6, "_spec"), ("table", 6, "_spec"),
        ("kinds", 7, None), ("kinds", 7, None)]
    assert offenders([("dataset.py", source)]) == [
        "table dataset.py:1", "table dataset.py:2", "LAYOUT dataset.py:4",
        "LAYOUT dataset.py:4", "table dataset.py:4", "LAYOUT dataset.py:6",
        "table dataset.py:6", "kinds dataset.py:7", "kinds dataset.py:7"]
    assert offenders([("geometry.py", source)])[5:] == [
        "table geometry.py:6", "kinds geometry.py:7", "kinds geometry.py:7"]
    assert len(offenders([("axioms.py", source)])) == 6


# the last commit at which six modules each restated which slots hold relation ids
RESTATED = "ff9b3f32c1859751eb7c95553fcc981d6cf1563d"


def test_the_lint_finds_the_restatements_that_layout_replaced():
    assert offenders(sources_at(RESTATED)) == [
        "table axioms.py:54", "table axioms.py:72", "table axioms.py:289",
        "table axioms.py:315", "table closure.py:28", "table closure.py:186",
        "table dataset.py:18", "table dataset.py:63", "table dataset.py:71",
        *(f"kinds geometry.py:{line}" for line in (86, 89, 90, 96, 97, 98, 100, 102, 107, 108)),
        "table geometry.py:114", "table geometry.py:117", "table toygen.py:16",
        "table toygen.py:22"]
