"""One line rule: only ``axioms.lines``, the slice reader ``axioms.slices`` and the
config grammar's ``config.parse_config_text`` cut file text at "\\n", so each
TAB-separated file elgeo reads is cut into lines one way, and the slice reader's
columns are checked against that way alone."""

import ast

from astlint import function, name, sources, sources_at, walk

# (file, function) of each function that may cut text at "\n"
ALLOWED = {("axioms.py", "lines"), ("axioms.py", "slices"), ("config.py", "parse_config_text")}
# string methods that cut text at a separator, or replace one (as a join before a split)
CUTTERS = {"split", "rsplit", "partition", "rpartition", "replace"}


def cuts(tree: ast.AST):
    """(line, enclosing function) of each ``splitlines`` call, and of each CUTTERS call
    (``re.split`` included) given a string holding "\\n" as an argument."""
    found = []
    for node, scope in walk(tree):
        if not isinstance(node, ast.Call):
            continue
        args = node.args + [kw.value for kw in node.keywords]
        if name(node.func) == "splitlines" or name(node.func) in CUTTERS and any(
                isinstance(a, ast.Constant) and isinstance(a.value, str) and "\n" in a.value
                for a in args):
            found.append((node.lineno, function(scope)))
    return found


def offenders(sources) -> list[str]:
    """``cuts`` over (file name, source) pairs, but those in ALLOWED."""
    return [f"{file}:{line} {func}" for file, source in sources
            for line, func in cuts(ast.parse(source)) if (file, func) not in ALLOWED]


def test_only_the_line_rule_the_slice_reader_and_the_config_grammar_cut_lines():
    assert offenders(sources()) == []
    # and each still cuts, so the list names no more than it must
    assert {(file, func) for file, source in sources()
            for _, func in cuts(ast.parse(source))} == ALLOWED


def test_the_lint_sees_every_planted_cut():
    source = ("import re\n"
              "def f(text):\n"
              "    a = text.split('\\n'); b = text.rsplit(sep='\\r\\n', maxsplit=1)\n"
              "    c = text.partition('\\n'); d = re.split('\\n+', text); text.splitlines()\n"
              "    e = text.replace('\\n', '\\t').split('\\t'); text.split('\\t'); text.find('\\n')\n"
              "    return str.split(text, '\\n'), text.count('\\n'), text.split()\n"
              "class C:\n"
              "    def lines(self, text):\n"
              "        return text.rpartition('\\n')\n"
              "def lines(text):\n"
              "    return text.split('\\n')\n")
    assert cuts(ast.parse(source)) == [
        (3, "f"), (3, "f"), (4, "f"), (4, "f"), (4, "f"), (5, "f"), (6, "f"),
        (9, "lines"), (11, "lines")]
    assert offenders([("dataset.py", source)])[-1] == "dataset.py:11 lines"
    assert offenders([("axioms.py", source)]) == [
        "axioms.py:3 f", "axioms.py:3 f", "axioms.py:4 f", "axioms.py:4 f", "axioms.py:4 f",
        "axioms.py:5 f", "axioms.py:6 f"]


# the last commit whose readers each kept their own line rule
UNROUTED = "79981a71ca6afc0b877d13c5407b3706beedfaf4"


def test_the_lint_finds_the_line_rules_that_lines_replaced():
    assert offenders(sources_at(UNROUTED)) == [
        "axioms.py:228 parse_rows", "dataset.py:140 _parse_pools"]
