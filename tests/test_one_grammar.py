"""One configuration grammar: in ``config.py`` and ``cli.py``, only ``config.parse_value``
reads JSON and only ``config.parse_entry`` splits a ``key = value`` entry, so a file line,
a ``--set`` override and a ``--grid`` axis are read by one rule."""

import ast

from astlint import function, sources, sources_at, walk

FILES = ("config.py", "cli.py")
# kind -> the one (file, function) that may do it
ALLOWED = {"json": ("config.py", "parse_value"), "split": ("config.py", "parse_entry")}
# string methods that split or search a string at a separator
SPLITTERS = {"partition", "rpartition", "split", "rsplit", "find", "rfind", "index", "rindex"}


def uses(tree: ast.AST):
    """(kind, line, enclosing function) of each JSON read (kind "json": a call of
    ``json.loads``, ``json.load`` or a bare ``loads``) and each look for ``=`` (kind "split":
    a SPLITTERS method called with ``"="`` first, or an ``"=" in`` / ``not in`` test)."""
    found = []

    def is_eq(node):
        return isinstance(node, ast.Constant) and node.value == "="

    for node, scope in walk(tree):
        func = function(scope)
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr in ("load", "loads")
                    and getattr(f.value, "id", None) == "json"
                    or isinstance(f, ast.Name) and f.id == "loads"):
                found.append(("json", node.lineno, func))
            if (isinstance(f, ast.Attribute) and f.attr in SPLITTERS and node.args
                    and is_eq(node.args[0])):
                found.append(("split", node.lineno, func))
        if (isinstance(node, ast.Compare) and is_eq(node.left)
                and isinstance(node.ops[0], (ast.In, ast.NotIn))):
            found.append(("split", node.lineno, func))
    return found


def offenders(sources) -> list[str]:
    """``uses`` over (file name, source) pairs, but for each kind's one allowed function."""
    return [f"{kind} {file}:{line} {func}" for file, source in sources
            for kind, line, func in uses(ast.parse(source)) if (file, func) != ALLOWED[kind]]


def test_one_function_reads_json_and_one_splits_an_entry():
    assert offenders(sources(names=FILES)) == []
    found = {(kind, file, func) for file, source in sources(names=FILES)
             for kind, _, func in uses(ast.parse(source))}
    assert found == {(kind, *where) for kind, where in ALLOWED.items()}


def test_the_lint_sees_every_planted_use():
    source = ("import json\n"
              "from json import loads\n"
              "def f(item, text):\n"
              "    key, _, rhs = item.partition('=')\n"
              "    k, v = item.split('=', 1); item.split(','); item.partition(':')\n"
              "    if '=' not in item or '=' in text or item.find('=') < 0: pass\n"
              "    return json.loads(rhs), loads(text), json.load(text), json.dumps(v)\n"
              "def parse_entry(entry):\n"
              "    return entry.partition('=')\n"
              "def parse_value(raw):\n"
              "    return json.loads(raw), raw.rsplit('=')\n")
    assert uses(ast.parse(source)) == [
        ("split", 4, "f"), ("split", 5, "f"), ("split", 6, "f"), ("split", 6, "f"),
        ("split", 6, "f"), ("json", 7, "f"), ("json", 7, "f"), ("json", 7, "f"),
        ("split", 9, "parse_entry"), ("json", 11, "parse_value"), ("split", 11, "parse_value")]
    assert offenders([("cli.py", source)]) == [
        "split cli.py:4 f", "split cli.py:5 f", "split cli.py:6 f", "split cli.py:6 f",
        "split cli.py:6 f", "json cli.py:7 f", "json cli.py:7 f", "json cli.py:7 f",
        "split cli.py:9 parse_entry", "json cli.py:11 parse_value",
        "split cli.py:11 parse_value"]
    assert offenders([("config.py", source)])[-1] == "split config.py:11 parse_value"
    assert len(offenders([("config.py", source)])) == 9


# the last commit at which the file reader, --set and --grid each split entries their own way
THREE_RULES = "42840c8c6776b455016e7df42cc4c1aaac5564d7"


def test_the_lint_finds_the_rules_that_parse_entry_replaced():
    assert offenders(sources_at(THREE_RULES, names=FILES)) == [
        "split config.py:58 parse_config_text", "split config.py:60 parse_config_text",
        "split config.py:84 apply_overrides", "split config.py:86 apply_overrides",
        "split cli.py:117 cmd_grid", "json cli.py:123 cmd_grid"]
