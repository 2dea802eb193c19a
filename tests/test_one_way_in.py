"""One way into a KnowledgeBase: the BOT-consequent rewrite is one function
(``axioms.bottom_rewrite``, the only reader of ``BOT_FORM``), and no code outside
``axioms.py`` builds an ``Axiom``.  One membership structure for the closure: no
library code reads the decoded ``sets`` and ``asserted`` views of a
``DeductiveClosure``, only its key arrays."""

import ast

from astlint import function, name, sources, sources_at, walk

# (file, function) of each Axiom(...) call allowed outside axioms.py: none, since
# membership takes whole ``AxiomRows``
CONTAINS_SITES = set()
# the decoded closure views that no library module reads
VIEWS = ("sets", "asserted")


def uses(tree: ast.AST):
    """(kind, line, enclosing function) of each read of ``BOT_FORM`` (kind "BOT_FORM")
    and each ``Axiom(...)`` call (kind "Axiom"), by bare name or as an attribute."""
    found = []
    for node, scope in walk(tree):
        if (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                and name(node) == "BOT_FORM"):
            found.append(("BOT_FORM", node.lineno, function(scope)))
        if isinstance(node, ast.Call) and name(node.func) == "Axiom":
            found.append(("Axiom", node.lineno, function(scope)))
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


def view_reads(sources) -> list[str]:
    """``file:line`` of each read of an attribute named in ``VIEWS``, such as
    ``dc.sets[form]`` or ``self.asserted``, over (file name, source) pairs."""
    return [f"{node.attr} {file}:{node.lineno}" for file, source in sources
            for node in sorted((node for node in ast.walk(ast.parse(source))
                                if isinstance(node, ast.Attribute)
                                and isinstance(node.ctx, ast.Load) and node.attr in VIEWS),
                               key=lambda node: (node.lineno, node.col_offset))]


def test_bot_form_is_read_in_one_function_and_axiom_built_only_where_allowed():
    assert offenders(sources()) == []
    found = {(file, kind, func) for file, source in sources()
             for kind, _, func in uses(ast.parse(source))}
    assert {(file, func) for file, kind, func in found if kind == "BOT_FORM"} == \
        {("axioms.py", "bottom_rewrite")}
    assert {(file, func) for file, kind, func in found
            if kind == "Axiom" and file != "axioms.py"} == CONTAINS_SITES


def test_no_library_module_reads_the_decoded_closure_views():
    assert view_reads(sources()) == []


def test_the_view_lint_sees_every_planted_read():
    source = ("def f(dc, form):\n"
              "    a = dc.sets[form] - dc.asserted[form]\n"
              "    for s in self.sets.values(): g(x.y.asserted)\n"
              "    sets, asserted = dc.keys, {}\n"
              "    dc.sets = asserted[form]\n"
              "    return sorted(dc.sets)\n")
    assert view_reads([("closure.py", source)]) == [
        "sets closure.py:2", "asserted closure.py:2", "sets closure.py:3",
        "asserted closure.py:3", "sets closure.py:6"]


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
    # the old contains site, sampling._rejected, is no longer exempt
    assert offenders([("sampling.py", source)]) == [
        line.replace("toygen", "sampling") for line in offenders([("toygen.py", source)])]
    assert offenders([("axioms.py", source)]) == ["BOT_FORM axioms.py:1"] + \
        ["BOT_FORM axioms.py:4"] * 2


# the last commit at which normalize, toygen and the parser each built rows their own way
TWO_WAYS = "cf47a8d528cdc20686d08809261e3b8ea93351ce"


def test_the_lint_finds_the_second_rewrite_and_the_axiom_builders_it_replaced():
    assert offenders(sources_at(TWO_WAYS)) == [
        "BOT_FORM axioms.py:123", "BOT_FORM axioms.py:254", "Axiom evaluation.py:233",
        "Axiom normalize.py:125", "Axiom normalize.py:128", "Axiom sampling.py:80",
        "Axiom toygen.py:37", "Axiom toygen.py:154"]


# the last commit at which closure membership, the sampler and evaluate read tuple sets
TUPLE_SETS = "08a870c9d42af657ce6d5335c10f9a78dc48fa2c"


def test_the_view_lint_finds_every_tuple_set_read_it_replaced():
    assert view_reads(sources_at(TUPLE_SETS)) == [
        "sets closure.py:70", "asserted closure.py:83", "sets closure.py:91",
        "sets closure.py:92", "sets closure.py:96", "asserted closure.py:96",
        "sets closure.py:96", "asserted closure.py:166", "sets closure.py:170",
        "sets evaluation.py:290", "sets sampling.py:74", "asserted sampling.py:74",
        "asserted sampling.py:80"]
