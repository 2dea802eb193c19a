"""What only the tests reach leaves the library: every function, class, method and
property defined in ``src/elgeo`` (dunders apart) is named by other library code, the
CLI included, or by a non-test ``perfbench/`` module.  Tests and demos do not count.

A name counts where it is read: a function or class by a bare name or an attribute, a
method or property only as an attribute (``dc.asserted``), so a local variable that
shares a method's name does not reach it.  A read inside the definition's own body does
not count.  Each attribute string in ``perfbench/tracing.TRACED`` counts as an attribute
read by the benchmark, because the tracer looks its targets up by name."""

import ast

from astlint import DEFS, PERFBENCH, name, sources, sources_at, walk

# names that only the frozen benchmark reaches, each with the roadmap item that removes
# it; the list may only shrink
BENCHMARK_ONLY = {
    "closure.DeductiveClosure.sets": "item 10, after item 9 ports perfbench/checks.py",
    "evaluation.rank_axiom": "item 10, after item 9 maps the tracer's rank span",
}


def definitions(module: str, tree: ast.AST):
    """(qualified name, node, is a method) of each definition in ``tree`` but dunders."""
    return [(".".join([module, *(d.name for d in scope)]), node,
             len(scope) > 1 and isinstance(scope[-2], ast.ClassDef))
            for node, scope in walk(tree)
            if isinstance(node, DEFS) and not (node.name.startswith("__")
                                               and node.name.endswith("__"))]


def reads(tree: ast.AST):
    """(name, read as an attribute, scope) of each name ``tree`` reads, and of each
    attribute string in a ``TRACED`` table of (owner, attribute, span) tuples."""
    for node, scope in walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            yield name(node), isinstance(node, ast.Attribute), scope
        if (isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED"
                                                 for t in node.targets)):
            for entry in node.value.elts:
                yield entry.elts[1].value, True, ()


def reach(library, benchmark) -> tuple[list[str], list[str]]:
    """Over (file name, source) pairs of the library and of the benchmark: the sorted
    names that neither reaches, and those that only the benchmark reaches."""
    trees = [(file.removesuffix(".py"), ast.parse(source)) for file, source in library]
    seen: dict[str, list] = {}   # name -> [(as an attribute, scope, by the library)]
    for by_library, pairs in ((True, trees), (False, [(f, ast.parse(s)) for f, s in benchmark])):
        for _, tree in pairs:
            for read, as_attribute, scope in reads(tree):
                seen.setdefault(read, []).append((as_attribute, scope, by_library))
    unreached, benchmark_only = [], []
    for module, tree in trees:
        for qualified, node, is_method in definitions(module, tree):
            readers = {by_library for as_attribute, scope, by_library in seen.get(node.name, ())
                       if (as_attribute or not is_method) and node not in scope}
            if True not in readers:
                (benchmark_only if readers else unreached).append(qualified)
    return sorted(unreached), sorted(benchmark_only)


def benchmark_sources(directory_sources):
    return [(file, source) for file, source in directory_sources if not file.startswith("test_")]


def test_only_the_listed_names_are_reached_by_the_benchmark_alone_and_none_by_nothing():
    assert reach(sources(), benchmark_sources(sources(PERFBENCH))) == \
        ([], sorted(BENCHMARK_ONLY))


def test_the_lint_flags_every_planted_case():
    library = ("def unused():\n"
               "    return 1\n"
               "def recursive(n):\n"
               "    return recursive(n - 1) if n else helper()\n"
               "def helper():\n"
               "    return Holder().kept\n"
               "class Holder:\n"
               "    @property\n"
               "    def kept(self):\n"
               "        return self.shadowed\n"
               "    def shadowed(self):\n"
               "        return self.shadowed()\n"
               "    def traced(self):\n"
               "        return 0\n"
               "    def local(self):\n"
               "        return 0\n"
               "def dump(rows):\n"
               "    local = [r for r in rows]\n"
               "    def inner():\n"
               "        return local\n"
               "    return inner(), dump\n"
               "def entry():\n"
               "    return dump([]), helper\n"
               "def traced_function():\n"
               "    return 0\n")
    cli = "import lib\nlib.entry()\n"
    tracing = "TRACED = ((lib.Holder, 'traced', 'span'), (lib, 'traced_function', 'span'))\n"
    library_only = [("lib.py", library), ("cli.py", cli)]
    # a function nothing names, one that only calls itself, and a method whose name only
    # a local variable shares are reached by nothing; the tracer's strings reach two more
    assert reach(library_only, []) == (
        ["lib.Holder.local", "lib.Holder.traced", "lib.recursive", "lib.traced_function",
         "lib.unused"], [])
    assert reach(library_only, [("tracing.py", tracing)]) == (
        ["lib.Holder.local", "lib.recursive", "lib.unused"],
        ["lib.Holder.traced", "lib.traced_function"])
    # a test module of perfbench does not count as the benchmark
    assert benchmark_sources([("test_perfbench.py", tracing), ("run.py", "")]) == \
        [("run.py", "")]


# this change's parent: the last commit at which the library defined names that only
# the tests reached
TEST_ONLY = "09e64c9f062a2b1d21bef97e1d6f3031bce06840"


def test_the_lint_finds_the_names_that_only_the_tests_reached():
    assert reach(sources_at(TEST_ONLY), benchmark_sources(sources_at(TEST_ONLY, PERFBENCH))) == (
        ["closure.DeductiveClosure.asserted", "sexpr.equivalent", "sexpr.subclassof"],
        sorted(BENCHMARK_ONLY))
