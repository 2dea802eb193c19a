"""What only the tests reach leaves the library: every function, class, method and
property defined in ``src/elgeo`` (dunders apart) is named by other library code, the
CLI included, or by a non-test ``perfbench/`` module.  Tests and demos do not count.
And what no call passes is a constant: every defaulted parameter of a library function
or method is passed by some call in the library, the benchmark, the tests or the demos.

A name counts where it is read: a function or class by a bare name or an attribute, a
method or property only as an attribute (``dc.asserted``), so a local variable that
shares a method's name does not reach it.  A read inside the definition's own body does
not count.  Each attribute string in ``perfbench/tracing.TRACED`` counts as an attribute
read by the benchmark, because the tracer looks its targets up by name."""

import ast

from astlint import DEFS, DEMOS, PERFBENCH, TESTS, name, sources, sources_at, walk

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


def calls(trees):
    """Called name -> [(positional argument count, keyword names, passes * or **)] of
    every call in ``trees``."""
    found: dict[str, list] = {}
    for tree in trees:
        for node, _ in walk(tree):
            if isinstance(node, ast.Call):
                keywords = {kw.arg for kw in node.keywords}
                found.setdefault(name(node.func), []).append((
                    len(node.args), keywords,
                    None in keywords or any(isinstance(a, ast.Starred) for a in node.args)))
    return found


def unpassed(library, callers) -> list[str]:
    """Over (file name, source) pairs of the library and of its callers: each defaulted
    parameter of a library function or method that no call passes, by keyword or by
    position, as ``module.qualified.name(parameter)``, sorted.  A call matches every
    definition of its name, and a call of a class its ``__init__``; a call with * or **
    passes every parameter.  Positions skip a method's self or cls."""
    passed = calls(ast.parse(source) for _, source in callers)
    missing = []
    for file, source in library:
        for node, scope in walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = scope[-2] if len(scope) > 1 and isinstance(scope[-2], ast.ClassDef) else None
            names = {node.name} | ({owner.name} if owner and node.name == "__init__" else set())
            bound = owner is not None and "staticmethod" not in map(name, node.decorator_list)
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = [(at - bound, arg.arg) for at, arg in enumerate(positional)
                         if at >= len(positional) - len(args.defaults)]
            defaulted += [(None, arg.arg) for arg, default in
                          zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            for at, param in defaulted:
                if not any(star or param in keywords or at is not None and at < count
                           for called in names for count, keywords, star in passed.get(called, ())):
                    missing.append(f"{file.removesuffix('.py')}."
                                   f"{'.'.join(d.name for d in scope)}({param})")
    return sorted(missing)


def callers(library, perfbench, tests, demos):
    """Every source whose calls count: the library, the non-test benchmark modules, the
    tests and the demos."""
    return [*library, *benchmark_sources(perfbench), *tests, *demos]


def test_every_defaulted_parameter_is_passed_by_some_call():
    assert unpassed(sources(), callers(sources(), *map(sources, (PERFBENCH, TESTS, DEMOS)))) == []


def test_the_parameter_lint_flags_every_planted_case():
    library = ("def f(a, b=1, c=2, *, d=3, e=4):\n"
               "    return a\n"
               "def starred(x=1):\n"
               "    return x\n"
               "def spread(y=1):\n"
               "    return y\n"
               "class Box:\n"
               "    def __init__(self, size=1, shape=2):\n"
               "        self.size = size\n"
               "    def grow(self, by=1, to=2):\n"
               "        return by\n"
               "    @staticmethod\n"
               "    def make(n=1):\n"
               "        return n\n"
               "    @classmethod\n"
               "    def load(cls, path=1):\n"
               "        return path\n")
    uses = ("import lib\n"
            "lib.f(0, 1, d=2)\n"
            "lib.starred(*[1])\n"
            "lib.spread(**{})\n"
            "box = lib.Box(5)\n"
            "box.grow(2)\n"
            "lib.Box.make(3)\n"
            "lib.Box.load()\n")
    every = ["lib.Box.__init__(shape)", "lib.Box.__init__(size)", "lib.Box.grow(by)",
             "lib.Box.grow(to)", "lib.Box.load(path)", "lib.Box.make(n)", "lib.f(b)",
             "lib.f(c)", "lib.f(d)", "lib.f(e)", "lib.spread(y)", "lib.starred(x)"]
    assert unpassed([("lib.py", library)], [("lib.py", library)]) == every
    # a positional argument passes the parameter at its place, self and cls not counted
    assert unpassed([("lib.py", library)], [("uses.py", uses)]) == [
        "lib.Box.__init__(shape)", "lib.Box.grow(to)", "lib.Box.load(path)", "lib.f(c)",
        "lib.f(e)"]
    # a test module of perfbench does not count, a test or a demo does
    assert callers([], [("test_x.py", uses)], [], []) == []
    assert callers([], [], [("test_x.py", uses)], [("demo.py", "")]) == [
        ("test_x.py", uses), ("demo.py", "")]


# the last commit at which the library took parameters that no call passed
UNPASSED = "b10f20d11d558c665c2c40fd303f6f613de058b7"


def test_the_parameter_lint_finds_the_parameters_no_call_passed():
    assert unpassed(sources_at(UNPASSED), callers(sources_at(UNPASSED), *(
        sources_at(UNPASSED, directory) for directory in (PERFBENCH, TESTS, DEMOS)))) == [
        "normalize.normalize(sig)", "toygen.skew_kb(alpha)", "toygen.skew_kb(n_heads)",
        "toygen.skew_kb(n_tails)", "toygen.skew_kb(n_test)", "toygen.skew_kb(n_train)"]
