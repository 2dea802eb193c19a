"""One loss engine: only ``geometry.loss_term`` gathers the parameter tables row by row,
and ``EmbeddingModel.score_bounds`` for its expanded score.  Every exact value, the
completion score included, is a row that ``loss_term`` computes, so no other function
calls ``.take`` on ``centers``, ``radii`` or ``rel_vectors``."""

import ast

from astlint import name, sources, sources_at, walk

TABLES = {"centers", "radii", "rel_vectors"}
# (file, qualified function name) of each gatherer; functions nested in one are included
GATHERERS = {("geometry.py", "loss_term"), ("geometry.py", "EmbeddingModel.score_bounds")}


def gathers(tree: ast.AST):
    """(line, qualified name of the enclosing definitions) of each ``.take`` call on a
    table, as ``x.centers.take(ids)`` or ``np.take(x.centers, ids)``."""
    found = []
    for node, scope in walk(tree):
        if not (isinstance(node, ast.Call) and name(node.func) == "take"):
            continue
        operands = [node.func.value] if isinstance(node.func, ast.Attribute) else []
        if any(name(arg) in TABLES for arg in operands + node.args[:1]):
            found.append((node.lineno, ".".join(d.name for d in scope)))
    return found


def gatherer(file: str, qualname: str):
    """The GATHERERS entry that the function ``qualname`` of ``file`` is or sits in."""
    return next((g for g in GATHERERS if g[0] == file
                 and (qualname == g[1] or qualname.startswith(g[1] + "."))), None)


def offenders(sources) -> list[str]:
    """``gathers`` over (file name, source) pairs, but those inside GATHERERS."""
    return [f"take {file}:{line} {qualname}" for file, source in sources
            for line, qualname in gathers(ast.parse(source)) if not gatherer(file, qualname)]


def test_only_the_loss_engine_and_the_expanded_score_gather_the_tables():
    assert offenders(sources()) == []
    # and each gatherer still gathers, so the list names no more than it must
    assert {gatherer(file, qualname) for file, source in sources()
            for _, qualname in gathers(ast.parse(source))} == GATHERERS


def test_the_lint_sees_every_planted_gather():
    source = ("def f(model, ids):\n"
              "    return model.centers.take(ids, axis=0)\n"
              "class M:\n"
              "    def g(self, ids):\n"
              "        def h():\n"
              "            return np.take(self.radii, ids), rel_vectors.take(ids)\n"
              "        return self.params.take(ids), take(centers), self.centers[ids]\n"
              "def loss_term(model, ids):\n"
              "    return model.radii.take(ids)\n")
    assert offenders([("geometry.py", source)]) == [
        "take geometry.py:2 f", "take geometry.py:6 M.g.h", "take geometry.py:6 M.g.h",
        "take geometry.py:7 M.g"]
    assert offenders([("training.py", source)])[-1] == "take training.py:9 loss_term"


# the last commit at which score_tails gathered and normed the tables itself
TWO_ENGINES = "a0191710990ccd751906adda3130138d99187a28"


def test_the_lint_finds_the_second_engine_it_replaced():
    assert offenders(sources_at(TWO_ENGINES)) == [
        *(f"take geometry.py:{line} EmbeddingModel.score_tails"
          for line in (215, 215, 217, 218, 219))]
