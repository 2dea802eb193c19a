"""S-expression syntax for general (not yet normalized) class axioms.

Axiom heads: subclassof, equivalent, subrole, rolechain.  Concept heads:
and, some, one; the symbols top and bot denote the universal and the empty
concept.  A nominal ``(one a)`` is read as the atomic class ``{a}``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

RESERVED_PREFIX = "_N"   # reserved for classes introduced by the normalizer

_AXIOM_HEADS = ("subclassof", "equivalent", "subrole", "rolechain")


class SexprError(Exception):
    """Positioned syntax error (1-based line and column)."""

    def __init__(self, reason: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {reason}")
        self.reason = reason
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Concept:
    """Concept expression tree: atom | top | bot | and(parts) | some(relation, parts[0])."""

    kind: str
    name: str = ""
    relation: str = ""
    parts: tuple["Concept", ...] = ()

    def is_atomic(self) -> bool:
        return self.kind in ("atom", "top", "bot")


TOP_CONCEPT = Concept("top")
BOT_CONCEPT = Concept("bot")


def atom(name: str) -> Concept:
    return Concept("atom", name=name)


def conj(parts) -> Concept:
    parts = tuple(parts)
    if len(parts) < 2:
        raise ValueError("conjunction needs at least 2 parts")
    return Concept("and", parts=parts)


def some(relation: str, filler: Concept) -> Concept:
    return Concept("some", relation=relation, parts=(filler,))


@dataclass(frozen=True)
class GeneralAxiom:
    kind: str                      # subclassof | equivalent | subrole | rolechain
    left: Concept | None = None
    right: Concept | None = None
    roles: tuple[str, ...] = ()    # subrole: (r, s); rolechain: (r1, r2, s)


def subclassof(left: Concept, right: Concept) -> GeneralAxiom:
    return GeneralAxiom("subclassof", left=left, right=right)


def equivalent(left: Concept, right: Concept) -> GeneralAxiom:
    return GeneralAxiom("equivalent", left=left, right=right)


def subrole(r: str, s: str) -> GeneralAxiom:
    return GeneralAxiom("subrole", roles=(r, s))


def rolechain(r1: str, r2: str, s: str) -> GeneralAxiom:
    return GeneralAxiom("rolechain", roles=(r1, r2, s))


# --- reader -----------------------------------------------------------------

_TOKEN = re.compile(r"[()]|[^\s()]+")   # \s matches exactly the str.isspace() characters


@dataclass(frozen=True)
class _Node:
    """Raw s-expression node before translation."""
    sym: str | None
    children: tuple["_Node", ...]
    pos: int                       # text offset of the symbol or of the opening '('


class _Error(Exception):
    """(reason, offset); parse_general turns it into a positioned SexprError."""


def _read_nodes(text: str) -> list[_Node]:
    items: list[_Node] = []
    stack: list[tuple[list[_Node], int]] = []
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok == "(":
            stack.append((items, m.start()))
            items = []
        elif tok == ")":
            if not stack:
                raise _Error("unbalanced ')'", m.start())
            parent, start = stack.pop()
            parent.append(_Node(None, tuple(items), start))
            items = parent
        else:
            items.append(_Node(tok, (), m.start()))
    if stack:
        raise _Error("unbalanced '('", stack[-1][1])
    return items


def _check_identifier(name: str, node: _Node):
    if name.startswith(RESERVED_PREFIX):
        raise _Error(f"identifier {name!r} uses the reserved prefix {RESERVED_PREFIX!r}",
                     node.pos)


def _to_concept(node: _Node) -> Concept:
    if node.sym is not None:
        if node.sym == "top":
            return TOP_CONCEPT
        if node.sym == "bot":
            return BOT_CONCEPT
        if node.sym in _AXIOM_HEADS or node.sym in ("and", "some", "one"):
            raise _Error(f"{node.sym!r} cannot be used as a class name", node.pos)
        _check_identifier(node.sym, node)
        return atom(node.sym)
    if not node.children or node.children[0].sym is None:
        raise _Error("expected a head symbol", node.pos)
    head = node.children[0].sym
    args = node.children[1:]
    if head == "and":
        if len(args) < 2:
            raise _Error("'and' needs at least 2 arguments", node.pos)
        return conj(_to_concept(a) for a in args)
    if head == "some":
        if len(args) != 2:
            raise _Error("'some' needs exactly 2 arguments", node.pos)
        return some(_role_name(args[0]), _to_concept(args[1]))
    if head == "one":
        if len(args) != 1 or args[0].sym is None:
            raise _Error("'one' needs exactly 1 individual name", node.pos)
        _check_identifier(args[0].sym, args[0])
        return atom("{" + args[0].sym + "}")
    if head in ("top", "bot"):
        if args:
            raise _Error(f"'{head}' takes no arguments", node.pos)
        return TOP_CONCEPT if head == "top" else BOT_CONCEPT
    raise _Error(f"unknown head symbol: {head}", node.pos)


def _role_name(node: _Node) -> str:
    if node.sym is None:
        raise _Error("relation name must be a symbol", node.pos)
    return node.sym


def _to_axiom(node: _Node) -> GeneralAxiom:
    if node.sym is not None:
        raise _Error(f"expected an axiom, got symbol {node.sym!r}", node.pos)
    if not node.children or node.children[0].sym is None:
        raise _Error("expected an axiom head symbol", node.pos)
    head = node.children[0].sym
    args = node.children[1:]
    if head in ("subclassof", "equivalent"):
        if len(args) != 2:
            raise _Error(f"'{head}' needs exactly 2 arguments", node.pos)
        left, right = _to_concept(args[0]), _to_concept(args[1])
        return subclassof(left, right) if head == "subclassof" else equivalent(left, right)
    if head == "subrole":
        if len(args) != 2:
            raise _Error("'subrole' needs exactly 2 relation names", node.pos)
        return subrole(_role_name(args[0]), _role_name(args[1]))
    if head == "rolechain":
        if len(args) != 3:
            raise _Error("'rolechain' needs exactly 3 relation names", node.pos)
        return rolechain(*(_role_name(a) for a in args))
    raise _Error(f"unknown head symbol: {head}", node.pos)


def parse_general(text: str) -> list[GeneralAxiom]:
    """Parse an s-expression document into a list of general axioms."""
    try:
        return [_to_axiom(node) for node in _read_nodes(text)]
    except _Error as exc:
        reason, pos = exc.args
        line = text.count("\n", 0, pos) + 1
        col = pos - text.rfind("\n", 0, pos)
        raise SexprError(reason, line, col) from None
