"""S-expression syntax for general (not yet normalized) class axioms.

Axiom heads: subclassof, equivalent, subrole, rolechain.  Concept heads:
and, some, one; the symbols top and bot denote the universal and the empty
concept.  A nominal ``(one a)`` is read as the atomic class ``{a}``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice

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


def subrole(r: str, s: str) -> GeneralAxiom:
    return GeneralAxiom("subrole", roles=(r, s))


def rolechain(r1: str, r2: str, s: str) -> GeneralAxiom:
    return GeneralAxiom("rolechain", roles=(r1, r2, s))


# --- reader -----------------------------------------------------------------

_TOKEN = re.compile(r"[()]|[^\s()]+")   # \s matches exactly the str.isspace() characters
_NOT_A_CLASS = frozenset(_AXIOM_HEADS + ("and", "some", "one"))
# Most lists open at once.  The reader recurses once per level and the normalizer up
# to three times, so this keeps both well inside Python's default recursion limit.
MAX_DEPTH = 256


class _Error(Exception):
    """(reason, token index); parse_general turns it into a positioned SexprError."""


def _element_lists(tokens: list[str]) -> tuple[list[int], list]:
    """The token indices of the document's elements, and lists[k] = those of the elements
    of the list that opens at token k.  Balance errors come first, before any other, then
    the first list opened inside ``MAX_DEPTH`` others."""
    document: list[int] = []
    lists: list = [None] * len(tokens)
    stack, items, deep = [], document, None
    for k, tok in enumerate(tokens):
        if tok == ")":
            if not stack:
                raise _Error("unbalanced ')'", k)
            items = stack.pop()
        else:
            items.append(k)
            if tok == "(":
                if len(stack) == MAX_DEPTH and deep is None:
                    deep = k
                stack.append(items)
                items = lists[k] = []
    if stack:
        raise _Error("unbalanced '('", stack[-1][-1])
    if deep is not None:
        raise _Error(f"lists nested more than {MAX_DEPTH} deep", deep)
    return document, lists


class _Reader:
    """Recursive descent from the token list straight to Concepts, one per atom name.

    A list's elements are all located before any is translated, so a node's own
    arity error is reported before any error inside its arguments.
    """

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.document, self.lists = _element_lists(tokens)
        self.atoms = {"top": TOP_CONCEPT, "bot": BOT_CONCEPT}

    def head(self, k: int, what: str) -> tuple[str, list[int]]:
        items = self.lists[k]
        if not items or self.tokens[items[0]] == "(":
            raise _Error(f"expected {what} head symbol", k)
        return self.tokens[items[0]], items[1:]

    def identifier(self, k: int) -> str:
        name = self.tokens[k]
        if name.startswith(RESERVED_PREFIX):
            raise _Error(f"identifier {name!r} uses the reserved prefix {RESERVED_PREFIX!r}", k)
        return name

    def role(self, k: int) -> str:
        if self.tokens[k] == "(":
            raise _Error("relation name must be a symbol", k)
        return self.tokens[k]

    def concept(self, k: int) -> Concept:
        tok = self.tokens[k]
        if tok != "(":
            found = self.atoms.get(tok)
            if found is None:
                if tok in _NOT_A_CLASS:
                    raise _Error(f"{tok!r} cannot be used as a class name", k)
                found = self.atoms[tok] = atom(self.identifier(k))
            return found
        head, args = self.head(k, "a")
        if head == "some":
            if len(args) != 2:
                raise _Error("'some' needs exactly 2 arguments", k)
            return some(self.role(args[0]), self.concept(args[1]))
        if head == "and":
            if len(args) < 2:
                raise _Error("'and' needs at least 2 arguments", k)
            return Concept("and", parts=tuple(map(self.concept, args)))
        if head == "one":
            if len(args) != 1 or self.tokens[args[0]] == "(":
                raise _Error("'one' needs exactly 1 individual name", k)
            name = "{" + self.identifier(args[0]) + "}"
            found = self.atoms.get(name)
            if found is None:
                found = self.atoms[name] = atom(name)
            return found
        if head in ("top", "bot"):
            if args:
                raise _Error(f"'{head}' takes no arguments", k)
            return self.atoms[head]
        raise _Error(f"unknown head symbol: {head}", k)

    def axiom(self, k: int) -> GeneralAxiom:
        if self.tokens[k] != "(":
            raise _Error(f"expected an axiom, got symbol {self.tokens[k]!r}", k)
        head, args = self.head(k, "an axiom")
        if head in ("subclassof", "equivalent"):
            if len(args) != 2:
                raise _Error(f"'{head}' needs exactly 2 arguments", k)
            return GeneralAxiom(head, left=self.concept(args[0]), right=self.concept(args[1]))
        if head == "subrole":
            if len(args) != 2:
                raise _Error("'subrole' needs exactly 2 relation names", k)
            return subrole(self.role(args[0]), self.role(args[1]))
        if head == "rolechain":
            if len(args) != 3:
                raise _Error("'rolechain' needs exactly 3 relation names", k)
            return rolechain(*map(self.role, args))
        raise _Error(f"unknown head symbol: {head}", k)


def parse_general(text: str) -> list[GeneralAxiom]:
    """Parse an s-expression document into a list of general axioms."""
    tokens = _TOKEN.findall(text)
    try:
        reader = _Reader(tokens)
        return [reader.axiom(k) for k in reader.document]
    except _Error as exc:
        reason, k = exc.args
        pos = next(islice(_TOKEN.finditer(text), k, None)).start()
        line = text.count("\n", 0, pos) + 1
        col = pos - text.rfind("\n", 0, pos)
        raise SexprError(reason, line, col) from None
