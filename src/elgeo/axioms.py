"""Normalized EL axioms, identifier interning, and the tab-separated axiom format.

Every axiom is one of nine normal forms over interned class/relation ids.
The reserved classes TOP and BOT always occupy ids 0 and 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


TOP = 0
BOT = 1
TOP_NAME = "TOP"
BOT_NAME = "BOT"


class Form(Enum):
    GCI0 = "GCI0"          # C subclass-of D
    GCI1 = "GCI1"          # C and D subclass-of E
    GCI2 = "GCI2"          # C subclass-of some R.D
    GCI3 = "GCI3"          # some R.C subclass-of D
    GCI0_BOT = "GCI0_BOT"  # C subclass-of bottom
    GCI1_BOT = "GCI1_BOT"  # C and D subclass-of bottom
    GCI3_BOT = "GCI3_BOT"  # some R.C subclass-of bottom
    RI0 = "RI0"            # r subrole-of s
    RI1 = "RI1"            # r1 then r2 subrole-of s

    # Members are singletons compared by identity; Enum's own __hash__ is a
    # Python-level call on every dict or set lookup keyed by a form.
    __hash__ = object.__hash__


ARITY = {
    Form.GCI0: 2,
    Form.GCI1: 3,
    Form.GCI2: 3,
    Form.GCI3: 3,
    Form.GCI0_BOT: 1,
    Form.GCI1_BOT: 2,
    Form.GCI3_BOT: 2,
    Form.RI0: 2,
    Form.RI1: 3,
}

# Argument positions holding relation ids; all other slots are class ids.
RELATION_SLOTS = {
    Form.GCI2: (1,),
    Form.GCI3: (0,),
    Form.GCI3_BOT: (0,),
    Form.RI0: (0, 1),
    Form.RI1: (0, 1, 2),
}

GCI_FORMS = (
    Form.GCI0, Form.GCI1, Form.GCI2, Form.GCI3,
    Form.GCI0_BOT, Form.GCI1_BOT, Form.GCI3_BOT,
)


class ParseError(Exception):
    """Malformed axiom input; carries the 1-based line number."""

    def __init__(self, reason: str, line: int):
        super().__init__(f"line {line}: {reason}")
        self.reason = reason
        self.line = line


@dataclass(frozen=True)
class Axiom:
    """One normalized axiom: a form tag plus its id slots."""

    form: Form
    args: tuple[int, ...]

    def __post_init__(self):
        if len(self.args) != ARITY[self.form]:
            raise ValueError(
                f"{self.form.value} takes {ARITY[self.form]} arguments, got {len(self.args)}")
        # BOT may only appear in the class slots of the dedicated bottom forms
        # (and anywhere on a left-hand side); use make_axiom to canonicalize.
        rhs = CONSEQUENT_SLOT.get(self.form)
        if rhs is not None and self.args[rhs] == BOT:
            raise ValueError(
                f"{self.form.value} with BOT right-hand side; use make_axiom to canonicalize")


# Right-hand (consequent) class slot of the non-bottom GCI forms.
CONSEQUENT_SLOT = {Form.GCI0: 1, Form.GCI1: 2, Form.GCI2: 2, Form.GCI3: 2}


def make_axiom(form: Form, args: tuple[int, ...]) -> Axiom:
    """Build an axiom, rewriting a BOT right-hand side into the bottom form."""
    if form is Form.GCI0 and args[1] == BOT:
        return Axiom(Form.GCI0_BOT, (args[0],))
    if form is Form.GCI1 and args[2] == BOT:
        return Axiom(Form.GCI1_BOT, (args[0], args[1]))
    if form is Form.GCI2 and args[2] == BOT:
        # C inside some R.bottom forces C empty.
        return Axiom(Form.GCI0_BOT, (args[0],))
    if form is Form.GCI3 and args[2] == BOT:
        return Axiom(Form.GCI3_BOT, (args[0], args[1]))
    return Axiom(form, args)


class Signature:
    """Bijective mapping between identifiers and dense integer ids.

    Class ids and relation ids live in separate namespaces.  TOP and BOT are
    pre-interned at construction and therefore always present.
    """

    def __init__(self):
        self._class_ids: dict[str, int] = {TOP_NAME: TOP, BOT_NAME: BOT}
        self._class_names: list[str] = [TOP_NAME, BOT_NAME]
        self._rel_ids: dict[str, int] = {}
        self._rel_names: list[str] = []

    @property
    def n_classes(self) -> int:
        return len(self._class_names)

    @property
    def n_relations(self) -> int:
        return len(self._rel_names)

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(self._class_names)

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._rel_names)

    def intern_class(self, name: str) -> int:
        if not name:
            raise ValueError("empty class identifier")
        cid = self._class_ids.get(name)
        if cid is None:
            cid = len(self._class_names)
            self._class_ids[name] = cid
            self._class_names.append(name)
        return cid

    def intern_relation(self, name: str) -> int:
        if not name:
            raise ValueError("empty relation identifier")
        rid = self._rel_ids.get(name)
        if rid is None:
            rid = len(self._rel_names)
            self._rel_ids[name] = rid
            self._rel_names.append(name)
        return rid

    def class_id(self, name: str) -> int:
        try:
            return self._class_ids[name]
        except KeyError:
            raise KeyError(f"unknown class: {name!r}") from None

    def relation_id(self, name: str) -> int:
        try:
            return self._rel_ids[name]
        except KeyError:
            raise KeyError(f"unknown relation: {name!r}") from None

    def class_name(self, cid: int) -> str:
        return self._class_names[cid]

    def relation_name(self, rid: int) -> str:
        return self._rel_names[rid]


def parse_normalized(text: str, sig: Signature | None = None) -> tuple[list[Axiom], Signature]:
    """Parse a normalized axiom document: one axiom per line, TAB-separated.

    The first field is the form tag; '#' starts a comment line; blank lines
    are skipped.  Identifiers are interned in first-appearance order.
    """
    if sig is None:
        sig = Signature()
    axioms: list[Axiom] = []
    # split on plain newlines only: any other character is identifier-legal
    for lineno, raw in enumerate(text.split("\n"), 1):
        raw = raw.rstrip("\r")
        if not raw.strip() or raw.startswith("#"):
            continue
        fields = raw.split("\t")
        try:
            form = Form(fields[0])
        except ValueError:
            raise ParseError(f"unknown form tag: {fields[0]!r}", lineno) from None
        expected = ARITY[form] + 1
        if len(fields) != expected:
            raise ParseError(f"expected {expected} fields, got {len(fields)}", lineno)
        rel_slots = RELATION_SLOTS.get(form, ())
        args = []
        for slot, name in enumerate(fields[1:]):
            if not name:
                raise ParseError("empty identifier", lineno)
            if slot in rel_slots:
                args.append(sig.intern_relation(name))
            else:
                args.append(sig.intern_class(name))
        axioms.append(make_axiom(form, tuple(args)))
    return axioms, sig


def format_axiom(ax: Axiom, sig: Signature) -> str:
    rel_slots = RELATION_SLOTS.get(ax.form, ())
    names = [
        sig.relation_name(a) if slot in rel_slots else sig.class_name(a)
        for slot, a in enumerate(ax.args)
    ]
    return "\t".join([ax.form.value] + names)


def serialize_normalized(axioms: list[Axiom], sig: Signature) -> str:
    """Inverse of parse_normalized: round-trips to the same axiom list."""
    if not axioms:
        return ""
    return "\n".join(format_axiom(ax, sig) for ax in axioms) + "\n"
