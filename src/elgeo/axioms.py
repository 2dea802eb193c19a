"""Normalized EL axioms, identifier interning, and the tab-separated axiom format.

Every axiom is one of nine normal forms over interned class/relation ids.
The reserved classes TOP and BOT always occupy ids 0 and 1.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain, count, repeat
from typing import NamedTuple

import numpy as np


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


# Each form's slots in argument order: "c" holds a class id, "r" a relation id.
LAYOUT = {
    Form.GCI0: "cc", Form.GCI1: "ccc", Form.GCI2: "crc", Form.GCI3: "rcc",
    Form.GCI0_BOT: "c", Form.GCI1_BOT: "cc", Form.GCI3_BOT: "rc",
    Form.RI0: "rr", Form.RI1: "rrr",
}

ARITY = {form: len(kinds) for form, kinds in LAYOUT.items()}


def per_slot(form: Form, class_value, relation_value) -> tuple:
    """One value per slot of ``form``: ``relation_value`` at its relation slots and
    ``class_value`` at the rest."""
    return tuple(relation_value if kind == "r" else class_value for kind in LAYOUT[form])


GCI_FORMS = (
    Form.GCI0, Form.GCI1, Form.GCI2, Form.GCI3,
    Form.GCI0_BOT, Form.GCI1_BOT, Form.GCI3_BOT,
)


def pack_keys(form: Form, cols, n_classes: int, n_relations: int) -> np.ndarray:
    """int64 keys of ``form`` axioms given as one id array per slot: a mixed radix, base
    ``n_relations`` at relation slots and ``n_classes`` elsewhere, so keys sort like
    their rows.  ValueError when an id is out of range or a key could overflow int64."""
    dims = per_slot(form, n_classes, n_relations)
    if math.prod(dims) >= 2 ** 63:
        raise ValueError(f"{form.value} keys over {n_classes} classes and "
                         f"{n_relations} relations do not fit in int64")
    return np.ravel_multi_index(tuple(cols), dims)


def key_member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which ``keys`` occur in ``sorted_keys``, by binary search."""
    if not len(sorted_keys):
        return np.zeros(keys.shape, dtype=bool)
    return sorted_keys.take(np.searchsorted(sorted_keys, keys), mode="clip") == keys


def runs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index of the ranges ``lo[i]:hi[i]``, end to end, and the i of each."""
    i = np.repeat(np.arange(len(lo)), hi - lo)
    return i, np.arange(len(i)) + (lo - np.cumsum(hi - lo) + (hi - lo))[i]


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
        # (and anywhere on a left-hand side); ``rows_of`` rewrites the rest.
        rhs = CONSEQUENT_SLOT.get(self.form)
        if rhs is not None and self.args[rhs] == BOT:
            raise ValueError(
                f"{self.form.value} with BOT right-hand side; rows_of rewrites such rows")


# Right-hand (consequent) class slot of the non-bottom GCI forms.
CONSEQUENT_SLOT = {Form.GCI0: 1, Form.GCI1: 2, Form.GCI2: 2, Form.GCI3: 2}
# Left-hand (antecedent) class slots of each GCI form: every class slot but the consequent.
ANTECEDENT = {form: [k for k, kind in enumerate(LAYOUT[form])
                     if kind == "c" and k != CONSEQUENT_SLOT.get(form)] for form in GCI_FORMS}
# The bottom form a BOT consequent rewrites to, keeping that form's leading slots
# (C inside some R.bottom forces C empty).
BOT_FORM = {Form.GCI0: Form.GCI0_BOT, Form.GCI1: Form.GCI1_BOT,
            Form.GCI2: Form.GCI0_BOT, Form.GCI3: Form.GCI3_BOT}


class Rows(NamedTuple):
    """Axioms as id rows, the one input of ``build_kb``: each form's (k, arity) int64
    id array, and each row's form, in order."""

    ids: dict[Form, np.ndarray]
    forms: list[Form]

    def in_order(self):
        """(form, id tuple) of each row, in order."""
        rows = {form: map(tuple, a.tolist()) for form, a in self.ids.items()}
        return ((form, next(rows[form])) for form in self.forms)


def bottom_rewrite(blocks: dict[Form, list], forms: list[Form]) -> Rows:
    """``Rows`` of every form's ids, as blocks in order, each an int64 array or an
    id list flattened row by row, and each row's form.  A row whose consequent holds
    BOT moves to its form's bottom form (``BOT_FORM``), keeping the leading slots and
    its place in order."""
    ids = {form: np.concatenate([np.asarray(b, np.int64).reshape(-1, ARITY[form])
                                 for b in ([], *chunks)]) for form, chunks in blocks.items()}
    tags = None   # each row's form as an object array, once a row moves
    for form, bottom in BOT_FORM.items():
        hit = ids[form][:, CONSEQUENT_SLOT[form]] == BOT
        if not hit.any():
            continue
        if tags is None:
            tags = np.array(forms, dtype=object)
        moved = np.flatnonzero(tags == form)[hit]
        order = np.argsort(np.concatenate([np.flatnonzero(tags == bottom), moved]))
        ids[bottom] = np.concatenate([ids[bottom], ids[form][hit, :ARITY[bottom]]])[order]
        ids[form] = ids[form][~hit]
        tags[moved] = bottom
    return Rows(ids, forms if tags is None else tags.tolist())


def rows_of(pairs) -> Rows:
    """``Rows`` of (form, id tuple) pairs, in order, through ``bottom_rewrite``."""
    flat: dict[Form, list[int]] = {form: [] for form in Form}
    forms = []
    for form, args in pairs:
        if len(args) != ARITY[form]:
            raise ValueError(f"{form.value} takes {ARITY[form]} arguments, got {len(args)}")
        flat[form] += args
        forms.append(form)
    return bottom_rewrite({form: [f] for form, f in flat.items()}, forms)


class AxiomRows(Sequence):
    """Read-only sequence of one form's axioms over a (k, arity) int64 id array,
    ``ids``, which it takes over and makes non-writeable; items are ``Axiom``s."""

    def __init__(self, form: Form, ids: np.ndarray):
        self.form = form
        self.ids = np.asarray(ids, dtype=np.int64).reshape(-1, ARITY[form])
        self.ids.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> Axiom:
        return Axiom(self.form, tuple(self.ids[i].tolist()))

    def __iter__(self):
        return (Axiom(self.form, tuple(args)) for args in self.ids.tolist())


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
        return self._intern(name, self._class_ids, self._class_names, "class")

    def intern_relation(self, name: str) -> int:
        return self._intern(name, self._rel_ids, self._rel_names, "relation")

    @staticmethod
    def _intern(name: str, ids: dict[str, int], names: list[str], kind: str) -> int:
        i = ids.get(name)
        if i is None:
            reason = identifier_error(name)
            if reason:
                raise ValueError(f"{kind} {reason}")
            i = ids[name] = len(names)
            names.append(name)
        return i

    def tables(self, form: Form) -> tuple[dict[str, int], ...]:
        """The name -> id table of each slot of ``form``, to look names up in."""
        return per_slot(form, self._class_ids, self._rel_ids)

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


# What a name cannot hold and come back unchanged from a ``lines`` field: a TAB, a
# newline, a final CR, or a lone surrogate, which UTF-8 cannot write.
_UNSAFE = re.compile(r"[\t\n\ud800-\udfff]|\r\Z")


def identifier_error(name: str) -> str | None:
    """Why ``name`` cannot be an identifier (it would not survive a save and load),
    or None."""
    if not name:
        return "empty identifier"
    if _UNSAFE.search(name):
        return f"identifier {name!r} holds a TAB, a newline, a final CR or a lone surrogate"
    return None


def lines(text: str, first: int = 1):
    """elgeo's one line rule for its TAB-separated files: (line number, counting from
    ``first``, TAB-split fields) of each line that holds data.  Lines end at "\n"
    alone, since every other character is identifier-legal; trailing "\r"s are
    dropped, and blank, whitespace-only and '#' lines are skipped.  So the rule is
    the identity, line for line, on text with no "\r" whose every line starts with a
    form tag and a TAB: the text ``slices`` reads by columns."""
    for lineno, raw in enumerate(text.split("\n"), first):
        raw = raw.rstrip("\r")
        if raw.strip() and not raw.startswith("#"):
            yield lineno, raw.split("\t")


SLICE = 1 << 16   # characters of text ``slices`` cuts at a time
_NOT_TAB_LF = bytes(sorted(set(range(256)) - {9, 10}))


def slices(text: str, widths: dict[str, int]):
    """``text`` cut at "\n" into slices of about SLICE characters, each also ending
    before a line with another form tag once its first tag's run is over SLICE / 64
    characters: (number of its first line, slice, its first line's tag, names) of each.
    ``names`` are its fields but the tags, row-major, when ``lines`` is the identity on
    it and each line has that tag and ``widths[tag]`` fields (checked on its TAB and LF
    bytes); otherwise None."""
    start, first = 0, 1
    while start < len(text):
        end = text.find("\n", start + SLICE - 1) + 1 or len(text)
        tag = text[start:max(start, text.find("\t", start, end))]
        if tag in widths and not text.startswith(
                tag + "\t", text.rfind("\n", start, end - 1) + 1 or start):
            cut = min(text.find(f"\n{form.value}\t", start, end) + 1 or end
                      for form in Form if form.value != tag)
            # a short run of one tag stays in a slice that goes line by line, so that
            # tags alternating line by line cannot cut a slice per line
            end = cut if cut - start > SLICE >> 6 else end
        piece, e = text[start:end], widths.get(tag, 0)
        body = piece.removesuffix("\n")
        seps = (body + "\n").encode("utf-8", "surrogatepass").translate(None, _NOT_TAB_LF)
        names = (e and "\r" not in body and seps == (b"\t" * (e - 1) + b"\n") * seps.count(b"\n")
                 and body.replace("\n", "\t").split("\t"))
        if names and names[::e].count(tag) * e == len(names):
            del names[::e]
        else:
            names = None
        yield first, piece, tag, names
        first += piece.count("\n")
        start = end


def column_ids(names: list[str], tables) -> np.ndarray:
    """(rows, slots) int64 ids of ``slices``' names, each column looked up in its
    slot's table; -1 for a name not in it."""
    return np.column_stack([np.fromiter(map(table.get, names[k::len(tables)], repeat(-1)),
                                        np.int64, len(names) // len(tables))
                            for k, table in enumerate(tables)])


def parse_normalized(text: str, sig: Signature | None = None) -> tuple[Rows, Signature]:
    """Parse a normalized axiom document: one axiom per ``lines`` line, the form tag
    first.  Identifiers are interned in first-appearance order, each checked by
    ``identifier_error`` when first met.  Returns the ``Rows`` in file order, BOT
    consequents rewritten by ``bottom_rewrite``, and the signature.

    The text is read a ``slices`` slice at a time.  A slice with columns is looked up
    column by column; its new names, in file order by ``dict.fromkeys`` over each
    namespace's misses, are all checked before any is interned.  Any other slice, or
    one holding a bad name, goes line by line, which raises every ParseError."""
    if sig is None:
        sig = Signature()
    classes, relations = (sig._class_ids, sig._class_names), (sig._rel_ids, sig._rel_names)
    # tag -> (form, field count, one interning table per slot)
    specs = {form.value: (form, ARITY[form] + 1, per_slot(form, classes, relations))
             for form in Form}
    blocks: dict[Form, list] = {form: [] for form in Form}
    forms: list[Form] = []
    for first, piece, tag, names in slices(text, {t: e for t, (_, e, _) in specs.items()}):
        if names:
            form, _, tables = specs[tag]
            block = column_ids(names, [ids for ids, _ in tables])
            at = np.flatnonzero(block < 0).tolist()   # where each miss sits in ``names``
            fresh = [dict.fromkeys(names[i] for i in at if tables[i % len(tables)] is table)
                     for table in (classes, relations)]
            if not any(map(identifier_error, chain(*fresh))):
                for (ids, known), new in zip((classes, relations), fresh):
                    ids.update(zip(new, count(len(known))))
                    known += new
                blocks[form].append(column_ids(names, [ids for ids, _ in tables]) if at else block)
                forms += [form] * len(block)
                continue
        chunk: dict[Form, list[int]] = {form: [] for form in Form}   # this slice's ids
        for form, flat in chunk.items():
            blocks[form].append(flat)
        for lineno, fields in lines(piece, first):
            spec = specs.get(fields[0])
            if spec is None:
                raise ParseError(f"unknown form tag: {fields[0]!r}", lineno)
            form, expected, tables = spec
            if len(fields) != expected:
                raise ParseError(f"expected {expected} fields, got {len(fields)}", lineno)
            row = chunk[form]
            for name, (ids, names) in zip(fields[1:], tables):
                i = ids.get(name)
                if i is None:
                    reason = identifier_error(name)
                    if reason:
                        raise ParseError(reason, lineno)
                    i = ids[name] = len(names)
                    names.append(name)
                row.append(i)
            forms.append(form)
    return bottom_rewrite(blocks, forms), sig


def format_row(form: Form, args, sig: Signature) -> str:
    names = per_slot(form, sig.class_name, sig.relation_name)
    return "\t".join([form.value] + [name(a) for name, a in zip(names, args)])


def serialize_normalized(rows: Rows, sig: Signature) -> str:
    """Inverse of parse_normalized: round-trips to the same rows."""
    return "".join(format_row(form, args, sig) + "\n" for form, args in rows.in_order())
