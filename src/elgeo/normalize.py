"""Rewriting of general class axioms into the nine normal forms.

Conjunctions binarize left-associatively, complex existential fillers and
complex-in-complex inclusions are split through fresh classes named _N1,
_N2, ... (a prefix the s-expression parser rejects in input, so fresh names
never collide), conjunctions on the right-hand side distribute, and axioms
whose left-hand side contains the empty concept are dropped as tautologies.
The result is a conservative extension of the input.
"""

from __future__ import annotations

from .axioms import BOT, TOP, Form, Rows, Signature, rows_of
from .sexpr import Concept, GeneralAxiom, RESERVED_PREFIX, atom, conj


class _Context:
    def __init__(self, sig: Signature):
        self.sig = sig
        self.counter = 0

    def fresh(self) -> Concept:
        self.counter += 1
        return atom(f"{RESERVED_PREFIX}{self.counter}")

    def class_id(self, c: Concept) -> int:
        if c.kind == "top":
            return TOP
        if c.kind == "bot":
            return BOT
        return self.sig.intern_class(c.name)


def _left_is_empty(c: Concept) -> bool:
    """True when the concept is bottom or a conjunction containing bottom."""
    if c.kind == "bot":
        return True
    if c.kind == "and":
        return any(_left_is_empty(p) for p in c.parts)
    return False


def _check_input_names(c: Concept):
    if c.kind == "atom" and c.name.startswith(RESERVED_PREFIX):
        raise ValueError(f"input identifier {c.name!r} uses the reserved prefix {RESERVED_PREFIX!r}")
    for p in c.parts:
        _check_input_names(p)


def _norm_subclass(left: Concept, right: Concept, out: list, ctx: _Context):
    if _left_is_empty(left):
        return
    if not left.is_atomic() and not right.is_atomic():
        mid = ctx.fresh()
        _norm_subclass(left, mid, out, ctx)
        _norm_subclass(mid, right, out, ctx)
        return
    if right.kind == "and":
        for part in right.parts:
            _norm_subclass(left, part, out, ctx)
        return
    if left.is_atomic():
        if right.is_atomic():
            out.append((Form.GCI0, (ctx.class_id(left), ctx.class_id(right))))
            return
        # right is an existential
        filler = right.parts[0]
        rel = ctx.sig.intern_relation(right.relation)
        if filler.is_atomic():
            out.append((Form.GCI2, (ctx.class_id(left), rel, ctx.class_id(filler))))
            return
        mid = ctx.fresh()
        _norm_subclass(mid, filler, out, ctx)
        out.append((Form.GCI2, (ctx.class_id(left), rel, ctx.class_id(mid))))
        return
    # left complex, right atomic
    if left.kind == "some":
        filler = left.parts[0]
        rel = ctx.sig.intern_relation(left.relation)
        if filler.is_atomic():
            out.append((Form.GCI3, (rel, ctx.class_id(filler), ctx.class_id(right))))
            return
        mid = ctx.fresh()
        _norm_subclass(filler, mid, out, ctx)
        out.append((Form.GCI3, (rel, ctx.class_id(mid), ctx.class_id(right))))
        return
    # left conjunction: binarize left-associatively
    parts = left.parts
    if len(parts) > 2:
        _norm_subclass(conj((conj(parts[:2]),) + parts[2:]), right, out, ctx)
        return
    x, y = parts
    if not x.is_atomic():
        mid = ctx.fresh()
        _norm_subclass(x, mid, out, ctx)
        _norm_subclass(conj((mid, y)), right, out, ctx)
        return
    if not y.is_atomic():
        mid = ctx.fresh()
        _norm_subclass(y, mid, out, ctx)
        _norm_subclass(conj((x, mid)), right, out, ctx)
        return
    out.append((Form.GCI1, (ctx.class_id(x), ctx.class_id(y), ctx.class_id(right))))


def normalize(axioms: list[GeneralAxiom]) -> tuple[Rows, Signature]:
    """Normalize general axioms into ``Rows``; fresh classes are numbered deterministically.

    ``equivalent`` emits both inclusion directions.  Role axioms map directly
    to RI0/RI1.
    """
    sig = Signature()
    ctx = _Context(sig)
    out: list[tuple[Form, tuple[int, ...]]] = []   # (form, ids) pairs for rows_of
    for ax in axioms:
        if ax.kind in ("subclassof", "equivalent"):
            _check_input_names(ax.left)
            _check_input_names(ax.right)
            _norm_subclass(ax.left, ax.right, out, ctx)
            if ax.kind == "equivalent":
                _norm_subclass(ax.right, ax.left, out, ctx)
        elif ax.kind == "subrole":
            r, s = (sig.intern_relation(n) for n in ax.roles)
            out.append((Form.RI0, (r, s)))
        elif ax.kind == "rolechain":
            r1, r2, s = (sig.intern_relation(n) for n in ax.roles)
            out.append((Form.RI1, (r1, r2, s)))
        else:
            raise ValueError(f"unknown axiom kind: {ax.kind!r}")
    return rows_of(out), sig
