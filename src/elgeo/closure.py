"""Per-normal-form entailed-axiom sets expanded from a KB and its subsumption closure.

One pass of slot-rewriting rules runs over every asserted axiom, with the
rewrite premises drawn from the (transitively closed) subsumption closure:

  GCI0      both slots        (subsumed into the absorbed closure pairs)
  GCI1      first slot down
  GCI2      head down, filler up
  GCI3      filler down, superclass up
  GCI0_BOT  class down
  GCI3_BOT  filler down

Because the premises are transitively closed, a second pass derives nothing
new.  The expansion is sound but not complete.  Membership for GCI1 is
checked modulo conjunction commutativity, and disjointness (GCI1_BOT)
membership propagates down the hierarchy at query time.  Membership reads
the stored sets alone, so a closure loaded from its dump answers like the
computed one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import product

from .axioms import (
    ARITY, BOT, Axiom, Form, GCI_FORMS, Signature, format_row, lines, per_slot,
)
from .dataset import KnowledgeBase
from .manifest import read_text, write_atomic, write_json
from .reasoner import SubsumptionClosure

DEFAULT_MAX_DERIVED = 10 ** 8
BUDGET_KEY = "closure.max_derived"
STATS_FILE = "closure_stats.json"


class ClosureBudgetError(Exception):
    def __init__(self, budget: int):
        super().__init__(
            f"derived-axiom budget exceeded ({budget}); raise {BUDGET_KEY} to proceed")
        self.budget = budget
        self.key = BUDGET_KEY


class UnsupportedFormError(Exception):
    pass


@dataclass
class DeductiveClosure:
    """Per-form entailed id tuples.

    ``sub`` is the subsumption closure the sets were expanded from (None for
    a loaded dump); membership never reads it.
    """

    sig: Signature
    sets: dict[Form, set[tuple[int, ...]]]
    asserted: dict[Form, set[tuple[int, ...]]]
    sub: SubsumptionClosure | None = None
    stats: dict[str, int] = field(default_factory=dict)

    def contains(self, ax: Axiom) -> bool:
        """Entailment membership for the covered (GCI) forms, read from the stored sets."""
        form, args = ax.form, ax.args
        if form not in GCI_FORMS:
            raise UnsupportedFormError(f"unsupported form: {form.value}")
        stored = self.sets[form]
        if form is Form.GCI0 or form is Form.GCI0_BOT:
            # BOT's rows are tautologies and stay implicit
            return args[0] == BOT or args in stored
        if form is Form.GCI1:
            c, d, e = args
            return args in stored or (d, c, e) in stored
        if form is Form.GCI1_BOT:
            c, d = args
            if args in stored or (d, c) in stored:
                return True
            below = self._subsumed
            return any((below(c, a) and below(d, b)) or (below(c, b) and below(d, a))
                       for a, b in self.asserted[Form.GCI1_BOT])
        return args in stored

    def _subsumed(self, x: int, y: int) -> bool:
        """x is a subclass of y by the stored GCI0 and GCI0_BOT rows."""
        if x == BOT:
            return True
        if y == BOT:
            return (x,) in self.sets[Form.GCI0_BOT]
        return (x, y) in self.sets[Form.GCI0]

    def derived_counts(self) -> dict[str, int]:
        return {
            form.value: len(self.sets[form]) - len(self.asserted[form] & self.sets[form])
            for form in GCI_FORMS
        }


def compute_closure(kb: KnowledgeBase, sub: SubsumptionClosure,
                    max_derived: int = DEFAULT_MAX_DERIVED) -> DeductiveClosure:
    """Expand the KB into per-form entailed-axiom sets (see module docstring)."""
    asserted = {form: set(kb.rows(form)) for form in GCI_FORMS}
    n = kb.sig.n_classes
    # C -> known subclasses of C; BOT's rows are tautologies and stay implicit
    down: list[list[int]] = [[] for _ in range(n)]
    for c in range(n):
        if c == BOT:
            continue
        for d in sub.superclasses_of(c):
            down[d].append(c)
    up = sub.superclasses_of

    sets: dict[Form, set[tuple[int, ...]]] = {form: set() for form in GCI_FORMS}

    def grow(form: Form, *slots):
        """Add the slot-wise product of id tuples to the form's set, within budget."""
        sets[form].update(product(*slots))
        if sum(map(len, sets.values())) > max_derived:
            raise ClosureBudgetError(max_derived)

    # A BOT right-hand side comes only from an unsatisfiable superclass: GCI0's
    # d and the filler dp of GCI2 and GCI3.  Those rows live in the bottom
    # forms (C below some R.BOT is itself empty).
    for c in range(n):
        if c == BOT:
            continue
        ups = up(c)
        if BOT in ups:
            grow(Form.GCI0_BOT, (c,))
            ups = ups - {BOT}
        grow(Form.GCI0, (c,), ups)

    for c, d, e in asserted[Form.GCI1]:
        grow(Form.GCI1, down[c], (d,), (e,))
    for c, r, d in asserted[Form.GCI2]:
        ups = up(d)
        if BOT in ups:
            grow(Form.GCI0_BOT, down[c])
            ups = ups - {BOT}
        grow(Form.GCI2, down[c], (r,), ups)
    for r, c, d in asserted[Form.GCI3]:
        ups = up(d)
        if BOT in ups:
            grow(Form.GCI3_BOT, (r,), down[c])
            ups = ups - {BOT}
        grow(Form.GCI3, (r,), down[c], ups)
    for c, in asserted[Form.GCI0_BOT]:
        grow(Form.GCI0_BOT, down[c])
    for r, c in asserted[Form.GCI3_BOT]:
        grow(Form.GCI3_BOT, (r,), down[c])
    for c, d in asserted[Form.GCI1_BOT]:
        grow(Form.GCI1_BOT, (c,), (d,))

    dc = DeductiveClosure(sig=kb.sig, sets=sets, asserted=asserted, sub=sub)
    dc.stats = dc.derived_counts()
    return dc


def dump_closure(dc: DeductiveClosure, path: str):
    """Per-form TSVs in the axiom format plus an asserted/derived column, and
    ``closure_stats.json`` with the derived counts (never read back)."""
    os.makedirs(path, exist_ok=True)
    for form in GCI_FORMS:
        asserted = dc.asserted[form]
        write_atomic(os.path.join(path, f"closure_{form.value.lower()}.tsv"), (
            f"{format_row(form, args, dc.sig)}\t"
            f"{'asserted' if args in asserted else 'derived'}\n"
            for args in sorted(dc.sets[form])))
    write_json(os.path.join(path, STATS_FILE), {"derived": dc.stats})


def load_closure_dump(path: str, sig: Signature) -> DeductiveClosure:
    """Rebuild membership sets from dump files (no subsumption closure attached).

    Every form's file must be there: a missing one raises FileNotFoundError.
    Names are looked up, never interned: a name outside ``sig``, like a wrong
    form tag, field count or provenance (``asserted``/``derived``), raises a
    ValueError naming the file and line, and ``sig`` is left unchanged.
    """
    sets: dict[Form, set[tuple[int, ...]]] = {form: set() for form in GCI_FORMS}
    asserted: dict[Form, set[tuple[int, ...]]] = {form: set() for form in GCI_FORMS}
    for form in GCI_FORMS:
        fpath = os.path.join(path, f"closure_{form.value.lower()}.tsv")
        lookups = per_slot(form, sig.class_id, sig.relation_id)
        for lineno, fields in lines(read_text(fpath)):
            if (len(fields) != ARITY[form] + 2 or fields[0] != form.value
                    or fields[-1] not in ("asserted", "derived")):
                raise ValueError(f"{fpath}:{lineno}: malformed closure dump line")
            try:
                args = tuple(id_of(name) for id_of, name in zip(lookups, fields[1:-1]))
            except KeyError as exc:
                raise ValueError(
                    f"{fpath}:{lineno}: {exc.args[0]}; the dump does not match "
                    "the dataset") from None
            sets[form].add(args)
            if fields[-1] == "asserted":
                asserted[form].add(args)
    return DeductiveClosure(sig=sig, sets=sets, asserted=asserted)
