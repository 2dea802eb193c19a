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
membership propagates down the hierarchy at query time; both conveniences
are disabled by ``strict_printed_rules``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .axioms import BOT, Axiom, Form, GCI_FORMS, Signature, format_axiom, make_axiom
from .dataset import KnowledgeBase
from .reasoner import SubsumptionClosure

DEFAULT_MAX_DERIVED = 10 ** 8
BUDGET_KEY = "closure.max_derived"


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
    sig: Signature
    sets: dict[Form, set[tuple[int, ...]]]
    asserted: dict[Form, set[tuple[int, ...]]]
    sub: SubsumptionClosure | None = None
    strict: bool = False
    stats: dict[str, int] = field(default_factory=dict)

    def contains(self, ax: Axiom) -> bool:
        """Entailment membership for the covered (GCI) forms."""
        if ax.form not in GCI_FORMS:
            raise UnsupportedFormError(f"unsupported form: {ax.form.value}")
        if ax.form is Form.GCI0:
            if self.sub is not None and self.sub.is_subsumed(*ax.args):
                return True
            return ax.args in self.sets[Form.GCI0]
        if ax.form is Form.GCI0_BOT:
            if self.sub is not None and ax.args[0] in self.sub.unsat:
                return True
            return ax.args in self.sets[Form.GCI0_BOT]
        if ax.form is Form.GCI1 and not self.strict:
            c, d, e = ax.args
            return (c, d, e) in self.sets[Form.GCI1] or (d, c, e) in self.sets[Form.GCI1]
        if ax.form is Form.GCI1_BOT and not self.strict:
            c, d = ax.args
            if (c, d) in self.sets[Form.GCI1_BOT] or (d, c) in self.sets[Form.GCI1_BOT]:
                return True
            if self.sub is not None:
                for a, b in self.asserted[Form.GCI1_BOT]:
                    if (self.sub.is_subsumed(c, a) and self.sub.is_subsumed(d, b)) or \
                       (self.sub.is_subsumed(c, b) and self.sub.is_subsumed(d, a)):
                        return True
            return False
        return ax.args in self.sets[ax.form]

    def provenance(self, ax: Axiom) -> str:
        return "asserted" if ax.args in self.asserted[ax.form] else "derived"

    def derived_counts(self) -> dict[str, int]:
        return {
            form.value: len(self.sets[form]) - len(self.asserted[form] & self.sets[form])
            for form in GCI_FORMS
        }


def compute_closure(kb: KnowledgeBase, sub: SubsumptionClosure,
                    max_derived: int = DEFAULT_MAX_DERIVED,
                    strict_printed_rules: bool = False) -> DeductiveClosure:
    """Expand the KB into per-form entailed-axiom sets (see module docstring)."""
    n = kb.sig.n_classes
    # C -> known subclasses of C; BOT's rows are tautologies and stay implicit
    down: list[list[int]] = [[] for _ in range(n)]
    for c in range(n):
        if c == BOT:
            continue
        for d in sub.superclasses_of(c):
            down[d].append(c)

    def up(c: int) -> set[int]:
        return sub.superclasses_of(c)

    sets: dict[Form, set[tuple[int, ...]]] = {form: set() for form in GCI_FORMS}
    budget = {"n": 0}

    def add(form: Form, args: tuple[int, ...]):
        # derived tuples with a BOT right-hand side live in their bottom form
        ax = make_axiom(form, args)
        dest = sets[ax.form]
        if ax.args not in dest:
            dest.add(ax.args)
            budget["n"] += 1
            if budget["n"] > max_derived:
                raise ClosureBudgetError(max_derived)

    for c in range(n):
        if c == BOT:
            continue
        for d in up(c):
            add(Form.GCI0, (c, d))

    for ax in kb.axioms[Form.GCI1]:
        c, d, e = ax.args
        for cp in down[c]:
            add(Form.GCI1, (cp, d, e))
    for ax in kb.axioms[Form.GCI2]:
        c, r, d = ax.args
        ups = up(d)
        for cp in down[c]:
            for dp in ups:
                add(Form.GCI2, (cp, r, dp))
    for ax in kb.axioms[Form.GCI3]:
        r, c, d = ax.args
        ups = up(d)
        for cp in down[c]:
            for dp in ups:
                add(Form.GCI3, (r, cp, dp))
    for ax in kb.axioms[Form.GCI0_BOT]:
        for cp in down[ax.args[0]]:
            add(Form.GCI0_BOT, (cp,))
    for ax in kb.axioms[Form.GCI3_BOT]:
        r, c = ax.args
        for cp in down[c]:
            add(Form.GCI3_BOT, (r, cp))
    for ax in kb.axioms[Form.GCI1_BOT]:
        add(Form.GCI1_BOT, ax.args)

    asserted = {form: {ax.args for ax in kb.axioms[form]} for form in GCI_FORMS}
    dc = DeductiveClosure(sig=kb.sig, sets=sets, asserted=asserted, sub=sub,
                          strict=strict_printed_rules)
    dc.stats = dc.derived_counts()
    return dc


def split_entailed(dc: DeductiveClosure, axioms: list[Axiom]) -> tuple[list[Axiom], list[Axiom]]:
    """Partition axioms into (entailed, novel) by closure membership, order kept."""
    entailed, novel = [], []
    for ax in axioms:
        (entailed if dc.contains(ax) else novel).append(ax)
    return entailed, novel


def dump_closure(dc: DeductiveClosure, path: str):
    """Per-form TSVs in the axiom format plus an asserted/derived column."""
    os.makedirs(path, exist_ok=True)
    for form in GCI_FORMS:
        fpath = os.path.join(path, f"closure_{form.value.lower()}.tsv")
        with open(fpath, "w", encoding="utf-8") as f:
            for args in sorted(dc.sets[form]):
                ax = Axiom(form, args)
                f.write(f"{format_axiom(ax, dc.sig)}\t{dc.provenance(ax)}\n")


def load_closure_dump(path: str, sig: Signature) -> DeductiveClosure:
    """Rebuild membership sets from dump files (no subsumption closure attached)."""
    from .axioms import ARITY, RELATION_SLOTS

    sets: dict[Form, set[tuple[int, ...]]] = {form: set() for form in GCI_FORMS}
    asserted: dict[Form, set[tuple[int, ...]]] = {form: set() for form in GCI_FORMS}
    found = False
    for form in GCI_FORMS:
        fpath = os.path.join(path, f"closure_{form.value.lower()}.tsv")
        if not os.path.exists(fpath):
            continue
        found = True
        rel_slots = RELATION_SLOTS.get(form, ())
        with open(fpath, encoding="utf-8") as f:
            for lineno, raw in enumerate(f, 1):
                raw = raw.rstrip("\n")
                if not raw:
                    continue
                fields = raw.split("\t")
                if len(fields) != ARITY[form] + 2 or fields[0] != form.value:
                    raise ValueError(f"{fpath}:{lineno}: malformed closure dump line")
                args = tuple(
                    sig.intern_relation(name) if slot in rel_slots else sig.intern_class(name)
                    for slot, name in enumerate(fields[1:-1])
                )
                sets[form].add(args)
                if fields[-1] == "asserted":
                    asserted[form].add(args)
    if not found:
        raise FileNotFoundError(f"no closure dump files in {path}")
    return DeductiveClosure(sig=sig, sets=sets, asserted=asserted, sub=None)
