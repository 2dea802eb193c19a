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
are disabled by ``strict_printed_rules``.  Membership reads the stored sets
alone, and the dump records the strictness, so a closure loaded from its dump
answers like the computed one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import product

from .axioms import (
    ARITY, BOT, RELATION_SLOTS, Axiom, Form, GCI_FORMS, Signature, format_axiom,
)
from .dataset import KnowledgeBase
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
    strict: bool = False
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
        if self.strict:
            return args in stored
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

    for ax in kb.axioms[Form.GCI1]:
        c, d, e = ax.args
        grow(Form.GCI1, down[c], (d,), (e,))
    for ax in kb.axioms[Form.GCI2]:
        c, r, d = ax.args
        ups = up(d)
        if BOT in ups:
            grow(Form.GCI0_BOT, down[c])
            ups = ups - {BOT}
        grow(Form.GCI2, down[c], (r,), ups)
    for ax in kb.axioms[Form.GCI3]:
        r, c, d = ax.args
        ups = up(d)
        if BOT in ups:
            grow(Form.GCI3_BOT, (r,), down[c])
            ups = ups - {BOT}
        grow(Form.GCI3, (r,), down[c], ups)
    for ax in kb.axioms[Form.GCI0_BOT]:
        grow(Form.GCI0_BOT, down[ax.args[0]])
    for ax in kb.axioms[Form.GCI3_BOT]:
        r, c = ax.args
        grow(Form.GCI3_BOT, (r,), down[c])
    for ax in kb.axioms[Form.GCI1_BOT]:
        c, d = ax.args
        grow(Form.GCI1_BOT, (c,), (d,))

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
    """Per-form TSVs in the axiom format plus an asserted/derived column, and
    ``closure_stats.json`` with the derived counts and the strictness."""
    os.makedirs(path, exist_ok=True)
    for form in GCI_FORMS:
        fpath = os.path.join(path, f"closure_{form.value.lower()}.tsv")
        with open(fpath, "w", encoding="utf-8") as f:
            for args in sorted(dc.sets[form]):
                ax = Axiom(form, args)
                f.write(f"{format_axiom(ax, dc.sig)}\t{dc.provenance(ax)}\n")
    with open(os.path.join(path, STATS_FILE), "w", encoding="utf-8") as f:
        json.dump({"derived": dc.stats, "strict_printed_rules": dc.strict},
                  f, sort_keys=True, indent=2)
        f.write("\n")


def load_closure_dump(path: str, sig: Signature) -> DeductiveClosure:
    """Rebuild membership sets from dump files (no subsumption closure attached).

    Names are looked up, never interned: a name outside ``sig`` raises a
    ValueError naming the file and line, and ``sig`` is left unchanged.  The
    strictness comes from ``closure_stats.json``; a missing or malformed
    one raises ValueError.
    """
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
                try:
                    args = tuple(
                        sig.relation_id(name) if slot in rel_slots else sig.class_id(name)
                        for slot, name in enumerate(fields[1:-1])
                    )
                except KeyError as exc:
                    raise ValueError(
                        f"{fpath}:{lineno}: {exc.args[0]}; the dump does not match "
                        "the dataset") from None
                sets[form].add(args)
                if fields[-1] == "asserted":
                    asserted[form].add(args)
    if not found:
        raise FileNotFoundError(f"no closure dump files in {path}")
    spath = os.path.join(path, STATS_FILE)
    try:
        with open(spath, encoding="utf-8") as f:
            strict = json.load(f).get("strict_printed_rules")
    except FileNotFoundError:
        raise ValueError(f"{spath}: missing; the dump does not record its "
                         "strictness") from None
    except (ValueError, AttributeError):
        strict = None
    if not isinstance(strict, bool):
        raise ValueError(f"{spath}: expected a JSON object with a boolean "
                         "'strict_printed_rules'")
    return DeductiveClosure(sig=sig, sets=sets, asserted=asserted, sub=None, strict=strict)
