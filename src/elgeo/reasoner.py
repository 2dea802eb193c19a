"""Saturation of a normalized knowledge base into the named-concept subsumption closure.

Completion rules over subsumer sets S(C) (seeded with {C, TOP}) and role
edge sets R(r):

  R1  D in S(C), C' sub D' via GCI0(D,E)            -> E in S(C)
  R2  D1,D2 in S(C), GCI1(D1,D2,E)                  -> E in S(C)
  R3  D in S(C), GCI2(D,r,E)                        -> (C,E) in R(r)
  R4  (C,D) in R(r), D' in S(D), GCI3(r,D',E)       -> E in S(C)
  R5  (C,D) in R(r), BOT in S(D)                    -> BOT in S(C)
  R6  the three bottom forms, analogously to R1/R2/R4 with E = BOT

Each class that triggers a rule has one rule table, and R4-R6 read one map
D' -> [E ...] per relation, so a new edge (C,D) in R(r) meets S(D) in one set
intersection with that map's keys.  Role inclusion axioms are parsed and
stored but play no part here.  The fixpoint is unique, so the order of the
work stacks does not affect the result.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .axioms import BOT, TOP, Form, Signature, format_row
from .dataset import KnowledgeBase


@dataclass
class SubsumptionClosure:
    """Derived subsumers per class; unsat classes are also subsumed by every class."""

    sig: Signature
    subsumers: list[set[int]]
    unsat: set[int]

    def pairs(self):
        """All derived subclass/superclass pairs in id order, unsat classes expanded."""
        n = self.sig.n_classes
        for c in range(n):
            if c in self.unsat:
                for d in range(n):
                    yield c, d
            else:
                for d in sorted(self.subsumers[c]):
                    yield c, d


def saturate(kb: KnowledgeBase) -> SubsumptionClosure:
    n = kb.sig.n_classes
    # rules[d] = (R1 targets, R2 (other part, E) pairs, R3 (r, E) pairs) for each class d
    # that triggers them; the BOT forms are the rules with E = BOT
    rules: defaultdict[int, tuple[list, list, list]] = defaultdict(lambda: ([], [], []))
    # fillers[r][D'] = [E ...] for R4/R6; R5 is the filler BOT with E = BOT in every relation
    fillers: list[dict[int, list[int]]] = [{BOT: [BOT]} for _ in range(kb.sig.n_relations)]

    def rows(form):   # a form's train axioms as id lists, each freed after its loop
        return kb.axioms[form].ids.tolist()

    for c, d in rows(Form.GCI0) + [(c, BOT) for c, in rows(Form.GCI0_BOT)]:
        rules[c][0].append(d)
    for c, d, e in rows(Form.GCI1) + [(c, d, BOT) for c, d in rows(Form.GCI1_BOT)]:
        rules[c][1].append((d, e))
        if d != c:
            rules[d][1].append((c, e))
    for c, r, d in rows(Form.GCI2):
        rules[c][2].append((r, d))
    for r, c, d in rows(Form.GCI3) + [(r, c, BOT) for r, c in rows(Form.GCI3_BOT)]:
        fillers[r].setdefault(c, []).append(d)
    # one rule table per class that triggers any rule, the last entry saying whether it
    # triggers R4-R6; None for every other class
    filler_classes = set().union(*fillers)
    table = [(*rules[d], d in filler_classes) if d in rules or d in filler_classes else None
             for d in range(n)]

    subsumers: list[set[int]] = [{c, TOP} for c in range(n)]
    incoming: list[list[tuple[int, int]]] = [[] for _ in range(n)]     # D -> [(r, C)]
    edge_keys: set[int] = set()        # (r, C, D) as one int: no tuple per edge is kept
    todo = [(c, d) for c in range(n) for d in subsumers[c] if table[d] is not None]
    edges: list[tuple[int, int, int]] = []                                # (r, C, D)
    while todo or edges:
        if edges:
            # R4-R6 on a new edge: the subsumers of D that are fillers of r, set at a time
            r, c, d = edges.pop()
            filler = fillers[r]
            for dp in filler.keys() & subsumers[d]:
                _derive(c, filler[dp], subsumers, table, todo)
            continue
        c, d = todo.pop()
        told, pairs, exists, is_filler = table[d]
        if told:
            _derive(c, told, subsumers, table, todo)
        if pairs:
            s_c = subsumers[c]
            _derive(c, [e for other, e in pairs if other in s_c], subsumers, table, todo)
        for r, e in exists:
            key = (r * n + c) * n + e
            if key not in edge_keys:
                edge_keys.add(key)
                incoming[e].append((r, c))
                edges.append((r, c, e))
        if is_filler:
            # d joined S(c): R4-R6 for the edges that point at c
            for r, src in incoming[c]:
                if d in fillers[r]:
                    _derive(src, fillers[r][d], subsumers, table, todo)

    unsat = {c for c in range(n) if BOT in subsumers[c]}
    return SubsumptionClosure(sig=kb.sig, subsumers=subsumers, unsat=unsat)


def _derive(c: int, targets, subsumers: list[set[int]], table: list, todo: list):
    """Add targets to S(c); queue each new one that triggers a rule."""
    s_c = subsumers[c]
    for e in targets:
        if e not in s_c:
            s_c.add(e)
            if table[e] is not None:
                todo.append((c, e))


def dump_subsumptions(closure: SubsumptionClosure) -> str:
    """All derived pairs as GCI0 lines in the normalized axiom format."""
    return "".join(format_row(Form.GCI0, pair, closure.sig) + "\n" for pair in closure.pairs())
