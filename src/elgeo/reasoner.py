"""Saturation of a normalized knowledge base into the named-concept subsumption closure.

Completion rules over subsumer sets S(C) (seeded with {C, TOP}) and role
edge sets R(r):

  R1  D in S(C), C' sub D' via GCI0(D,E)            -> E in S(C)
  R2  D1,D2 in S(C), GCI1(D1,D2,E)                  -> E in S(C)
  R3  D in S(C), GCI2(D,r,E)                        -> (C,E) in R(r)
  R4  (C,D) in R(r), D' in S(D), GCI3(r,D',E)       -> E in S(C)
  R5  (C,D) in R(r), BOT in S(D)                    -> BOT in S(C)
  R6  the three bottom forms, analogously to R1/R2/R4 with E = BOT

Role inclusion axioms are parsed and stored but play no part here.  The
fixpoint is unique, so the worklist order does not affect the result.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .axioms import BOT, TOP, Form, Signature, format_row
from .dataset import KnowledgeBase


@dataclass
class SubsumptionClosure:
    """Derived subsumers per class; unsat classes additionally subsume everything."""

    sig: Signature
    subsumers: list[set[int]]
    unsat: set[int]

    def superclasses_of(self, c: int) -> set[int]:
        if c in self.unsat:
            return set(range(self.sig.n_classes))
        return self.subsumers[c]

    def pairs(self):
        """All derived subclass/superclass pairs, unsat classes expanded."""
        n = self.sig.n_classes
        for c in range(n):
            if c in self.unsat:
                for d in range(n):
                    yield c, d
            else:
                for d in self.subsumers[c]:
                    yield c, d


def saturate(kb: KnowledgeBase) -> SubsumptionClosure:
    n = kb.sig.n_classes
    subsumers: list[set[int]] = [set() for _ in range(n)]
    edges: set[tuple[int, int, int]] = set()     # (r, C, D)
    incoming: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # D -> [(r, C)]

    # axiom indexes, keyed by the slots that trigger each rule
    gci0_by_sub: dict[int, list[int]] = {}
    gci1_by_part: dict[int, list[tuple[int, int]]] = {}      # D1 -> [(D2, E)]
    gci2_by_sub: dict[int, list[tuple[int, int]]] = {}       # D -> [(r, E)]
    gci3_by_key: dict[tuple[int, int], list[int]] = {}       # (r, D') -> [E]
    gci0_bot: set[int] = set()
    gci1_bot_by_part: dict[int, list[int]] = {}              # D1 -> [D2]
    gci3_bot_keys: set[tuple[int, int]] = set()

    for c, d in kb.rows(Form.GCI0):
        gci0_by_sub.setdefault(c, []).append(d)
    for c, d, e in kb.rows(Form.GCI1):
        gci1_by_part.setdefault(c, []).append((d, e))
        if d != c:
            gci1_by_part.setdefault(d, []).append((c, e))
    for c, r, d in kb.rows(Form.GCI2):
        gci2_by_sub.setdefault(c, []).append((r, d))
    for r, c, d in kb.rows(Form.GCI3):
        gci3_by_key.setdefault((r, c), []).append(d)
    gci0_bot.update(c for c, in kb.rows(Form.GCI0_BOT))
    for c, d in kb.rows(Form.GCI1_BOT):
        gci1_bot_by_part.setdefault(c, []).append(d)
        if d != c:
            gci1_bot_by_part.setdefault(d, []).append(c)
    gci3_bot_keys.update(kb.rows(Form.GCI3_BOT))
    # classes D' that R4/R6 can fire on: fillers of some GCI3 or GCI3_BOT
    fillers = {dp for _, dp in gci3_by_key} | {dp for _, dp in gci3_bot_keys}

    work: deque = deque()

    def add_sub(c: int, d: int):
        if d not in subsumers[c]:
            subsumers[c].add(d)
            work.append(("s", c, d))

    def add_edge(r: int, c: int, d: int):
        if (r, c, d) not in edges:
            edges.add((r, c, d))
            incoming[d].append((r, c))
            work.append(("e", r, c, d))

    for c in range(n):
        add_sub(c, c)
        add_sub(c, TOP)

    while work:
        item = work.popleft()
        if item[0] == "s":
            _, c, d = item
            for e in gci0_by_sub.get(d, ()):
                add_sub(c, e)
            for other, e in gci1_by_part.get(d, ()):
                if other in subsumers[c]:
                    add_sub(c, e)
            for r, e in gci2_by_sub.get(d, ()):
                add_edge(r, c, e)
            if d in gci0_bot:
                add_sub(c, BOT)
            for other in gci1_bot_by_part.get(d, ()):
                if other in subsumers[c]:
                    add_sub(c, BOT)
            # d joined S(c): re-fire R4/R5/R6 for edges pointing at c
            if d == BOT or d in fillers:
                for r, src in tuple(incoming[c]):
                    for e in gci3_by_key.get((r, d), ()):
                        add_sub(src, e)
                    if (r, d) in gci3_bot_keys:
                        add_sub(src, BOT)
                    if d == BOT:
                        add_sub(src, BOT)
        else:
            _, r, c, d = item
            for dp in tuple(subsumers[d]):
                for e in gci3_by_key.get((r, dp), ()):
                    add_sub(c, e)
                if (r, dp) in gci3_bot_keys:
                    add_sub(c, BOT)
            if BOT in subsumers[d]:
                add_sub(c, BOT)

    unsat = {c for c in range(n) if BOT in subsumers[c]}
    return SubsumptionClosure(sig=kb.sig, subsumers=subsumers, unsat=unsat)


def dump_subsumptions(closure: SubsumptionClosure) -> str:
    """All derived pairs as GCI0 lines in the normalized axiom format."""
    return "".join(format_row(Form.GCI0, pair, closure.sig) + "\n" for pair in closure.pairs())
