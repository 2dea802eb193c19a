"""Per-normal-form entailed axioms expanded from a KB and its subsumption closure.

One pass of slot-rewriting rules runs over every asserted axiom, with the
rewrite premises drawn from the (transitively closed) subsumption closure:

  GCI0      both slots        (subsumed into the absorbed closure pairs)
  GCI1      first slot down
  GCI2      head down, filler up
  GCI3      filler down, superclass up
  GCI0_BOT  class down
  GCI3_BOT  filler down

Because the premises are transitively closed, a second pass derives nothing new.  The
expansion is sound but not complete.  Each form is one sorted array of int64 keys
(``axioms.pack_keys``), expanded from its asserted rows in blocks of at most ``BLOCK``
rows, each deduplicated; blocks merge once those since the last merge outnumber its
keys, so memory stays near the keys' size.  The budget is checked after each form.
Membership, a binary search in the keys, reads them alone, so a loaded dump answers
like the computed closure.  A row of any form with BOT in an antecedent class slot
(``axioms.ANTECEDENT``) is a tautology, a member whether stored or not.  GCI1 is looked
up in either conjunct order; disjointness (GCI1_BOT) propagates down the hierarchy at
query time.  ``sets``, the one decoded view, is kept for ``perfbench/``; no library
code reads it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .axioms import (
    ANTECEDENT, ARITY, BOT, Axiom, Form, GCI_FORMS, Signature, format_row, key_member,
    lines, pack_keys, per_slot, runs,
)
from .dataset import KnowledgeBase
from .manifest import read_text, write_atomic, write_json
from .reasoner import SubsumptionClosure

DEFAULT_MAX_DERIVED = 10 ** 8
BUDGET_KEY = "closure.max_derived"
STATS_FILE = "closure_stats.json"
# Rows expanded, or dump lines formatted, at a time: bounds the transient arrays.
BLOCK = 1 << 16


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
    """Per-form sorted unique int64 keys of the entailed and of the asserted rows,
    packed over ``dims``, the class and relation counts.  ``sub`` is the subsumption
    closure they were expanded from (None for a loaded dump); membership never reads it.
    """

    sig: Signature
    dims: tuple[int, int]
    keys: dict[Form, np.ndarray]
    asserted_keys: dict[Form, np.ndarray]
    sub: SubsumptionClosure | None = None
    stats: dict[str, int] = field(default_factory=dict)

    def ids(self, form: Form, keys: np.ndarray) -> np.ndarray:
        """The (k, arity) id rows of ``form``'s ``keys``, in key order."""
        return np.stack(np.unravel_index(keys, per_slot(form, *self.dims)), axis=1)

    @property
    def sets(self) -> dict[Form, set[tuple[int, ...]]]:
        """Each form's entailed rows as id tuples, decoded on every read."""
        return {form: set(map(tuple, self.ids(form, k).tolist())) for form, k in self.keys.items()}

    def contains(self, query):
        """Entailment membership for the covered (GCI) forms: a bool array over the
        rows of an ``AxiomRows``, or one bool for an ``Axiom``."""
        form, one = query.form, isinstance(query, Axiom)
        if form not in GCI_FORMS:
            raise UnsupportedFormError(f"unsupported form: {form.value}")
        cols = np.array([query.args], dtype=np.int64).T if one else query.ids.T
        # BOT left of the inclusion makes a tautology, kept implicit
        hit = self._has(form, cols) | (cols[ANTECEDENT[form]] == BOT).any(axis=0)
        if form is Form.GCI1:
            hit |= self._has(form, cols[[1, 0, 2]])
        elif form is Form.GCI1_BOT:
            # an asserted disjointness of a and b holds for every pair below them
            (c, d), (a, b) = cols[:, :, None], self.ids(form, self.asserted_keys[form]).T
            below = self._below
            hit |= self._has(form, cols[::-1]) | (
                (below(c, a) & below(d, b)) | (below(c, b) & below(d, a))).any(axis=1)
        return bool(hit[0]) if one else hit

    def _has(self, form: Form, cols) -> np.ndarray:
        return key_member(self.keys[form], pack_keys(form, cols, *self.dims))

    def _below(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x is a subclass of y by the stored GCI0 and GCI0_BOT rows, broadcast."""
        x, y = np.broadcast_arrays(x, y)
        return np.where(y == BOT, self._has(Form.GCI0_BOT, (x,)), self._has(Form.GCI0, (x, y)))

    def derived_counts(self) -> dict[str, int]:
        return {form.value: int((~key_member(self.asserted_keys[form], self.keys[form])).sum())
                for form in GCI_FORMS}


def _unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` by one sort, many times faster than its hashing on int64 keys."""
    keys = np.sort(keys)
    return keys[np.append(True, keys[1:] != keys[:-1])] if len(keys) else keys


def _product(*slots) -> list[np.ndarray]:
    """Each row's slot-wise product, one id array per slot.  A slot is an id column, or
    a pair ``((offsets, members), col)``: row i takes each member of group ``col[i]``.
    Each pair repeats the rows so far, so the last one varies fastest."""
    row, picked = None, {}
    for j, slot in enumerate(slots):
        if isinstance(slot, tuple):
            (offsets, members), col = slot
            at = col if row is None else col[row]
            i, k = runs(offsets[at], offsets[at + 1])
            row = i if row is None else row[i]
            picked = {p: v[i] for p, v in picked.items()} | {j: members[k]}
    if row is None:
        return list(slots)
    return [picked[j] if j in picked else slot[row] for j, slot in enumerate(slots)]


def _blocks(slots):
    """``_product``'s slots cut into runs of rows that expand to at most BLOCK rows
    each; a row that expands past BLOCK is a run of its own.  No rows: one empty run."""
    sizes = np.ones(len(slots[0][1] if isinstance(slots[0], tuple) else slots[0]), np.int64)
    for (offsets, _), col in (slot for slot in slots if isinstance(slot, tuple)):
        sizes *= offsets[col + 1] - offsets[col]
    starts, hi = np.append(0, np.cumsum(sizes)), 0
    while hi == 0 or hi < len(sizes):
        lo, hi = hi, max(hi + 1, int(np.searchsorted(starts, starts[hi] + BLOCK, "right")) - 1)
        yield [(slot[0], slot[1][lo:hi]) if isinstance(slot, tuple) else slot[lo:hi]
               for slot in slots]


def compute_closure(kb: KnowledgeBase, sub: SubsumptionClosure,
                    max_derived: int = DEFAULT_MAX_DERIVED) -> DeductiveClosure:
    """Expand the KB into per-form entailed keys (see module docstring)."""
    n = kb.sig.n_classes
    dims = (n, kb.sig.n_relations)
    ups = [range(n) if c in sub.unsat else s for c, s in enumerate(sub.subsumers)]
    # every (class, superclass) pair in class order; BOT's rows are tautologies and stay
    # implicit.  up and down hold each class's superclasses and subclasses but BOT, as
    # (offsets, members)
    src = np.repeat(np.arange(n), [len(s) for s in ups])
    dst = np.fromiter(chain.from_iterable(ups), dtype=np.int64, count=len(src))
    unsat = np.bincount(src[dst == BOT], minlength=n) > 0
    up = np.searchsorted(src[dst != BOT], np.arange(n + 1)), dst[dst != BOT]
    keep = src != BOT
    order = np.argsort(dst[keep], kind="stable")
    down = np.searchsorted(dst[keep][order], np.arange(n + 1)), src[keep][order]
    keys: dict[Form, np.ndarray] = {}
    def put(form: Form, *expansions):
        parts = []
        for block in (block for slots in expansions for block in _blocks(slots)):
            parts.append(_unique(pack_keys(form, _product(*block), *dims)))
            if sum(map(len, parts[1:])) >= max(BLOCK, len(parts[0])):
                parts = [_unique(np.concatenate(parts))]
        keys[form] = parts[0] if len(parts) == 1 else _unique(np.concatenate(parts))
        if sum(map(len, keys.values())) > max_derived:
            raise ClosureBudgetError(max_derived)

    put(Form.GCI0, (src[keep & (dst != BOT)], dst[keep & (dst != BOT)]))
    c, d, e = kb.axioms[Form.GCI1].ids.T
    put(Form.GCI1, ((down, c), d, e))
    c2, r2, d2 = kb.axioms[Form.GCI2].ids.T
    put(Form.GCI2, ((down, c2), r2, (up, d2)))
    r3, c3, d3 = kb.axioms[Form.GCI3].ids.T
    put(Form.GCI3, (r3, (down, c3), (up, d3)))
    # A BOT right-hand side comes only from an unsatisfiable superclass: GCI0's
    # d and the filler dp of GCI2 and GCI3.  Those rows live in the bottom
    # forms (C below some R.BOT is itself empty).
    put(Form.GCI0_BOT, (src[keep & (dst == BOT)],), ((down, c2[unsat[d2]]),),
        ((down, kb.axioms[Form.GCI0_BOT].ids[:, 0]),))
    put(Form.GCI1_BOT, tuple(kb.axioms[Form.GCI1_BOT].ids.T))
    r, c = kb.axioms[Form.GCI3_BOT].ids.T
    put(Form.GCI3_BOT, (r3[unsat[d3]], (down, c3[unsat[d3]])), (r, (down, c)))

    asserted = {form: _unique(pack_keys(form, kb.axioms[form].ids.T, *dims)) for form in GCI_FORMS}
    dc = DeductiveClosure(kb.sig, dims, keys, asserted, sub)
    dc.stats = dc.derived_counts()
    return dc


def dump_closure(dc: DeductiveClosure, path: str):
    """Per-form TSVs in the axiom format plus an asserted/derived column, and
    ``closure_stats.json`` with the derived counts (never read back)."""
    os.makedirs(path, exist_ok=True)
    for form in GCI_FORMS:
        blocks = (dc.keys[form][lo:lo + BLOCK] for lo in range(0, len(dc.keys[form]), BLOCK))
        write_atomic(os.path.join(path, f"closure_{form.value.lower()}.tsv"), (
            f"{format_row(form, args, dc.sig)}\t{'asserted' if known else 'derived'}\n"
            for keys in blocks for args, known in zip(
                dc.ids(form, keys).tolist(), key_member(dc.asserted_keys[form], keys).tolist())))
    write_json(os.path.join(path, STATS_FILE), {"derived": dc.stats})


def load_closure_dump(path: str, sig: Signature) -> DeductiveClosure:
    """Rebuild the key arrays from dump files (no subsumption closure attached).

    Every form's file must be there: a missing one raises FileNotFoundError.
    Names are looked up, never interned: a name outside ``sig``, like a wrong
    form tag, field count or provenance (``asserted``/``derived``), raises a
    ValueError naming the file and line, and ``sig`` is left unchanged.
    """
    keys, asserted, dims = {}, {}, (sig.n_classes, sig.n_relations)
    for form in GCI_FORMS:
        fpath = os.path.join(path, f"closure_{form.value.lower()}.tsv")
        lookups = per_slot(form, sig.class_id, sig.relation_id)
        rows, marks = [], []
        for lineno, fields in lines(read_text(fpath)):
            if (len(fields) != ARITY[form] + 2 or fields[0] != form.value
                    or fields[-1] not in ("asserted", "derived")):
                raise ValueError(f"{fpath}:{lineno}: malformed closure dump line")
            try:
                rows += [id_of(name) for id_of, name in zip(lookups, fields[1:-1])]
            except KeyError as exc:
                raise ValueError(
                    f"{fpath}:{lineno}: {exc.args[0]}; the dump does not match "
                    "the dataset") from None
            marks.append(fields[-1] == "asserted")
        found = pack_keys(form, np.array(rows, dtype=np.int64).reshape(-1, ARITY[form]).T, *dims)
        keys[form] = _unique(found)
        asserted[form] = _unique(found[np.array(marks, dtype=bool)])
    return DeductiveClosure(sig, dims, keys, asserted)
