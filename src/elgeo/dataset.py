"""Dataset directories: train/valid/test axiom files plus named candidate pools.

A dataset directory holds ``train.tsv`` (any normal forms) and optionally
``valid.tsv``/``test.tsv`` (completion targets, GCI2 only) and ``pools.tsv``
(lines ``pool_name<TAB>class_id``).  A pool named ``all`` is synthesized from
every non-reserved class unless the file defines its own.  A pool may name
classes that occur in no split; they are interned like any other class.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .axioms import (
    ARITY, BOT, TOP, AxiomRows, Form, Rows, Signature, format_row, identifier_error,
    key_member, lines, pack_keys, parse_normalized, per_slot, rows_of,
)
from .manifest import read_text, write_atomic


class DatasetError(Exception):
    pass


@dataclass
class KnowledgeBase:
    """Train axioms per form, and the GCI2 valid and test splits, as ``AxiomRows``."""

    sig: Signature
    axioms: dict[Form, AxiomRows]
    valid: AxiomRows
    test: AxiomRows
    pools: dict[str, list[int]]

    @property
    def train_gci2(self) -> AxiomRows:
        return self.axioms[Form.GCI2]

    def rows(self, form: Form) -> list[tuple[int, ...]]:
        """The form's train axioms as id tuples holding one shared int object per id, so
        that the reasoner's indexes built from them keep no int object per row."""
        ints = list(range(max(self.sig.n_classes, self.sig.n_relations)))
        flat = map(ints.__getitem__, self.axioms[form].ids.ravel().tolist())
        return list(zip(*[flat] * ARITY[form]))

    def form_counts(self) -> dict[str, int]:
        return {form.value: len(self.axioms[form]) for form in Form if self.axioms[form]}

    def pool(self, name: str | None = None) -> list[int]:
        key = name or "all"
        try:
            return self.pools[key]
        except KeyError:
            raise DatasetError(f"unknown pool: {key!r}") from None


def _check_ids(name: str, rows: Rows, sig: Signature):
    """DatasetError naming the split's first axiom, in file order, with an id
    outside ``sig``: relation slots against its relations, the rest its classes."""
    tops = {form: per_slot(form, sig.n_classes, sig.n_relations) for form in rows.ids}
    if not any(((ids < 0) | (ids >= np.array(tops[form], dtype=np.int64))).any()
               for form, ids in rows.ids.items()):
        return
    for form, args in rows.in_order():
        for cid, top, kind in zip(args, tops[form], per_slot(form, "class", "relation")):
            if not 0 <= cid < top:
                raise DatasetError(f"{name} axiom {form.value} {args} references "
                                   f"unknown {kind} id {cid}")


def build_kb(sig: Signature, train: Rows, valid: Rows | None = None, test: Rows | None = None,
             pools: dict[str, list[int]] | None = None) -> KnowledgeBase:
    """Validate three splits, given as ``Rows``, and the named pools, and wrap them in
    a knowledge base; a missing split is empty.  An error names the first offending
    axiom in split and file order, or the first bad pool."""
    valid, test = (rows_of(()) if split is None else split for split in (valid, test))
    dims = (sig.n_classes, sig.n_relations)
    for name, split in (("train", train), ("valid", valid), ("test", test)):
        _check_ids(name, split, sig)
    # split -> sorted packed keys of its GCI2 rows; valid is checked against none
    held = {"valid": np.zeros(0, dtype=np.int64)}
    for name, (ids, forms) in (("valid", valid), ("test", test)):
        # only rows ahead of the first other form count, and those are GCI2
        bad = next((k for k, form in enumerate(forms) if form is not Form.GCI2), len(forms))
        rows = ids[Form.GCI2][:bad]
        keys = pack_keys(Form.GCI2, rows.T, *dims)
        clash = key_member(held["valid"], keys)
        if clash.any():
            raise DatasetError("axiom appears in both valid and test: "
                               f"{format_row(Form.GCI2, rows[clash.argmax()], sig)}")
        if bad < len(forms):   # the first row of another form is that form's first row
            raise DatasetError(f"{name} split must contain GCI2 only: "
                               f"{format_row(forms[bad], ids[forms[bad]][0], sig)}")
        held[name] = np.sort(keys)
    rows = train.ids[Form.GCI2]   # only train's GCI2 rows can repeat a held-out axiom
    in_valid, in_test = (key_member(held[name], pack_keys(Form.GCI2, rows.T, *dims))
                         for name in ("valid", "test"))
    if (in_valid | in_test).any():
        first = (in_valid | in_test).argmax()
        raise DatasetError(f"axiom appears in both train and "
                           f"{'valid' if in_valid[first] else 'test'}: "
                           f"{format_row(Form.GCI2, rows[first], sig)}")
    # each pool's members in first-appearance order, repeats dropped
    pools = {name: list(dict.fromkeys(members)) for name, members in (pools or {}).items()}
    for name, members in pools.items():
        # a pools.tsv line starting with '#', or blank, would be skipped, and a pool
        # with no member has no line at all
        reason = identifier_error(name) or (
            (not name.strip() or name.startswith("#")) and "it is blank or starts with '#'")
        if reason:
            raise DatasetError(f"pool name {name!r} is not an identifier: {reason}")
        if not members:
            raise DatasetError(f"pool {name!r} has no members")
        if BOT in members:   # the bottom rewrite leaves no axiom with a BOT consequent
            raise DatasetError(f"pool {name!r} holds BOT, which no axiom has as its consequent")
        for cid in members:
            if not 0 <= cid < sig.n_classes:
                raise DatasetError(f"pool {name!r} references unknown class id {cid}")
    if "all" not in pools:
        pools["all"] = _all_classes(sig)
    return KnowledgeBase(sig=sig, axioms={form: AxiomRows(form, ids)
                                          for form, ids in train.ids.items()},
                         valid=AxiomRows(Form.GCI2, valid.ids[Form.GCI2]),
                         test=AxiomRows(Form.GCI2, test.ids[Form.GCI2]), pools=pools)


def _all_classes(sig: Signature) -> list[int]:
    """The pool ``all`` unless a KB names its own: every class but TOP and BOT."""
    return [cid for cid in range(sig.n_classes) if cid not in (TOP, BOT)]


def _parse_pools(text: str, sig: Signature) -> dict[str, list[int]]:
    pools: dict[str, list[int]] = {}   # build_kb drops repeated members
    for lineno, fields in lines(text):
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise DatasetError(f"pools.tsv line {lineno}: expected 'pool_name<TAB>class_id'")
        pools.setdefault(fields[0], []).append(sig.intern_class(fields[1]))
    return pools


def load_dataset(path: str) -> KnowledgeBase:
    """Load a dataset directory into an indexed knowledge base."""
    if not os.path.exists(os.path.join(path, "train.tsv")):
        raise DatasetError(f"missing train.tsv in {path}")
    sig = Signature()
    paths = [os.path.join(path, f"{name}.tsv") for name in ("train", "valid", "test")]
    splits = [parse_normalized(read_text(p), sig)[0] if os.path.exists(p) else None
              for p in paths]
    pools_path = os.path.join(path, "pools.tsv")
    pools = _parse_pools(read_text(pools_path), sig) if os.path.exists(pools_path) else None
    return build_kb(sig, *splits, pools)


def save_dataset(path: str, kb: KnowledgeBase):
    """Write a knowledge base back out as a dataset directory, one file at a time
    through ``write_atomic``.  An empty split or an empty set of named pools
    removes the directory's file of that name, so that loading gives this KB."""
    os.makedirs(path, exist_ok=True)

    def lines(splits):
        for rows in splits:
            for args in rows.ids.tolist():
                yield format_row(rows.form, args, kb.sig) + "\n"

    named = {k: v for k, v in kb.pools.items() if k != "all" or v != _all_classes(kb.sig)}
    for name, chunks in (
            ("train", lines(kb.axioms.values())),
            ("valid", kb.valid and lines([kb.valid])),
            ("test", kb.test and lines([kb.test])),
            ("pools", named and (f"{pool}\t{kb.sig.class_name(cid)}\n"
                                 for pool, members in named.items() for cid in members))):
        fpath = os.path.join(path, f"{name}.tsv")
        if chunks:
            write_atomic(fpath, chunks)
        elif os.path.exists(fpath):
            os.remove(fpath)
