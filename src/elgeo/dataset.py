"""Dataset directories: train/valid/test axiom files plus named candidate pools.

A dataset directory holds ``train.tsv`` (any normal forms) and optionally
``valid.tsv``/``test.tsv`` (completion targets, GCI2 only) and ``pools.tsv``
(lines ``pool_name<TAB>class_id``).  A pool named ``all`` is synthesized from
every non-reserved class unless the file defines its own.  A pool may name
classes that occur in no split; they are interned like any other class.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .axioms import (
    BOT, TOP, Axiom, Form, Signature,
    format_axiom, parse_normalized, serialize_normalized,
)


class DatasetError(Exception):
    pass


@dataclass
class KnowledgeBase:
    sig: Signature
    axioms: dict[Form, list[Axiom]]
    valid: list[Axiom] = field(default_factory=list)
    test: list[Axiom] = field(default_factory=list)
    pools: dict[str, list[int]] = field(default_factory=dict)

    @property
    def train_gci2(self) -> list[Axiom]:
        return self.axioms[Form.GCI2]

    def all_train_axioms(self) -> list[Axiom]:
        out = []
        for form in Form:
            out.extend(self.axioms[form])
        return out

    def form_counts(self) -> dict[str, int]:
        return {form.value: len(self.axioms[form]) for form in Form if self.axioms[form]}

    def pool(self, name: str | None = None) -> list[int]:
        key = name or "all"
        try:
            return self.pools[key]
        except KeyError:
            raise DatasetError(f"unknown pool: {key!r}") from None


def build_kb(sig: Signature, train: list[Axiom], valid=(), test=(),
             pools: dict[str, list[int]] | None = None) -> KnowledgeBase:
    """Assemble and validate a knowledge base from axiom lists."""
    by_form: dict[Form, list[Axiom]] = {form: [] for form in Form}
    for ax in train:
        by_form[ax.form].append(ax)
    kb = KnowledgeBase(sig=sig, axioms=by_form, valid=list(valid), test=list(test),
                       pools=dict(pools or {}))
    held_out: dict[tuple[int, ...], str] = {}   # GCI2 args -> first split holding them
    for split_name, split in (("valid", kb.valid), ("test", kb.test)):
        for ax in split:
            if ax.form is not Form.GCI2:
                raise DatasetError(
                    f"{split_name} split must contain GCI2 only: {format_axiom(ax, sig)}")
            prev = held_out.setdefault(ax.args, split_name)
            if prev != split_name:
                raise DatasetError(
                    f"axiom appears in both {prev} and {split_name}: {format_axiom(ax, sig)}")
    for ax in by_form[Form.GCI2]:   # only train's GCI2 axioms can repeat a held-out one
        prev = held_out.get(ax.args)
        if prev is not None:
            raise DatasetError(f"axiom appears in both train and {prev}: {format_axiom(ax, sig)}")
    if "all" not in kb.pools:
        kb.pools["all"] = [cid for cid in range(sig.n_classes) if cid not in (TOP, BOT)]
    for name, members in kb.pools.items():
        for cid in members:
            if not 0 <= cid < sig.n_classes:
                raise DatasetError(f"pool {name!r} references unknown class id {cid}")
    return kb


def _parse_pools(text: str, sig: Signature) -> dict[str, list[int]]:
    pools: dict[str, list[int]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip() or raw.startswith("#"):
            continue
        fields = raw.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise DatasetError(f"pools.tsv line {lineno}: expected 'pool_name<TAB>class_id'")
        members = pools.setdefault(fields[0], [])
        cid = sig.intern_class(fields[1])
        if cid not in members:
            members.append(cid)
    return pools


def load_dataset(path: str) -> KnowledgeBase:
    """Load a dataset directory into an indexed knowledge base."""
    train_path = os.path.join(path, "train.tsv")
    if not os.path.exists(train_path):
        raise DatasetError(f"missing train.tsv in {path}")
    sig = Signature()
    with open(train_path, encoding="utf-8") as f:
        train, _ = parse_normalized(f.read(), sig)
    splits = {}
    for name in ("valid", "test"):
        fpath = os.path.join(path, f"{name}.tsv")
        if os.path.exists(fpath):
            with open(fpath, encoding="utf-8") as f:
                splits[name], _ = parse_normalized(f.read(), sig)
        else:
            splits[name] = []
    pools_path = os.path.join(path, "pools.tsv")
    pools = None
    if os.path.exists(pools_path):
        with open(pools_path, encoding="utf-8") as f:
            pools = _parse_pools(f.read(), sig)
    return build_kb(sig, train, splits["valid"], splits["test"], pools)


def save_dataset(path: str, kb: KnowledgeBase):
    """Write a knowledge base back out as a dataset directory."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "train.tsv"), "w", encoding="utf-8") as f:
        f.write(serialize_normalized(kb.all_train_axioms(), kb.sig))
    for name, split in (("valid", kb.valid), ("test", kb.test)):
        if split:
            with open(os.path.join(path, f"{name}.tsv"), "w", encoding="utf-8") as f:
                f.write(serialize_normalized(split, kb.sig))
    named = {k: v for k, v in kb.pools.items() if k != "all"}
    if named:
        with open(os.path.join(path, "pools.tsv"), "w", encoding="utf-8") as f:
            for name, members in named.items():
                for cid in members:
                    f.write(f"{name}\t{kb.sig.class_name(cid)}\n")
