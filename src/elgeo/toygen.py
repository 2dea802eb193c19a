"""Bundled small datasets: a hand-built satisfiable KB and synthetic generators.

``basic`` is a fixed 20-class, 2-relation KB that a low-dimensional ball
embedding can drive to zero positive loss.  ``hierarchy`` implants chains of
subclasses plus relation edges at the chain bottoms, so entailed relation
axioms are plentiful; the test split holds entailed-but-unasserted edges.
``skew`` concentrates relation tails on a few frequent classes to expose the
frequency shortcut.  ``scale`` emits a large random edge set for capacity
checks.
"""

from __future__ import annotations

import numpy as np

from .axioms import Form, Signature, per_slot, rows_of
from .dataset import KnowledgeBase, build_kb


def _named(sig: Signature, form: Form, *names: str):
    """The (form, ids) pair of a row given by its names, interned in slot order."""
    interns = per_slot(form, sig.intern_class, sig.intern_relation)
    return form, tuple(intern(name) for intern, name in zip(interns, names))


def basic_kb() -> KnowledgeBase:
    """Fixed satisfiable KB: 20 classes, 2 relations, 60 train axioms."""
    sig = Signature()
    groups = [f"G{i}" for i in range(4)]
    members = [f"M{i:02d}" for i in range(15)]
    train = []
    # one broad class above everything
    for g in groups:
        train.append(_named(sig, Form.GCI0, g, "U"))
    for i, m in enumerate(members):
        train.append(_named(sig, Form.GCI0, m, groups[i % 4]))
    for m in members[:9]:
        train.append(_named(sig, Form.GCI0, m, "U"))
    # conjunctions land in the broad class
    train.append(_named(sig, Form.GCI1, "G0", "G1", "U"))
    train.append(_named(sig, Form.GCI1, "G2", "G3", "U"))
    # relation edges: members point at the next group, groups point up
    for i, m in enumerate(members):
        train.append(_named(sig, Form.GCI2, m, "r1", groups[(i + 1) % 4]))
    for g in groups:
        train.append(_named(sig, Form.GCI3, "r1", g, "U"))
    for m in members[:10]:
        train.append(_named(sig, Form.GCI2, m, "r2", "U"))
    # one disjointness between groups with no shared members
    train.append(_named(sig, Form.GCI1_BOT, "G0", "G2"))

    valid = [_named(sig, Form.GCI2, "M00", "r1", "U"), _named(sig, Form.GCI2, "M01", "r1", "U")]
    test = [_named(sig, Form.GCI2, "M02", "r1", "U"), _named(sig, Form.GCI2, "M03", "r1", "U")]
    return build_kb(sig, rows_of(train), rows_of(valid), rows_of(test))


def hierarchy_kb(n_chains: int = 6, depth: int = 8, n_heads: int = 12,
                 density: float = 0.0, seed: int = 0) -> KnowledgeBase:
    """Chains of tail classes plus head classes with bottom-of-chain edges.

    Each head asserts an edge to the bottom class of its chain, entailing the
    edge to every class above it; the test split takes one such entailed edge
    per head.  ``density`` adds that fraction of extra random (novel) edges.
    """
    for need, got, ok in (("n_chains >= 1", n_chains, n_chains >= 1),
                          ("depth >= 2", depth, depth >= 2),
                          ("n_heads >= 1", n_heads, n_heads >= 1),
                          ("a finite density >= 0", density, 0 <= density < np.inf)):
        if not ok:
            raise ValueError(f"hierarchy_kb needs {need}, got {got!r}")
    rng = np.random.default_rng(seed)
    sig = Signature()
    train = []
    tails = [[f"T{c}_{k}" for k in range(depth)] for c in range(n_chains)]
    heads = [f"H{i}" for i in range(n_heads)]
    for chain in tails:
        for low, high in zip(chain, chain[1:]):
            train.append(_named(sig, Form.GCI0, low, high))
    test = []
    for i, h in enumerate(heads):
        chain = tails[i % n_chains]
        train.append(_named(sig, Form.GCI2, h, "r", chain[0]))
        probe = int(rng.integers(1, depth))
        test.append(_named(sig, Form.GCI2, h, "r", chain[probe]))
    n_extra = int(density * n_heads)
    flat = [t for chain in tails for t in chain]
    seen = set(train) | set(test)
    for _ in range(n_extra):
        h = heads[int(rng.integers(n_heads))]
        t = flat[int(rng.integers(len(flat)))]
        ax = _named(sig, Form.GCI2, h, "r", t)
        if ax not in seen:
            seen.add(ax)
            train.append(ax)
    pools = {"tails": [sig.class_id(t) for t in flat]}
    return build_kb(sig, rows_of(train), test=rows_of(test), pools=pools)


def skew_kb(seed: int = 0) -> KnowledgeBase:
    """Edges whose tails follow a power-law: a few tails soak up most edges."""
    n_heads, n_tails, n_train, n_test, alpha = 40, 30, 200, 40, 2.0
    rng = np.random.default_rng(seed)
    sig = Signature()
    heads = [f"P{i:03d}" for i in range(n_heads)]
    tails = [f"F{i:03d}" for i in range(n_tails)]
    for name in heads + tails:
        sig.intern_class(name)
    weights = 1.0 / np.arange(1, n_tails + 1) ** alpha
    weights /= weights.sum()
    seen = set()
    train, test = [], []
    while len(train) < n_train or len(test) < n_test:
        h = heads[int(rng.integers(n_heads))]
        t = tails[int(rng.choice(n_tails, p=weights))]
        if (h, t) in seen:
            continue
        seen.add((h, t))
        if len(train) < n_train:
            train.append(_named(sig, Form.GCI2, h, "r", t))
        else:
            test.append(_named(sig, Form.GCI2, h, "r", t))
    pools = {"tails": [sig.class_id(t) for t in tails]}
    return build_kb(sig, rows_of(train), test=rows_of(test), pools=pools)


def scale_kb(n_classes: int = 3000, n_edges: int = 300_000, seed: int = 0) -> KnowledgeBase:
    """Large random GCI2 edge set for memory/throughput checks."""
    if n_edges > n_classes ** 2:
        raise ValueError(f"cannot draw {n_edges} distinct edges among {n_classes} classes")
    rng = np.random.default_rng(seed)
    sig = Signature()
    names = [f"C{i:05d}" for i in range(n_classes)]
    for name in names:
        sig.intern_class(name)
    rel = sig.intern_relation("r")
    lo = 2  # first non-reserved class id
    pairs: dict[tuple[int, int], None] = {}   # distinct (head, tail) pairs in draw order
    while len(pairs) < n_edges:
        chunk = rng.integers(lo, lo + n_classes, size=(n_edges, 2))
        pairs.update(dict.fromkeys(map(tuple, chunk.tolist())))
    return build_kb(sig, rows_of((Form.GCI2, (h, rel, t)) for h, t in list(pairs)[:n_edges]))

